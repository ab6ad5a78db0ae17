"""Oracle property test: the audit log against the eager-record reference.

``AuditLog`` keeps decision ids into a table of interned field tuples,
timestamps and one chain hash per ``_CHECKPOINT`` entries, chains in
bounded batches and builds ``AuditRecord`` objects only for readers.  The
reference below is the earlier implementation, copied verbatim: it built
one record per entry whenever the chain was read.  Hypothesis drives both
through the same interleavings of ``append``, ``append_buffered``, clock
advances and every reader, with the chaining batch and the checkpoint
interval shrunk to a few entries as well as at their real sizes; each
reader, ``len``, ``chain_head``, ``decision_chain_hash`` and
``verify_chain`` must agree.  ``1``, ``True`` and ``1.0`` are all instances, so a field tuple
shared between entries that encode differently shows up as a difference.
The tamper scenarios then check that both ``verify_chain`` and
``AuditAnchor.verify`` catch what they caught before.  Last, the two-call
write path (``intern`` then ``append_id``, with the caller keeping ids the
way the monitor's cached allows do) must append the same bytes, charge
the same cost and read back the same as ``append_buffered`` and the
reference, and a table tuple edited after its entries were appended must
fail ``verify_chain``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import List
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import audit
from repro.core.anchor import AuditAnchor
from repro.core.hwroot import HardwareRoot
from repro.crypto.random_source import RandomSource
from repro.sim import timing as _timing
from repro.sim.clock import VirtualClock
from repro.sim.timing import CostModel, TimingContext, charge, context_scope

# -- the reference: the eager-record log, verbatim --------------------------------

GENESIS = hashlib.sha256(b"vtpm-audit-genesis").digest()


@dataclass(frozen=True, slots=True)
class AuditRecord:
    """One immutable audit entry."""

    sequence: int
    timestamp_us: float
    subject: str            # identity hex (or 'dom<N>' pre-identity)
    instance: object
    operation: str          # ordinal name
    allowed: bool
    reason: str
    chain_hash: bytes = b""

    def encode(self) -> bytes:
        return (
            f"{self.sequence}|{self.timestamp_us:.3f}|{self.subject}|"
            f"{self.instance}|{self.operation}|"
            f"{'ALLOW' if self.allowed else 'DENY'}|{self.reason}"
        ).encode("utf-8")

    def encode_decision(self) -> bytes:
        """The timestamp-free encoding: only decision-relevant fields.

        Two runs that take different amounts of *virtual time* but make
        the same decisions (e.g. authz cache on vs off) agree on this
        encoding while their full chains legitimately differ.
        """
        return (
            f"{self.sequence}|{self.subject}|{self.instance}|"
            f"{self.operation}|{'ALLOW' if self.allowed else 'DENY'}|"
            f"{self.reason}"
        ).encode("utf-8")


class AuditLog:
    """The manager's append-only decision log."""

    __slots__ = ("_flushed", "_pending", "_chain_head")

    def __init__(self) -> None:
        self._flushed: List[AuditRecord] = []
        #: appended-but-not-yet-chained entries:
        #: (sequence, timestamp_us, subject, instance, op, allowed, reason, encoded)
        self._pending: List[tuple] = []
        self._chain_head = GENESIS

    # -- the write path ----------------------------------------------------------

    def append_buffered(
        self,
        subject: str,
        instance: object,
        operation: str,
        allowed: bool,
        reason: str,
    ) -> None:
        """Record a decision without extending the hash chain yet.

        The encoded bytes (and therefore the eventual chain hash) are fully
        determined here; only the SHA-256 work is deferred to the next read.
        """
        pending = self._pending
        sequence = len(self._flushed) + len(pending)
        timestamp_us = _timing._current_context.clock.now_us
        encoded = (
            f"{sequence}|{timestamp_us:.3f}|{subject}|"
            f"{instance}|{operation}|"
            f"{'ALLOW' if allowed else 'DENY'}|{reason}"
        ).encode("utf-8")
        charge("ac.audit.append", len(encoded))
        pending.append(
            (sequence, timestamp_us, subject, instance, operation, allowed,
             reason, encoded)
        )

    def append(
        self,
        subject: str,
        instance: object,
        operation: str,
        allowed: bool,
        reason: str,
    ) -> AuditRecord:
        """Append and chain immediately; returns the finished record."""
        self.append_buffered(subject, instance, operation, allowed, reason)
        self._flush()
        return self._flushed[-1]

    def _flush(self) -> None:
        """Extend the chain over every pending entry (one tight loop)."""
        if not self._pending:
            return
        head = self._chain_head
        sha256 = hashlib.sha256
        flushed = self._flushed
        for (sequence, timestamp_us, subject, instance, operation, allowed,
             reason, encoded) in self._pending:
            head = sha256(head + encoded).digest()
            flushed.append(
                AuditRecord(
                    sequence=sequence,
                    timestamp_us=timestamp_us,
                    subject=subject,
                    instance=instance,
                    operation=operation,
                    allowed=allowed,
                    reason=reason,
                    chain_hash=head,
                )
            )
        self._pending.clear()
        self._chain_head = head

    # -- internal views (tests poke these; keep them flush-consistent) ----------

    @property
    def _records(self) -> List[AuditRecord]:
        self._flush()
        return self._flushed

    @_records.setter
    def _records(self, value: List[AuditRecord]) -> None:
        self._flush()
        self._flushed = list(value)

    @property
    def _head(self) -> bytes:
        self._flush()
        return self._chain_head

    @_head.setter
    def _head(self, value: bytes) -> None:
        self._flush()
        self._chain_head = value

    # -- verification -----------------------------------------------------------

    def chain_head(self) -> bytes:
        """The current chain head (flushes pending entries first)."""
        self._flush()
        return self._chain_head

    def decision_chain_hash(self) -> bytes:
        """Chain hash over the timestamp-free decision encodings.

        The differential oracle compares this across configurations whose
        virtual-time costs differ by design (decision cache on vs off):
        equality means every record agrees on sequence, subject, instance,
        operation, verdict and reason — everything but the clock.
        """
        head = GENESIS
        for record in self._records:
            head = hashlib.sha256(head + record.encode_decision()).digest()
        return head

    def verify_chain(self) -> bool:
        """Recompute the whole chain; False means tampering."""
        self._flush()
        head = GENESIS
        for record in self._flushed:
            head = hashlib.sha256(head + record.encode()).digest()
            if head != record.chain_hash:
                return False
        return head == self._chain_head

    # -- queries -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._flushed) + len(self._pending)

    def records(self) -> List[AuditRecord]:
        return list(self._records)

    def denials(self) -> List[AuditRecord]:
        return [r for r in self._records if not r.allowed]

    def for_subject(self, subject: str) -> List[AuditRecord]:
        return [r for r in self._records if r.subject == subject]

    def for_instance(self, instance: object) -> List[AuditRecord]:
        return [r for r in self._records if r.instance == instance]

    def tail(self, count: int = 10) -> List[AuditRecord]:
        return self._records[-count:]


# -- driving both logs ---------------------------------------------------------------

SUBJECTS = ["dom0", "dom3", "a1b2c3d4", "ünïcode"]
INSTANCES = [0, 1, True, 1.0, 7, "vtpm-2", None]
fields = st.tuples(
    st.sampled_from(SUBJECTS),
    st.sampled_from(INSTANCES),
    st.sampled_from(["TPM_Extend", "TPM_PCRRead", "TPM_OwnerClear"]),
    st.booleans(),
    st.sampled_from(["granted:r1", "no-grant", "binding-mismatch", "a|b"]),
)
READERS = [
    "records", "tail", "denials", "for_subject", "for_instance", "len",
    "chain_head", "decision_chain_hash", "verify_chain", "head_at", "count",
]
step = st.one_of(
    st.tuples(st.just("append"), fields),
    st.tuples(st.just("append_buffered"), fields),
    st.tuples(st.just("advance"), st.floats(0.0, 5_000.0)),
    st.tuples(st.sampled_from(READERS), st.integers(0, 40)),
)


def _fields(record) -> tuple:
    """A record of either implementation as a plain field tuple, with each
    field's type so that ``1`` and ``True`` do not compare equal."""
    fields = dataclasses.astuple(record)
    return fields, tuple(type(field) for field in fields)


def _head_at(log, sequence: int) -> bytes:
    """``head_at`` for either implementation (the reference predates it)."""
    sequence = min(sequence, len(log))
    if isinstance(log, audit.AuditLog):
        return log.head_at(sequence)
    return log.records()[sequence - 1].chain_hash if sequence else GENESIS


def _read(log, name: str, arg: int):
    if name == "tail":
        return [_fields(r) for r in log.tail(1 + arg % 6)]
    if name == "for_subject":
        return [_fields(r) for r in log.for_subject(SUBJECTS[arg % 4])]
    if name == "for_instance":
        return [_fields(r)
                for r in log.for_instance(INSTANCES[arg % len(INSTANCES)])]
    if name == "head_at":
        return _head_at(log, arg)
    if name == "count":
        # one subject's entries and every denial, read off the
        # (subject, instance, operation, allowed, reason) tuple
        subject = SUBJECTS[arg % 4]

        def keep(decision):
            return decision[0] == subject or not decision[3]

        if isinstance(log, audit.AuditLog):
            return log.count(keep)
        return sum(
            1 for r in log.records()
            if keep(dataclasses.astuple(r)[2:7])
        )
    if name == "len":
        return len(log)
    result = getattr(log, name)()
    if isinstance(result, list):
        return [_fields(r) for r in result]
    return result


def _run(log, steps) -> list:
    """Drive ``log`` on a fresh clock; returns every observation in order."""
    seen = []
    ctx = TimingContext(model=CostModel(), clock=VirtualClock())
    with context_scope(ctx):
        for name, arg in steps:
            if name == "advance":
                ctx.clock.advance(arg)
            elif name == "append":
                seen.append((name, _fields(log.append(*arg))))
            elif name == "append_buffered":
                log.append_buffered(*arg)
            else:
                seen.append((name, _read(log, name, arg)))
        for name in READERS:
            seen.append((name, _read(log, name, 0)))
        seen.append(("clock", ctx.clock.now_us))
    return seen


CHECKPOINTS = st.sampled_from([1, 2, 3, audit._CHECKPOINT])


@settings(max_examples=150, deadline=None)
@given(st.lists(step, max_size=40),
       st.sampled_from([1, 2, 3, audit._CHAIN_BATCH]), CHECKPOINTS)
def test_every_reader_matches_the_reference(steps, batch, checkpoint):
    with mock.patch.object(audit, "_CHAIN_BATCH", batch), \
            mock.patch.object(audit, "_CHECKPOINT", checkpoint):
        assert _run(audit.AuditLog(), steps) == _run(AuditLog(), steps)


# -- tampering -----------------------------------------------------------------------


def _anchor() -> AuditAnchor:
    hw = HardwareRoot(RandomSource(b"prop-audit-anchor"))
    return AuditAnchor(hw, b"A" * 20, b"C" * 20)


def _edit_reason(log, victim: int) -> None:
    if isinstance(log, audit.AuditLog):
        fields = log._table[log._ids[victim]]
        log._table.append(fields[:4] + (fields[4] + "-edited",))
        log._ids[victim] = len(log._table) - 1
    else:
        log._records[victim] = dataclasses.replace(
            log._records[victim], reason=log._records[victim].reason + "-edited"
        )


def _drop_last(log, _victim: int) -> None:
    if isinstance(log, audit.AuditLog):
        log._ids.pop()
        log._times.pop()
    else:
        log._records.pop()


def _truncate(log, keep: int) -> None:
    """Cut the log to ``keep`` entries with a matching head: the chain is
    self-consistent again, which is what the hardware anchor is for."""
    if isinstance(log, audit.AuditLog):
        head = log.head_at(keep)
        del log._ids[keep:]
        del log._times[keep:]
        del log._checkpoints[keep // audit._CHECKPOINT * 32:]
        log._head = head
    else:
        log._records = log._records[:keep]
        log._head = log._records[-1].chain_hash if keep else GENESIS


@settings(max_examples=30, deadline=None)
@given(
    st.lists(fields, min_size=2, max_size=12),
    st.sampled_from(["edit", "drop-last", "truncate"]),
    st.booleans(),
    CHECKPOINTS,
    st.data(),
)
def test_tampering_is_caught(entries, scenario, chained, checkpoint, data):
    victim = data.draw(st.integers(0, len(entries) - 2))
    tamper = {"edit": _edit_reason, "drop-last": _drop_last,
              "truncate": _truncate}[scenario]
    logs = (audit.AuditLog(), AuditLog())
    anchor = _anchor()
    with context_scope(TimingContext(model=CostModel(), clock=VirtualClock())), \
            mock.patch.object(audit, "_CHECKPOINT", checkpoint):
        for log in logs:
            for fields_ in entries:
                if chained:
                    log.append(*fields_)
                else:
                    log.append_buffered(*fields_)
        anchor.anchor(logs[0])
        for log in logs:
            tamper(log, victim)
        ok, reason = anchor.verify(logs[0])
        intact = [log.verify_chain() for log in logs]
    assert not ok, reason
    if scenario == "truncate":
        # A consistent shorter chain: only the anchor can tell.
        assert intact == [True, True]
        assert "truncated" in reason
    else:
        assert intact == [False, False]
        assert "chain broken" in reason


# -- the two-call write path ----------------------------------------------------------

#: ``1``, ``1.0`` and ``True`` encode differently but compare equal, as do
#: the verdicts ``True`` and ``1``; ``"1"`` is a ``str`` beside the ints
DECISIONS = st.tuples(
    st.sampled_from(SUBJECTS),
    st.sampled_from([1, 1.0, True, 2, "1", "vtpm-2"]),
    st.sampled_from(["TPM_Extend", "TPM_PCRRead"]),
    st.sampled_from([True, False, 1, 0]),
    st.sampled_from(["granted:r1", "no-grant", "a|b"]),
)
#: (decision, virtual us before it, whether the caller re-interns it
#: rather than reusing the id it kept)
WRITES = st.lists(
    st.tuples(DECISIONS, st.floats(0.0, 5_000.0), st.booleans()),
    max_size=50,
)


def _typed(fields: tuple) -> tuple:
    return fields, tuple(type(field) for field in fields)


def _write(log, writes) -> tuple:
    """Append ``writes`` on a fresh clock, by fields or (for ``by_id``) by
    interned id; returns the encoded entries and the final clock."""
    ctx = TimingContext(model=CostModel(), clock=VirtualClock())
    kept = {}
    with context_scope(ctx):
        for fields_, advance, reintern in writes:
            ctx.clock.advance(advance)
            if isinstance(log, AuditLog):
                log.append_buffered(*fields_)
                continue
            key = _typed(fields_)
            ident = kept.get(key)
            if ident is None or reintern:
                ident = kept[key] = log.intern(*fields_)
            log.append_id(ident)
        encoded = (
            [pending[7] for pending in log._pending]
            if isinstance(log, AuditLog) else list(log._unchained)
        )
        return encoded, ctx.clock.now_us


def _observe(log) -> tuple:
    return (
        [_fields(r) for r in log.records()], log.chain_head(),
        log.decision_chain_hash(), log.verify_chain(),
    )


@settings(max_examples=150, deadline=None)
@given(WRITES, CHECKPOINTS)
def test_intern_and_append_id_match_append_buffered(writes, checkpoint):
    by_fields, by_id, reference = audit.AuditLog(), audit.AuditLog(), AuditLog()
    with mock.patch.object(audit, "_CHECKPOINT", checkpoint):
        # every entry stays buffered, so the encoded bytes can be compared
        assert len(writes) < audit._CHAIN_BATCH
        written = [_write(log, writes) for log in (by_fields, by_id, reference)]
        assert written[0] == written[1] == written[2]
        seen = [_observe(log) for log in (by_fields, by_id, reference)]
    assert seen[0] == seen[1] == seen[2]
    assert seen[1][3] is True


def _retyped(fields: tuple) -> tuple:
    """``fields`` with a change that alters its encoding."""
    subject, instance, operation, allowed, reason = fields
    if isinstance(instance, bool):
        return (subject, int(instance) + 1, operation, allowed, reason)
    if isinstance(instance, (int, float)):
        return (subject, True, operation, allowed, reason)
    return (subject, instance, operation, not allowed, reason)


@settings(max_examples=60, deadline=None)
@given(WRITES.filter(bool), st.booleans(), CHECKPOINTS, st.data())
def test_a_table_edited_after_append_id_fails_verification(
    writes, chained, checkpoint, data
):
    log = audit.AuditLog()
    with mock.patch.object(audit, "_CHECKPOINT", checkpoint):
        _write(log, writes)
        if chained:
            log.chain_head()
        assert log.verify_chain()
        ident = log._ids[data.draw(st.integers(0, len(log) - 1))]
        log._table[ident] = _retyped(log._table[ident])
        assert not log.verify_chain()


# -- mixed-type streams ---------------------------------------------------------------

#: runs of one decision: equal fields of different types, repeated
RUNS = st.lists(
    st.tuples(DECISIONS, st.integers(1, 60), st.floats(0.0, 50.0)),
    min_size=1, max_size=20,
)


@settings(max_examples=60, deadline=None)
@given(RUNS, CHECKPOINTS)
def test_mixed_type_streams_keep_one_tuple_per_typed_decision(runs, checkpoint):
    writes = [
        (decision, advance, True)
        for decision, count, advance in runs for _ in range(count)
    ]
    log, reference = audit.AuditLog(), AuditLog()
    with mock.patch.object(audit, "_CHECKPOINT", checkpoint):
        assert len(writes) < audit._CHAIN_BATCH
        written = [_write(each, writes) for each in (log, reference)]
        assert written[0] == written[1]
        seen = [_observe(each) for each in (log, reference)]
    assert seen[0] == seen[1]
    assert seen[0][3] is True
    typed = {_typed(decision) for decision, _count, _advance in runs}
    assert len(log._table) == len(log._suffixes) == len(typed)


def test_equal_decisions_of_another_type_share_one_new_tuple():
    log = audit.AuditLog()
    with context_scope(TimingContext(model=CostModel(), clock=VirtualClock())):
        log.append_buffered("s", 1, "TPM_Extend", True, "r")
        for _ in range(1_000):
            log.append_buffered("s", True, "TPM_Extend", True, "r")
        assert log.verify_chain()
    assert len(log._table) == len(log._suffixes) == 2
    assert [type(fields[1]) for fields in log._table] == [int, bool]
