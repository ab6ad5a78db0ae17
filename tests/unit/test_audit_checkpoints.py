"""The audit log's stored checkpoints against an eager SHA-256 chain.

``AuditLog`` keeps one chain hash per ``_CHECKPOINT`` entries plus the
head and re-derives every other hash on read.  These tests hold each
reader to a chain computed here, entry by entry, over the first
``3 * _CHECKPOINT + 1`` sequences; bound the re-encoding a reader may do;
check that an edit to any stored column breaks ``verify_chain``; and run
the hardware anchor across checkpoints and a chaining batch.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import pytest

from repro.core import audit
from repro.core.audit import _CHAIN_BATCH, _CHECKPOINT, AuditLog
from repro.core.config import AccessMode
from repro.harness.builder import build_platform
from repro.tpm import marshal
from repro.tpm.constants import TPM_ORD_PcrRead

SEQUENCES = 3 * _CHECKPOINT + 1
DECISIONS = [
    ("dom1", 1, "TPM_Extend", True, "granted:1"),
    ("dom2", 2, "TPM_PCRRead", True, "granted:7"),
    ("dom2", 1, "TPM_OwnerClear", False, "no-grant"),
    ("manager", 2, "FAULT-DEGRADED", False, "a|b"),
    ("dom1", True, "TPM_Extend", True, "granted:1"),
    ("dom1", 1.0, "TPM_Extend", True, "granted:1"),
]


def _decision(sequence: int) -> tuple:
    return DECISIONS[sequence * 5 % len(DECISIONS)]


def _eager_heads(log: AuditLog) -> list:
    """The chain hash after each entry, recomputed here from the fields."""
    heads = []
    head = hashlib.sha256(b"vtpm-audit-genesis").digest()
    for sequence, timestamp_us in enumerate(log._times):
        subject, instance, operation, allowed, reason = _decision(sequence)
        verdict = "ALLOW" if allowed else "DENY"
        head = hashlib.sha256(head + (
            f"{sequence}|{timestamp_us:.3f}|{subject}|{instance}|"
            f"{operation}|{verdict}|{reason}"
        ).encode("utf-8")).digest()
        heads.append(head)
    return heads


def _fill(log: AuditLog, clock, count: int = SEQUENCES) -> None:
    for sequence in range(len(log), count):
        clock.advance(0.25 + sequence % 3)
        log.append_buffered(*_decision(sequence))


@pytest.fixture
def encodes(monkeypatch):
    """Counts the entries the log re-encodes."""
    counted = []
    encode = audit.encode_entry

    def counting(*args):
        counted.append(args[0])
        return encode(*args)

    monkeypatch.setattr(audit, "encode_entry", counting)
    return counted


class TestReadersMatchAnEagerChain:
    @pytest.mark.parametrize("batch", [_CHAIN_BATCH, 5])
    def test_every_sequence_while_the_log_grows(self, timing_context, batch):
        """Reads interleave with appends, so some reads find entries still
        unchained mid-batch and some find a batch just chained."""
        log = AuditLog()
        with mock.patch.object(audit, "_CHAIN_BATCH", batch):
            for size in range(1, SEQUENCES + 1):
                _fill(log, timing_context.clock, size)
                if size % 4:
                    continue
                heads = _eager_heads(log)
                assert [log.head_at(n) for n in range(1, size + 1)] == heads
                assert [r.chain_hash for r in log.tail(size)] == heads
            heads = _eager_heads(log)
            records = log.records()
            assert [r.chain_hash for r in records] == heads
            assert [r.sequence for r in records] == list(range(SEQUENCES))
            assert log.chain_head() == heads[-1]
            for count in range(SEQUENCES + 1):
                assert [r.chain_hash for r in log.tail(count)] == (
                    heads[SEQUENCES - count:]
                )
            assert [r.chain_hash for r in log.denials()] == [
                heads[r.sequence] for r in records if not r.allowed
            ]
            assert log.verify_chain()

    def test_exact_decisions_get_their_own_table_tuple(self, timing_context):
        log = AuditLog()
        _fill(log, timing_context.clock)
        instances = [log._table[ident][1] for ident in log._ids]
        assert [type(i) for i in instances] == [
            type(_decision(s)[1]) for s in range(SEQUENCES)
        ]
        # ``True`` and ``1.0`` equal the interned ``1`` decision but encode
        # differently, so each gets a tuple of its own, which all of its
        # later entries share.
        assert len(log._table) == len(DECISIONS)


class TestReEncodingIsBounded:
    def test_head_at_re_encodes_below_one_checkpoint(self, timing_context,
                                                     encodes):
        log = AuditLog()
        _fill(log, timing_context.clock)
        log.chain_head()
        for sequence in range(SEQUENCES + 1):
            encodes.clear()
            log.head_at(sequence)
            assert len(encodes) == sequence % _CHECKPOINT * (
                sequence != SEQUENCES
            )

    def test_tail_re_encodes_at_most_a_checkpoint_plus_its_length(
        self, timing_context, encodes,
    ):
        log = AuditLog()
        _fill(log, timing_context.clock)
        log.chain_head()
        for count in range(SEQUENCES + 1):
            encodes.clear()
            log.tail(count)
            assert len(encodes) <= _CHECKPOINT - 1 + count
        encodes.clear()
        log.tail(1)
        assert encodes == []  # the head is stored


def _edit_id(log, sequence):
    log._ids[sequence] = (log._ids[sequence] + 1) % len(log._table)


def _edit_table(log, sequence):
    fields = log._table[log._ids[sequence]]
    log._table[log._ids[sequence]] = fields[:4] + (fields[4] + "-edited",)


def _edit_time(log, sequence):
    log._times[sequence] += 1.0


class TestEveryColumnIsCovered:
    @pytest.mark.parametrize("chained", [False, True])
    @pytest.mark.parametrize("edit", [_edit_id, _edit_table, _edit_time])
    @pytest.mark.parametrize("sequence", [0, 1, 15, 16, 17, 47, 48])
    def test_entry_edit_breaks_the_chain(self, timing_context, edit,
                                         sequence, chained):
        log = AuditLog()
        _fill(log, timing_context.clock)
        if chained:
            assert log.verify_chain()
        edit(log, sequence)
        assert not log.verify_chain()

    @pytest.mark.parametrize("checkpoint", [0, 1, 2])
    def test_checkpoint_edit_breaks_the_chain(self, timing_context,
                                              checkpoint):
        log = AuditLog()
        _fill(log, timing_context.clock)
        log.chain_head()
        log._checkpoints[checkpoint * 32] ^= 1
        assert not log.verify_chain()

    def test_head_edit_breaks_the_chain(self, timing_context):
        log = AuditLog()
        _fill(log, timing_context.clock)
        log.chain_head()
        log._head = bytes(32)
        assert not log.verify_chain()

    @pytest.mark.parametrize("dropped", [1, 2, _CHECKPOINT + 1])
    def test_dropped_entries_break_the_chain(self, timing_context, dropped):
        log = AuditLog()
        _fill(log, timing_context.clock)
        log.chain_head()
        del log._ids[-dropped:]
        del log._times[-dropped:]
        assert not log.verify_chain()


def _read_wire() -> bytes:
    return marshal.build_command(TPM_ORD_PcrRead, (0).to_bytes(4, "big"))


class TestPlatformAnchor:
    def test_anchor_holds_across_checkpoints_and_a_batch(self):
        platform = build_platform(AccessMode.IMPROVED, seed=31, name="anchor")
        guest = platform.add_guest("alice")
        log = platform.audit
        while len(log) < _CHECKPOINT + 3:
            guest.frontend.transport(_read_wire())
        anchors = platform.audit_anchor()
        anchor = anchors.anchor(log)
        assert anchor.sequence % _CHECKPOINT
        while len(log) < anchor.sequence + _CHAIN_BATCH + _CHECKPOINT:
            guest.frontend.transport_batch([_read_wire()] * 8)
        assert len(log._checkpoints) // 32 > _CHAIN_BATCH // _CHECKPOINT
        ok, reason = anchors.verify(log)
        assert ok, reason

        keep = anchor.sequence - 1
        head = log.head_at(keep)
        del log._ids[keep:]
        del log._times[keep:]
        del log._checkpoints[keep // _CHECKPOINT * 32:]
        log._head = head
        assert log.verify_chain()  # self-consistent: only hardware can tell
        ok, reason = anchors.verify(log)
        assert not ok and "truncated" in reason
