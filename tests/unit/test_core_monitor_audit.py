"""Unit tests for the audit log, reference monitor and memory protector."""

import sys
import tracemalloc

import pytest

from repro.core.audit import (
    _CHAIN_BATCH, GENESIS, AuditLog, AuditRecord, encode_entry,
)
from repro.core.config import AccessControlConfig
from repro.core.identity import IdentityRegistry
from repro.core.monitor import AccessControlMonitor, BaselineMonitor
from repro.core.policy import PolicyEngine
from repro.core.reason import Reason
from repro.core.protection import MemoryProtector
from repro.crypto.random_source import RandomSource
from repro.tpm import marshal
from repro.tpm.constants import TPM_ORD_Extend, TPM_ORD_OwnerClear, TPM_ORD_PcrRead
from repro.xen.hypervisor import Xen
from repro.xen.memory import MemoryRegion


@pytest.fixture
def xen():
    return Xen(RandomSource(b"monitor-test"))


@pytest.fixture
def plumbing(xen):
    identities = IdentityRegistry()
    policy = PolicyEngine()
    audit = AuditLog()
    monitor = AccessControlMonitor(identities, policy, audit)
    return identities, policy, audit, monitor


def _edit_reason(log: AuditLog, sequence: int) -> None:
    """Point one entry at an edited copy of its decision tuple."""
    log._table.append(log._table[log._ids[sequence]][:4] + ("edited",))
    log._ids[sequence] = len(log._table) - 1


def _extend_wire() -> bytes:
    from repro.util.bytesio import ByteWriter

    return marshal.build_command(
        TPM_ORD_Extend, ByteWriter().u32(0).raw(b"\x01" * 20).getvalue()
    )


class TestAuditLog:
    def test_append_and_query(self):
        log = AuditLog()
        log.append("subj", 1, "TPM_Extend", True, "rule 1")
        log.append("subj", 1, "TPM_OwnerClear", False, "no rule")
        log.append("other", 2, "TPM_PCRRead", True, "rule 2")
        assert len(log) == 3
        assert len(log.denials()) == 1
        assert len(log.for_subject("subj")) == 2
        assert len(log.for_instance(2)) == 1
        assert [r.operation for r in log.tail(2)] == ["TPM_OwnerClear", "TPM_PCRRead"]

    def test_chain_verifies_when_untouched(self):
        log = AuditLog()
        for i in range(10):
            log.append(f"s{i}", i, "op", True, "r")
        assert log.verify_chain()

    def test_tamper_breaks_chain(self):
        log = AuditLog()
        for i in range(5):
            log.append(f"s{i}", i, "op", True, "r")
        # In-place edit of a past entry's reason.
        _edit_reason(log, 2)
        assert not log.verify_chain()

    def test_truncation_breaks_chain(self):
        log = AuditLog()
        for i in range(5):
            log.append(f"s{i}", i, "op", True, "r")
        log._ids.pop()
        log._times.pop()
        assert not log.verify_chain()

    def test_edit_of_unchained_entry_breaks_chain(self):
        """Verification re-encodes from the fields, so an edit made before
        the entry was chained is caught against the bytes captured at
        append time."""
        log = AuditLog()
        for i in range(5):
            log.append_buffered(f"s{i}", i, "op", True, "r")
        _edit_reason(log, 4)
        assert not log.verify_chain()

    def test_tail_edges(self):
        log = AuditLog()
        for i in range(3):
            log.append(f"s{i}", i, "op", True, "r")
        assert log.tail(0) == []
        assert [r.sequence for r in log.tail(1)] == [2]
        assert [r.sequence for r in log.tail(5)] == [0, 1, 2]
        assert AuditLog().tail(0) == []
        for count in (-1, -3):
            with pytest.raises(ValueError):
                log.tail(count)

    def test_head_at(self):
        log = AuditLog()
        assert log.head_at(0) == GENESIS == log.chain_head()
        records = [log.append(f"s{i}", i, "op", True, "r") for i in range(4)]
        log.append_buffered("late", 9, "op", False, "r")
        assert [log.head_at(i + 1) for i in range(4)] == [
            r.chain_hash for r in records
        ]
        assert log.head_at(5) == log.chain_head() == log.tail(1)[0].chain_hash
        for sequence in (-1, 6):
            with pytest.raises(ValueError):
                log.head_at(sequence)

    def test_append_returns_the_chained_record(self):
        log = AuditLog()
        log.append_buffered("a", 1, "op", True, "r")
        record = log.append("b", 2, "op", False, "r")
        assert record == log.records()[1]
        assert record.chain_hash == log.chain_head()
        assert record.encode() == encode_entry(
            1, record.timestamp_us, "b", 2, "op", False, "r"
        )

    def test_records_carry_virtual_timestamps(self, timing_context):
        log = AuditLog()
        first = log.append("s", 1, "op", True, "r")
        timing_context.clock.advance(500)
        second = log.append("s", 1, "op", True, "r")
        assert second.timestamp_us > first.timestamp_us


class TestAuditRecordBuilds:
    """Chaining, verification and anchoring build no AuditRecord; only the
    readers that return records build them (a count, not a timing)."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        init = AuditRecord.__init__

        def counting_init(record, *args, **kwargs):
            built.append(args[0] if args else kwargs["sequence"])
            init(record, *args, **kwargs)

        monkeypatch.setattr(AuditRecord, "__init__", counting_init)
        return built

    @staticmethod
    def _buffered(count: int) -> AuditLog:
        log = AuditLog()
        for i in range(count):
            log.append_buffered(f"s{i % 7}", i % 3, "op", i % 5 != 0, "r")
        return log

    def test_chain_and_verify_build_none(self, builds):
        log = self._buffered(10_000)
        log.chain_head()
        assert log.verify_chain()
        log.decision_chain_hash()
        log.head_at(5_000)
        assert len(log) == 10_000
        assert builds == []

    def test_tail_one_builds_exactly_one(self, builds):
        log = self._buffered(10_000)
        [record] = log.tail(1)
        assert record.sequence == 9_999
        assert builds == [9_999]

    def test_filtered_readers_build_only_matches(self, builds):
        log = self._buffered(100)
        denials = log.denials()
        assert builds == [r.sequence for r in denials] == list(range(0, 100, 5))


class TestAuditFootprint:
    """What an entry leaves behind: a 4-byte decision id, one timestamp and
    a ``_CHECKPOINT``-th of a chain hash, plus at most one batch of encoded
    bytes waiting to be chained."""

    ENTRIES = 100_000
    MAX_BYTES_PER_ENTRY = 16

    def test_entry_residue_is_bounded(self, timing_context):
        # 8 guests x 4 instances x 2 operations x 2 verdicts, the shape of
        # a supervised batch run; built before tracing starts.
        decisions = [
            (f"{guest:02x}" * 32, instance, operation, allowed,
             "granted:3" if allowed else "no-grant")
            for guest in range(8) for instance in range(4)
            for operation in ("TPM_Extend", "TPM_PCRRead")
            for allowed in (True, False)
        ]
        log = AuditLog()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(self.ENTRIES):
                log.append_buffered(*decisions[i % len(decisions)])
            buffered = tracemalloc.get_traced_memory()[0] - before
            held = len(log._unchained)
            held_bytes = sum(
                sys.getsizeof(encoded) + 8 for encoded in log._unchained
            )
            log.chain_head()
            chained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log) == self.ENTRIES
        assert held < _CHAIN_BATCH
        assert len(log._table) == len(decisions)
        for residue in (buffered - held_bytes, chained):
            assert residue / self.ENTRIES <= self.MAX_BYTES_PER_ENTRY, residue
        assert log.verify_chain()


class TestBaselineMonitor:
    def test_allows_everything_for_free(self, xen, timing_context):
        monitor = BaselineMonitor()
        guest = xen.create_domain("g", b"k")
        before = timing_context.clock.now_us
        verdict = monitor.authorize(guest, 1, None, _extend_wire())
        assert verdict.allowed
        assert timing_context.clock.now_us == before  # zero cost


class TestAccessControlMonitor:
    def test_allows_bound_owner(self, xen, plumbing):
        identities, policy, audit, monitor = plumbing
        guest = xen.create_domain("g", b"k")
        identity = identities.register(guest)
        monitor.on_instance_created(1, identity.hex)
        verdict = monitor.authorize(guest, 1, identity.hex, _extend_wire())
        assert verdict.allowed
        assert verdict.reason is Reason.GRANTED
        assert len(audit) == 1 and audit.records()[0].allowed
        assert audit.records()[0].subject == identity.hex

    def test_denies_wrong_binding(self, xen, plumbing):
        identities, policy, audit, monitor = plumbing
        attacker = xen.create_domain("attacker", b"evil")
        victim = xen.create_domain("victim", b"good")
        att_id = identities.register(attacker)
        vic_id = identities.register(victim)
        monitor.on_instance_created(1, vic_id.hex)
        verdict = monitor.authorize(attacker, 1, vic_id.hex, _extend_wire())
        assert not verdict.allowed
        assert verdict.reason is Reason.BINDING_MISMATCH
        assert monitor.denials == 1
        assert len(audit.denials()) == 1

    def test_denies_unmeasured_caller(self, xen, plumbing):
        _identities, _policy, _audit, monitor = plumbing
        guest = xen.create_domain("g", b"k")  # never registered
        verdict = monitor.authorize(guest, 1, "aa" * 32, _extend_wire())
        assert not verdict.allowed

    def test_denies_unauthorized_class(self, xen, plumbing):
        identities, policy, audit, monitor = plumbing
        guest = xen.create_domain("g", b"k")
        identity = identities.register(guest)
        policy.add_rule(identity.hex, 1, __import__(
            "repro.core.policy", fromlist=["CommandClass"]
        ).CommandClass.READ)
        read_wire = marshal.build_command(TPM_ORD_PcrRead, b"\x00\x00\x00\x00")
        clear_wire = marshal.build_command(TPM_ORD_OwnerClear, b"")
        assert monitor.authorize(guest, 1, identity.hex, read_wire).allowed
        assert not monitor.authorize(guest, 1, identity.hex, clear_wire).allowed

    def test_malformed_wire_denied(self, xen, plumbing):
        identities, _policy, _audit, monitor = plumbing
        guest = xen.create_domain("g", b"k")
        identities.register(guest)
        verdict = monitor.authorize(guest, 1, None, b"\xff\xff")
        assert not verdict.allowed
        assert verdict.reason is Reason.MALFORMED_FRAME

    def test_instance_destruction_revokes_rules(self, xen, plumbing):
        identities, policy, _audit, monitor = plumbing
        guest = xen.create_domain("g", b"k")
        identity = identities.register(guest)
        monitor.on_instance_created(9, identity.hex)
        assert policy.rule_count == 6
        monitor.on_instance_destroyed(9)
        assert policy.rule_count == 0

    def test_audit_disabled_config(self, xen):
        identities = IdentityRegistry()
        audit = AuditLog()
        monitor = AccessControlMonitor(
            identities, PolicyEngine(), audit,
            AccessControlConfig(audit=False, policy_check=False),
        )
        guest = xen.create_domain("g", b"k")
        identities.register(guest)
        monitor.authorize(guest, 1, None, _extend_wire())
        assert len(audit) == 0

    def test_authz_span_names_its_audit_record(self, xen, plumbing):
        """Traced, each ``authz`` span carries the sequence number of the
        record its decision appended, on allows and on every deny path."""
        from repro.core.policy import CommandClass
        from repro.obs import InMemorySink, Tracer, tracer_scope

        identities, policy, audit, monitor = plumbing
        owner = xen.create_domain("owner", b"k")
        reader = xen.create_domain("reader", b"r")
        stranger = xen.create_domain("stranger", b"s")
        owner_id = identities.register(owner)
        reader_id = identities.register(reader)
        monitor.on_instance_created(1, owner_id.hex)
        policy.add_rule(reader_id.hex, 2, CommandClass.READ)
        read = marshal.build_command(TPM_ORD_PcrRead, b"\x00\x00\x00\x00")
        clear = marshal.build_command(TPM_ORD_OwnerClear, b"")
        frames = [
            (owner, 1, owner_id.hex, _extend_wire(), "TPM_Extend", True),
            (owner, 1, owner_id.hex, _extend_wire(), "TPM_Extend", True),
            (reader, 2, None, read, "TPM_PCRRead", True),
            (reader, 2, None, clear, "TPM_OwnerClear", False),
            (reader, 1, owner_id.hex, read, "TPM_PCRRead", False),
            (stranger, 1, None, read, "TPM_PCRRead", False),
            (owner, 1, owner_id.hex, b"\xff\xff", "malformed", False),
            (owner, 3, owner_id.hex, read, "TPM_PCRRead", False),
        ]
        sink = InMemorySink()
        with tracer_scope(Tracer(sink)):
            for number, (caller, instance, bound, wire, _, _) in enumerate(
                frames
            ):
                # records the monitor did not append move the numbering
                audit.append("fault-injector", instance, "FAULT:x", True,
                             f"site#{number}")
                if number == len(frames) - 1:
                    monitor.health_gate = lambda *_: Reason.HEALTH_GATE
                monitor.authorize(caller, instance, bound, wire)
        spans = sink.spans_named("authz")
        assert len(spans) == len(frames)
        records = audit.records()
        for span, (_, instance, _, _, operation, allowed) in zip(
            spans, frames
        ):
            record = records[span.attrs["audit_seq"]]
            assert record.instance == span.attrs["instance"] == instance
            assert record.subject != "fault-injector"
            assert (record.operation, record.allowed) == (operation, allowed)
        assert records[spans[-1].attrs["audit_seq"]].reason == "health-gate"


class TestMemoryProtector:
    def test_protect_and_unprotect(self, xen):
        protector = MemoryProtector(xen.memory, enabled=True)
        region = MemoryRegion(xen.memory, 0, xen.memory.allocate(0, 2))
        count = protector.protect_region("tag", region)
        assert count == 2
        assert all(protector.is_protected(f) for f in region.frames)
        assert protector.unprotect("tag") == 2
        assert not any(protector.is_protected(f) for f in region.frames)

    def test_disabled_protector_is_noop(self, xen):
        protector = MemoryProtector(xen.memory, enabled=False)
        region = MemoryRegion(xen.memory, 0, xen.memory.allocate(0, 2))
        assert protector.protect_region("tag", region) == 0
        assert not any(xen.memory.page(f).protected for f in region.frames)

    def test_unprotect_tolerates_freed_frames(self, xen):
        protector = MemoryProtector(xen.memory, enabled=True)
        region = MemoryRegion(xen.memory, 0, xen.memory.allocate(0, 1))
        protector.protect_region("tag", region)
        xen.memory.free(region.frames)
        protector.unprotect("tag")  # must not raise

    def test_protected_frames_listing(self, xen):
        protector = MemoryProtector(xen.memory, enabled=True)
        r1 = MemoryRegion(xen.memory, 0, xen.memory.allocate(0, 1))
        r2 = MemoryRegion(xen.memory, 0, xen.memory.allocate(0, 1))
        protector.protect_region("a", r1)
        protector.protect_region("b", r2)
        assert protector.protected_frames() == sorted(r1.frames + r2.frames)
