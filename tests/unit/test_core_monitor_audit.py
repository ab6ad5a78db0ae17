"""Unit tests for the audit log, reference monitor and memory protector."""

import pytest

from repro.core.audit import AuditLog
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
        # In-place edit of a past record.
        records = log._records
        import dataclasses

        records[2] = dataclasses.replace(records[2], reason="edited")
        assert not log.verify_chain()

    def test_truncation_breaks_chain(self):
        log = AuditLog()
        for i in range(5):
            log.append(f"s{i}", i, "op", True, "r")
        log._records.pop()
        assert not log.verify_chain()

    def test_records_carry_virtual_timestamps(self, timing_context):
        log = AuditLog()
        first = log.append("s", 1, "op", True, "r")
        timing_context.clock.advance(500)
        second = log.append("s", 1, "op", True, "r")
        assert second.timestamp_us > first.timestamp_us


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
