"""Reason codes: precedence, monitor/model agreement and per-class counts.

For each adjacent pair in the monitor's precedence order (malformed frame
→ health gate → identity → binding → unknown ordinal → no grant) one
command trips both conditions; the monitor and the reference model (via
the piggyback oracle's adapter) must both report the higher one.
"""

import pytest

from repro.core.audit import AuditLog
from repro.core.identity import IdentityRegistry
from repro.core.monitor import AccessControlMonitor
from repro.core.policy import CommandClass, PolicyEngine
from repro.core.reason import Reason
from repro.crypto.random_source import RandomSource
from repro.obs.counters import CounterRegistry, registry_scope
from repro.tpm import marshal
from repro.tpm.constants import TPM_ORD_OwnerClear, TPM_ORD_PcrRead
from repro.verify.oracle import MonitorConformanceOracle
from repro.xen.hypervisor import Xen

UNKNOWN_ORDINAL = 0x7FFFFFFF


def _gate_all(instance_id, command_class):
    return Reason.HEALTH_GATE


@pytest.fixture
def rig():
    xen = Xen(RandomSource(b"reason-codes"))
    identities = IdentityRegistry()
    policy = PolicyEngine()
    audit = AuditLog()
    monitor = AccessControlMonitor(identities, policy, audit)
    owner = xen.create_domain("owner", b"kernel-a")
    other = xen.create_domain("other", b"kernel-b")
    owner_id = identities.register(owner)
    identities.register(other)
    monitor.on_instance_created(1, owner_id.hex)
    return xen, identities, policy, audit, monitor, owner, other


def _decide(monitor, caller, bound_hex, wire):
    """(monitor's code, model's predicted code, audited code)."""
    predicted = MonitorConformanceOracle(monitor).predict(
        caller, 1, bound_hex, wire
    ).reason
    decided = monitor.authorize(caller, 1, bound_hex, wire).reason
    audited = Reason.from_record(monitor.audit.tail(1)[0].reason)
    return decided, predicted, audited


def _read_wire():
    return marshal.build_command(TPM_ORD_PcrRead, b"\x00\x00\x00\x00")


class TestPrecedence:
    def test_malformed_beats_health_gate(self, rig):
        _, _, _, _, monitor, owner, _ = rig
        monitor.health_gate = _gate_all
        bound = owner.measurement.hex()
        codes = _decide(monitor, owner, bound, b"\xff\xff")
        assert codes == (Reason.MALFORMED_FRAME,) * 3

    def test_health_gate_beats_identity(self, rig):
        xen, _, _, _, monitor, owner, _ = rig
        monitor.health_gate = _gate_all
        stranger = xen.create_domain("stranger", b"kernel-c")  # unregistered
        codes = _decide(
            monitor, stranger, owner.measurement.hex(), _read_wire()
        )
        assert codes == (Reason.HEALTH_GATE,) * 3

    def test_unregistered_identity_beats_binding(self, rig):
        _, identities, _, _, monitor, owner, other = rig
        identities.forget(other.domid)
        codes = _decide(monitor, other, owner.measurement.hex(), _read_wire())
        assert codes == (Reason.UNREGISTERED_IDENTITY,) * 3

    def test_measurement_mismatch_beats_binding(self, rig):
        _, _, _, _, monitor, owner, other = rig
        bound = owner.measurement.hex()
        other.measurement = b"\x5a" * 32  # rebuilt under the same domid
        codes = _decide(monitor, other, bound, _read_wire())
        assert codes == (Reason.MEASUREMENT_MISMATCH,) * 3

    def test_binding_beats_unknown_ordinal(self, rig):
        _, _, _, _, monitor, owner, other = rig
        wire = marshal.build_command(UNKNOWN_ORDINAL, b"")
        codes = _decide(monitor, other, owner.measurement.hex(), wire)
        assert codes == (Reason.BINDING_MISMATCH,) * 3

    def test_unknown_ordinal_beats_no_grant(self, rig):
        _, _, policy, _, monitor, owner, _ = rig
        monitor.on_instance_destroyed(1)  # drop every grant on instance 1
        assert policy.granted_classes(owner.measurement.hex(), 1) == set()
        wire = marshal.build_command(UNKNOWN_ORDINAL, b"")
        codes = _decide(monitor, owner, owner.measurement.hex(), wire)
        assert codes == (Reason.UNKNOWN_ORDINAL,) * 3

    def test_no_grant_and_granted(self, rig):
        _, _, policy, audit, monitor, owner, _ = rig
        bound = owner.measurement.hex()
        assert _decide(monitor, owner, bound, _read_wire()) == (
            (Reason.GRANTED,) * 3
        )
        [rule_id] = [
            rule.rule_id for rule in policy.rules_for_instance(1)
            if rule.command_class is CommandClass.READ
        ]
        assert audit.tail(1)[0].reason == f"granted:{rule_id}"
        policy.revoke_rule(rule_id)
        assert _decide(monitor, owner, bound, _read_wire()) == (
            (Reason.NO_GRANT,) * 3
        )


class TestCountsByClass:
    """Every denial except a malformed frame counts in its own class."""

    def _exposition(self, monitor, calls):
        registry = CounterRegistry()
        with registry_scope(registry):
            for caller, bound, wire in calls:
                monitor.authorize(caller, 1, bound, wire)
        return registry.exposition()

    def test_policy_denial_counts_in_its_class(self, rig):
        _, _, policy, _, monitor, owner, _ = rig
        bound = owner.measurement.hex()
        monitor.on_instance_destroyed(1)
        policy.add_rule(bound, 1, CommandClass.READ)
        clear = marshal.build_command(TPM_ORD_OwnerClear, b"")
        out = self._exposition(
            monitor, [(owner, bound, _read_wire()), (owner, bound, clear)]
        )
        assert 'ac.commands{cls="owner-admin"} 1' in out
        assert 'ac.commands{cls="read"} 1' in out
        assert "malformed" not in out
        assert 'ac.decisions{outcome="deny",reason="no-grant"} 1' in out

    def test_binding_denial_counts_in_its_class(self, rig):
        _, _, _, _, monitor, owner, other = rig
        out = self._exposition(
            monitor, [(other, owner.measurement.hex(), _read_wire())]
        )
        assert 'ac.commands{cls="read"} 1' in out
        assert "malformed" not in out
        assert (
            'ac.decisions{outcome="deny",reason="binding-mismatch"} 1' in out
        )

    def test_health_gate_denial_counts_in_its_class(self, rig):
        _, _, _, _, monitor, owner, _ = rig
        monitor.health_gate = _gate_all
        out = self._exposition(
            monitor, [(owner, owner.measurement.hex(), _read_wire())]
        )
        assert 'ac.commands{cls="read"} 1' in out
        assert "malformed" not in out
        assert 'ac.decisions{outcome="deny",reason="health-gate"} 1' in out

    def test_malformed_frame_counts_as_malformed(self, rig):
        _, _, _, _, monitor, owner, _ = rig
        out = self._exposition(
            monitor, [(owner, owner.measurement.hex(), b"\xff\xff")]
        )
        assert 'ac.commands{cls="malformed"} 1' in out
        assert (
            'ac.decisions{outcome="deny",reason="malformed-frame"} 1' in out
        )
