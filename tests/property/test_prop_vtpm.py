"""Property tests: vTPM migration and monitor/policy consistency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.audit import AuditLog
from repro.core.config import AccessControlConfig, AccessMode
from repro.core.identity import IdentityRegistry
from repro.core.monitor import AccessControlMonitor
from repro.core.policy import CommandClass, PolicyEngine, classify_ordinal
from repro.crypto.random_source import RandomSource
from repro.tpm import marshal
from repro.tpm.dispatch import registered_ordinals
from repro.xen.hypervisor import Xen

ORDINALS = sorted(registered_ordinals())

# -- monitor/policy consistency ------------------------------------------------

_XEN = Xen(RandomSource(b"prop-mon"))
_GUESTS = [_XEN.create_domain(f"pg{i}", f"kernel-{i}".encode()) for i in range(3)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2),          # caller index
    st.integers(0, 2),          # instance owner index
    st.sampled_from(ORDINALS),
    st.sampled_from([c for c in CommandClass if c is not CommandClass.UNKNOWN]),
)
def test_monitor_decision_matches_ground_truth(caller_idx, owner_idx, ordinal,
                                               granted_class):
    """The monitor allows iff (caller is the bound identity) AND (the
    granted class covers the ordinal) — for every combination."""
    identities = IdentityRegistry()
    policy = PolicyEngine()
    monitor = AccessControlMonitor(identities, policy, AuditLog())
    ids = [identities.register(g) for g in _GUESTS]
    owner_hex = ids[owner_idx].hex
    policy.add_rule(owner_hex, 1, granted_class)
    caller = _GUESTS[caller_idx]
    wire = marshal.build_command(ordinal, b"")
    verdict = monitor.authorize(caller, 1, owner_hex, wire)
    expected = (
        caller_idx == owner_idx
        and classify_ordinal(ordinal) is granted_class
    )
    assert verdict.allowed == expected, (verdict.reason, ordinal)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ORDINALS), st.booleans(), st.booleans(), st.booleans())
def test_monitor_config_toggles_are_independent(ordinal, identity_on,
                                                policy_on, audit_on):
    """Any combination of component toggles yields a coherent decision and
    audits exactly when audit is on."""
    identities = IdentityRegistry()
    policy = PolicyEngine()
    audit = AuditLog()
    config = AccessControlConfig(
        identity_check=identity_on, policy_check=policy_on, audit=audit_on,
        protect_memory=False, seal_storage=False,
    )
    monitor = AccessControlMonitor(identities, policy, audit, config)
    identity = identities.register(_GUESTS[0])
    monitor.on_instance_created(1, identity.hex)
    wire = marshal.build_command(ordinal, b"")
    verdict = monitor.authorize(_GUESTS[0], 1, identity.hex, wire)
    if policy_on:
        # grant_owner covers every implemented ordinal
        assert verdict.allowed
    else:
        assert verdict.allowed  # nothing left to deny a bound caller
    assert (len(audit) > 0) == audit_on


# -- migration totality over state contents ----------------------------------------


@settings(max_examples=8, deadline=None)
@given(
    st.binary(min_size=0, max_size=512),
    st.lists(st.tuples(st.integers(0, 15),
                       st.binary(min_size=20, max_size=20)), max_size=4),
    st.integers(0, 2**16),
)
def test_sealed_migration_total_over_state(nv_payload, extends, seed):
    """Whatever the instance state contains, sealed migration moves it
    bit-for-bit and leaks none of it on the wire."""
    from repro.harness.builder import build_platform
    from repro.attacks.memdump import secrets_found

    source = build_platform(AccessMode.IMPROVED, seed=seed, name=f"ps-{seed}")
    destination = build_platform(
        AccessMode.IMPROVED, seed=seed + 1, name=f"pd-{seed}"
    )
    guest = source.add_guest("migrant")
    for index, digest in extends:
        guest.client.extend(index, digest)
    if nv_payload:
        ek = guest.client.read_pubek()
        guest.client.take_ownership(b"O" * 20, b"S" * 20, ek)
        from repro.tpm.nvram import NV_PER_AUTHWRITE

        guest.client.nv_define(
            b"O" * 20, 0x40, len(nv_payload), NV_PER_AUTHWRITE, b"N" * 20
        )
        guest.client.nv_write(b"N" * 20, 0x40, 0, nv_payload)
    instance = source.manager.instance(guest.instance_id)
    state_before = instance.device.save_state_blob()
    secrets = instance.device.state.secret_material()
    target_vm = destination.xen.create_domain(
        guest.domain.name, kernel_image=guest.domain.kernel_image,
        config=dict(guest.domain.config),
    )
    from repro.vtpm.migration import Migration

    class Tapped(Migration):
        def wire(self, package):
            assert not secrets_found(package.payload, secrets)

    moved = Tapped(
        source.migration, destination.migration, guest.domain.uuid, target_vm
    ).run()
    assert moved.device.save_state_blob() == state_before
