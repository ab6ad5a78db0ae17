"""Unit/integration tests for policy profiles (least privilege per guest)."""

import hashlib

import pytest

from repro.core.config import AccessMode
from repro.core.policy import CommandClass, PolicyEngine
from repro.core.profiles import (
    PROFILE_ATTESTATION_ONLY,
    PROFILE_MONITOR,
    PROFILE_OWNER,
    PROFILE_SEALED_STORAGE,
    PROFILES,
    PolicyProfile,
    profile_by_name,
)
from repro.harness.builder import build_platform
from repro.tpm.constants import TPM_KH_SRK
from repro.util.errors import AccessControlError, TpmError

OWNER = b"prof-owner-auth!!!!!"
SRK = b"prof-srk-auth!!!!!!!"


class TestProfileDefinitions:
    def test_registry_complete(self):
        assert set(PROFILES) == {
            "owner", "attestation-only", "sealed-storage", "monitor",
        }

    def test_lookup(self):
        assert profile_by_name("monitor") is PROFILE_MONITOR
        with pytest.raises(AccessControlError):
            profile_by_name("nope")

    def test_empty_profile_rejected(self):
        with pytest.raises(AccessControlError):
            PolicyProfile(name="x", classes=frozenset())

    def test_unknown_class_rejected(self):
        with pytest.raises(AccessControlError):
            PolicyProfile(name="x", classes=frozenset({CommandClass.UNKNOWN}))

    def test_apply_installs_exact_grants(self):
        engine = PolicyEngine()
        rules = PROFILE_MONITOR.apply(engine, "aa" * 32, 1)
        assert len(rules) == len(PROFILE_MONITOR.classes)
        from repro.tpm.constants import TPM_ORD_Extend, TPM_ORD_PcrRead

        assert engine.decide("aa" * 32, 1, TPM_ORD_PcrRead).allowed
        assert not engine.decide("aa" * 32, 1, TPM_ORD_Extend).allowed

    def test_owner_profile_matches_grant_owner(self):
        via_profile = PolicyEngine()
        PROFILE_OWNER.apply(via_profile, "aa" * 32, 1)
        via_grant = PolicyEngine()
        via_grant.grant_owner("aa" * 32, 1)
        from repro.tpm.dispatch import registered_ordinals

        for ordinal in registered_ordinals():
            assert (
                via_profile.decide("aa" * 32, 1, ordinal).allowed
                == via_grant.decide("aa" * 32, 1, ordinal).allowed
            ), hex(ordinal)


class TestProfiledGuests:
    def test_attestation_only_guest(self):
        platform = build_platform(AccessMode.IMPROVED, seed=40)
        guest = platform.add_guest("attester", profile=PROFILE_ATTESTATION_ONLY)
        # Can measure and read...
        guest.client.extend(12, hashlib.sha1(b"app").digest())
        guest.client.pcr_read(12)
        # ...but cannot take ownership (owner-admin) or define NV (storage-admin).
        ek_fails = pytest.raises(TpmError)
        with ek_fails:
            ek = guest.client.read_pubek()  # READ: fine
            guest.client.take_ownership(OWNER, SRK, ek)  # OWNER_ADMIN: denied
        from repro.tpm.nvram import NV_PER_AUTHWRITE

        with pytest.raises(TpmError):
            guest.client.nv_define(OWNER, 0x10, 8, NV_PER_AUTHWRITE, b"N" * 20)

    def test_monitor_profile_is_read_only(self):
        platform = build_platform(AccessMode.IMPROVED, seed=41)
        guest = platform.add_guest("watcher", profile=PROFILE_MONITOR)
        guest.client.pcr_read(0)
        guest.client.get_random(8)
        with pytest.raises(TpmError):
            guest.client.extend(12, b"\x01" * 20)

    def test_sealed_storage_profile_cannot_measure(self):
        platform = build_platform(AccessMode.IMPROVED, seed=42)
        guest = platform.add_guest("vault", profile=PROFILE_SEALED_STORAGE)
        with pytest.raises(TpmError):
            guest.client.extend(12, b"\x01" * 20)

    def test_profiles_do_not_widen_cross_instance(self):
        """A profiled guest still cannot touch anyone else's instance."""
        from repro.tpm.constants import TPM_AUTHFAIL, TPM_ORD_PcrRead
        from repro.tpm.marshal import build_command, parse_response
        from repro.util.errors import VtpmError

        platform = build_platform(AccessMode.IMPROVED, seed=43)
        victim = platform.add_guest("victim")
        watcher = platform.add_guest("watcher", profile=PROFILE_MONITOR)
        # The fail-closed backend refuses the cross-instance re-bind...
        with pytest.raises(VtpmError):
            watcher.backend.rebind(victim.instance_id)
        # ...and a forged packet at the victim's instance id is denied by
        # the monitor even though the watcher profile grants READ.
        wire = build_command(TPM_ORD_PcrRead, (0).to_bytes(4, "big"))
        [resp] = platform.manager.handle_batch(
            watcher.domain.domid, victim.instance_id, [wire]
        )
        assert parse_response(resp).return_code == TPM_AUTHFAIL

    def test_denials_show_in_audit(self):
        platform = build_platform(AccessMode.IMPROVED, seed=44)
        guest = platform.add_guest("limited", profile=PROFILE_MONITOR)
        with pytest.raises(TpmError):
            guest.client.extend(12, b"\x01" * 20)
        denials = platform.audit.denials()
        assert denials and denials[-1].operation == "TPM_Extend"

    def test_baseline_ignores_profiles(self):
        """Profiles are an improved-mode feature; baseline allows all."""
        platform = build_platform(AccessMode.BASELINE, seed=45)
        guest = platform.add_guest("anything", profile=PROFILE_MONITOR)
        guest.client.extend(12, b"\x01" * 20)  # not denied
