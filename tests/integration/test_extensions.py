"""Integration: extension features — deep attestation, stub-domain
manager, crash recovery."""

import hashlib

import pytest

from repro.core.certification import (
    EndorsementCertificate,
    verify_endorsement,
)
from repro.core.config import AccessMode
from repro.harness.builder import build_platform
from repro.harness.scenario import state_digest
from repro.util.errors import AccessControlError, AccessDenied, SealingError
from repro.vtpm.migration import migrate_with_recovery
from repro.workloads.mixes import KEY_AUTH, GuestSession


class TestDeepAttestation:
    @pytest.fixture
    def setup(self, improved_platform):
        guest = improved_platform.add_guest("deep")
        session = GuestSession(guest, improved_platform.rng.fork("s"))
        public = guest.client.get_pub_key(session.sign_key, KEY_AUTH)
        return improved_platform, guest, session, public

    def test_full_chain_verifies(self, setup):
        platform, guest, _session, public = setup
        cert = platform.certifier.endorse(
            platform.manager, guest.domain.domid, guest.instance_id, public
        )
        identity = platform.identities.lookup(guest.domain.domid)
        assert verify_endorsement(
            cert,
            platform.certifier.aik_public,
            expected_identity_hex=identity.hex,
            expected_platform_composite=platform.hw.composite(),
        )

    def test_certificate_serialization_roundtrip(self, setup):
        platform, guest, _session, public = setup
        cert = platform.certifier.endorse(
            platform.manager, guest.domain.domid, guest.instance_id, public
        )
        restored = EndorsementCertificate.deserialize(cert.serialize())
        assert restored == cert
        assert verify_endorsement(restored, platform.certifier.aik_public)

    def test_rogue_cannot_get_victim_endorsed(self, setup):
        platform, guest, _session, public = setup
        attacker = platform.add_guest("rogue")
        with pytest.raises(AccessDenied):
            platform.certifier.endorse(
                platform.manager, attacker.domain.domid, guest.instance_id, public
            )

    def test_forged_signature_rejected(self, setup):
        platform, guest, _session, public = setup
        cert = platform.certifier.endorse(
            platform.manager, guest.domain.domid, guest.instance_id, public
        )
        forged = EndorsementCertificate(
            vtpm_key_modulus=cert.vtpm_key_modulus,
            identity_hex=cert.identity_hex,
            platform_composite=cert.platform_composite,
            signature=bytes(64),
        )
        assert not verify_endorsement(forged, platform.certifier.aik_public)

    def test_platform_drift_detected_by_challenger(self, setup):
        platform, guest, _session, public = setup
        reference = platform.hw.composite()
        cert = platform.certifier.endorse(
            platform.manager, guest.domain.domid, guest.instance_id, public
        )
        # Platform firmware changes: new certs carry a different composite.
        platform.hw.client.extend(1, hashlib.sha1(b"new-firmware").digest())
        cert2 = platform.certifier.endorse(
            platform.manager, guest.domain.domid, guest.instance_id, public
        )
        assert verify_endorsement(
            cert, platform.certifier.aik_public,
            expected_platform_composite=reference,
        )
        assert not verify_endorsement(
            cert2, platform.certifier.aik_public,
            expected_platform_composite=reference,
        )

    def test_baseline_instance_cannot_be_endorsed(self, baseline_platform,
                                                  improved_platform):
        guest = baseline_platform.add_guest("plain")
        session = GuestSession(guest, baseline_platform.rng.fork("s"))
        public = guest.client.get_pub_key(session.sign_key, KEY_AUTH)
        with pytest.raises(AccessControlError):
            improved_platform.certifier.endorse(
                baseline_platform.manager, guest.domain.domid,
                guest.instance_id, public,
            )

    def test_tampered_cert_bytes_rejected(self, setup):
        platform, guest, _session, public = setup
        cert = platform.certifier.endorse(
            platform.manager, guest.domain.domid, guest.instance_id, public
        )
        blob = bytearray(cert.serialize())
        blob[12] ^= 0x01  # inside the modulus
        restored = EndorsementCertificate.deserialize(bytes(blob))
        assert not verify_endorsement(restored, platform.certifier.aik_public)


class TestStubDomainManager:
    @pytest.fixture
    def stub_platform(self):
        return build_platform(
            AccessMode.IMPROVED, seed=33, name="stub", stub_manager=True
        )

    def test_manager_runs_unprivileged(self, stub_platform):
        domain = stub_platform.xen.domain(stub_platform.manager.manager_domid)
        assert not domain.privileged
        assert domain.name == "vtpm-stubdom"

    def test_guests_work_normally(self, stub_platform):
        guest = stub_platform.add_guest("g")
        ek = guest.client.read_pubek()
        guest.client.take_ownership(b"o" * 20, b"s" * 20, ek)
        guest.client.extend(3, b"\x03" * 20)
        assert guest.client.pcr_read(3) != b"\x00" * 20

    def test_binding_published_under_own_subtree(self, stub_platform):
        guest = stub_platform.add_guest("g")
        domid = stub_platform.manager.manager_domid
        path = f"/local/domain/{domid}/vtpm/{guest.domain.uuid}/instance"
        value = stub_platform.xen.store.read(0, path, privileged=True)
        assert int(value) == guest.instance_id

    def test_stub_memory_still_needs_protection(self):
        """Stub isolation alone does not stop a privileged dump — the page
        protection does.  (Dom0 can foreign-map any unprotected frame.)"""
        from repro.attacks.memdump import MemoryDumpAttack
        from repro.core.config import AccessControlConfig

        unprotected = build_platform(
            AccessMode.IMPROVED, seed=34, name="stub-noprot",
            ac_config=AccessControlConfig.all_on().without("protect_memory"),
            stub_manager=True,
        )
        guest = unprotected.add_guest("victim")
        succeeded, _ = MemoryDumpAttack(unprotected).run(guest.instance_id)
        assert succeeded

        protected = build_platform(
            AccessMode.IMPROVED, seed=35, name="stub-prot", stub_manager=True
        )
        guest2 = protected.add_guest("victim")
        succeeded2, _ = MemoryDumpAttack(protected).run(guest2.instance_id)
        assert not succeeded2


class TestManagerRestart:
    def test_state_survives_restart(self, improved_platform):
        platform = improved_platform
        guests = [platform.add_guest(f"g{i}") for i in range(3)]
        values = {}
        for i, guest in enumerate(guests):
            guest.client.extend(4, hashlib.sha1(bytes([i])).digest())
            values[guest.domain.name] = guest.client.pcr_read(4)
        recovered = platform.restart_manager()
        assert recovered == 3
        for guest in guests:
            assert guest.client.pcr_read(4) == values[guest.domain.name]

    def test_restart_in_baseline(self, baseline_platform):
        guest = baseline_platform.add_guest("g")
        guest.client.extend(4, b"\x04" * 20)
        expected = guest.client.pcr_read(4)
        baseline_platform.restart_manager()
        assert guest.client.pcr_read(4) == expected

    def test_restart_fails_closed_on_platform_drift(self, improved_platform):
        """If the platform measurements moved while the daemon was down,
        the hardware TPM refuses the sealer root and nothing decrypts."""
        platform = improved_platform
        platform.add_guest("g")
        platform.manager.save_all()
        platform.sealer.lock()
        platform.hw.client.extend(0, hashlib.sha1(b"evil-bootkit").digest())
        with pytest.raises(SealingError):
            platform.restart_manager()

    def test_hard_restart_restores_migrated_in_instance(self):
        """A guest adopted after a migration survives its new host's hard
        restart: its ring is rebound to the restored instance, its client
        reads the last checkpoint, and it retires through its handle."""
        source = build_platform(AccessMode.IMPROVED, seed=41, name="src")
        target = build_platform(AccessMode.IMPROVED, seed=42, name="dst")
        guest = source.add_guest("mover")
        guest.client.extend(6, b"\x06" * 20)
        moved_pcr = guest.client.pcr_read(6)
        target_vm = target.migration.landing_domain(guest.domain)
        moved = migrate_with_recovery(
            source.migration, target.migration, guest.domain.uuid, target_vm
        )
        source.remove_guest("mover")
        handle = target.adopt_migrated("mover", target_vm, moved.instance_id)
        target.manager.save_all()
        checkpoint = state_digest(moved)
        saved_pcr = handle.client.pcr_read(7)
        handle.client.extend(7, b"\x07" * 20)
        assert state_digest(moved) != checkpoint
        assert target.restart_manager(clean=False) == 1
        restored = target.manager.instance_for_vm(target_vm.uuid)
        assert restored.instance_id != moved.instance_id
        assert handle.instance_id == restored.instance_id
        assert handle.backend.instance_id == restored.instance_id
        assert state_digest(restored) == checkpoint
        assert handle.client.pcr_read(7) == saved_pcr
        assert handle.client.pcr_read(6) == moved_pcr
        target.remove_guest("mover")
        assert "mover" not in target.guests
        assert target.manager.instance_count == 0
        assert not target_vm.is_alive
        assert not handle.frontend.connected

    def test_instance_ids_rotate_but_bindings_hold(self, improved_platform):
        platform = improved_platform
        guest = platform.add_guest("g")
        old_id = guest.instance_id
        platform.restart_manager()
        assert guest.instance_id != old_id
        # The new instance is again bound to the same identity.
        instance = platform.manager.instance(guest.instance_id)
        identity = platform.identities.lookup(guest.domain.domid)
        assert instance.bound_identity_hex == identity.hex
        # And commands still flow.
        assert len(guest.client.get_random(4)) == 4
