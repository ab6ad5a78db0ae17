"""Integration: the attack matrix and individual attack mechanics."""

import pytest

from repro.attacks.scenarios import AttackOutcome, run_attack_matrix
from repro.core.config import AccessMode
from repro.core.reason import Reason
from repro.harness.builder import build_platform

EXPECTED = {
    "mem-dump-manager": ("succeeded", "blocked"),
    "cpu-dump": ("succeeded", "blocked"),
    "rogue-rebind": ("succeeded", "blocked"),
    "replay": ("blocked", "blocked"),
    "state-theft": ("succeeded", "blocked"),
    "foreign-restore": ("succeeded", "blocked"),
    "migration-intercept": ("succeeded", "blocked"),
}


class TestAttackMatrix:
    @pytest.fixture(scope="class")
    def matrices(self):
        baseline = {r.attack: r for r in run_attack_matrix(AccessMode.BASELINE, seed=42)}
        improved = {r.attack: r for r in run_attack_matrix(AccessMode.IMPROVED, seed=42)}
        return baseline, improved

    def test_every_attack_modelled(self, matrices):
        baseline, improved = matrices
        assert set(baseline) == set(EXPECTED) == set(improved)

    @pytest.mark.parametrize("attack", sorted(EXPECTED))
    def test_outcome_shape(self, matrices, attack):
        baseline, improved = matrices
        expected_b, expected_i = EXPECTED[attack]
        assert baseline[attack].outcome.value == expected_b, baseline[attack].detail
        assert improved[attack].outcome.value == expected_i, improved[attack].detail

    def test_reports_carry_details(self, matrices):
        baseline, improved = matrices
        for report in list(baseline.values()) + list(improved.values()):
            assert report.detail
            assert report.description


class TestAttackMechanics:
    def test_memdump_sees_exact_secret_strings(self):
        """The baseline leak is the actual key material, not a fluke."""
        from repro.attacks.memdump import MemoryDumpAttack, secrets_found

        platform = build_platform(AccessMode.BASELINE, seed=60)
        guest = platform.add_guest("victim")
        ek = guest.client.read_pubek()
        guest.client.take_ownership(b"O" * 20, b"S" * 20, ek)
        instance = platform.manager.instance(guest.instance_id)
        image = b"".join(
            platform.dom0_hypercalls().dump_domain_memory(0).values()
        )
        hits = secrets_found(image, instance.device.state.secret_material())
        srk_private = instance.device.state.keys.srk.keypair.serialize_private()
        assert srk_private in hits

    def test_rogue_rebind_detected_in_audit(self):
        from repro.attacks.rogue import RogueRebindAttack

        platform = build_platform(AccessMode.IMPROVED, seed=61)
        victim = platform.add_guest("victim")
        attacker = platform.add_guest("attacker")
        attack = RogueRebindAttack(platform, attacker=attacker, victim=victim)
        succeeded, _detail = attack.run()
        assert not succeeded
        denials = platform.audit.denials()
        assert denials, "denied rebinding must be audited"
        assert any(
            r.reason == Reason.BINDING_MISMATCH.value for r in denials
        )

    def test_protection_does_not_break_grants(self):
        """Split-driver sharing keeps working while dumps are blocked."""
        platform = build_platform(AccessMode.IMPROVED, seed=62)
        guest = platform.add_guest("worker")
        # The ring page is granted (not protected) — commands still flow:
        assert len(guest.client.get_random(16)) == 16
        # While every instance state frame refuses foreign maps:
        instance = platform.manager.instance(guest.instance_id)
        from repro.util.errors import XenError

        hypercalls = platform.dom0_hypercalls()
        for frame in instance.state_region.frames:
            with pytest.raises(XenError):
                hypercalls.foreign_map_page(frame)

    def test_state_theft_is_silent_but_useless(self):
        from repro.attacks.theft import StateFileTheftAttack

        platform = build_platform(AccessMode.IMPROVED, seed=63)
        guest = platform.add_guest("victim")
        ek = guest.client.read_pubek()
        guest.client.take_ownership(b"O" * 20, b"S" * 20, ek)
        attack = StateFileTheftAttack(platform)
        succeeded, detail = attack.run(guest.instance_id)
        assert not succeeded
        assert "ciphertext" in detail

    def test_cross_vm_attack_from_guest_blocked_at_hypervisor(self):
        """An unprivileged guest cannot even reach the dump interface."""
        platform = build_platform(AccessMode.BASELINE, seed=64)
        attacker = platform.add_guest("attacker")
        victim = platform.add_guest("victim")
        from repro.util.errors import XenError

        hypercalls = platform.hypercalls_for(attacker.domain.domid)
        with pytest.raises(XenError):
            hypercalls.dump_domain_memory(victim.domain.domid)
        with pytest.raises(XenError):
            hypercalls.foreign_map_page(victim.domain.memory.frames[0])

    def test_replayed_migration_offer_blocked_and_audited(self):
        """An interceptor who captured a sealed migration package cannot
        land a second copy of the instance by replaying it: the offer is
        single-use, the replay raises, and the denial is audited."""
        from repro.util.errors import MigrationError

        source = build_platform(AccessMode.IMPROVED, seed=65, name="atk-src")
        destination = build_platform(AccessMode.IMPROVED, seed=66, name="atk-dst")
        guest = source.add_guest("victim")
        target_vm = destination.xen.create_domain(
            guest.domain.name,
            kernel_image=guest.domain.kernel_image,
            config=dict(guest.domain.config),
        )
        from repro.vtpm.migration import Migration

        class Interceptor(Migration):
            def wire(self, package):
                self.captured = package

        move = Interceptor(
            source.migration, destination.migration, guest.domain.uuid, target_vm
        )
        move.run()
        captured = move.captured
        instances_before = len(destination.manager.instances())
        clone_vm = destination.xen.create_domain(
            "victim-clone",
            kernel_image=guest.domain.kernel_image,
            config=dict(guest.domain.config),
        )
        with pytest.raises(MigrationError, match="replay"):
            destination.migration.import_sealed(captured, clone_vm)
        assert len(destination.manager.instances()) == instances_before
        denials = [
            r for r in destination.audit.for_subject("migration")
            if not r.allowed and "replay" in r.reason
        ]
        assert denials, "the replay attempt must be visible in the audit log"

    def test_stale_migration_offer_blocked_and_audited(self):
        """A stale offer dug out of a captured handshake expires on the
        virtual clock and cannot be redeemed later."""
        from repro.sim.timing import get_context
        from repro.util.errors import MigrationError

        source = build_platform(AccessMode.IMPROVED, seed=67, name="stale-src")
        destination = build_platform(AccessMode.IMPROVED, seed=68, name="stale-dst")
        guest = source.add_guest("victim")
        target_vm = destination.xen.create_domain(
            guest.domain.name,
            kernel_image=guest.domain.kernel_image,
            config=dict(guest.domain.config),
        )
        offer = destination.migration.prepare_target(ttl_us=1_000.0)
        txn = source.migration.begin_export_sealed(guest.domain.uuid, offer)
        get_context().clock.advance(60_000.0)
        with pytest.raises(MigrationError, match="expired"):
            destination.migration.import_sealed(txn.package, target_vm)
        source.migration.abort_export(txn)
        # Fail-closed rollback: the only copy still serves on the source.
        assert source.manager.instance_for_vm(guest.domain.uuid)
