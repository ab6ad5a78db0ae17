"""Unit tests for vTPM live migration (both protocols)."""

import pytest

from repro.core.config import AccessMode
from repro.harness.builder import build_platform
from repro.util.errors import MigrationError, VtpmError
from repro.vtpm.migration import Migration, migrate_with_recovery


@pytest.fixture
def pair_baseline():
    return (
        build_platform(AccessMode.BASELINE, seed=51, name="src-b"),
        build_platform(AccessMode.BASELINE, seed=52, name="dst-b"),
    )


@pytest.fixture
def pair_improved():
    return (
        build_platform(AccessMode.IMPROVED, seed=51, name="src-i"),
        build_platform(AccessMode.IMPROVED, seed=52, name="dst-i"),
    )


def _target_vm(destination, guest):
    return destination.xen.create_domain(
        guest.domain.name,
        kernel_image=guest.domain.kernel_image,
        config=dict(guest.domain.config),
    )


class _Tap(Migration):
    """The one migration path, with the package recorded on the wire."""

    def wire(self, package):
        self.package = package


def _tapped(source, destination, guest, target_vm):
    return _Tap(
        source.migration, destination.migration, guest.domain.uuid, target_vm
    )


class TestPlaintextMigration:
    def test_state_moves(self, pair_baseline):
        source, destination = pair_baseline
        guest = source.add_guest("mover")
        guest.client.extend(6, b"\x66" * 20)
        expected = guest.client.pcr_read(6)
        target_vm = _target_vm(destination, guest)
        instance = migrate_with_recovery(
            source.migration, destination.migration, guest.domain.uuid, target_vm
        )
        client = destination.adopt_migrated(
            "mover", target_vm, instance.instance_id
        ).client
        assert client.pcr_read(6) == expected

    def test_source_instance_destroyed(self, pair_baseline):
        source, destination = pair_baseline
        guest = source.add_guest("mover")
        migrate_with_recovery(
            source.migration, destination.migration, guest.domain.uuid,
            _target_vm(destination, guest),
        )
        with pytest.raises(VtpmError):
            source.manager.instance_for_vm(guest.domain.uuid)

    def test_payload_contains_cleartext(self, pair_baseline):
        source, _ = pair_baseline
        guest = source.add_guest("mover")
        secrets = source.manager.instance(
            guest.instance_id
        ).device.state.secret_material()
        package = source.migration.begin_export_plaintext(guest.domain.uuid).package
        assert any(s in package.payload for s in secrets)

    def test_wrong_magic_rejected(self, pair_baseline):
        _source, destination = pair_baseline
        from repro.vtpm.migration import MigrationPackage

        vm = destination.xen.create_domain("t", b"k")
        with pytest.raises(MigrationError):
            destination.migration.import_plaintext(
                MigrationPackage(payload=b"XXXXXXXX" + b"\x00" * 32), vm
            )


class TestSealedMigration:
    def test_state_moves_encrypted(self, pair_improved):
        source, destination = pair_improved
        guest = source.add_guest("mover")
        guest.client.extend(6, b"\x66" * 20)
        expected = guest.client.pcr_read(6)
        secrets = source.manager.instance(
            guest.instance_id
        ).device.state.secret_material()
        target_vm = _target_vm(destination, guest)
        offer = destination.migration.prepare_target()
        txn = source.migration.begin_export_sealed(guest.domain.uuid, offer)
        package = txn.package
        assert not any(s in package.payload for s in secrets if len(s) >= 16)
        instance = destination.migration.import_sealed(package, target_vm)
        source.migration.commit_export(txn)
        client = destination.adopt_migrated(
            "mover", target_vm, instance.instance_id
        ).client
        assert client.pcr_read(6) == expected

    def test_offer_is_single_use(self, pair_improved):
        source, destination = pair_improved
        guest = source.add_guest("mover")
        target_vm = _target_vm(destination, guest)
        move = _tapped(source, destination, guest, target_vm)
        move.run()
        package = move.package
        replay_vm = destination.xen.create_domain(
            "replayed", kernel_image=guest.domain.kernel_image,
            config=dict(guest.domain.config),
        )
        with pytest.raises(MigrationError):
            destination.migration.import_sealed(package, replay_vm)

    def test_package_bound_to_offer(self, pair_improved):
        source, destination = pair_improved
        guest = source.add_guest("mover")
        target_vm = _target_vm(destination, guest)
        offer = destination.migration.prepare_target()
        stale_offer = destination.migration.prepare_target()
        package = source.migration.begin_export_sealed(
            guest.domain.uuid, offer
        ).package
        # Import consumes the matching offer only; tamper the offer id.
        import struct

        hacked = bytearray(package.payload)
        hacked[8:12] = struct.pack(">I", stale_offer.offer_id)
        from repro.vtpm.migration import MigrationPackage

        with pytest.raises(MigrationError, match="nonce"):
            destination.migration.import_sealed(
                MigrationPackage(payload=bytes(hacked)), target_vm
            )

    def test_identity_continuity_enforced(self, pair_improved):
        source, destination = pair_improved
        guest = source.add_guest("mover")
        imposter = destination.xen.create_domain(
            "imposter", kernel_image=b"different-kernel"
        )
        with pytest.raises(MigrationError, match="identity"):
            migrate_with_recovery(
                source.migration, destination.migration,
                guest.domain.uuid, imposter,
            )

    def test_wrong_destination_cannot_import(self, pair_improved):
        """A package sealed for host B is useless to host C."""
        source, destination = pair_improved
        host_c = build_platform(AccessMode.IMPROVED, seed=77, name="host-c")
        guest = source.add_guest("mover")
        offer_b = destination.migration.prepare_target()
        package = source.migration.begin_export_sealed(
            guest.domain.uuid, offer_b
        ).package
        vm_on_c = host_c.xen.create_domain(
            guest.domain.name, kernel_image=guest.domain.kernel_image,
            config=dict(guest.domain.config),
        )
        with pytest.raises(MigrationError):
            host_c.migration.import_sealed(package, vm_on_c)

    def test_replayed_offer_recognised_and_audited(self, pair_improved):
        source, destination = pair_improved
        guest = source.add_guest("mover")
        target_vm = _target_vm(destination, guest)
        move = _tapped(source, destination, guest, target_vm)
        move.run()
        package = move.package
        replay_vm = destination.xen.create_domain(
            "replayed", kernel_image=guest.domain.kernel_image,
            config=dict(guest.domain.config),
        )
        with pytest.raises(MigrationError, match="replay"):
            destination.migration.import_sealed(package, replay_vm)
        denials = [
            r for r in destination.audit.for_subject("migration")
            if not r.allowed and "replay" in r.reason
        ]
        assert denials, "replayed offer must leave an audit record"

    def test_offer_expires_in_virtual_time(self, pair_improved):
        from repro.sim.timing import get_context

        source, destination = pair_improved
        guest = source.add_guest("mover")
        target_vm = _target_vm(destination, guest)
        offer = destination.migration.prepare_target(ttl_us=500.0)
        txn = source.migration.begin_export_sealed(guest.domain.uuid, offer)
        get_context().clock.advance(10_000.0)
        with pytest.raises(MigrationError, match="expired"):
            destination.migration.import_sealed(txn.package, target_vm)
        denials = [
            r for r in destination.audit.for_subject("migration")
            if not r.allowed and "expired" in r.reason
        ]
        assert denials, "expired offer must leave an audit record"
        # The source never got an ack, so the guest's vTPM keeps serving.
        source.migration.abort_export(txn)
        assert source.manager.instance_for_vm(guest.domain.uuid)

    def test_expired_offer_refused_at_source(self, pair_improved):
        from repro.sim.timing import get_context

        source, destination = pair_improved
        guest = source.add_guest("mover")
        offer = destination.migration.prepare_target(ttl_us=500.0)
        get_context().clock.advance(10_000.0)
        with pytest.raises(MigrationError, match="expired"):
            source.migration.begin_export_sealed(guest.domain.uuid, offer)

    def test_consumed_offer_refused_at_source(self, pair_improved):
        source, destination = pair_improved
        guest = source.add_guest("mover")
        target_vm = _target_vm(destination, guest)
        offer = destination.migration.prepare_target()
        txn = source.migration.begin_export_sealed(guest.domain.uuid, offer)
        destination.migration.import_sealed(txn.package, target_vm)
        source.migration.commit_export(txn)
        other = source.add_guest("mover2")
        with pytest.raises(MigrationError, match="consumed"):
            source.migration.begin_export_sealed(other.domain.uuid, offer)

    def test_migration_counters_and_span(self, pair_improved):
        from repro import obs

        source, destination = pair_improved
        guest = source.add_guest("mover")
        target_vm = _target_vm(destination, guest)
        sink = obs.InMemorySink()
        with obs.tracer_scope(obs.Tracer(sink)), \
                obs.registry_scope(obs.CounterRegistry()) as counters:
            move = _tapped(source, destination, guest, target_vm)
            move.run()
        package = move.package
        assert counters.value("vtpm.migration.export_begun", protocol="sealed") == 1
        assert counters.value("vtpm.migration.export_committed") == 1
        assert counters.value("vtpm.migration.bytes_moved") == len(package)
        assert counters.value("vtpm.migration.imported", protocol="sealed") == 1
        spans = sink.spans_named("vtpm.migrate")
        assert {s.attrs["op"] for s in spans} == {"export", "import"}
        export_span = next(s for s in spans if s.attrs["op"] == "export")
        assert export_span.attrs["bytes"] == len(package)

    def test_aborted_export_counted(self, pair_improved):
        from repro import obs

        source, destination = pair_improved
        guest = source.add_guest("mover")
        with obs.registry_scope(obs.CounterRegistry()) as counters:
            offer = destination.migration.prepare_target()
            txn = source.migration.begin_export_sealed(guest.domain.uuid, offer)
            source.migration.abort_export(txn)
            source.migration.abort_export(txn)  # idempotent: counted once
        assert counters.value("vtpm.migration.export_aborted") == 1
        assert counters.value("vtpm.migration.export_committed") == 0


def _imposter(destination, index=0):
    return destination.xen.create_domain(
        f"imposter-{index}", kernel_image=b"different-kernel"
    )


def _loaded_keys(platform):
    return platform.hw.device.state.keys.loaded_count


class TestOneTransaction:
    """Every mover shares one rollback: refused, dropped or crashed
    migrations leave the source serving and the destination's hardware
    TPM as it found it."""

    def test_refused_import_leaves_source_serving(self, pair_improved):
        from repro.harness.scenario import state_digest

        source, destination = pair_improved
        guest = source.add_guest("mover")
        guest.client.extend(5, b"\x55" * 20)
        before = state_digest(source.manager.instance_for_vm(guest.domain.uuid))
        with pytest.raises(MigrationError, match="identity"):
            migrate_with_recovery(
                source.migration, destination.migration,
                guest.domain.uuid, _imposter(destination),
            )
        instance = source.manager.instance_for_vm(guest.domain.uuid)
        assert state_digest(instance) == before
        assert source.migration.pending_exports == 0
        assert len(guest.client.get_random(4)) == 4

    def test_refusals_do_not_exhaust_destination_key_slots(self, pair_improved):
        from repro.tpm.constants import MAX_KEY_SLOTS

        source, destination = pair_improved
        guest = source.add_guest("mover")
        keys_before = _loaded_keys(destination)
        for index in range(MAX_KEY_SLOTS + 2):
            with pytest.raises(MigrationError, match="identity"):
                migrate_with_recovery(
                    source.migration, destination.migration,
                    guest.domain.uuid, _imposter(destination, index),
                )
        assert source.migration.pending_exports == 0
        assert _loaded_keys(destination) <= keys_before
        target_vm = _target_vm(destination, guest)
        instance = migrate_with_recovery(
            source.migration, destination.migration, guest.domain.uuid, target_vm
        )
        assert destination.manager.instance_for_vm(target_vm.uuid) is instance
        assert source.migration.pending_exports == 0
        assert _loaded_keys(destination) <= keys_before

    def test_refused_package_replay_still_recognised(self, pair_improved):
        source, destination = pair_improved
        guest = source.add_guest("mover")
        keys_before = _loaded_keys(destination)
        move = _tapped(source, destination, guest, _imposter(destination))
        with pytest.raises(MigrationError, match="identity"):
            move.run()
        # The rollback released the spent offer's key but kept the offer.
        assert _loaded_keys(destination) == keys_before
        with pytest.raises(MigrationError, match="already consumed: replay"):
            destination.migration.import_sealed(
                move.package, _target_vm(destination, guest)
            )
        denials = [
            r for r in destination.audit.for_subject("migration")
            if not r.allowed and "replay" in r.reason
        ]
        assert denials, "a replay after rollback must leave an audit record"

    def test_hard_wire_fault_releases_export_and_offer(self, pair_improved):
        from repro.faults import (
            FaultInjector, FaultKind, FaultPlan, injector_scope, spec,
        )
        from repro.util.errors import FaultInjected

        source, destination = pair_improved
        guest = source.add_guest("mover")
        target_vm = _target_vm(destination, guest)
        keys_before = _loaded_keys(destination)
        plan = FaultPlan(
            name="hard-drop", seed=1,
            specs=(spec(FaultKind.MIGRATION_NET_DROP, at=(0,), transient=False),),
        )
        with injector_scope(FaultInjector(plan)):
            with pytest.raises(FaultInjected):
                migrate_with_recovery(
                    source.migration, destination.migration,
                    guest.domain.uuid, target_vm,
                )
        assert source.migration.pending_exports == 0
        assert _loaded_keys(destination) == keys_before
        assert source.manager.instance_for_vm(guest.domain.uuid)

    def test_failed_export_cancels_the_offer(self, pair_improved):
        source, destination = pair_improved
        guest = source.add_guest("mover")
        keys_before = _loaded_keys(destination)
        with pytest.raises(VtpmError, match="has no vTPM instance"):
            migrate_with_recovery(
                source.migration, destination.migration,
                "no-such-vm", _target_vm(destination, guest),
            )
        assert _loaded_keys(destination) == keys_before
        assert source.migration.pending_exports == 0
