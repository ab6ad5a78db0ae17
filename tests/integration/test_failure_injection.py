"""Failure injection: seeded faults, abused transports, exhaustion.

Storage, ring, device and migration faults are delivered through the
public :mod:`repro.faults` API — a seeded :class:`FaultPlan` executed by a
:class:`FaultInjector` installed around the code under test — rather than
by hand-editing disk blobs.  The remaining hand-edit cases model an
*attacker* (or a dying medium) damaging files at rest, which is a
different threat than an injected runtime fault.
"""

import pytest

from repro.faults import FaultInjector, FaultKind, FaultPlan, injector_scope, spec
from repro.obs import CounterRegistry, registry_scope
from repro.util.errors import (
    FaultInjected,
    MarshalError,
    RetryExhausted,
    RingError,
    TpmError,
    VtpmError,
)


def _plan(*specs, seed=7, name="test-plan"):
    return FaultPlan(specs=tuple(specs), seed=seed, name=name)


class TestStorageFaults:
    def test_torn_write_retried_transparently(self, improved_platform):
        platform = improved_platform
        guest = platform.add_guest("g")
        guest.client.extend(9, b"\x21" * 20)
        expected = guest.client.pcr_read(9)
        plan = _plan(spec(FaultKind.STORAGE_TORN_WRITE, at=(0,)))
        with registry_scope(CounterRegistry()) as counters:
            with injector_scope(FaultInjector(plan)) as injector:
                platform.manager.save_instance(guest.instance_id)
        # The first write died mid-flush; the retry committed the same
        # generation, so restore sees exactly the saved state.
        assert platform.disk.torn_writes == 1
        assert injector.retries >= 1
        assert counters.value("faults.recoveries", site="vtpm.storage.save") >= 1
        platform.manager.destroy_instance(guest.instance_id, persist=False)
        restored = platform.manager.restore_instance(guest.domain)
        guest.backend.rebind(restored.instance_id)
        assert guest.client.pcr_read(9) == expected

    def test_read_corruption_healed_by_reread(self, improved_platform):
        platform = improved_platform
        guest = platform.add_guest("g")
        guest.client.extend(4, b"\x55" * 20)
        expected = guest.client.pcr_read(4)
        platform.manager.save_instance(guest.instance_id)
        platform.manager.destroy_instance(guest.instance_id, persist=False)
        plan = _plan(spec(FaultKind.STORAGE_READ_CORRUPT, at=(0,)))
        with injector_scope(FaultInjector(plan)) as injector:
            restored = platform.manager.restore_instance(guest.domain)
        guest.backend.rebind(restored.instance_id)
        assert injector.fault_counts["storage-read-corrupt"] == 1
        assert injector.retries >= 1
        assert guest.client.pcr_read(4) == expected

    def test_persistent_corruption_falls_back_a_generation(
        self, improved_platform
    ):
        platform = improved_platform
        guest = platform.add_guest("g")
        guest.client.extend(11, b"\x31" * 20)
        checkpoint = guest.client.pcr_read(11)
        platform.manager.save_instance(guest.instance_id)   # generation 1
        guest.client.extend(11, b"\x32" * 20)
        platform.manager.save_instance(guest.instance_id)   # generation 2
        platform.manager.destroy_instance(guest.instance_id, persist=False)
        # Every read of generation 2 comes back corrupt: the medium is bad,
        # not the bus.  Restore must fall back to generation 1 — never hand
        # out a corrupt blob.
        latest = platform.storage.generations(guest.domain.uuid)[-1]
        plan = _plan(
            spec(
                FaultKind.STORAGE_READ_CORRUPT,
                every=1,
                match={"name": f"*gen-{latest:08d}"},
            )
        )
        with injector_scope(FaultInjector(plan)):
            restored = platform.manager.restore_instance(guest.domain)
        guest.backend.rebind(restored.instance_id)
        assert platform.storage.fallbacks >= 1
        assert guest.client.pcr_read(11) == checkpoint

    def test_enospc_garbage_collects_and_retries(self, improved_platform):
        platform = improved_platform
        guest = platform.add_guest("g")
        for _ in range(3):
            platform.manager.save_instance(guest.instance_id)
        plan = _plan(spec(FaultKind.STORAGE_ENOSPC, at=(0,)))
        with injector_scope(FaultInjector(plan)) as injector:
            platform.manager.save_instance(guest.instance_id)
        assert injector.fault_counts["storage-enospc"] == 1
        generations = platform.storage.generations(guest.domain.uuid)
        assert generations[-1] == 4
        # The new generation committed despite the full disk, and restore works.
        platform.manager.destroy_instance(guest.instance_id, persist=False)
        platform.manager.restore_instance(guest.domain)

    def test_save_retry_exhaustion_surfaces(self, improved_platform):
        platform = improved_platform
        guest = platform.add_guest("g")
        plan = _plan(spec(FaultKind.STORAGE_TORN_WRITE, every=1))
        with injector_scope(FaultInjector(plan)):
            with pytest.raises(RetryExhausted):
                platform.manager.save_instance(guest.instance_id)
        # The failed save never destroyed the running instance.
        assert len(guest.client.get_random(4)) == 4


class TestCrashMidSave:
    def test_hard_crash_mid_save_recovers_last_committed(
        self, improved_platform
    ):
        platform = improved_platform
        guest = platform.add_guest("g")
        guest.client.extend(10, b"\x0a" * 20)
        committed = guest.client.pcr_read(10)
        platform.manager.save_instance(guest.instance_id)   # generation 1
        guest.client.extend(10, b"\x0b" * 20)               # never persisted
        # The manager dies mid-flush of generation 2: non-transient torn
        # write, so no retry — the daemon is gone.
        plan = _plan(
            spec(FaultKind.STORAGE_TORN_WRITE, at=(0,), transient=False)
        )
        with injector_scope(FaultInjector(plan)):
            with pytest.raises(FaultInjected):
                platform.manager.save_instance(guest.instance_id)
        # Hard restart: no clean flush; recovery walks past the torn
        # generation 2 to the committed generation 1.
        assert platform.restart_manager(clean=False) == 1
        assert platform.storage.fallbacks >= 1
        assert guest.client.pcr_read(10) == committed

    def test_crash_mid_save_leaves_torn_file_detectable(
        self, improved_platform
    ):
        platform = improved_platform
        guest = platform.add_guest("g")
        platform.manager.save_instance(guest.instance_id)
        plan = _plan(
            spec(FaultKind.STORAGE_TORN_WRITE, at=(0,), transient=False)
        )
        with injector_scope(FaultInjector(plan)):
            with pytest.raises(FaultInjected):
                platform.manager.save_instance(guest.instance_id)
        # Both generation files exist on disk; the torn one is generation 2.
        assert platform.storage.generations(guest.domain.uuid) == [1, 2]
        assert platform.disk.torn_writes == 1


class TestStorageCorruptionAtRest:
    """Medium damage / attacker edits — not runtime faults, so these keep
    hand-editing the (generation-framed) files."""

    def test_improved_never_restores_damaged_only_copy(self, improved_platform):
        platform = improved_platform
        guest = platform.add_guest("g")
        name = platform.manager.save_instance(guest.instance_id)
        blob = bytearray(platform.disk.read(name))
        blob[len(blob) // 2] ^= 0xFF
        platform.disk.write(name, bytes(blob))
        platform.manager.destroy_instance(guest.instance_id, persist=False)
        # The checksum catches the flip; with no older generation to fall
        # back to, restore refuses rather than deserialising garbage.
        with pytest.raises(VtpmError):
            platform.manager.restore_instance(guest.domain)

    def test_corrupt_latest_falls_back_to_committed_predecessor(
        self, baseline_platform
    ):
        platform = baseline_platform
        guest = platform.add_guest("g")
        guest.client.extend(6, b"\x66" * 20)
        checkpoint = guest.client.pcr_read(6)
        platform.manager.save_instance(guest.instance_id)
        guest.client.extend(6, b"\x67" * 20)
        name = platform.manager.save_instance(guest.instance_id)
        platform.disk.write(name, b"garbage " * 10)  # structural damage
        platform.manager.destroy_instance(guest.instance_id, persist=False)
        restored = platform.manager.restore_instance(guest.domain)
        guest.backend.rebind(restored.instance_id)
        assert guest.client.pcr_read(6) == checkpoint

    def test_baseline_detects_structural_corruption(self, baseline_platform):
        platform = baseline_platform
        guest = platform.add_guest("g")
        name = platform.manager.save_instance(guest.instance_id)
        platform.disk.write(name, b"garbage " * 10)
        platform.manager.destroy_instance(guest.instance_id, persist=False)
        with pytest.raises(VtpmError):
            platform.manager.restore_instance(guest.domain)

    def test_missing_state_file(self, baseline_platform):
        platform = baseline_platform
        guest = platform.add_guest("g")
        platform.manager.destroy_instance(guest.instance_id, persist=False)
        with pytest.raises(VtpmError):
            platform.manager.restore_instance(guest.domain)

    def test_swapped_state_files_rejected_in_improved(self, improved_platform):
        """A (ciphertext) state file copied into another VM's generation
        slot fails: the per-instance key derivation binds uuid + identity."""
        platform = improved_platform
        a = platform.add_guest("alpha")
        b = platform.add_guest("beta")
        name_a = platform.manager.save_instance(a.instance_id)
        name_b = platform.manager.save_instance(b.instance_id)
        platform.disk.write(name_b, platform.disk.read(name_a))
        platform.manager.destroy_instance(b.instance_id, persist=False)
        from repro.util.errors import SealingError

        with pytest.raises(SealingError):
            platform.manager.restore_instance(b.domain)


class TestRingFaults:
    def test_dropped_notifications_retried(self, baseline_platform):
        platform = baseline_platform
        guest = platform.add_guest("g")
        plan = _plan(spec(FaultKind.RING_DROP_NOTIFY, at=(0, 1)))
        with injector_scope(FaultInjector(plan)) as injector:
            data = guest.client.get_random(8)
        assert len(data) == 8
        assert injector.fault_counts["ring-drop-notify"] == 2
        assert injector.retries >= 2
        assert injector.recoveries >= 1

    def test_ring_stall_costs_virtual_time(self, baseline_platform):
        from repro.sim.timing import get_context

        platform = baseline_platform
        guest = platform.add_guest("g")
        before = get_context().clock.now_us
        plan = _plan(spec(FaultKind.RING_STALL, at=(0,)))
        with injector_scope(FaultInjector(plan)):
            assert len(guest.client.get_random(8)) == 8
        assert get_context().clock.now_us - before >= 4_000.0

    def test_every_kick_dropped_exhausts_retry_budget(self, baseline_platform):
        platform = baseline_platform
        guest = platform.add_guest("g")
        plan = _plan(spec(FaultKind.RING_DROP_NOTIFY, every=1))
        with injector_scope(FaultInjector(plan)):
            with pytest.raises(RetryExhausted):
                guest.client.get_random(8)
        # Chaos off: the ring still works — no stuck state left behind.
        assert len(guest.client.get_random(8)) == 8


class TestDeviceFaults:
    def test_transient_device_fault_retried_invisibly(self, improved_platform):
        platform = improved_platform
        guest = platform.add_guest("g")
        plan = _plan(
            spec(FaultKind.DEVICE_TRANSIENT, at=(0,), match={"device": "vtpm*"})
        )
        with injector_scope(FaultInjector(plan)) as injector:
            data = guest.client.get_random(8)
        assert len(data) == 8
        assert injector.fault_counts["device-transient"] == 1
        assert injector.retries >= 1
        assert injector.recoveries >= 1

    def test_unrecoverable_device_fault_degrades_to_tpm_fail(
        self, improved_platform
    ):
        from repro.tpm.constants import TPM_FAIL

        platform = improved_platform
        guest = platform.add_guest("g")
        plan = _plan(
            spec(FaultKind.DEVICE_TRANSIENT, every=1, match={"device": "vtpm*"})
        )
        with injector_scope(FaultInjector(plan)):
            with pytest.raises(TpmError) as err:
                guest.client.get_random(8)
        assert err.value.code == TPM_FAIL
        assert platform.manager.faults_surfaced >= 1
        # Degradation is audited, and the manager is still alive.
        assert any(
            record.operation == "FAULT-DEGRADED"
            for record in platform.audit.records()
        )
        assert len(guest.client.get_random(8)) == 8
        assert platform.audit.verify_chain()


class TestMigrationInterruption:
    @pytest.fixture
    def pair_improved(self):
        from repro.core.config import AccessMode
        from repro.harness.builder import build_platform

        return (
            build_platform(AccessMode.IMPROVED, seed=81, name="src-f"),
            build_platform(AccessMode.IMPROVED, seed=82, name="dst-f"),
        )

    @staticmethod
    def _target_vm(destination, guest):
        return destination.xen.create_domain(
            guest.domain.name,
            kernel_image=guest.domain.kernel_image,
            config=dict(guest.domain.config),
        )

    def _migrated_client(self, destination, target_vm, instance):
        return destination.adopt_migrated(
            target_vm.name, target_vm, instance.instance_id
        ).client

    def test_net_drop_rolls_back_and_retries(self, pair_improved):
        from repro.vtpm.migration import migrate_with_recovery

        source, destination = pair_improved
        guest = source.add_guest("mover")
        guest.client.extend(6, b"\x77" * 20)
        expected = guest.client.pcr_read(6)
        target_vm = self._target_vm(destination, guest)
        plan = _plan(spec(FaultKind.MIGRATION_NET_DROP, at=(0,)))
        with injector_scope(FaultInjector(plan)) as injector:
            instance = migrate_with_recovery(
                source.migration, destination.migration,
                guest.domain.uuid, target_vm,
            )
        assert injector.retries >= 1
        assert injector.recoveries >= 1
        assert source.migration.pending_exports == 0
        # Committed: the source copy is gone, the destination copy is live.
        with pytest.raises(VtpmError):
            source.manager.instance_for_vm(guest.domain.uuid)
        client = self._migrated_client(destination, target_vm, instance)
        assert client.pcr_read(6) == expected

    def test_destination_crash_renegotiates(self, pair_improved):
        from repro.vtpm.migration import migrate_with_recovery

        source, destination = pair_improved
        guest = source.add_guest("mover")
        guest.client.extend(3, b"\x33" * 20)
        expected = guest.client.pcr_read(3)
        target_vm = self._target_vm(destination, guest)
        plan = _plan(spec(FaultKind.MIGRATION_DEST_CRASH, at=(0,)))
        with injector_scope(FaultInjector(plan)) as injector:
            instance = migrate_with_recovery(
                source.migration, destination.migration,
                guest.domain.uuid, target_vm,
            )
        assert injector.fault_counts["migration-dest-crash"] == 1
        client = self._migrated_client(destination, target_vm, instance)
        assert client.pcr_read(3) == expected

    def test_exhausted_migration_leaves_source_serving(self, pair_improved):
        from repro.vtpm.migration import migrate_with_recovery

        source, destination = pair_improved
        guest = source.add_guest("mover")
        target_vm = self._target_vm(destination, guest)
        plan = _plan(spec(FaultKind.MIGRATION_NET_DROP, every=1))
        with injector_scope(FaultInjector(plan)):
            with pytest.raises(RetryExhausted):
                migrate_with_recovery(
                    source.migration, destination.migration,
                    guest.domain.uuid, target_vm,
                )
        # Rolled back, not destroyed: the guest's vTPM keeps serving.
        assert source.migration.pending_exports == 0
        assert source.manager.instance_for_vm(guest.domain.uuid) is not None
        assert len(guest.client.get_random(4)) == 4


class TestTransportAbuse:
    def test_garbage_injected_into_ring_surfaces_as_tpm_error(
        self, baseline_platform
    ):
        """Dom0 maps the ring page and injects garbage: the manager answers
        with a TPM error frame; the instance keeps working."""
        platform = baseline_platform
        guest = platform.add_guest("g")
        ring = guest.frontend.ring
        import struct

        garbage = b"\xde\xad\xbe\xef" * 4
        # Dom0 writes through its grant mapping; the kick must arrive at
        # the back-end as if from the front-end (the injection vector).
        platform.xen.memory.write(
            0, ring.frame, 0, struct.pack(">II", 1, len(garbage)) + garbage
        )
        platform.xen.events.notify(ring.port, guest.domain.domid)
        # The response the backend wrote is an error frame:
        status, length = struct.unpack(
            ">II", platform.xen.memory.read(0, ring.frame, 0, 8)
        )
        assert status == 2
        from repro.tpm import marshal

        body = platform.xen.memory.read(0, ring.frame, 8, length)
        assert marshal.parse_response(body).return_code != 0
        # And legitimate traffic still flows afterwards.
        assert len(guest.client.get_random(4)) == 4

    def test_oversized_frontend_command_rejected_locally(self, baseline_platform):
        guest = baseline_platform.add_guest("g")
        with pytest.raises(RingError):
            guest.frontend.transport(b"\x00" * 5000)

    def test_notify_with_bad_status_raises_ring_error(self, baseline_platform):
        platform = baseline_platform
        guest = platform.add_guest("g")
        ring = guest.frontend.ring
        import struct

        platform.xen.memory.write(0, ring.frame, 0, struct.pack(">II", 7, 0))
        with pytest.raises(RingError, match="status 7"):
            platform.xen.events.notify(ring.port, guest.domain.domid)


class TestResourceExhaustion:
    def test_session_exhaustion_surfaces_tpm_resources(self, tpm_client):
        from repro.tpm.constants import MAX_SESSIONS, TPM_RESOURCES

        sessions = [tpm_client.oiap() for _ in range(MAX_SESSIONS)]
        with pytest.raises(TpmError) as err:
            tpm_client.oiap()
        assert err.value.code == TPM_RESOURCES
        # Flushing one frees a slot.
        tpm_client.flush_session(sessions[0])
        tpm_client.oiap()

    def test_key_slot_exhaustion(self, owned_client):
        from tests.conftest import SRK
        from repro.tpm.constants import MAX_KEY_SLOTS, TPM_KEY_SIGNING, TPM_KH_SRK, TPM_RESOURCES

        blob = owned_client.create_wrap_key(
            TPM_KH_SRK, SRK, b"K" * 20, TPM_KEY_SIGNING, 512
        )
        handles = [
            owned_client.load_key2(TPM_KH_SRK, SRK, blob)
            for _ in range(MAX_KEY_SLOTS)
        ]
        with pytest.raises(TpmError) as err:
            owned_client.load_key2(TPM_KH_SRK, SRK, blob)
        assert err.value.code == TPM_RESOURCES
        owned_client.evict_key(handles[0])
        owned_client.load_key2(TPM_KH_SRK, SRK, blob)

    def test_machine_memory_exhaustion(self):
        from repro.crypto.random_source import RandomSource
        from repro.util.errors import XenError
        from repro.xen.hypervisor import Xen

        xen = Xen(RandomSource(b"small"), total_pages=300, dom0_pages=256)
        xen.create_domain("one", b"k", pages=30)
        with pytest.raises(XenError, match="out of memory"):
            xen.create_domain("two", b"k", pages=30)


class TestAuditResilience:
    def test_audit_survives_denials_and_verifies(self, improved_platform):
        platform = improved_platform
        victim = platform.add_guest("victim")
        attacker = platform.add_guest("attacker")
        # The backend refuses the re-bind outright (fail closed), and each
        # refused attempt lands on the audit chain as a denial.
        for _ in range(5):
            with pytest.raises(VtpmError):
                attacker.backend.rebind(victim.instance_id)
        assert attacker.backend.instance_id == attacker.instance_id
        assert len(platform.audit.denials()) == 5
        assert platform.audit.verify_chain()

    def test_denied_commands_do_not_touch_instance(self, improved_platform):
        platform = improved_platform
        victim = platform.add_guest("victim")
        attacker = platform.add_guest("attacker")
        instance = platform.manager.instance(victim.instance_id)
        handled_before = instance.commands_handled
        # Fail closed: the re-bind never takes, so the attacker's commands
        # keep landing on its own instance and the victim is untouched.
        with pytest.raises(VtpmError):
            attacker.backend.rebind(victim.instance_id)
        attacker.client.extend(10, b"\xee" * 20)
        assert instance.commands_handled == handled_before
        assert victim.client.pcr_read(10) == b"\x00" * 20

    def test_injected_faults_land_on_the_audit_chain(self, improved_platform):
        platform = improved_platform
        guest = platform.add_guest("g")
        plan = _plan(spec(FaultKind.RING_DROP_NOTIFY, at=(0,)))
        injector = FaultInjector(plan, audit=platform.audit)
        with injector_scope(injector):
            guest.client.get_random(4)
        fault_records = [
            r for r in platform.audit.records()
            if r.operation.startswith("FAULT:")
        ]
        assert len(fault_records) == 1
        assert fault_records[0].operation == "FAULT:ring-drop-notify"
        assert platform.audit.verify_chain()
