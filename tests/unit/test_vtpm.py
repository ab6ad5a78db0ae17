"""Unit tests for the vTPM subsystem: instances, manager, storage, drivers."""

import pytest

from repro.core.config import AccessMode
from repro.tpm import marshal
from repro.tpm.constants import TPM_AUTHFAIL, TPM_ORD_GetRandom, TPM_SUCCESS
from repro.util.bytesio import ByteWriter
from repro.util.errors import TpmError, VtpmError
from repro.vtpm.storage import (
    DiskStore,
    VtpmStorage,
    decode_generation,
    latest_raw_payload,
)


def _get_random_wire(count: int = 8) -> bytes:
    return marshal.build_command(TPM_ORD_GetRandom, ByteWriter().u32(count).getvalue())


class TestDiskStore:
    def test_write_read_roundtrip(self):
        disk = DiskStore()
        disk.write("file-a", b"contents")
        assert disk.read("file-a") == b"contents"
        assert disk.exists("file-a")

    def test_missing_file(self):
        with pytest.raises(VtpmError):
            DiskStore().read("ghost")

    def test_delete(self):
        disk = DiskStore()
        disk.write("f", b"x")
        disk.delete("f")
        assert not disk.exists("f")

    def test_raw_contents_is_thief_view(self):
        disk = DiskStore()
        disk.write("a", b"1")
        disk.write("b", b"2")
        loot = disk.raw_contents()
        assert loot == {"a": b"1", "b": b"2"}
        loot["a"] = b"tampered"
        assert disk.read("a") == b"1"  # a copy, not the store

    def test_list_files_sorted(self):
        disk = DiskStore()
        for name in ("zz", "aa", "mm"):
            disk.write(name, b"")
        assert disk.list_files() == ["aa", "mm", "zz"]


class TestVtpmStorage:
    def test_plaintext_roundtrip(self):
        storage = VtpmStorage(DiskStore(), sealer=None)
        name = storage.save_instance_state("uuid-x", None, b"cleartext state")
        assert storage.load_instance_state("uuid-x", None) == b"cleartext state"
        # Baseline really is plaintext at rest: the generation frame wraps
        # the payload but does nothing to hide it.
        raw = storage.disk.raw_contents()[name]
        generation, payload = decode_generation(raw)
        assert generation == 1
        assert payload == b"cleartext state"
        assert latest_raw_payload(storage.disk.raw_contents(), "uuid-x") == (
            b"cleartext state"
        )

    def test_generations_advance_and_prune(self):
        storage = VtpmStorage(DiskStore(), sealer=None)
        for i in range(5):
            storage.save_instance_state("u", None, b"state-%d" % i)
        # Retention window: latest plus one fallback.
        assert storage.generations("u") == [4, 5]
        assert storage.load_instance_state("u", None) == b"state-4"

    def test_delete(self):
        storage = VtpmStorage(DiskStore())
        storage.save_instance_state("u", None, b"s")
        assert storage.has_state("u")
        storage.delete_instance_state("u")
        assert not storage.has_state("u")


class TestInstances:
    def test_instance_state_resident_in_memory(self, baseline_platform):
        guest = baseline_platform.add_guest("g")
        instance = baseline_platform.manager.instance(guest.instance_id)
        image = instance.memory_image()
        assert image == instance.device.save_state_blob()

    def test_state_image_tracks_commands(self, baseline_platform):
        guest = baseline_platform.add_guest("g")
        instance = baseline_platform.manager.instance(guest.instance_id)
        before = instance.memory_image()
        guest.client.extend(3, b"\x77" * 20)
        after = instance.memory_image()
        assert before != after

    def test_state_region_grows_with_state(self, improved_platform):
        """A growing state image reallocates frames and keeps protection."""
        platform = improved_platform
        platform.manager.nv_capacity = 1 << 18
        guest = platform.add_guest("grower")
        instance = platform.manager.instance(guest.instance_id)
        old_frames = list(instance.state_region.frames)
        ek = guest.client.read_pubek()
        guest.client.take_ownership(b"o" * 20, b"s" * 20, ek)
        from repro.tpm.nvram import NV_PER_AUTHWRITE

        guest.client.nv_define(b"o" * 20, 0x99, 80_000, NV_PER_AUTHWRITE, b"n" * 20)
        instance = platform.manager.instance(guest.instance_id)
        assert instance.state_region.frames != old_frames
        assert all(
            platform.xen.memory.page(f).protected
            for f in instance.state_region.frames
        )

    def test_teardown_scrubs_and_frees(self, baseline_platform):
        platform = baseline_platform
        guest = platform.add_guest("g")
        instance = platform.manager.instance(guest.instance_id)
        frames = list(instance.state_region.frames)
        platform.manager.destroy_instance(guest.instance_id, persist=False)
        assert all(f not in platform.xen.memory.frames_owned_by(0) for f in frames)


class TestManager:
    def test_one_instance_per_vm(self, baseline_platform):
        guest = baseline_platform.add_guest("g")
        with pytest.raises(VtpmError, match="already has vTPM"):
            baseline_platform.manager.create_instance(guest.domain)

    def test_unknown_instance_answers_authfail(self, baseline_platform):
        [response] = baseline_platform.manager.handle_batch(
            0, 999, [_get_random_wire()]
        )
        assert marshal.parse_response(response).return_code == TPM_AUTHFAIL

    def test_instances_are_isolated(self, baseline_platform):
        a = baseline_platform.add_guest("a")
        b = baseline_platform.add_guest("b")
        a.client.extend(5, b"\x01" * 20)
        assert b.client.pcr_read(5) == b"\x00" * 20

    def test_instance_lookup_by_vm(self, baseline_platform):
        guest = baseline_platform.add_guest("g")
        instance = baseline_platform.manager.instance_for_vm(guest.domain.uuid)
        assert instance.instance_id == guest.instance_id
        with pytest.raises(VtpmError):
            baseline_platform.manager.instance_for_vm("no-such-uuid")

    def test_save_and_restore_instance(self, baseline_platform):
        platform = baseline_platform
        guest = platform.add_guest("g")
        guest.client.extend(7, b"\x09" * 20)
        expected = guest.client.pcr_read(7)
        platform.manager.save_instance(guest.instance_id)
        platform.manager.destroy_instance(guest.instance_id, persist=True)
        # The VM reboots: same name/kernel → same identity.
        platform.xen.destroy_domain(guest.domain.domid)
        rebooted = platform.xen.create_domain(
            "g", kernel_image=guest.domain.kernel_image,
            config=dict(guest.domain.config),
        )
        # Manager keys state by VM uuid; a rebooted domain gets a new uuid,
        # so restore goes through the old uuid's file.
        restored = platform.manager.restore_instance(guest.domain)
        from repro.tpm.client import TpmClient

        client = TpmClient(
            lambda wire: platform.manager.handle_batch(
                guest.domain.domid, restored.instance_id, [wire]
            )[0],
            platform.rng.fork("restored"),
        )
        assert client.pcr_read(7) == expected

    def test_improved_restore_requires_matching_identity(self, improved_platform):
        platform = improved_platform
        guest = platform.add_guest("g")
        platform.manager.save_instance(guest.instance_id)
        platform.manager.destroy_instance(guest.instance_id)
        # An imposter domain with a different kernel cannot load the state:
        imposter = platform.xen.create_domain("g-imposter", b"evil-kernel")
        platform.identities.register(imposter)
        imposter.uuid = guest.domain.uuid  # even stealing the uuid
        from repro.util.errors import SealingError

        with pytest.raises(SealingError):
            platform.manager.restore_instance(imposter)

    def test_counters(self, baseline_platform):
        platform = baseline_platform
        a = platform.add_guest("a")
        platform.add_guest("b")
        assert platform.manager.instance_count == 2
        a.client.get_random(4)
        assert platform.manager.commands_dispatched == 1
        assert platform.manager.commands_denied == 0


class TestSplitDriver:
    def test_xenstore_handshake_nodes(self, baseline_platform):
        guest = baseline_platform.add_guest("g")
        store = baseline_platform.xen.store
        base = f"/local/domain/{guest.domain.domid}/device/vtpm/0"
        assert store.read(0, f"{base}/state", privileged=True) == "4"
        assert int(store.read(0, f"{base}/ring-ref", privileged=True)) == \
            guest.frontend.ring.gref
        backend = f"/local/domain/0/backend/vtpm/{guest.domain.domid}/0/instance"
        assert int(store.read(0, backend, privileged=True)) == guest.instance_id

    def test_frontend_close_disconnects(self, baseline_platform):
        guest = baseline_platform.add_guest("g")
        guest.frontend.close()
        with pytest.raises(VtpmError):
            guest.frontend.transport(_get_random_wire())

    def test_paused_guest_cannot_transact(self, baseline_platform):
        guest = baseline_platform.add_guest("g")
        baseline_platform.xen.pause_domain(guest.domain.domid)
        from repro.util.errors import XenError

        with pytest.raises(XenError):
            guest.client.get_random(4)

    def test_rebind_changes_routing(self, baseline_platform):
        a = baseline_platform.add_guest("a")
        b = baseline_platform.add_guest("b")
        b.client.extend(5, b"\x44" * 20)
        expected = b.client.pcr_read(5)
        a.backend.rebind(b.instance_id)
        assert a.client.pcr_read(5) == expected  # stock Xen: hijack works
