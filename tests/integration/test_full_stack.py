"""Integration: the whole stack, end to end, in both regimes."""

import hashlib

import pytest

from repro.core.config import AccessMode
from repro.harness.builder import build_platform
from repro.tpm.constants import TPM_KEY_SIGNING, TPM_KH_SRK
from repro.tpm.pcr import PcrBank, PcrSelection
from repro.tpm.structures import make_quote_info
from repro.util.errors import TpmError

OWNER = b"int-owner-auth!!!!!!"
SRK = b"int-srk-auth!!!!!!!!"
KEY = b"int-key-auth!!!!!!!!"
DATA = b"int-data-auth!!!!!!!"


@pytest.mark.parametrize("mode", [AccessMode.BASELINE, AccessMode.IMPROVED])
class TestFullGuestLifecycle:
    def test_provision_measure_seal_quote(self, mode):
        platform = build_platform(mode, seed=17)
        guest = platform.add_guest("lifecycle")
        client = guest.client

        # Provision.
        ek = client.read_pubek()
        client.take_ownership(OWNER, SRK, ek)

        # Measured boot.
        for pcr, stage in ((8, b"kernel"), (9, b"initrd"), (10, b"app")):
            client.extend(pcr, hashlib.sha1(stage).digest())

        # Seal to state.
        selection = PcrSelection([8, 9, 10])
        values = [client.pcr_read(i) for i in (8, 9, 10)]
        digest = PcrBank.composite_of(selection, values)
        blob = client.seal(TPM_KH_SRK, SRK, b"secret!", DATA, selection, digest)
        assert client.unseal(TPM_KH_SRK, SRK, blob, DATA) == b"secret!"

        # Quote and verify challenger-side.
        key_blob = client.create_wrap_key(TPM_KH_SRK, SRK, KEY, TPM_KEY_SIGNING, 512)
        handle = client.load_key2(TPM_KH_SRK, SRK, key_blob)
        nonce = b"\x5a" * 20
        composite, pcr_values, signature = client.quote(handle, KEY, nonce, [8, 9, 10])
        public = client.get_pub_key(handle, KEY)
        info = make_quote_info(composite, nonce)
        assert public.verify_sha1(hashlib.sha1(info).digest(), signature)
        assert PcrBank.composite_of(selection, pcr_values) == composite

        # Drift breaks both unseal and quote matching.
        client.extend(10, hashlib.sha1(b"tampered").digest())
        with pytest.raises(TpmError):
            client.unseal(TPM_KH_SRK, SRK, blob, DATA)
        composite2, _values2, _sig2 = client.quote(handle, KEY, nonce, [8, 9, 10])
        assert composite2 != composite

    def test_many_guests_independent_hierarchies(self, mode):
        platform = build_platform(mode, seed=18)
        guests = [platform.add_guest(f"vm{i}") for i in range(4)]
        moduli = set()
        for guest in guests:
            ek = guest.client.read_pubek()
            guest.client.take_ownership(OWNER, SRK, ek)
            moduli.add(ek.n)
            guest.client.extend(5, hashlib.sha1(guest.domain.name.encode()).digest())
        assert len(moduli) == 4  # every vTPM has its own EK
        values = {g.domain.name: g.client.pcr_read(5) for g in guests}
        assert len(set(values.values())) == 4

    def test_guest_reboot_with_persisted_vtpm(self, mode):
        platform = build_platform(mode, seed=19)
        guest = platform.add_guest("rebooter")
        ek = guest.client.read_pubek()
        guest.client.take_ownership(OWNER, SRK, ek)
        guest.client.extend(11, b"\x31" * 20)
        expected_pcr = guest.client.pcr_read(11)
        sealed = guest.client.seal(TPM_KH_SRK, SRK, b"survives-reboot", DATA)
        platform.manager.save_instance(guest.instance_id)
        platform.remove_guest("rebooter", persist_vtpm=True)

        rebooted = platform.xen.create_domain(
            "rebooter", kernel_image=guest.domain.kernel_image,
            config=dict(guest.domain.config),
        )
        rebooted.uuid = guest.domain.uuid  # same VM, same storage key
        if mode is AccessMode.IMPROVED:
            platform.identities.register(rebooted)
        instance = platform.manager.restore_instance(rebooted)
        client = platform.adopt_migrated(
            "rebooter", rebooted, instance.instance_id
        ).client
        assert client.pcr_read(11) == expected_pcr
        assert client.unseal(TPM_KH_SRK, SRK, sealed, DATA) == b"survives-reboot"


class TestRegimeDifferences:
    def test_improved_keeps_disk_ciphertext(self):
        improved = build_platform(AccessMode.IMPROVED, seed=20)
        baseline = build_platform(AccessMode.BASELINE, seed=20)
        for platform in (improved, baseline):
            guest = platform.add_guest("storer")
            ek = guest.client.read_pubek()
            guest.client.take_ownership(OWNER, SRK, ek)
            platform.manager.save_instance(guest.instance_id)
        base_files = baseline.disk.raw_contents()
        impr_files = improved.disk.raw_contents()
        assert any(OWNER in blob for blob in base_files.values())
        assert not any(OWNER in blob for blob in impr_files.values())

    def test_improved_audits_normal_traffic(self):
        platform = build_platform(AccessMode.IMPROVED, seed=21)
        guest = platform.add_guest("audited")
        guest.client.get_random(8)
        guest.client.extend(1, b"\x01" * 20)
        operations = [r.operation for r in platform.audit.records()]
        assert "TPM_GetRandom" in operations
        assert "TPM_Extend" in operations
        assert platform.audit.verify_chain()

    def test_monitor_overhead_is_positive_but_small(self):
        """The core performance claim at the single-command level."""
        import hashlib as _h
        from repro.harness.builder import fresh_timing_context
        from repro.sim.timing import get_context

        elapsed = {}
        for mode in (AccessMode.BASELINE, AccessMode.IMPROVED):
            fresh_timing_context()
            platform = build_platform(mode, seed=22)
            guest = platform.add_guest("timer")
            start = get_context().clock.now_us
            for i in range(30):
                guest.client.extend(2, _h.sha1(bytes([i])).digest())
            elapsed[mode.value] = get_context().clock.now_us - start
        assert elapsed["improved"] > elapsed["baseline"]
        overhead = (elapsed["improved"] - elapsed["baseline"]) / elapsed["baseline"]
        assert overhead < 0.25, f"monitor overhead {overhead:.1%} too high"
