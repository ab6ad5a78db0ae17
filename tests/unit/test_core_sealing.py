"""Unit tests for the hardware-TPM-rooted state sealer."""

import hashlib

import pytest

from repro.core.hwroot import HardwareRoot
from repro.core.sealing import StateSealer
from repro.util.errors import SealingError


@pytest.fixture
def hw(rng):
    return HardwareRoot(rng.fork("hw"))


@pytest.fixture
def sealer(hw, rng):
    sealer = StateSealer(hw, rng.fork("sealer"))
    sealer.initialize()
    return sealer


class TestRootLifecycle:
    def test_initialize_unlocks(self, sealer):
        assert sealer.unlocked
        assert sealer.sealed_root_blob is not None

    def test_lock_then_unlock(self, sealer):
        sealer.lock()
        assert not sealer.unlocked
        sealer.unlock()
        assert sealer.unlocked

    def test_unlock_fails_after_pcr_drift(self, hw, sealer):
        sealer.lock()
        hw.client.extend(1, hashlib.sha1(b"firmware-update").digest())
        with pytest.raises(SealingError, match="refused to unseal"):
            sealer.unlock()

    def test_unlock_fails_on_foreign_tpm(self, sealer, rng):
        thief = StateSealer(HardwareRoot(rng.fork("other-hw")), rng.fork("thief"))
        with pytest.raises(SealingError):
            thief.unlock(sealer.sealed_root_blob)

    def test_unlock_without_blob_rejected(self, hw, rng):
        sealer = StateSealer(hw, rng.fork("s2"))
        with pytest.raises(SealingError, match="no sealed root"):
            sealer.unlock()

    def test_unlock_from_empty_blob_fails_closed(self, sealer):
        """An empty blob is a blob: it must not fall back to the
        platform's own sealed root."""
        sealer.lock()
        with pytest.raises(SealingError):
            sealer.unlock(b"")
        assert not sealer.unlocked


class TestStateProtection:
    def test_roundtrip(self, sealer):
        blob = sealer.seal_state("uuid-1", "id-aa", b"tpm state bytes")
        assert sealer.unseal_state("uuid-1", "id-aa", blob) == b"tpm state bytes"

    def test_ciphertext_hides_plaintext(self, sealer):
        state = b"very secret key material" * 10
        blob = sealer.seal_state("uuid-1", "id-aa", state)
        assert state not in blob
        assert b"secret key" not in blob

    def test_wrong_uuid_fails(self, sealer):
        blob = sealer.seal_state("uuid-1", "id-aa", b"state")
        with pytest.raises(SealingError):
            sealer.unseal_state("uuid-2", "id-aa", blob)

    def test_wrong_identity_fails(self, sealer):
        blob = sealer.seal_state("uuid-1", "id-aa", b"state")
        with pytest.raises(SealingError):
            sealer.unseal_state("uuid-1", "id-bb", blob)

    def test_tampered_blob_fails(self, sealer):
        blob = bytearray(sealer.seal_state("uuid-1", "id-aa", b"state"))
        blob[-1] ^= 1
        with pytest.raises(SealingError):
            sealer.unseal_state("uuid-1", "id-aa", bytes(blob))

    def test_locked_sealer_refuses(self, sealer):
        blob = sealer.seal_state("uuid-1", "id-aa", b"state")
        sealer.lock()
        with pytest.raises(SealingError, match="locked"):
            sealer.seal_state("uuid-1", "id-aa", b"more")
        with pytest.raises(SealingError, match="locked"):
            sealer.unseal_state("uuid-1", "id-aa", blob)

    def test_keys_differ_across_instances(self, sealer):
        a = sealer.seal_state("uuid-1", "id", b"same state")
        b = sealer.seal_state("uuid-2", "id", b"same state")
        assert a != b
