"""Oracles for the kernels on the authorized-command path.

Each kernel is checked against the plain construction it replaces:
:func:`repro.crypto.hmac_util.mac` against the standard library's
``hmac.digest``, the word-wide XOR in :class:`SymmetricKey` against a
per-byte XOR over an independently computed keystream, and the inlined
:class:`ByteReader` bounds check against the error text the reader has
always given.
"""

import hashlib
import hmac
import struct

import pytest

from repro.crypto.hmac_util import PAD_CACHE_SIZE, _pads, mac
from repro.crypto.random_source import RandomSource
from repro.crypto.symmetric import EncryptedBlob, SymmetricKey
from repro.util.bytesio import ByteReader
from repro.util.errors import CryptoError, MarshalError

#: across the 64-byte block of SHA-1/SHA-256 and the 128-byte one of SHA-512
KEY_LENGTHS = [0, 1, 20, 32, 63, 64, 65, 100, 127, 128, 129, 200]
DATA_LENGTHS = [0, 1, 55, 56, 64, 65, 128, 300]


class TestMac:
    @pytest.mark.parametrize("name", ["sha1", "sha256", "sha512"])
    @pytest.mark.parametrize("key_len", KEY_LENGTHS)
    def test_equals_stdlib_hmac(self, name, key_len):
        key = bytes((7 * i + key_len) & 0xFF for i in range(key_len))
        for data_len in DATA_LENGTHS:
            data = bytes((3 * i + 1) & 0xFF for i in range(data_len))
            assert mac(key, data, name) == hmac.digest(key, data, name)

    def test_repeated_key_reuses_its_pads(self):
        key = b"repeated-entity-secret"
        mac(key, b"first", "sha1")
        hits = _pads.cache_info().hits
        assert mac(key, b"second", "sha1") == hmac.digest(key, b"second", "sha1")
        assert _pads.cache_info().hits == hits + 1

    def test_cached_pads_are_not_mutated(self):
        key = b"k" * 20
        first = mac(key, b"message", "sha256")
        mac(key, b"something else entirely", "sha256")
        assert mac(key, b"message", "sha256") == first


class TestPadCache:
    def test_stays_bounded_under_distinct_keys(self):
        _pads.cache_clear()
        for i in range(10 * PAD_CACHE_SIZE):
            mac(i.to_bytes(4, "big"), b"data", "sha1")
        assert _pads.cache_info().currsize <= PAD_CACHE_SIZE
        assert _pads.cache_info().maxsize == PAD_CACHE_SIZE


def _reference_encrypt(key: bytes, nonce: bytes, plaintext: bytes):
    """The per-byte construction: SHA-256 CTR keystream, then HMAC tag."""
    blocks = b"".join(
        hashlib.sha256(key + nonce + struct.pack(">Q", i)).digest()
        for i in range((len(plaintext) + 31) // 32)
    )
    ciphertext = bytes(a ^ b for a, b in zip(plaintext, blocks))
    mac_key = hashlib.sha256(b"mac" + key).digest()
    tag = hmac.digest(mac_key, nonce + ciphertext, "sha256")
    return ciphertext, tag


class TestSymmetricXor:
    @pytest.mark.parametrize("plaintext", [
        b"",
        b"\x01",
        bytes(range(31)),
        bytes(range(32)),
        bytes(range(33)),
        bytes(i & 0xFF for i in range(4096)),
        b"\x00" * 49,
        b"\x00\x00\x00" + b"leading zeros",
    ], ids=["0", "1", "31", "32", "33", "4096", "zeros", "leading-zeros"])
    def test_ciphertext_equals_per_byte_xor(self, plaintext):
        rng = RandomSource(b"xor-oracle")
        key = SymmetricKey.generate(rng)
        blob = key.encrypt(plaintext, rng)
        ciphertext, tag = _reference_encrypt(key.key_bytes(), blob.nonce,
                                             plaintext)
        assert blob.ciphertext == ciphertext
        assert len(blob.ciphertext) == len(plaintext)
        assert blob.tag == tag
        assert key.decrypt(blob) == plaintext

    def test_tamper_still_detected(self):
        rng = RandomSource(b"xor-tamper")
        key = SymmetricKey.generate(rng)
        blob = key.encrypt(b"\x00" * 40, rng)
        flipped = bytes([blob.ciphertext[0] ^ 0x80]) + blob.ciphertext[1:]
        with pytest.raises(CryptoError, match="tag mismatch"):
            key.decrypt(EncryptedBlob(blob.nonce, flipped, blob.tag))


class TestByteReaderErrors:
    @pytest.mark.parametrize("read, message", [
        (lambda r: r.u8(), "short read: wanted 1 bytes at offset 2, only 0 remain"),
        (lambda r: r.u32(), "short read: wanted 4 bytes at offset 2, only 0 remain"),
        (lambda r: r.raw(3), "short read: wanted 3 bytes at offset 2, only 0 remain"),
        (lambda r: r.raw(-1), "negative read of -1 bytes"),
    ], ids=["u8", "u32", "raw", "negative"])
    def test_exhausted_reader(self, read, message):
        reader = ByteReader(b"\x01\x02")
        reader.u16()
        with pytest.raises(MarshalError) as info:
            read(reader)
        assert str(info.value) == message
        assert reader.position == 2

    def test_partial_u32_leaves_position(self):
        reader = ByteReader(b"\x00\x00\x01")
        with pytest.raises(MarshalError) as info:
            reader.u32()
        assert str(info.value) == (
            "short read: wanted 4 bytes at offset 0, only 3 remain"
        )
        assert reader.position == 0

    def test_sized_payload_short_read(self):
        reader = ByteReader(b"\x00\x00\x00\x05abc")
        with pytest.raises(MarshalError) as info:
            reader.sized()
        assert str(info.value) == (
            "short read: wanted 5 bytes at offset 4, only 3 remain"
        )
