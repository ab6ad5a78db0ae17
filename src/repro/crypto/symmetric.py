"""Authenticated symmetric encryption for vTPM state at rest.

The real implementation would use AES; with no crypto dependency available
we build a CTR-mode stream cipher from SHA-256 (keystream block ``i`` is
``SHA256(key || nonce || i)``) plus an encrypt-then-MAC HMAC-SHA256 tag.
This is a standard, sound construction for a *simulation substrate*: secrecy
rests on SHA-256 preimage resistance and integrity on HMAC.  Virtual-time
cost is charged at bulk-cipher rates so timing matches an AES deployment.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from repro.crypto.hmac_util import constant_time_equal, mac
from repro.crypto.random_source import RandomSource
from repro.sim.timing import charge
from repro.util.bytesio import ByteReader, ByteWriter
from repro.util.errors import CryptoError

KEY_SIZE = 32
NONCE_SIZE = 16
TAG_SIZE = 32


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data`` XOR an equal-length ``stream``, as one wide integer."""
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(len(data), "big")


@dataclass(frozen=True)
class EncryptedBlob:
    """Wire form of an encrypted payload: nonce || ciphertext || tag."""

    nonce: bytes
    ciphertext: bytes
    tag: bytes

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.raw(self.nonce)
        w.sized(self.ciphertext)
        w.raw(self.tag)
        return w.getvalue()

    @staticmethod
    def deserialize(data: bytes) -> "EncryptedBlob":
        r = ByteReader(data)
        nonce = r.raw(NONCE_SIZE)
        ciphertext = r.sized(max_size=1 << 26)
        tag = r.raw(TAG_SIZE)
        r.expect_end()
        return EncryptedBlob(nonce=nonce, ciphertext=ciphertext, tag=tag)


class SymmetricKey:
    """A 256-bit key offering authenticated encrypt/decrypt."""

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_SIZE:
            raise CryptoError(f"symmetric key must be {KEY_SIZE} bytes, got {len(key)}")
        self._key = bytes(key)
        # Independent MAC key derived from the cipher key (EtM separation).
        self._mac_key = hashlib.sha256(b"mac" + self._key).digest()

    @staticmethod
    def generate(rng: RandomSource) -> "SymmetricKey":
        return SymmetricKey(rng.bytes(KEY_SIZE))

    def key_bytes(self) -> bytes:
        """Raw key material (needed for sealing the key into the TPM)."""
        return self._key

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        blocks = []
        for i in range((length + 31) // 32):
            blocks.append(
                hashlib.sha256(self._key + nonce + struct.pack(">Q", i)).digest()
            )
        return b"".join(blocks)[:length]

    def encrypt(self, plaintext: bytes, rng: RandomSource) -> EncryptedBlob:
        """Encrypt-then-MAC; a fresh nonce is drawn per call."""
        charge("cipher.sym", len(plaintext))
        nonce = rng.bytes(NONCE_SIZE)
        stream = self._keystream(nonce, len(plaintext))
        ciphertext = _xor(plaintext, stream)
        charge("mac.hmac", len(ciphertext))
        tag = mac(self._mac_key, nonce + ciphertext, "sha256")
        return EncryptedBlob(nonce=nonce, ciphertext=ciphertext, tag=tag)

    def decrypt(self, blob: EncryptedBlob) -> bytes:
        """Verify the tag then decrypt; raises :class:`CryptoError` on tamper."""
        charge("mac.hmac", len(blob.ciphertext))
        expected = mac(self._mac_key, blob.nonce + blob.ciphertext, "sha256")
        if not constant_time_equal(expected, blob.tag):
            raise CryptoError("authentication tag mismatch (tampered or wrong key)")
        charge("cipher.sym", len(blob.ciphertext))
        stream = self._keystream(blob.nonce, len(blob.ciphertext))
        return _xor(blob.ciphertext, stream)
