"""Key derivation for the sealing layer.

A simple HKDF-style extract-and-expand over HMAC-SHA256.  Used to derive the
per-instance vTPM state-encryption keys from the manager's root secret plus
the owning domain's identity measurement — so a state blob can only be
decrypted for (and by) the correct identity.
"""

from __future__ import annotations

import hashlib

from repro.crypto.hmac_util import mac
from repro.sim.timing import charge
from repro.util.errors import CryptoError


def derive_key(secret: bytes, salt: bytes, info: bytes, length: int = 32) -> bytes:
    """HKDF-SHA256 extract-and-expand (RFC 5869 construction)."""
    if length <= 0 or length > 255 * 32:
        raise CryptoError(f"cannot derive {length} bytes")
    charge("ac.seal.derive")
    charge("mac.hmac", len(secret))
    prk = mac(salt or b"\x00" * 32, secret, "sha256")
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        charge("mac.hmac", len(block) + len(info) + 1)
        block = mac(prk, block + info + bytes([counter]), "sha256")
        okm += block
        counter += 1
    return okm[:length]


def fingerprint(data: bytes) -> bytes:
    """Cheap stable 16-byte identifier for blobs (not charged: test helper)."""
    return hashlib.sha256(data).digest()[:16]
