"""HMAC and constant-time comparison.

TPM 1.2 authorization (OIAP/OSAP) proves knowledge of an AuthData secret by
HMAC-SHA1 over the command digest and session nonces; the vTPM storage layer
integrity-protects sealed state with HMAC-SHA256.

:func:`mac` is the one HMAC kernel.  It builds RFC 2104 HMAC from the hash
states of the key's inner and outer pads and copies those states per call,
so a key that repeats (entity secrets, the sealing KDF salt and PRK, a
sealing MAC key) pays the pad set-up once.  The pad states are cached in
the simulator's own heap, never in simulated frames, and the cache is
bounded, so a stream of fresh keys cannot grow it.  Virtual-time charges
stay with the callers.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac

from repro.sim.timing import charge

PAD_CACHE_SIZE = 256
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


@functools.lru_cache(maxsize=PAD_CACHE_SIZE)
def _pads(key: bytes, name: str):
    """The inner and outer hash states of ``key``'s pads, ready to copy."""
    inner = hashlib.new(name)
    block_size = inner.block_size
    if len(key) > block_size:
        key = hashlib.new(name, key).digest()
    key = key.ljust(block_size, b"\x00")
    inner.update(key.translate(_IPAD))
    return inner, hashlib.new(name, key.translate(_OPAD))


def mac(key: bytes, data: bytes, name: str) -> bytes:
    """HMAC over ``data`` with the ``hashlib`` hash ``name``; uncharged."""
    inner, outer = _pads(key, name)
    inner = inner.copy()
    inner.update(data)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def hmac_sha1(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA1 (TPM 1.2 authorization MAC)."""
    charge("mac.hmac", len(data))
    return mac(key, data, "sha1")


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 (state-integrity MAC)."""
    charge("mac.hmac", len(data))
    return mac(key, data, "sha256")


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe equality, as a real TPM must use for auth digests."""
    return _hmac.compare_digest(a, b)
