"""Deterministic randomness: a SHA-256 counter DRBG.

The real TPM has a hardware entropy source; for reproducibility every random
draw in the simulation (nonces, keys, workload arrival jitter) comes from a
seeded DRBG.  Output blocks are ``SHA256(state || counter)``; reseeding mixes
new material into the state, mirroring NIST SP 800-90A Hash-DRBG in spirit
(not a certified implementation — this is a simulation substrate).
"""

from __future__ import annotations

import hashlib
import struct

from repro.sim.timing import charge
from repro.util.errors import CryptoError


class RandomSource:
    """Seeded deterministic random generator.

    Parameters
    ----------
    seed:
        Bytes or int seed.  Two sources with the same seed produce the same
        stream forever, which is what makes experiments reproducible.
    """

    BLOCK = 32  # SHA-256 output size

    def __init__(self, seed: bytes | int = 0) -> None:
        if isinstance(seed, int):
            seed = seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "big")
        if not isinstance(seed, (bytes, bytearray)):
            raise CryptoError(f"seed must be bytes or int, got {type(seed).__name__}")
        self._state = hashlib.sha256(b"repro-drbg-v1" + bytes(seed)).digest()
        self._counter = 0
        self._pool = b""
        self.bytes_generated = 0

    def fork(self, label: str) -> "RandomSource":
        """Derive an independent child stream (per-domain / per-component)."""
        return RandomSource(self._state + label.encode("utf-8"))

    def reseed(self, material: bytes) -> None:
        """Mix additional entropy material into the state."""
        self._state = hashlib.sha256(self._state + material).digest()
        self._pool = b""

    def bytes(self, count: int) -> bytes:
        """Return ``count`` deterministic pseudo-random bytes."""
        if count < 0:
            raise CryptoError(f"cannot draw {count} bytes")
        charge("rng.bytes", count)
        return self._draw(count)

    def _draw(self, count: int) -> bytes:
        """``count`` bytes off the stream, uncharged."""
        while len(self._pool) < count:
            block = hashlib.sha256(
                self._state + struct.pack(">Q", self._counter)
            ).digest()
            self._counter += 1
            self._pool += block
        out, self._pool = self._pool[:count], self._pool[count:]
        self.bytes_generated += count
        return out

    def position(self) -> tuple:
        """Everything the next draw reads: ``(state, counter, pool)``."""
        return self._state, self._counter, self._pool

    def seek(self, position: tuple, drawn: int = 0) -> None:
        """Jump to ``position``, counting ``drawn`` bytes as generated."""
        self._state, self._counter, self._pool = position
        self.bytes_generated += drawn

    def nonce(self) -> bytes:
        """A 20-byte TPM nonce."""
        return self.bytes(20)

    def randint_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise CryptoError(f"bound must be positive, got {bound}")
        nbytes = (bound.bit_length() + 7) // 8
        # Rejection sampling keeps the distribution exactly uniform.
        while True:
            candidate = int.from_bytes(self.bytes(nbytes), "big")
            candidate >>= max(0, nbytes * 8 - bound.bit_length())
            if candidate < bound:
                return candidate

    def randint_bits(self, bits: int) -> int:
        """Uniform integer with exactly ``bits`` bits (top bit set)."""
        if bits < 2:
            raise CryptoError(f"need at least 2 bits, got {bits}")
        raw = int.from_bytes(self.bytes((bits + 7) // 8), "big")
        raw &= (1 << bits) - 1
        raw |= 1 << (bits - 1)
        return raw

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high)`` (workload jitter)."""
        if high < low:
            raise CryptoError(f"empty interval [{low}, {high})")
        frac = int.from_bytes(self.bytes(7), "big") / float(1 << 56)
        return low + (high - low) * frac

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival sample with the given rate (per us)."""
        import math

        if rate <= 0:
            raise CryptoError(f"rate must be positive, got {rate}")
        u = self.uniform(0.0, 1.0)
        # Guard the log: u == 0 has probability ~2^-56 but be safe anyway.
        u = max(u, 1e-18)
        return -math.log(u) / rate

    def choice(self, seq):
        """Pick one element of a non-empty sequence."""
        if not seq:
            raise CryptoError("choice from empty sequence")
        return seq[self.randint_below(len(seq))]

    def shuffle(self, items: list) -> list:
        """In-place Fisher-Yates shuffle; returns the list for chaining."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint_below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items
