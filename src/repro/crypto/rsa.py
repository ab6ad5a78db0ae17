"""Pure-Python RSA with PKCS#1 v1.5 signing and encryption.

The TPM 1.2 key hierarchy (EK, SRK, AIKs, storage and signing keys) is RSA.
This module provides key generation (Miller-Rabin primes), CRT-accelerated
private operations, EMSA-PKCS1-v1_5 signatures over SHA-1 digests (what a
TPM 1.2 emits for quotes and TPM_Sign) and EME-PKCS1-v1_5 encryption (what
seals/binds use).

Virtual-time cost is charged by the key's *declared* size class, so
experiments can simulate 2048-bit timing even when tests run small keys for
host speed.

Key generation is a pure function of ``bits`` and the RNG's position, and a
platform rebuilt from the same seed asks for the same keys again, so
:func:`generate_keypair` runs Miller-Rabin once per ``(bits, position)``.
The generator draws uncharged from a copy of the RNG and logs each draw's
size; every call, first or repeated, then charges ``rsa.keygen.2048`` and
one ``rng.bytes`` per logged draw in the original order and moves the RNG
to the recorded end position.  Ledgers, the clock's float sum and the RNG's
continuation are the same as a fresh run's.  The memo holds key pairs, draw
sizes and RNG positions in the simulator's own heap, never in simulated
frames, and is bounded at :data:`KEYGEN_MEMO_SIZE` entries.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass

from repro.crypto.random_source import RandomSource
from repro.sim.timing import charge
from repro.util.errors import CryptoError

# ASN.1 DigestInfo prefix for SHA-1 (RFC 3447 section 9.2 notes).
_SHA1_DIGEST_INFO = bytes.fromhex("3021300906052b0e03021a05000414")

# Small primes for fast trial division before Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
]

PUBLIC_EXPONENT = 65537
KEYGEN_MEMO_SIZE = 256


def _is_probable_prime(n: int, rng: RandomSource, rounds: int = 24) -> bool:
    """Miller-Rabin primality test with random bases."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = 2 + rng.randint_below(n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: RandomSource) -> int:
    """Random prime of exactly ``bits`` bits, coprime to the public exponent."""
    while True:
        candidate = rng.randint_bits(bits) | 1
        if candidate % PUBLIC_EXPONENT == 1:
            continue  # would make e non-invertible mod p-1
        if _is_probable_prime(candidate, rng):
            return candidate


def _size_class(bits: int) -> str:
    """Timing size class: everything ≤1024 bills as 1024, else as 2048."""
    return "1024" if bits <= 1024 else "2048"


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public half: modulus ``n`` and exponent ``e``."""

    n: int
    e: int
    bits: int

    @property
    def byte_length(self) -> int:
        return (self.bits + 7) // 8

    def modulus_bytes(self) -> bytes:
        return self.n.to_bytes(self.byte_length, "big")

    def fingerprint(self) -> bytes:
        """SHA-256 of the modulus — used as a stable key identifier."""
        import hashlib

        return hashlib.sha256(self.modulus_bytes()).digest()

    # -- raw operations -----------------------------------------------------

    def _encrypt_int(self, m: int) -> int:
        if not 0 <= m < self.n:
            raise CryptoError("plaintext representative out of range")
        return pow(m, self.e, self.n)

    # -- PKCS#1 v1.5 --------------------------------------------------------

    def verify_sha1(self, digest: bytes, signature: bytes) -> bool:
        """Verify an EMSA-PKCS1-v1_5 SHA-1 signature; False on any mismatch."""
        if len(digest) != 20:
            raise CryptoError(f"SHA-1 digest must be 20 bytes, got {len(digest)}")
        charge(f"rsa.verify.{_size_class(self.bits)}")
        if len(signature) != self.byte_length:
            return False
        s = int.from_bytes(signature, "big")
        if s >= self.n:
            return False
        em = pow(s, self.e, self.n).to_bytes(self.byte_length, "big")
        expected = _emsa_pkcs1_v15(digest, self.byte_length)
        return em == expected

    def encrypt(self, plaintext: bytes, rng: RandomSource) -> bytes:
        """EME-PKCS1-v1_5 encryption (TPM_ES_RSAESPKCSv15)."""
        k = self.byte_length
        if len(plaintext) > k - 11:
            raise CryptoError(
                f"plaintext of {len(plaintext)} bytes exceeds max {k - 11} "
                f"for a {self.bits}-bit key"
            )
        charge(f"rsa.verify.{_size_class(self.bits)}")  # public op ≈ verify cost
        padding = b""
        while len(padding) < k - 3 - len(plaintext):
            # PS bytes must be nonzero.
            chunk = rng.bytes(k)
            padding += bytes(b for b in chunk if b != 0)
        padding = padding[: k - 3 - len(plaintext)]
        em = b"\x00\x02" + padding + b"\x00" + plaintext
        c = self._encrypt_int(int.from_bytes(em, "big"))
        return c.to_bytes(k, "big")


@dataclass(frozen=True)
class RsaKeyPair:
    """Full RSA key: public half plus CRT private material."""

    public: RsaPublicKey
    d: int
    p: int
    q: int

    @property
    def bits(self) -> int:
        return self.public.bits

    # CRT exponents, computed lazily and memoized (the dataclass is frozen,
    # so derived values are smuggled into __dict__ via object.__setattr__ —
    # they are pure functions of the immutable fields).

    def _crt_params(self) -> tuple:
        cached = self.__dict__.get("_crt")
        if cached is None:
            cached = (
                self.d % (self.p - 1),
                self.d % (self.q - 1),
                pow(self.q, -1, self.p),
            )
            object.__setattr__(self, "_crt", cached)
        return cached

    def _private_op(self, c: int) -> int:
        if not 0 <= c < self.public.n:
            raise CryptoError("ciphertext representative out of range")
        dp, dq, qinv = self._crt_params()
        m1 = pow(c, dp, self.p)
        m2 = pow(c, dq, self.q)
        h = (qinv * (m1 - m2)) % self.p
        return m2 + h * self.q

    def sign_sha1(self, digest: bytes) -> bytes:
        """EMSA-PKCS1-v1_5 signature over a SHA-1 digest."""
        if len(digest) != 20:
            raise CryptoError(f"SHA-1 digest must be 20 bytes, got {len(digest)}")
        charge(f"rsa.sign.{_size_class(self.bits)}")
        k = self.public.byte_length
        em = _emsa_pkcs1_v15(digest, k)
        s = self._private_op(int.from_bytes(em, "big"))
        return s.to_bytes(k, "big")

    def decrypt(self, ciphertext: bytes) -> bytes:
        """EME-PKCS1-v1_5 decryption; raises :class:`CryptoError` on bad padding."""
        k = self.public.byte_length
        if len(ciphertext) != k:
            raise CryptoError(f"ciphertext must be {k} bytes, got {len(ciphertext)}")
        charge(f"rsa.sign.{_size_class(self.bits)}")  # private op ≈ sign cost
        em = self._private_op(int.from_bytes(ciphertext, "big")).to_bytes(k, "big")
        if em[0:2] != b"\x00\x02":
            raise CryptoError("PKCS#1 v1.5 decryption failure (bad header)")
        try:
            sep = em.index(b"\x00", 2)
        except ValueError:
            raise CryptoError("PKCS#1 v1.5 decryption failure (no separator)") from None
        if sep < 10:
            raise CryptoError("PKCS#1 v1.5 decryption failure (short padding)")
        return em[sep + 1 :]

    def serialize_private(self) -> bytes:
        """Private material as bytes (what a memory-dump attacker hunts for).

        Memoized: the key is immutable, and the manager re-serializes loaded
        keys on every state sync, so this sits on the per-command hot path.
        """
        cached = self.__dict__.get("_serialized")
        if cached is not None:
            return cached
        from repro.util.bytesio import ByteWriter

        w = ByteWriter()
        w.u32(self.public.bits)
        for value in (self.public.n, self.public.e, self.d, self.p, self.q):
            blob = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
            w.sized(blob)
        result = w.getvalue()
        object.__setattr__(self, "_serialized", result)
        return result

    @staticmethod
    def deserialize_private(data: bytes) -> "RsaKeyPair":
        from repro.util.bytesio import ByteReader

        r = ByteReader(data)
        bits = r.u32()
        n, e, d, p, q = (int.from_bytes(r.sized(), "big") for _ in range(5))
        r.expect_end()
        return RsaKeyPair(public=RsaPublicKey(n=n, e=e, bits=bits), d=d, p=p, q=q)


def _emsa_pkcs1_v15(digest: bytes, em_len: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of a SHA-1 digest."""
    t = _SHA1_DIGEST_INFO + digest
    if em_len < len(t) + 11:
        raise CryptoError(f"modulus too small for EMSA-PKCS1-v1_5 ({em_len} bytes)")
    ps = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + ps + b"\x00" + t


class _DrawLog(RandomSource):
    """A copy of an RNG at ``position`` that draws uncharged and logs each
    draw's byte count."""

    def __init__(self, position: tuple) -> None:
        super().__init__()
        self.seek(position)
        self.draws = array("H")

    def bytes(self, count: int) -> bytes:
        self.draws.append(count)
        return self._draw(count)


@functools.lru_cache(maxsize=KEYGEN_MEMO_SIZE)
def _recorded_keygen(bits: int, position: tuple) -> tuple:
    """The key pair grown from ``position``, each draw's size and the end
    position, computed once per ``(bits, position)``."""
    log = _DrawLog(position)
    while True:
        p = _generate_prime(bits // 2, log)
        q = _generate_prime(bits - bits // 2, log)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = pow(PUBLIC_EXPONENT, -1, phi)
        except ValueError:
            continue  # e not invertible; pick new primes
        public = RsaPublicKey(n=n, e=PUBLIC_EXPONENT, bits=bits)
        pair = RsaKeyPair(public=public, d=d, p=p, q=q)
        return pair, log.draws, log.position()


def generate_keypair(bits: int, rng: RandomSource) -> RsaKeyPair:
    """Generate an RSA key pair of ``bits`` modulus bits.

    ``bits`` ≥ 512; tests use small keys for host speed, while virtual-time
    cost is charged for the declared size class regardless.
    """
    if bits < 512:
        raise CryptoError(f"refusing to generate RSA keys under 512 bits ({bits})")
    if bits % 2 != 0:
        raise CryptoError(f"key size must be even, got {bits}")
    pair, draws, end = _recorded_keygen(bits, rng.position())
    charge("rsa.keygen.2048")
    for count in draws:
        charge("rng.bytes", count)
    rng.seek(end, sum(draws))
    return pair
