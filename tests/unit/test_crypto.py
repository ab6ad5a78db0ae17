"""Unit tests for the crypto substrate."""

import pytest

from repro.crypto.hashes import sha1, sha256
from repro.crypto.hmac_util import constant_time_equal, hmac_sha1, hmac_sha256
from repro.crypto.kdf import derive_key
from repro.crypto.random_source import RandomSource
from repro.crypto.rsa import (
    KEYGEN_MEMO_SIZE,
    RsaKeyPair,
    _recorded_keygen,
    generate_keypair,
)
from repro.crypto.symmetric import EncryptedBlob, SymmetricKey
from repro.util.errors import CryptoError


class TestHashes:
    def test_sha1_known_vector(self):
        assert sha1(b"abc").hex() == "a9993e364706816aba3e25717850c26c9cd0d89d"

    def test_sha256_known_vector(self):
        assert (
            sha256(b"abc").hex()
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_hash_charges_time(self, timing_context):
        before = timing_context.clock.now_us
        sha1(b"x" * 10_000)
        assert timing_context.clock.now_us - before > 40  # ~42us for 10KB


class TestHmac:
    def test_hmac_sha1_rfc2202_vector(self):
        # RFC 2202 test case 2.
        out = hmac_sha1(b"Jefe", b"what do ya want for nothing?")
        assert out.hex() == "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"

    def test_hmac_sha256_rfc4231_vector(self):
        out = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
        assert out.hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )

    def test_constant_time_equal(self):
        assert constant_time_equal(b"same", b"same")
        assert not constant_time_equal(b"same", b"diff")


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a, b = RandomSource(5), RandomSource(5)
        assert a.bytes(64) == b.bytes(64)

    def test_different_seed_different_stream(self):
        assert RandomSource(5).bytes(32) != RandomSource(6).bytes(32)

    def test_fork_is_independent(self):
        root = RandomSource(1)
        child1 = root.fork("a")
        child2 = root.fork("b")
        assert child1.bytes(16) != child2.bytes(16)

    def test_fork_is_deterministic(self):
        assert RandomSource(1).fork("x").bytes(8) == RandomSource(1).fork("x").bytes(8)

    def test_randint_below_in_range(self):
        rng = RandomSource(2)
        for _ in range(200):
            assert 0 <= rng.randint_below(7) < 7

    def test_randint_below_rejects_nonpositive(self):
        with pytest.raises(CryptoError):
            RandomSource(0).randint_below(0)

    def test_randint_bits_sets_top_bit(self):
        rng = RandomSource(3)
        for bits in (8, 64, 256):
            value = rng.randint_bits(bits)
            assert value.bit_length() == bits

    def test_uniform_in_interval(self):
        rng = RandomSource(4)
        for _ in range(100):
            x = rng.uniform(2.0, 3.0)
            assert 2.0 <= x < 3.0

    def test_expovariate_positive(self):
        rng = RandomSource(5)
        samples = [rng.expovariate(0.001) for _ in range(100)]
        assert all(s > 0 for s in samples)
        # Mean should be in the ballpark of 1/rate = 1000.
        assert 300 < sum(samples) / len(samples) < 3000

    def test_shuffle_permutation(self):
        rng = RandomSource(6)
        items = list(range(20))
        shuffled = rng.shuffle(list(items))
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity

    def test_choice_from_empty_rejected(self):
        with pytest.raises(CryptoError):
            RandomSource(7).choice([])

    def test_nonce_is_20_bytes(self):
        assert len(RandomSource(8).nonce()) == 20

    def test_reseed_changes_stream(self):
        a, b = RandomSource(9), RandomSource(9)
        b.reseed(b"more entropy")
        assert a.bytes(16) != b.bytes(16)

    def test_negative_byte_count_rejected(self):
        with pytest.raises(CryptoError):
            RandomSource(1).bytes(-1)


class TestRsa:
    @pytest.fixture(scope="class")
    def keypair(self):
        return generate_keypair(512, RandomSource(b"rsa-test"))

    def test_sign_verify_roundtrip(self, keypair):
        digest = sha1(b"message")
        signature = keypair.sign_sha1(digest)
        assert keypair.public.verify_sha1(digest, signature)

    def test_verify_rejects_wrong_digest(self, keypair):
        signature = keypair.sign_sha1(sha1(b"message"))
        assert not keypair.public.verify_sha1(sha1(b"other"), signature)

    def test_verify_rejects_corrupted_signature(self, keypair):
        signature = bytearray(keypair.sign_sha1(sha1(b"message")))
        signature[5] ^= 0xFF
        assert not keypair.public.verify_sha1(sha1(b"message"), bytes(signature))

    def test_encrypt_decrypt_roundtrip(self, keypair):
        rng = RandomSource(b"enc")
        ciphertext = keypair.public.encrypt(b"secret payload", rng)
        assert keypair.decrypt(ciphertext) == b"secret payload"

    def test_decrypt_rejects_tampered(self, keypair):
        rng = RandomSource(b"enc2")
        ciphertext = bytearray(keypair.public.encrypt(b"data", rng))
        ciphertext[0] ^= 1
        with pytest.raises(CryptoError):
            keypair.decrypt(bytes(ciphertext))

    def test_plaintext_size_limit(self, keypair):
        rng = RandomSource(b"enc3")
        limit = keypair.public.byte_length - 11
        keypair.public.encrypt(b"x" * limit, rng)  # exactly at the limit: OK
        with pytest.raises(CryptoError, match="exceeds max"):
            keypair.public.encrypt(b"x" * (limit + 1), rng)

    def test_private_serialization_roundtrip(self, keypair):
        blob = keypair.serialize_private()
        restored = RsaKeyPair.deserialize_private(blob)
        assert restored.public.n == keypair.public.n
        assert restored.d == keypair.d
        digest = sha1(b"after restore")
        assert keypair.public.verify_sha1(digest, restored.sign_sha1(digest))

    def test_keygen_deterministic(self):
        _recorded_keygen.cache_clear()
        a = generate_keypair(512, RandomSource(b"det"))
        _recorded_keygen.cache_clear()
        b = generate_keypair(512, RandomSource(b"det"))
        assert a.public.n == b.public.n

    def test_keygen_rejects_tiny_keys(self):
        # A memo entry for the very same input must not bypass the check.
        _recorded_keygen(256, RandomSource(b"x").position())
        with pytest.raises(CryptoError):
            generate_keypair(256, RandomSource(b"x"))

    def test_keygen_rejects_odd_bits(self):
        _recorded_keygen(513, RandomSource(b"x").position())
        with pytest.raises(CryptoError):
            generate_keypair(513, RandomSource(b"x"))

    def test_keygen_memo_is_bounded(self):
        assert _recorded_keygen.cache_info().maxsize == KEYGEN_MEMO_SIZE

    def test_modulus_has_declared_bits(self, keypair):
        assert keypair.public.n.bit_length() == 512

    def test_sign_rejects_wrong_digest_size(self, keypair):
        with pytest.raises(CryptoError):
            keypair.sign_sha1(b"too short")

    def test_fingerprint_stable(self, keypair):
        assert keypair.public.fingerprint() == keypair.public.fingerprint()
        assert len(keypair.public.fingerprint()) == 32


class TestSymmetric:
    def test_roundtrip(self, rng):
        key = SymmetricKey.generate(rng)
        blob = key.encrypt(b"hello world" * 50, rng)
        assert key.decrypt(blob) == b"hello world" * 50

    def test_tamper_detected(self, rng):
        key = SymmetricKey.generate(rng)
        blob = key.encrypt(b"payload", rng)
        bad = EncryptedBlob(
            nonce=blob.nonce,
            ciphertext=bytes([blob.ciphertext[0] ^ 1]) + blob.ciphertext[1:],
            tag=blob.tag,
        )
        with pytest.raises(CryptoError, match="tag mismatch"):
            key.decrypt(bad)

    def test_wrong_key_detected(self, rng):
        blob = SymmetricKey.generate(rng).encrypt(b"payload", rng)
        other = SymmetricKey.generate(rng)
        with pytest.raises(CryptoError):
            other.decrypt(blob)

    def test_nonce_fresh_per_encryption(self, rng):
        key = SymmetricKey.generate(rng)
        a = key.encrypt(b"same", rng)
        b = key.encrypt(b"same", rng)
        assert a.nonce != b.nonce
        assert a.ciphertext != b.ciphertext

    def test_serialization_roundtrip(self, rng):
        key = SymmetricKey.generate(rng)
        blob = key.encrypt(b"wire format", rng)
        restored = EncryptedBlob.deserialize(blob.serialize())
        assert key.decrypt(restored) == b"wire format"

    def test_bad_key_size_rejected(self):
        with pytest.raises(CryptoError):
            SymmetricKey(b"short")

    def test_empty_plaintext(self, rng):
        key = SymmetricKey.generate(rng)
        assert key.decrypt(key.encrypt(b"", rng)) == b""


class TestKdf:
    def test_deterministic(self):
        a = derive_key(b"secret", b"salt", b"info", 32)
        b = derive_key(b"secret", b"salt", b"info", 32)
        assert a == b and len(a) == 32

    def test_different_info_different_key(self):
        assert derive_key(b"s", b"salt", b"a") != derive_key(b"s", b"salt", b"b")

    def test_different_salt_different_key(self):
        assert derive_key(b"s", b"x", b"i") != derive_key(b"s", b"y", b"i")

    def test_long_output(self):
        out = derive_key(b"s", b"salt", b"info", 100)
        assert len(out) == 100
        # Prefix property of expand: first 32 bytes match the short call.
        assert out[:32] == derive_key(b"s", b"salt", b"info", 32)

    def test_invalid_length_rejected(self):
        with pytest.raises(CryptoError):
            derive_key(b"s", b"salt", b"info", 0)
