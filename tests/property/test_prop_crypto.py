"""Property tests: crypto substrate invariants."""

import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hmac_util import mac
from repro.crypto.kdf import derive_key
from repro.crypto.random_source import RandomSource
from repro.crypto.rsa import (
    PUBLIC_EXPONENT,
    RsaKeyPair,
    RsaPublicKey,
    _generate_prime,
    _recorded_keygen,
    generate_keypair,
)
from repro.crypto.symmetric import SymmetricKey
from repro.sim.timing import (
    CostLedger,
    TimingContext,
    charge,
    context_scope,
    ledger_scope,
)
from repro.util.errors import CryptoError

# One key pair for the whole module: keygen is the expensive part and the
# properties quantify over messages, not keys.
KEYPAIR = generate_keypair(512, RandomSource(b"prop-rsa"))


@given(st.binary(min_size=20, max_size=20))
def test_rsa_sign_verify_total(digest):
    signature = KEYPAIR.sign_sha1(digest)
    assert KEYPAIR.public.verify_sha1(digest, signature)


@given(st.binary(min_size=20, max_size=20), st.binary(min_size=20, max_size=20))
def test_rsa_signature_binds_digest(d1, d2):
    signature = KEYPAIR.sign_sha1(d1)
    assert KEYPAIR.public.verify_sha1(d2, signature) == (d1 == d2)


@given(st.binary(min_size=1, max_size=53), st.integers(0, 2**32 - 1))
def test_rsa_encrypt_decrypt_total(plaintext, seed):
    rng = RandomSource(seed)
    assert KEYPAIR.decrypt(KEYPAIR.public.encrypt(plaintext, rng)) == plaintext


@given(st.binary(max_size=2048), st.integers(0, 2**32 - 1))
def test_symmetric_roundtrip_total(plaintext, seed):
    rng = RandomSource(seed)
    key = SymmetricKey.generate(rng)
    assert key.decrypt(key.encrypt(plaintext, rng)) == plaintext


@given(
    st.binary(min_size=1, max_size=256),
    st.integers(0, 255),
    st.integers(0, 2**32 - 1),
)
def test_symmetric_any_flip_detected(plaintext, flip_at, seed):
    """Flipping any ciphertext byte breaks authentication."""
    rng = RandomSource(seed)
    key = SymmetricKey.generate(rng)
    blob = key.encrypt(plaintext, rng)
    idx = flip_at % len(blob.ciphertext)
    from repro.crypto.symmetric import EncryptedBlob

    tampered = EncryptedBlob(
        nonce=blob.nonce,
        ciphertext=(
            blob.ciphertext[:idx]
            + bytes([blob.ciphertext[idx] ^ 0x01])
            + blob.ciphertext[idx + 1 :]
        ),
        tag=blob.tag,
    )
    with pytest.raises(CryptoError):
        key.decrypt(tampered)


@given(
    st.binary(min_size=1, max_size=64),
    st.binary(max_size=32),
    st.binary(max_size=32),
    st.integers(1, 128),
)
def test_kdf_deterministic_and_sized(secret, salt, info, length):
    a = derive_key(secret, salt, info, length)
    b = derive_key(secret, salt, info, length)
    assert a == b
    assert len(a) == length


@given(st.binary(min_size=1, max_size=32), st.binary(min_size=1, max_size=32))
def test_kdf_info_separation(info1, info2):
    k1 = derive_key(b"root", b"salt", info1)
    k2 = derive_key(b"root", b"salt", info2)
    assert (k1 == k2) == (info1 == info2)


@given(st.integers(0, 2**64 - 1), st.integers(1, 512))
def test_random_source_reproducible(seed, count):
    assert RandomSource(seed).bytes(count) == RandomSource(seed).bytes(count)


@given(st.integers(0, 2**32 - 1), st.integers(1, 10_000))
def test_randint_below_uniform_support(seed, bound):
    value = RandomSource(seed).randint_below(bound)
    assert 0 <= value < bound


@given(st.integers(0, 2**32 - 1), st.lists(st.integers(), min_size=1, max_size=50))
def test_shuffle_is_permutation(seed, items):
    shuffled = RandomSource(seed).shuffle(list(items))
    assert sorted(shuffled) == sorted(items)


@given(st.binary(max_size=200), st.binary(max_size=300),
       st.sampled_from(["sha1", "sha256"]))
def test_mac_equals_stdlib_hmac(key, data, name):
    assert mac(key, data, name) == hmac.digest(key, data, name)


def _reference_keygen(bits, rng):
    """The generator before keygen was memoized: it charges each draw as it
    makes it, straight through ``rng``."""
    charge("rsa.keygen.2048")
    while True:
        p = _generate_prime(bits // 2, rng)
        q = _generate_prime(bits - bits // 2, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = pow(PUBLIC_EXPONENT, -1, phi)
        except ValueError:
            continue
        public = RsaPublicKey(n=n, e=PUBLIC_EXPONENT, bits=bits)
        return RsaKeyPair(public=public, d=d, p=p, q=q)


class _OrderedLedger(CostLedger):
    def __init__(self):
        super().__init__()
        self.stream = []

    def record(self, op, cost_us):
        super().record(op, cost_us)
        self.stream.append((op, cost_us))


def _observe(keygen, seed, predrawn):
    """Everything a keygen call can show: the pair, the charges in order,
    the clock delta and the RNG's continuation."""
    ctx = TimingContext()
    with context_scope(ctx):
        rng = RandomSource(seed)
        rng.bytes(predrawn)
        before = ctx.clock.now_us
        with ledger_scope(_OrderedLedger()) as ledger:
            pair = keygen(512, rng)
        delta = ctx.clock.now_us - before
    return {
        "pair": pair,
        "stream": ledger.stream,
        "calls": ledger.calls,
        "cost_by_op": ledger.cost_by_op,
        "total_us": ledger.total_us,
        "delta": delta,
        "bytes_generated": rng.bytes_generated,
        "next": rng.bytes(64),
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 40))
def test_keygen_memo_hit_equals_miss_equals_reference(seed, predrawn):
    """A memo miss and the hit that repeats it are both indistinguishable
    from the unmemoized generator."""
    _recorded_keygen.cache_clear()
    miss = _observe(generate_keypair, seed, predrawn)
    hits = _recorded_keygen.cache_info().hits
    hit = _observe(generate_keypair, seed, predrawn)
    assert _recorded_keygen.cache_info().hits == hits + 1
    reference = _observe(_reference_keygen, seed, predrawn)
    assert miss == reference
    assert hit == reference
