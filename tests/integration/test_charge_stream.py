"""The virtual-time charge stream of the authorized storage commands.

Wall-time work on the crypto and codec kernels must not move virtual time.
One ``seal``, one ``unseal`` and one authorized ``nv_read`` on a fresh
improved platform are pinned here: per-operation call counts and costs,
a digest of the ordered ``(op, cost)`` stream, and the clock's final
value, all recorded from the code before those kernels were rewritten.
One RSA key generation is pinned the same way, recorded before keygen was
memoized, both on a memo miss and on the hit that repeats it.
"""

import hashlib

import pytest

from repro.core.config import AccessMode
from repro.crypto.random_source import RandomSource
from repro.crypto.rsa import _recorded_keygen, generate_keypair
from repro.harness.builder import build_platform, fresh_timing_context
from repro.sim.timing import CostLedger, ledger_scope
from repro.tpm.constants import TPM_KH_SRK
from repro.tpm.nvram import NV_PER_AUTHREAD, NV_PER_AUTHWRITE

OWNER = b"pin-owner-auth!!!!!!"
SRK = b"pin-srk-auth!!!!!!!!"
DATA = b"pin-data-auth!!!!!!!"
NV_AUTH = b"pin-nv-auth!!!!!!!!!"
NV_INDEX = 0x2000
PAYLOAD = b"pinned-sealed-payload-0123!"

PLUMBING_CALLS = {
    "ac.audit.append": 2, "tpm.cmd.base": 2, "vtpm.dispatch": 2,
    "vtpm.instance.lookup": 2, "xen.evtchn.notify": 4, "xen.ring.transfer": 6,
}

EXPECTED = {
    "seal": {
        "calls": {
            **PLUMBING_CALLS, "ac.identity.check": 1,
            "ac.policy.cache_hit": 1, "ac.policy.lookup": 1,
            "ac.seal.derive": 1, "cipher.sym": 1, "mac.hmac": 9,
            "rng.bytes": 6,
        },
        "cost_by_op": {
            "ac.audit.append": 2.968, "ac.identity.check": 0.35,
            "ac.policy.cache_hit": 0.08, "ac.policy.lookup": 0.55,
            "ac.seal.derive": 3.0, "cipher.sym": 1.508,
            "mac.hmac": 22.7055, "rng.bytes": 9.4, "tpm.cmd.base": 28.0,
            "vtpm.dispatch": 9.0, "vtpm.instance.lookup": 1.0,
            "xen.evtchn.notify": 4.4, "xen.ring.transfer": 5.3764,
        },
    },
    "unseal": {
        "calls": {
            **PLUMBING_CALLS, "ac.policy.cache_hit": 2,
            "ac.seal.derive": 1, "cipher.sym": 1, "mac.hmac": 7,
            "rng.bytes": 3,
        },
        "cost_by_op": {
            "ac.audit.append": 2.9703999999999997,
            "ac.policy.cache_hit": 0.16, "ac.seal.derive": 3.0,
            "cipher.sym": 1.508, "mac.hmac": 17.785500000000003,
            "rng.bytes": 4.800000000000001, "tpm.cmd.base": 28.0,
            "vtpm.dispatch": 9.0, "vtpm.instance.lookup": 1.0,
            "xen.evtchn.notify": 4.4, "xen.ring.transfer": 5.3852,
        },
    },
    "nv_read": {
        "calls": {
            **PLUMBING_CALLS, "ac.policy.cache_hit": 2, "mac.hmac": 4,
            "rng.bytes": 3, "tpm.nv.access": 1,
        },
        "cost_by_op": {
            "ac.audit.append": 2.976, "ac.policy.cache_hit": 0.16,
            "mac.hmac": 10.386000000000001, "rng.bytes": 4.800000000000001,
            "tpm.cmd.base": 28.0, "tpm.nv.access": 2.0,
            "vtpm.dispatch": 9.0, "vtpm.instance.lookup": 1.0,
            "xen.evtchn.notify": 4.4, "xen.ring.transfer": 5.1025,
        },
    },
}
#: first 16 hex digits of SHA-256 over the ordered "op=cost" lines
STREAM_DIGESTS = {
    "seal": "db4752baafe12854",
    "unseal": "4fa2dc98dac4e082",
    "nv_read": "d3960aebe91f0e36",
}
CLOCK_BEFORE_US = 1048026.9094999705
CLOCK_AFTER_US = 1048261.0809999696


class OrderedLedger(CostLedger):
    """A ledger that also keeps the charges in the order they were made."""

    def __init__(self) -> None:
        super().__init__()
        self.stream = []

    def record(self, op: str, cost_us: float) -> None:
        super().record(op, cost_us)
        self.stream.append(f"{op}={cost_us!r}")


@pytest.fixture(scope="module")
def ledgers():
    ctx = fresh_timing_context()
    platform = build_platform(AccessMode.IMPROVED, seed=24)
    client = platform.add_guest("pinned").client
    client.take_ownership(OWNER, SRK, client.read_pubek())
    client.nv_define(OWNER, NV_INDEX, 64, NV_PER_AUTHREAD | NV_PER_AUTHWRITE,
                     NV_AUTH)
    client.nv_write(NV_AUTH, NV_INDEX, 0, bytes(range(64)))
    before = ctx.clock.now_us
    out = {}
    with ledger_scope(OrderedLedger()) as out["seal"]:
        blob = client.seal(TPM_KH_SRK, SRK, PAYLOAD, DATA)
    with ledger_scope(OrderedLedger()) as out["unseal"]:
        assert client.unseal(TPM_KH_SRK, SRK, blob, DATA) == PAYLOAD
    with ledger_scope(OrderedLedger()) as out["nv_read"]:
        assert client.nv_read(NV_INDEX, 0, 32, auth=NV_AUTH) == bytes(range(32))
    return before, ctx.clock.now_us, out


@pytest.mark.parametrize("op", sorted(EXPECTED))
def test_calls_and_costs_match_the_recorded_stream(ledgers, op):
    ledger = ledgers[2][op]
    assert ledger.calls == EXPECTED[op]["calls"]
    assert ledger.cost_by_op == EXPECTED[op]["cost_by_op"]


def test_charge_order_matches_the_recorded_stream(ledgers):
    digests = {
        op: hashlib.sha256("\n".join(ledger.stream).encode()).hexdigest()[:16]
        for op, ledger in ledgers[2].items()
    }
    assert digests == STREAM_DIGESTS


def test_clock_ends_on_the_recorded_float(ledgers):
    before, after, _ = ledgers
    assert before == CLOCK_BEFORE_US
    assert after == CLOCK_AFTER_US


KEYGEN_CALLS = {"rsa.keygen.2048": 1, "rng.bytes": 151}
KEYGEN_COST_BY_OP = {"rsa.keygen.2048": 165000.0, "rng.bytes": 332.1999999999991}
KEYGEN_STREAM_DIGEST = "e2fcae216d0cffcf"
KEYGEN_CLOCK_AFTER_US = 165333.05000000176
KEYGEN_BYTES_GENERATED = 4837
KEYGEN_NEXT_BYTES = "2b2c17405147bf0f"


def _pinned_keygen():
    ctx = fresh_timing_context()
    rng = RandomSource(b"keygen-pin")
    rng.bytes(5)  # start mid-block, with a partial pool
    with ledger_scope(OrderedLedger()) as ledger:
        generate_keypair(512, rng)
    digest = hashlib.sha256("\n".join(ledger.stream).encode()).hexdigest()[:16]
    return ledger, digest, ctx.clock.now_us, rng


def test_keygen_miss_and_hit_match_the_recorded_stream():
    _recorded_keygen.cache_clear()
    for expected_hits in (0, 1):
        ledger, digest, clock, rng = _pinned_keygen()
        assert _recorded_keygen.cache_info().hits == expected_hits
        assert ledger.calls == KEYGEN_CALLS
        assert ledger.cost_by_op == KEYGEN_COST_BY_OP
        assert digest == KEYGEN_STREAM_DIGEST
        assert clock == KEYGEN_CLOCK_AFTER_US
        assert rng.bytes_generated == KEYGEN_BYTES_GENERATED
        assert rng.bytes(8).hex() == KEYGEN_NEXT_BYTES
