"""The virtual-time charge stream of the storage and plumbing commands.

Wall-time work on the crypto and codec kernels must not move virtual time.
One ``seal``, one ``unseal`` and one authorized ``nv_read`` on a fresh
improved platform are pinned here: per-operation call counts and costs,
a digest of the ordered ``(op, cost)`` stream, and the clock's final
value, all recorded from the code before those kernels were rewritten.
One RSA key generation is pinned the same way, recorded before keygen was
memoized, both on a memo miss and on the hit that repeats it.  The
unauthorized single-frame plumbing (PCRRead, Extend and GetRandom on an
unsupervised guest, a PCRRead and an 8-frame batch on a supervised one) is
pinned too, recorded before that path was flattened.
"""

import hashlib

import pytest

from repro.core.config import AccessMode
from repro.crypto.random_source import RandomSource
from repro.crypto.rsa import _recorded_keygen, generate_keypair
from repro.harness.builder import build_platform, fresh_timing_context
from repro.sim.timing import CostLedger, ledger_scope
from repro.tpm.constants import TPM_KH_SRK
from repro.tpm.marshal import extend_wire, parse_response, pcr_read_wire
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


# -- the unauthorized single-frame plumbing --------------------------------------

#: every single ring kick's plumbing: one dispatch, one instance lookup,
#: two notifies, three transfers and one audit append
KICK_CALLS = {
    "ac.audit.append": 1, "tpm.cmd.base": 1, "vtpm.dispatch": 1,
    "vtpm.instance.lookup": 1, "xen.evtchn.notify": 2, "xen.ring.transfer": 3,
}
KICK_COSTS = {
    "tpm.cmd.base": 14.0, "vtpm.dispatch": 4.5, "vtpm.instance.lookup": 0.5,
    "xen.evtchn.notify": 2.2,
}

#: recorded before the single-frame kick path was flattened; a warm-up
#: PCRRead per guest precedes them, so a read is a decision-cache hit
#: and the first Extend is a miss
PLUMBING = {
    "pcr_read": {
        "calls": {**KICK_CALLS, "ac.policy.cache_hit": 1},
        "cost_by_op": {
            **KICK_COSTS, "ac.audit.append": 1.4855999999999998,
            "ac.policy.cache_hit": 0.08, "xen.ring.transfer": 2.4638,
        },
    },
    "extend": {
        "calls": {
            **KICK_CALLS, "ac.identity.check": 1, "ac.policy.lookup": 1,
            "hash.sha1": 1, "tpm.pcr.extend": 1,
        },
        "cost_by_op": {
            **KICK_COSTS, "ac.audit.append": 1.4848,
            "ac.identity.check": 0.35, "ac.policy.lookup": 0.55,
            "hash.sha1": 1.068, "tpm.pcr.extend": 0.8,
            "xen.ring.transfer": 2.5078,
        },
    },
    "get_random": {
        "calls": {**KICK_CALLS, "ac.policy.cache_hit": 1, "rng.bytes": 1},
        "cost_by_op": {
            **KICK_COSTS, "ac.audit.append": 1.4871999999999999,
            "ac.policy.cache_hit": 0.08, "rng.bytes": 2.2,
            "xen.ring.transfer": 2.4814,
        },
    },
    "supervised_pcr_read": {
        "calls": {**KICK_CALLS, "ac.policy.cache_hit": 1},
        "cost_by_op": {
            **KICK_COSTS, "ac.audit.append": 1.4864,
            "ac.policy.cache_hit": 0.08, "xen.ring.transfer": 2.4638,
        },
    },
    "supervised_batch": {
        "calls": {
            "ac.audit.append": 8, "ac.identity.check": 1,
            "ac.policy.cache_hit": 7, "ac.policy.lookup": 1, "hash.sha1": 4,
            "tpm.cmd.base": 8, "tpm.pcr.extend": 4, "vtpm.dispatch": 1,
            "vtpm.instance.lookup": 8, "xen.evtchn.notify": 2,
            "xen.ring.transfer": 3,
        },
        "cost_by_op": {
            "ac.audit.append": 11.891199999999998, "ac.identity.check": 0.35,
            "ac.policy.cache_hit": 0.56, "ac.policy.lookup": 0.55,
            "hash.sha1": 4.272, "tpm.cmd.base": 112.0, "tpm.pcr.extend": 3.2,
            "vtpm.dispatch": 4.5, "vtpm.instance.lookup": 4.0,
            "xen.evtchn.notify": 2.2, "xen.ring.transfer": 3.192,
        },
    },
}
PLUMBING_DIGESTS = {
    "pcr_read": "56d3cffd0139f7fb",
    "extend": "314d19c910530bab",
    "get_random": "fdc8a87d6b02b92e",
    "supervised_pcr_read": "ff4fc43a20a45b8f",
    "supervised_batch": "38797671930c5572",
}
PLUMBING_CLOCK_AFTER_US = 1257740.4823999458


def _batch_wires():
    """Eight frames: a read and an extend of each of PCRs 8-11."""
    wires = []
    for i in range(4):
        wires.append(pcr_read_wire(8 + i))
        wires.append(extend_wire(8 + i, bytes([i]) * 20))
    return wires


@pytest.fixture(scope="module")
def plumbing_ledgers():
    ctx = fresh_timing_context()
    platform = build_platform(AccessMode.IMPROVED, seed=24)
    plain = platform.add_guest("plain").client
    plain.pcr_read(0)
    out = {}
    with ledger_scope(OrderedLedger()) as out["pcr_read"]:
        assert plain.pcr_read(8) == bytes(20)
    with ledger_scope(OrderedLedger()) as out["extend"]:
        plain.extend(8, b"m" * 20)
    with ledger_scope(OrderedLedger()) as out["get_random"]:
        assert len(plain.get_random(32)) == 32
    watched = platform.add_guest("watched")
    platform.enable_supervision()
    watched.client.pcr_read(0)
    with ledger_scope(OrderedLedger()) as out["supervised_pcr_read"]:
        assert watched.client.pcr_read(8) == bytes(20)
    with ledger_scope(OrderedLedger()) as out["supervised_batch"]:
        responses = watched.frontend.transport_batch(_batch_wires())
    assert [parse_response(r).return_code for r in responses] == [0] * 8
    return ctx.clock.now_us, out


@pytest.mark.parametrize("op", sorted(PLUMBING))
def test_plumbing_calls_and_costs_match_the_recorded_stream(
    plumbing_ledgers, op
):
    ledger = plumbing_ledgers[1][op]
    assert ledger.calls == PLUMBING[op]["calls"]
    assert ledger.cost_by_op == PLUMBING[op]["cost_by_op"]


def test_plumbing_charge_order_matches_the_recorded_stream(plumbing_ledgers):
    digests = {
        op: hashlib.sha256("\n".join(ledger.stream).encode()).hexdigest()[:16]
        for op, ledger in plumbing_ledgers[1].items()
    }
    assert digests == PLUMBING_DIGESTS


def test_plumbing_clock_ends_on_the_recorded_float(plumbing_ledgers):
    assert plumbing_ledgers[0] == PLUMBING_CLOCK_AFTER_US
