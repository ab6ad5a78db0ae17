"""Pins the audit chain of a fixed, seeded decision mix.

Four guests drive 4,200 frames through their rings: owners extend and
read their own vTPMs, a monitor-profile guest draws denials for the
extends its profile does not grant, and every guest sends the odd
malformed frame.  The run crosses one chaining batch (4,096 entries).  The
literal hashes below were recorded from the log's earlier layout, which
stored every entry's hash; a change to the log's layout must leave every
one of them unchanged.
"""

from __future__ import annotations

import pytest

from repro.core.config import AccessMode
from repro.core.profiles import PROFILE_MONITOR
from repro.crypto.random_source import RandomSource
from repro.harness.builder import build_platform, fresh_timing_context
from repro.tpm import marshal
from repro.tpm.constants import TPM_ORD_Extend, TPM_ORD_PcrRead

FRAMES = 4_200

CHAIN_HEAD = (
    "72be57b6ce6d9308acbdc10c128d40d3"
    "fc7d7409104f76ab9c643ef3ef1f5bf0"
)
DECISION_CHAIN_HASH = (
    "7f0a217f993b561f1f2a998615507e88"
    "c14e9ff0845ba4bc8e5eab185b264190"
)
HEADS_AT = {
    0: "755f52558b8c89c776e66bcffc6025a1"
        "4791d66c1981916d4ff5fba885b6a257",
    1: "39749dddcae43a36a2d15443c2ea1423"
        "744db413327304c40f85170394e4b352",
    15: "c54d62f29fa8b500399f6f2140910d98"
        "373d404f1b3e0d696e9da3cd88ff2236",
    16: "c358bd52b5498e2ef3c98ddc4cb8e6e9"
        "1e296bcb82f6a9a20bd3cb2d5e69147d",
    17: "a2d7885f8fc992b91062f15afceede97"
        "9ce290d940691a2924cf1c00eb85f3a1",
    4096: "162a7b4b98422be4f6dbd9c0d1e0dde0"
        "f8aabc1608bb8eb30d32d32bd05e94f6",
    4097: "88816665af3638eb7dc77d346d62db29"
        "66f4019097e7b4df4beb81d2d9c8d064",
}


def _wire(kind: int, index: int) -> bytes:
    if kind == 0:
        return marshal.build_command(
            TPM_ORD_Extend, index.to_bytes(4, "big") + bytes([index]) * 20
        )
    if kind == 1:
        return marshal.build_command(TPM_ORD_PcrRead, index.to_bytes(4, "big"))
    return b"\xff\xff"


def _drive():
    """The platform's audit log after the fixed mix."""
    fresh_timing_context()
    platform = build_platform(AccessMode.IMPROVED, seed=29, name="pin")
    guests = [platform.add_guest(f"owner{i}") for i in range(3)]
    guests.append(platform.add_guest("monitor", profile=PROFILE_MONITOR))
    rng = RandomSource(b"audit-chain-pin")
    sent = 0
    while sent < FRAMES:
        draw = rng.bytes(4)
        guest = guests[draw[0] % len(guests)]
        kind = 2 if draw[1] % 16 == 0 else draw[1] % 2
        count = 1 + draw[2] % 8
        wires = [_wire(kind, (draw[3] + i) % 16) for i in range(count)]
        guest.frontend.transport_batch(wires)
        sent += count
    return platform.audit


@pytest.fixture(scope="module")
def audit():
    return _drive()


def test_log_crosses_a_chain_batch(audit):
    assert len(audit) > 4_097
    assert audit.denials()


def test_chain_head(audit):
    assert audit.chain_head().hex() == CHAIN_HEAD


def test_decision_chain_hash(audit):
    assert audit.decision_chain_hash().hex() == DECISION_CHAIN_HASH


@pytest.mark.parametrize("sequence", [0, 1, 15, 16, 17, 4096, 4097])
def test_head_at(audit, sequence):
    assert audit.head_at(sequence).hex() == HEADS_AT[sequence]
