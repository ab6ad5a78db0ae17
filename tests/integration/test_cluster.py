"""Integration tests for the fleet: the cross-host differential oracle.

The central claim of attested migration is that moving a vTPM between
hosts is *invisible* to the guest: a migrated instance must produce the
same response bytes, reach the same PCR/NV state, and accumulate the
same audit decision chain as an identical instance that never moved.
These tests run the two histories side by side and compare byte for
byte.
"""

import hashlib
import struct

import pytest

from repro.cluster import ClusterScenario, build_fleet
from repro.crypto.random_source import RandomSource
from repro.harness.builder import fresh_timing_context
from repro.harness.scenario import run_demo, state_digest
from repro.tpm import marshal
from repro.tpm.constants import NUM_PCRS, TPM_ORD_Extend, TPM_ORD_PcrRead

COMMANDS = 40
MIGRATE_AT = 20
SEED = 501


def _script(seed: int, count: int):
    """The shared command stream: deterministic, placement-independent."""
    rng = RandomSource(f"dual-history-{seed}".encode())
    wires = []
    for _ in range(count):
        if rng.randint_below(100) < 60:
            wires.append(marshal.build_command(
                TPM_ORD_Extend,
                struct.pack(">I", rng.randint_below(NUM_PCRS)) + rng.bytes(20),
            ))
        else:
            wires.append(marshal.build_command(
                TPM_ORD_PcrRead,
                struct.pack(">I", rng.randint_below(NUM_PCRS)),
            ))
    return wires


def _audit_decisions(platform, subject_hex: str):
    """The time- and instance-free audit decision view for one subject."""
    return [
        (record.operation, record.allowed)
        for record in platform.audit.for_subject(subject_hex)
    ]


def _decision_chain(decisions) -> str:
    digest = hashlib.sha256()
    for operation, allowed in decisions:
        digest.update(f"{operation}|{int(allowed)}\n".encode())
    return digest.hexdigest()


class TestCrossHostDifferentialOracle:
    def _run_migrated(self, wires):
        fresh_timing_context()
        fleet = build_fleet(num_hosts=2, seed=SEED, capacity=8, name="mig")
        source = fleet.add_guest("subject")
        target = "h1" if source == "h0" else "h0"
        platform = fleet.hosts[source].platform
        domid = platform.guests["subject"].domain.domid
        identity = platform.identities.lookup(domid)
        responses = []
        for step, wire in enumerate(wires):
            if step == MIGRATE_AT:
                fleet.migrate("subject", target)
            responses.append(fleet.router.send("subject", wire))
        decisions = (
            _audit_decisions(fleet.hosts[source].platform, identity.hex)
            + _audit_decisions(fleet.hosts[target].platform, identity.hex)
        )
        return responses, state_digest(fleet.instance_for("subject")), \
            decisions, identity.hex

    def _run_sedentary(self, wires):
        fresh_timing_context()
        fleet = build_fleet(num_hosts=1, seed=SEED, capacity=8, name="sed")
        fleet.add_guest("subject")
        platform = fleet.hosts["h0"].platform
        domid = platform.guests["subject"].domain.domid
        identity = platform.identities.lookup(domid)
        responses = [fleet.router.send("subject", wire) for wire in wires]
        decisions = _audit_decisions(fleet.hosts["h0"].platform, identity.hex)
        return responses, state_digest(fleet.instance_for("subject")), \
            decisions, identity.hex

    def test_migrated_history_is_byte_identical_to_sedentary(self):
        wires = _script(SEED, COMMANDS)
        migrated = self._run_migrated(wires)
        sedentary = self._run_sedentary(wires)
        # the measured identity (the access-control subject) survives the move
        assert migrated[3] == sedentary[3]
        # every response frame, in order, byte for byte
        assert migrated[0] == sedentary[0]
        # final PCR banks and NV areas
        assert migrated[1] == sedentary[1]
        # the audit decision chain: the same command decisions, in order,
        # stitched across the two hosts' logs
        assert migrated[2] == sedentary[2]
        assert _decision_chain(migrated[2]) == _decision_chain(sedentary[2])
        # and it actually audited something
        assert len(migrated[2]) >= COMMANDS

    def test_response_digest_is_placement_invariant(self):
        """Same script, three different fleet shapes, one digest."""
        wires = _script(SEED + 1, 24)
        digests = set()
        for hosts in (1, 2, 3):
            fresh_timing_context()
            fleet = build_fleet(
                num_hosts=hosts, seed=SEED + hosts, capacity=8,
                name=f"shape{hosts}",
            )
            fleet.add_guest("subject")
            digest = hashlib.sha256()
            for wire in wires:
                digest.update(fleet.router.send("subject", wire))
            digests.add(digest.hexdigest())
        assert len(digests) == 1


class TestClusterDemoOracles:
    def test_demo_holds_all_oracles_at_small_scale(self):
        result = run_demo(ClusterScenario(seed=9, hosts=3, guests=9, steps=24))
        assert result.zero_dropped
        assert result.state_preserved
        assert result.deterministic
        chaotic = result.chaotic
        assert chaotic.host_crashes == 1
        assert chaotic.migrations_moved >= 1
        assert chaotic.fault_counts.get("partition", 0) > 0
        assert chaotic.answered == chaotic.submitted
