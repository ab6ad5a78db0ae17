"""Acceptance: the supervised chaos run satisfies the resilience oracles.

The ISSUE's acceptance criteria, as tests: a seeded chaos run injecting
instance wedges, restart flaps and queue overload must end with (a) zero
silently dropped commands — every submitted command resolved to exactly
one well-formed response frame, (b) every quarantined instance either
restored-and-reattested or explicitly failed, (c) state digests of
unaffected guests byte-identical to a fault-free run, and (d) the
breaker's open/close sequence identical across runs with the same seed.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultKind
from repro.harness.chaos import SupervisedChaosScenario
from repro.harness.scenario import run_demo, run_once
from repro.tpm.constants import TPM_FAIL, TPM_RESOURCES, TPM_SUCCESS

SEED = 2026
COMMANDS = 300  # enough for the full wedge → restart → re-close arc


@pytest.fixture(scope="module")
def demo():
    return run_demo(SupervisedChaosScenario(seed=SEED, commands=COMMANDS))


class TestSupervisedChaosAcceptance:
    def test_demo_oracles_hold(self, demo):
        assert demo.zero_dropped
        assert demo.deterministic

    def test_plan_exercises_the_new_fault_kinds(self, demo):
        counts = demo.chaotic.fault_counts
        assert counts.get(FaultKind.WEDGE.value, 0) > 0
        assert counts.get(FaultKind.FLAP.value, 0) > 0

    def test_zero_silent_drops(self, demo):
        chaotic = demo.chaotic
        assert chaotic.answered == chaotic.submitted
        assert chaotic.malformed == 0
        # Every response code is one the protocol defines for this path.
        assert set(chaotic.response_codes) <= {
            TPM_SUCCESS, TPM_FAIL, TPM_RESOURCES
        }

    def test_quarantined_instance_recovered_and_reattested(self, demo):
        victim = demo.chaotic.health["victim"]
        assert victim["restarts"] >= 1
        assert victim["state"] in ("healthy", "failed")
        transitions = victim["transitions"]
        # The full supervised arc, including the deliberate first flap.
        assert any("quarantined->restarting" in t for t in transitions)
        assert any("restarting->quarantined[probe-flap]" in t
                   for t in transitions)
        assert any("restarting->healthy[restart-probe-ok]" in t
                   for t in transitions)

    def test_supervision_settles(self, demo):
        assert demo.chaotic.settled

    def test_unaffected_guests_digests_identical(self, demo):
        clean, chaotic = demo.control, demo.chaotic
        assert chaotic.digests["anchor"] == clean.digests["anchor"]
        assert chaotic.digests["bursty"] == clean.digests["bursty"]
        # The victim only read after its checkpoint, so even its restored
        # state is byte-identical.
        assert chaotic.digests["victim"] == clean.digests["victim"]

    def test_breaker_sequences_deterministic(self, demo):
        chaotic, replay = demo.chaotic, demo.replay
        assert chaotic.breaker_sequences == replay.breaker_sequences
        victim_states = [
            s for s, _ in chaotic.breaker_sequences["victim"]
        ]
        # open (storm) → half-open (probe) → … → closed (recovered)
        assert victim_states[0] == "open"
        assert victim_states[-1] == "closed"

    def test_overload_shed_on_depth_and_deadline(self, demo):
        shed = demo.chaotic.shed_counts["bursty"]
        assert shed.get("depth", 0) > 0
        assert shed.get("deadline", 0) > 0
        # The anchor, sending single frames, was never shed.
        assert not demo.chaotic.shed_counts.get("anchor")

    def test_fault_free_run_sheds_only_overload(self, demo):
        """Without faults, supervision never degrades anyone: the only
        sheds are the bursty guest's own oversized batches."""
        clean = demo.control
        assert clean.total_faults == 0
        assert not clean.shed_counts.get("victim")
        for record in clean.health.values():
            assert record["state"] == "healthy"
            assert record["restarts"] == 0


def _chaotic_run(seed: int):
    scenario = SupervisedChaosScenario(seed=seed, commands=COMMANDS)
    return run_once(scenario, scenario.default_plan())


class TestSupervisedChaosControls:
    def test_different_seed_changes_breaker_schedule(self):
        a = _chaotic_run(SEED)
        b = _chaotic_run(SEED + 1)
        # The arc is the same shape but the jittered cooldowns differ.
        assert a.breaker_sequences["victim"] != b.breaker_sequences["victim"]

    def test_audit_chain_verifies_after_chaos(self):
        report = _chaotic_run(SEED)
        assert report.audit_chain_hex
