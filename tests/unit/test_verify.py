"""Unit tests for the conformance verification subsystem.

Covers the reference model's prediction order, deterministic schedule
generation, global dedupe, DPOR conflict pruning, ddmin minimality on a
synthetic predicate, repro JSON round-trips, and a tiny zero-violation
exploration sweep on the real pipeline.
"""

import json

import pytest

from repro.core.policy import OWNER_CLASSES, CommandClass
from repro.core.reason import Reason
from repro.tpm.constants import TPM_AUTHFAIL, TPM_SUCCESS
from repro.util.errors import ReproError
from repro.verify.explorer import (
    BUDGETS,
    Budget,
    ScheduleRunner,
    Step,
    Violation,
    _conflicting,
    _credit_base_order,
    _dpor_swaps,
    _generate_streams,
    _random_interleaving,
    explore,
)
from repro.verify.model import (
    ALLOW_CODES,
    DENY_CODES,
    TURBULENT_CODES,
    ReferenceModel,
)
from repro.verify.shrink import REPRO_FORMAT, Repro, ddmin, load_repro, save_repro
from repro.crypto.random_source import RandomSource


def _model(*names):
    model = ReferenceModel()
    for name in names:
        model.on_guest_added(name)
    return model


class TestReferenceModel:
    def test_fresh_guest_allows_owner_classes(self):
        model = _model("g0")
        for command_class in OWNER_CLASSES:
            prediction = model.predict("g0", "g0", command_class)
            assert prediction.verdict == "allow"
            assert prediction.accept == ALLOW_CODES
            assert prediction.strict

    def test_revoked_class_denies(self):
        model = _model("g0")
        model.on_revoke("g0", CommandClass.MEASURE)
        prediction = model.predict("g0", "g0", CommandClass.MEASURE)
        assert prediction.verdict == "deny"
        assert prediction.accept == DENY_CODES
        # Other classes unaffected.
        assert model.predict("g0", "g0", CommandClass.READ).verdict == "allow"

    def test_forgotten_identity_denies_everything(self):
        model = _model("g0")
        model.on_identity_forgotten("g0")
        prediction = model.predict("g0", "g0", CommandClass.READ)
        assert prediction.verdict == "deny"
        model.on_identity_reregistered("g0")
        assert model.predict("g0", "g0", CommandClass.READ).verdict == "allow"

    def test_cross_guest_access_denies(self):
        model = _model("g0", "g1")
        prediction = model.predict("g0", "g1", CommandClass.READ)
        assert prediction.verdict == "deny"
        assert prediction.reason is Reason.BINDING_MISMATCH

    def test_turbulence_beats_deny(self):
        # Prediction order: turbulence widens the accept set even for a
        # command the strict model would deny.
        model = _model("g0", "g1")
        model.on_wedged("g1")
        prediction = model.predict("g0", "g1", CommandClass.READ)
        assert prediction.verdict == "degrade"
        assert prediction.accept == TURBULENT_CODES
        assert not prediction.strict
        model.on_settled("g1")
        assert model.predict("g0", "g1", CommandClass.READ).verdict == "deny"

    def test_turbulent_accept_set_contents(self):
        assert TPM_SUCCESS in TURBULENT_CODES
        assert TPM_AUTHFAIL in TURBULENT_CODES

    def test_manager_restart_restores_full_grants(self):
        model = _model("g0", "g1")
        model.on_revoke("g0", CommandClass.MEASURE)
        model.on_identity_forgotten("g1")
        model.on_manager_restart()
        assert model.predict("g0", "g0", CommandClass.MEASURE).verdict == "allow"
        assert model.predict("g1", "g1", CommandClass.READ).verdict == "allow"

    def test_migration_restores_full_grants(self):
        model = _model("g0")
        model.on_revoke("g0", CommandClass.USE_KEY)
        model.on_migrated("g0")
        assert model.predict("g0", "g0", CommandClass.USE_KEY).verdict == "allow"

    def test_shadow_pcr_extend_chain(self):
        import hashlib

        model = _model("g0")
        m1, m2 = b"\x01" * 20, b"\x02" * 20
        first = model.apply_extend("g0", 3, m1)
        assert first == hashlib.sha1(b"\x00" * 20 + m1).digest()
        second = model.apply_extend("g0", 3, m2)
        assert second == hashlib.sha1(first + m2).digest()
        assert model.pcr_value("g0", 3) == second
        assert model.pcr_value("g0", 4) is None

    def test_sync_guest_overrides_event_state(self):
        model = _model("g0")
        model.on_revoke("g0", CommandClass.MEASURE)
        model.sync_guest(
            "g0", identity="registered", grants=set(OWNER_CLASSES),
            pcr_values={}, health="healthy",
        )
        assert model.predict("g0", "g0", CommandClass.MEASURE).verdict == "allow"


class TestScheduleGeneration:
    def test_streams_deterministic(self):
        a = _generate_streams(7, 0, 3, 6)
        b = _generate_streams(7, 0, 3, 6)
        assert a == b
        assert _generate_streams(7, 1, 3, 6) != a
        assert _generate_streams(8, 0, 3, 6) != a

    def test_streams_shape(self):
        streams = _generate_streams(7, 0, 4, 5)
        assert len(streams) == 4
        for guest, stream in enumerate(streams):
            assert len(stream) == 5
            assert all(step.guest == guest for step in stream)

    def test_credit_base_order_preserves_program_order(self):
        streams = _generate_streams(11, 2, 3, 8)
        order = _credit_base_order(streams, [256, 256, 256])
        assert sorted(
            (s.guest, s.op, s.arg) for s in order
        ) == sorted((s.guest, s.op, s.arg) for stream in streams for s in stream)
        for guest, stream in enumerate(streams):
            mine = [s for s in order if s.guest == guest]
            assert mine == stream

    def test_random_interleaving_preserves_program_order(self):
        streams = _generate_streams(11, 2, 3, 8)
        rng = RandomSource(b"interleave-test")
        order = _random_interleaving(streams, rng)
        assert len(order) == sum(len(s) for s in streams)
        for guest, stream in enumerate(streams):
            assert [s for s in order if s.guest == guest] == stream

    def test_dpor_swaps_only_conflicting_cross_guest_pairs(self):
        schedule = (
            Step(0, "extend", 1),
            Step(1, "extend", 1),     # disjoint footprint with g0: no swap
            Step(1, "pcr_read", 2),   # same guest as previous: no swap
            Step(0, "restart"),       # global: conflicts with anything
        )
        variants = _dpor_swaps(schedule, guests=2, cap=10)
        # Only (pcr_read by g1, restart by g0) is a conflicting
        # cross-guest adjacent pair.
        assert len(variants) == 1
        assert variants[0][2] == Step(0, "restart")
        assert variants[0][3] == Step(1, "pcr_read", 2)

    def test_conflict_predicate(self):
        # Same guest's instance: conflict.
        assert _conflicting(Step(0, "extend", 1), Step(1, "cross_read", 1), 2)
        # Disjoint instances: commute.
        assert not _conflicting(Step(0, "extend", 1), Step(1, "extend", 1), 3)
        # Restart is global.
        assert _conflicting(Step(0, "restart"), Step(2, "pcr_read"), 3)

    def test_dpor_cap_respected(self):
        schedule = tuple(
            Step(i % 2, "cross_read", 0) for i in range(20)
        )
        assert len(_dpor_swaps(schedule, guests=2, cap=3)) <= 3


class TestStepAndReproSerialization:
    def test_step_round_trip(self):
        step = Step(2, "cross_read", 5)
        assert Step.from_json(step.to_json()) == step
        assert Step.from_json({"guest": 1, "op": "forget"}) == Step(1, "forget")

    def test_repro_round_trip(self, tmp_path):
        repro = Repro(
            seed=2010, guests=3, supervised=False, inject_bug="cache-epoch",
            steps=(Step(0, "extend", 3), Step(0, "revoke", 0)),
            violation=Violation(
                kind="oracle-mismatch", step_index=1,
                step=Step(0, "revoke", 0),
                predicted="deny", observed="allow", detail="stale cache",
            ),
        )
        path = tmp_path / "repro.json"
        save_repro(str(path), repro)
        loaded = load_repro(str(path))
        assert loaded.seed == repro.seed
        assert loaded.guests == repro.guests
        assert loaded.inject_bug == "cache-epoch"
        assert loaded.steps == repro.steps
        assert loaded.violation.kind == "oracle-mismatch"
        assert json.loads(path.read_text())["format"] == REPRO_FORMAT

    def test_repro_rejects_wrong_format(self):
        with pytest.raises(ReproError, match="not a repro-verify/1"):
            Repro.loads(json.dumps({"format": "something-else", "steps": []}))


class TestDdmin:
    def test_minimizes_to_exact_culprit_subset(self):
        # Synthetic predicate: fails iff the step list contains the
        # revoke AND a later extend by the same guest.
        def fails(steps):
            steps = list(steps)
            for i, a in enumerate(steps):
                if a.op == "revoke":
                    for b in steps[i + 1:]:
                        if b.op == "extend" and b.guest == a.guest:
                            return Violation(
                                "synthetic", i, a, "deny", "allow", ""
                            )
            return None

        noise = [Step(1, "pcr_read", i) for i in range(10)]
        trace = noise[:4] + [Step(0, "revoke", 0)] + noise[4:] + [
            Step(0, "extend", 2)
        ] + [Step(2, "get_random")] * 3
        minimal, violation = ddmin(trace, fails)
        assert list(minimal) == [Step(0, "revoke", 0), Step(0, "extend", 2)]
        assert violation.kind == "synthetic"

    def test_single_step_input(self):
        def fails(steps):
            if any(s.op == "restart" for s in steps):
                return Violation("synthetic", 0, steps[0], "", "", "")
            return None

        minimal, _ = ddmin([Step(0, "restart")], fails)
        assert list(minimal) == [Step(0, "restart")]

    def test_requires_failing_input(self):
        with pytest.raises(ReproError, match="failing input"):
            ddmin([Step(0, "extend", 0)], lambda steps: None)

    def test_one_minimality(self):
        # Every step of the result is necessary: removing any single one
        # must make the synthetic failure disappear.
        def fails(steps):
            ops = [s.op for s in steps]
            if "grant" in ops and "revoke" in ops and "extend" in ops:
                return Violation("synthetic", 0, steps[0], "", "", "")
            return None

        trace = [
            Step(0, "grant", 1), Step(1, "pcr_read", 0), Step(0, "revoke", 1),
            Step(2, "forget"), Step(0, "extend", 3), Step(1, "extend", 2),
        ]
        minimal, _ = ddmin(trace, fails)
        assert fails(minimal) is not None
        for index in range(len(minimal)):
            candidate = list(minimal[:index]) + list(minimal[index + 1:])
            assert fails(candidate) is None


class TestExplorer:
    def test_tiny_sweep_zero_violations(self):
        budget = Budget(
            name="tiny", guests=3, ops_per_guest=4, rounds=2,
            shuffles_per_round=2, dpor_cap=4, target_schedules=8,
            platform_batch=40,
        )
        report = explore(budget=budget, seed=2010)
        assert report.ok
        assert report.distinct_schedules >= 5
        assert report.steps_executed > 0
        assert report.platforms_built == 1
        assert "oracle violations           : 0" in "\n".join(
            report.summary_lines()
        )

    def test_dedupe_makes_counts_distinct(self):
        budget = Budget(
            name="tiny", guests=2, ops_per_guest=2, rounds=3,
            shuffles_per_round=6, dpor_cap=4, target_schedules=100,
            platform_batch=40,
        )
        report = explore(budget=budget, seed=4)
        # With 2 guests x 2 ops there are at most C(4,2)=6 interleavings
        # per round; dedupe must keep the count at or below the true
        # number of distinct schedules across all 3 rounds.
        assert report.distinct_schedules <= 3 * 6

    def test_runner_detects_injected_stale_cache(self):
        from repro.core import monitor as monitor_mod

        budget = Budget(
            name="tiny", guests=3, ops_per_guest=5, rounds=20,
            shuffles_per_round=6, dpor_cap=8, target_schedules=200,
            platform_batch=40,
        )
        previous = monitor_mod.INJECT_STALE_POLICY_EPOCH
        monitor_mod.INJECT_STALE_POLICY_EPOCH = True
        try:
            report = explore(budget=budget, seed=2010)
        finally:
            monitor_mod.INJECT_STALE_POLICY_EPOCH = previous
        assert not report.ok
        kinds = {f.violation.kind for f in report.failures}
        assert kinds <= {"oracle-mismatch", "denial-count"}

    def test_budgets_registry(self):
        assert set(BUDGETS) == {"small", "deep"}
        assert BUDGETS["small"].target_schedules >= 500
        assert BUDGETS["small"].guests >= 3


class TestConformanceOracle:
    def test_oracle_agrees_on_clean_run(self):
        from repro.core.config import AccessMode
        from repro.harness.builder import build_platform, fresh_timing_context
        from repro.verify.oracle import attach_oracle, settle_oracles

        fresh_timing_context()
        platform = build_platform(AccessMode.IMPROVED, seed=9, name="oracle-t")
        guest = platform.add_guest("g")
        oracle = attach_oracle(platform)
        guest.client.extend(1, b"\x05" * 20)
        guest.client.pcr_read(1)
        checks = settle_oracles([oracle])
        assert checks >= 2
        # Uninstalled: the wrapper is gone, class method shows through.
        assert "authorize" not in vars(platform.monitor)

    def test_oracle_flags_injected_bug(self):
        from repro.core import monitor as monitor_mod
        from repro.core.config import AccessMode
        from repro.core.policy import CommandClass
        from repro.harness.builder import build_platform, fresh_timing_context
        from repro.verify.oracle import attach_oracle, settle_oracles

        fresh_timing_context()
        platform = build_platform(AccessMode.IMPROVED, seed=9, name="oracle-b")
        guest = platform.add_guest("g")
        oracle = attach_oracle(platform)
        previous = monitor_mod.INJECT_STALE_POLICY_EPOCH
        monitor_mod.INJECT_STALE_POLICY_EPOCH = True
        try:
            guest.client.pcr_read(1)  # warm the decision cache
            subject = guest.domain.measurement.hex()
            doomed = [
                rule.rule_id
                for rule in platform.policy.rules_for_subject(subject)
                if rule.command_class is CommandClass.READ
            ]
            for rule_id in doomed:
                platform.policy.revoke_rule(rule_id)
            guest.client.pcr_read(1)  # stale cache wrongly allows
            with pytest.raises(ReproError, match="conformance"):
                settle_oracles([oracle])
        finally:
            monitor_mod.INJECT_STALE_POLICY_EPOCH = previous

    def test_oracle_refuses_baseline_monitor(self):
        from repro.verify.oracle import MonitorConformanceOracle

        with pytest.raises(TypeError, match="AccessControlMonitor"):
            MonitorConformanceOracle(object())

    @pytest.mark.parametrize("off", ["identity_check", "policy_check"])
    def test_oracle_refuses_ablated_checks(self, off):
        from repro.core.audit import AuditLog
        from repro.core.config import AccessControlConfig
        from repro.core.identity import IdentityRegistry
        from repro.core.monitor import AccessControlMonitor
        from repro.core.policy import PolicyEngine
        from repro.verify.oracle import MonitorConformanceOracle

        monitor = AccessControlMonitor(
            IdentityRegistry(), PolicyEngine(), AuditLog(),
            AccessControlConfig(**{off: False}),
        )
        with pytest.raises(ValueError, match="identity and policy checks"):
            MonitorConformanceOracle(monitor)

    def test_attach_returns_none_for_baseline_platform(self):
        from repro.core.config import AccessMode
        from repro.harness.builder import build_platform, fresh_timing_context
        from repro.verify.oracle import attach_oracle, settle_oracles

        fresh_timing_context()
        platform = build_platform(AccessMode.BASELINE, seed=9, name="oracle-n")
        assert attach_oracle(platform) is None
        assert settle_oracles([None]) == 0


class TestScheduleRunner:
    def test_history_accumulates_across_schedules(self):
        runner = ScheduleRunner(guests=2, seed=77)
        first = [Step(0, "extend", 1), Step(1, "pcr_read", 2)]
        second = [Step(1, "extend", 4)]
        assert runner.run(first) == []
        assert runner.run(second) == []
        assert runner.history == first + second
        assert runner.steps_executed == 3

    def test_revocation_then_denied_extend(self):
        runner = ScheduleRunner(guests=2, seed=78)
        violations = runner.run([
            Step(0, "revoke", 0),     # arg 0 -> MEASURE
            Step(0, "extend", 3),     # model predicts deny; pipeline denies
            Step(0, "grant", 0),
            Step(0, "extend", 3),     # allowed again
        ])
        assert violations == []

    def test_cross_read_denied(self):
        runner = ScheduleRunner(guests=3, seed=79)
        assert runner.run([Step(0, "cross_read", 0)]) == []
