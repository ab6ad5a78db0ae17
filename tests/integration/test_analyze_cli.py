"""Acceptance for ``python -m repro analyze`` and the counter-name audit.

Three oracles from the ISSUE:

1. The shipped tree is clean — ``analyze --check`` exits 0 against the
   committed (empty) baseline, so the lints are gates, not advisories.
2. The lints demonstrably *work* — under ``--inject-violation RULE`` the
   same command exits 1 for every registered rule (the analyzer analogue
   of ``verify --inject-bug``).
3. The static name registry matches runtime reality — every counter and
   span name a real chaos run emits is one the analyzer statically
   discovered, and every discovered literal is rooted in a declared
   namespace.  A typo'd literal would fork a series nobody reads; this
   closes that loop from both ends.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import Analyzer, RULES, load_baseline
from repro.analysis.report import default_baseline_path
from repro.analysis.rules.counter_registry import (
    COUNTER_NAMESPACES,
    SPAN_ROOTS,
    collect_metric_literals,
)
from repro.cli import main
from repro.harness.chaos import ChaosScenario
from repro.harness.scenario import run_once
from repro.obs import counters as obs_counters
from repro.obs import trace as obs_trace


class TestAnalyzeCheckClean:
    def test_shipped_tree_is_clean(self, capsys):
        assert main(["analyze", "--check"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_shipped_tree_is_clean_json(self, capsys):
        assert main(["analyze", "--check", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["check"]["clean"] is True
        # Every registered rule actually ran over the real tree.
        assert {rule["id"] for rule in payload["rules"]} == set(RULES)
        assert payload["files"] > 50

    def test_committed_baseline_is_empty(self):
        # The baseline only ever shrinks; the shipped tree starts at zero
        # accepted debt, so --check tolerates nothing.
        assert load_baseline(default_baseline_path()) == []

    def test_suppressions_all_carry_reasons(self, capsys):
        assert main(["analyze", "--check", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suppressed"], "expected the documented pragmas"
        for entry in payload["suppressed"]:
            assert entry["reason"], f"pragma without reason: {entry}"
            assert entry["rule"] in RULES


class TestInjectedViolationsFail:
    @pytest.mark.parametrize("rule_id", sorted(RULES))
    def test_each_rule_fires_and_fails_check(self, rule_id, capsys):
        assert main(["analyze", "--check",
                     "--inject-violation", rule_id]) == 1
        out = capsys.readouterr().out
        assert rule_id in out
        assert "::injected" in out

    @pytest.mark.parametrize("rule_id", sorted(RULES))
    def test_single_rule_run_also_fails(self, rule_id, capsys):
        assert main(["analyze", "--check", "--rule", rule_id,
                     "--inject-violation", rule_id]) == 1
        capsys.readouterr()

    def test_unknown_rule_id_is_a_usage_error(self, capsys):
        assert main(["analyze", "--rule", "no-such-rule"]) == 2
        assert main(["analyze", "--inject-violation", "no-such-rule"]) == 2
        err = capsys.readouterr().err
        assert "known:" in err


class TestCounterNameAudit:
    """Satellite: cross-check static literals against a live chaos run."""

    @pytest.fixture(scope="class")
    def static_names(self):
        return collect_metric_literals(Analyzer().modules())

    @pytest.fixture(scope="class")
    def runtime_report(self):
        registry = obs_counters.CounterRegistry()
        tracer = obs_trace.Tracer()
        report = run_once(
            ChaosScenario(seed=2026, commands=200),
            tracer=tracer, counters=registry,
        )
        return registry, tracer, report

    def test_runtime_counters_subset_of_static(self, static_names,
                                               runtime_report):
        registry, _, _ = runtime_report
        emitted = {
            line.split(" ")[0].split("{")[0]
            for line in registry.exposition().splitlines()
            if line
        }
        assert emitted, "chaos run emitted no counters"
        unknown = emitted - static_names["counter"]
        assert not unknown, (
            "runtime counter names the analyzer never saw as literals "
            f"(dynamic construction or drift): {sorted(unknown)}"
        )

    def test_runtime_counters_use_declared_namespaces(self, runtime_report):
        registry, _, _ = runtime_report
        for line in registry.exposition().splitlines():
            name = line.split(" ")[0].split("{")[0]
            assert name.split(".", 1)[0] in COUNTER_NAMESPACES, line

    def test_runtime_spans_subset_of_static(self, static_names,
                                            runtime_report):
        _, tracer, _ = runtime_report
        emitted = {
            span.name
            for root in tracer.sink.roots
            for span in root.walk()
        }
        assert emitted, "chaos run recorded no spans"
        unknown = emitted - static_names["span"]
        assert not unknown, (
            f"runtime span names never seen as literals: {sorted(unknown)}"
        )

    def test_static_literals_are_all_declared(self, static_names):
        for name in static_names["counter"]:
            assert name.split(".", 1)[0] in COUNTER_NAMESPACES, name
        for name in static_names["span"]:
            assert name.split(".", 1)[0] in SPAN_ROOTS, name

    def test_hotplug_error_counter_is_discovered(self, static_names):
        # The degraded-path fix from this PR must be visible statically.
        assert "vtpm.hotplug.error" in static_names["counter"]


class TestBaselineWorkflow:
    def test_write_then_check_roundtrip(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["analyze", "--write-baseline",
                     "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--check",
                     "--baseline", str(baseline)]) == 0
        capsys.readouterr()

    def test_stale_baseline_entry_fails_check(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "findings": [{
                "fingerprint": "fail-closed:repro/ghost.py:gone",
                "rule": "fail-closed",
                "path": "repro/ghost.py",
                "message": "gone",
            }],
        }))
        assert main(["analyze", "--check",
                     "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "stale" in out
