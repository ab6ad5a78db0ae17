"""Integration: the experiment runners produce sane, stable results.

These are the same functions the benchmark harness drives, run at small
sizes so the full test suite stays fast.  Every runner returns a
:class:`~repro.metrics.tables.Table`; the checks read its rows.
"""

import pytest

from repro.harness.experiments import (
    run_ablation,
    run_attack_matrix_experiment,
    run_command_latency,
    run_instance_creation,
    run_migration_sweep,
    run_policy_scaling,
    run_throughput_scaling,
    run_webapp_benchmark,
)
from repro.workloads.mixes import OPERATIONS


class TestCommandLatency:
    @pytest.fixture(scope="class")
    def result(self):
        return run_command_latency(reps=8)

    def test_covers_every_operation(self, result):
        # Each row pairs one operation's baseline and improved means.
        assert [row[0] for row in result.rows] == list(OPERATIONS)
        assert all(len(row) == 4 for row in result.rows)

    def test_overhead_bounded(self, result):
        for op, baseline_ms, improved_ms, overhead in result.rows:
            assert overhead >= 0.0, op
            assert overhead < 25.0, (op, overhead)

    def test_crypto_ops_slowest(self, result):
        rows = {r[0]: r for r in result.rows}
        assert rows["create_wrap_key"][1] > rows["extend"][1] * 100
        assert rows["sign"][1] > rows["pcr_read"][1]

    def test_render_mentions_all_ops(self, result):
        text = result.render()
        for op in OPERATIONS:
            assert op in text

    def test_deterministic(self, result):
        again = run_command_latency(reps=8)
        assert again.rows == result.rows


class TestThroughputScaling:
    def test_loss_small_at_every_point(self):
        result = run_throughput_scaling(vm_counts=(1, 2, 4), ops_per_vm=12)
        for _vms, baseline, improved, loss in result.rows:
            assert improved <= baseline
            assert loss < 10.0


class TestAttackMatrixExperiment:
    def test_shape(self):
        result = run_attack_matrix_experiment(seed=42)
        assert all(row[2] == "blocked" for row in result.rows)
        assert len(result.rows) == 7


class TestInstanceCreation:
    def test_flat_scaling(self):
        result = run_instance_creation(populations=(0, 2, 4))
        rows = result.rows
        assert len(rows) == 3
        values = [row[1] for row in rows]
        assert max(values) / min(values) < 1.15


class TestMigrationSweep:
    def test_constant_security_adder(self):
        result = run_migration_sweep(nv_payload_kib=(0, 16))
        rows = result.rows
        adders = [improved - baseline for _s, baseline, improved in rows]
        assert all(a > 0 for a in adders)
        assert abs(adders[0] - adders[1]) / max(adders) < 0.10


class TestPolicyScaling:
    def test_flat(self):
        result = run_policy_scaling(rule_counts=(10, 1000), lookups=400)
        # Mean decision cost at the largest policy within 10% of the smallest.
        first, last = result.rows[0][1], result.rows[-1][1]
        assert abs(last - first) <= 0.10 * max(first, 1e-9)


class TestWebAppBenchmark:
    def test_ordering(self):
        result = run_webapp_benchmark(requests=400)
        rows = {r[0]: r for r in result.rows}
        assert rows["no-vtpm"][1] >= rows["baseline"][1] >= rows["improved"][1]


class TestAblation:
    def test_components_nonnegative_and_additive(self):
        result = run_ablation(ops=60)
        rows = {label: delta for label, _mean, delta in result.rows}
        assert rows["all-off"] == 0.0
        assert rows["full"] > 0.0
        singles = [rows[k] for k in rows if k.startswith("only ")]
        assert all(s >= 0.0 for s in singles)
        assert result.appendix.rows  # the ledger saw ac.* charges
