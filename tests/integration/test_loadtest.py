"""Integration: the open-loop latency-under-load experiment.

Rows are ``(offered cmds/s, baseline mean, improved mean, baseline p95,
improved p95)``, in microseconds.
"""

from repro.harness import loadtest
from repro.harness.loadtest import run_latency_under_load


class TestLatencyUnderLoad:
    def test_queueing_grows_with_load(self):
        result = run_latency_under_load(
            offered_rates=(5_000, 30_000), guests=3, duration_s=0.2
        )
        first, last = result.rows[0], result.rows[-1]
        assert last[1] > first[1]  # baseline mean
        assert last[3] > first[3]  # baseline p95

    def test_improved_above_baseline_every_load(self):
        result = run_latency_under_load(
            offered_rates=(5_000, 25_000), guests=3, duration_s=0.2
        )
        for _rate, baseline_mean, improved_mean, _bp95, _ip95 in result.rows:
            assert improved_mean > baseline_mean
            assert improved_mean / baseline_mean < 1.6

    def test_identical_arrivals_across_regimes(self, monkeypatch):
        # One latency sample per completed command, one summary per regime.
        completed = []
        summarize = loadtest.summarize

        def counting_summarize(samples):
            completed.append(len(samples))
            return summarize(samples)

        monkeypatch.setattr(loadtest, "summarize", counting_summarize)
        run_latency_under_load(
            offered_rates=(10_000,), guests=2, duration_s=0.15
        )
        baseline, improved = completed
        assert baseline == improved > 0

    def test_deterministic(self):
        a = run_latency_under_load(offered_rates=(8_000,), guests=2,
                                   duration_s=0.1)
        b = run_latency_under_load(offered_rates=(8_000,), guests=2,
                                   duration_s=0.1)
        assert a.rows == b.rows
