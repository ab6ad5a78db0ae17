"""Unit tests for workload generators and the metrics plumbing."""

import pytest

from repro.crypto.random_source import RandomSource
from repro.metrics.stats import overhead_pct, percentile, summarize
from repro.metrics.tables import format_table
from repro.util.errors import ReproError
from repro.workloads.mixes import (
    MIX_ATTESTATION,
    MIX_MEASUREMENT,
    MIX_MIXED,
    MIX_SEALED_STORAGE,
    OPERATIONS,
    CommandMix,
    GuestSession,
)
from repro.workloads.traces import SyntheticTrace


class TestCommandMix:
    def test_draw_respects_support(self):
        rng = RandomSource(1)
        for _ in range(100):
            assert MIX_MIXED.draw(rng) in MIX_MIXED.weights

    def test_sequence_deterministic(self):
        a = MIX_MIXED.sequence(RandomSource(2), 50)
        b = MIX_MIXED.sequence(RandomSource(2), 50)
        assert a == b

    def test_weights_shape_distribution(self):
        mix = CommandMix("skewed", {"extend": 9.0, "pcr_read": 1.0})
        rng = RandomSource(3)
        draws = mix.sequence(rng, 1000)
        extends = draws.count("extend")
        assert 820 <= extends <= 960  # ~900 expected

    def test_unknown_operation_rejected(self):
        with pytest.raises(ReproError):
            CommandMix("bad", {"no_such_op": 1.0})

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            CommandMix("empty", {})

    def test_negative_weight_rejected(self):
        with pytest.raises(ReproError):
            CommandMix("neg", {"extend": -1.0})

    def test_standard_mixes_valid(self):
        for mix in (MIX_MEASUREMENT, MIX_SEALED_STORAGE, MIX_ATTESTATION, MIX_MIXED):
            assert set(mix.weights) <= set(OPERATIONS)


class TestGuestSession:
    def test_every_operation_runs(self, baseline_platform):
        guest = baseline_platform.add_guest("ops")
        session = GuestSession(guest, baseline_platform.rng.fork("s"))
        for op in OPERATIONS:
            session.run_operation(op)  # must not raise

    def test_unknown_operation_rejected(self, baseline_platform):
        guest = baseline_platform.add_guest("ops")
        session = GuestSession(guest, baseline_platform.rng.fork("s"))
        with pytest.raises(ReproError):
            session.run_operation("frobnicate")

    def test_operation_names_cover_constant(self, baseline_platform):
        guest = baseline_platform.add_guest("ops")
        session = GuestSession(guest, baseline_platform.rng.fork("s"))
        assert set(session.operation_names()) == set(OPERATIONS)


class TestSyntheticTrace:
    def test_poisson_sorted_and_bounded(self):
        trace = SyntheticTrace.poisson(
            RandomSource(4), guests=3, rate_per_guest_per_sec=100,
            duration_s=0.5, mix=MIX_MEASUREMENT,
        )
        times = [e.time_us for e in trace]
        assert times == sorted(times)
        assert all(0 <= t < 0.5e6 for t in times)
        assert {e.guest_index for e in trace} <= {0, 1, 2}

    def test_rate_roughly_respected(self):
        trace = SyntheticTrace.poisson(
            RandomSource(5), guests=2, rate_per_guest_per_sec=200,
            duration_s=1.0, mix=MIX_MEASUREMENT,
        )
        # Expect ~400 arrivals; allow generous Poisson slack.
        assert 300 <= len(trace) <= 500

    def test_serialization_roundtrip(self):
        trace = SyntheticTrace.poisson(
            RandomSource(6), guests=2, rate_per_guest_per_sec=50,
            duration_s=0.2, mix=MIX_MIXED,
        )
        restored = SyntheticTrace.loads(trace.dumps())
        assert restored.guests == trace.guests
        assert len(restored) == len(trace)
        assert restored.entries[0] == trace.entries[0]

    def test_bad_parameters_rejected(self):
        with pytest.raises(ReproError):
            SyntheticTrace.poisson(RandomSource(7), 0, 10, 1, MIX_MIXED)
        with pytest.raises(ReproError):
            SyntheticTrace.poisson(RandomSource(7), 1, 0, 1, MIX_MIXED)

    def test_loads_rejects_garbage(self):
        with pytest.raises(ReproError):
            SyntheticTrace.loads("no header here")


class TestStats:
    def test_summary_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 100.0])
        assert summary.count == 5
        assert summary.mean == pytest.approx(22.0)
        assert summary.median == 3.0
        assert summary.minimum == 1.0 and summary.maximum == 100.0
        assert summary.p95 > summary.median

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 0.5) == 5.0
        assert percentile([1.0], 0.99) == 1.0

    def test_percentile_bounds_checked(self):
        with pytest.raises(ReproError):
            percentile([], 0.5)
        with pytest.raises(ReproError):
            percentile([1.0], 1.5)

    def test_overhead_pct(self):
        assert overhead_pct(100.0, 110.0) == pytest.approx(10.0)
        assert overhead_pct(100.0, 95.0) == pytest.approx(-5.0)
        with pytest.raises(ReproError):
            overhead_pct(0.0, 1.0)

    def test_empty_summary_rejected(self):
        with pytest.raises(ReproError):
            summarize([])


class TestTables:
    def test_basic_render(self):
        out = format_table(["a", "bee"], [[1, 2.5], ["xx", 1000.0]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bee" in lines[2]
        assert "1,000.0" in out

    def test_width_mismatch_rejected(self):
        with pytest.raises(ReproError):
            format_table(["a"], [[1, 2]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ReproError):
            format_table([], [])

    def test_no_rows_ok(self):
        out = format_table(["col"], [])
        assert "col" in out
