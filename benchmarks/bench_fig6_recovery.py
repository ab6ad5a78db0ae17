"""Figure 6 — manager crash-recovery time vs instance count.

Extension figure: an operational cost of the improvement.  Recovery
re-reads every instance's state from storage; the improved path also
re-earns the sealer root from the hardware TPM and decrypts each state
blob.

Expected shape: linear in the instance count in both regimes (storage I/O
dominates), with the security machinery adding well under 1%.

Figure 6b repeats the measurement with *real injected faults*: the crash
tears the newest state generation of one instance and the recovery reads
hit transient corruption, so the restart exercises generation fallback
and bounded re-reads — the faulted column is recovery latency from actual
fault handling, not a clean replay.
"""

from _common import emit
from repro.harness.experiments import run_faulted_recovery, run_recovery_sweep


def test_fig6_recovery(run_once):
    result = run_once(run_recovery_sweep)
    emit(result)
    rows = result.rows
    # Linear: doubling instances roughly doubles recovery time.
    for (n1, b1, i1), (n2, b2, i2) in zip(rows, rows[1:]):
        assert 1.7 < b2 / b1 < 2.3
        assert 1.7 < i2 / i1 < 2.3
    # Improved within 1% of baseline at every population.
    for _n, baseline_ms, improved_ms in rows:
        assert improved_ms > baseline_ms
        assert (improved_ms - baseline_ms) / baseline_ms < 0.01


def test_fig6b_faulted_recovery(run_once):
    result = run_once(run_faulted_recovery)
    emit(result)
    for count, clean_ms, faulted_ms, faults, recoveries in result.rows:
        # Recovery still completes for every population, pays a measurable
        # premium for the injected faults, and actually recovered something.
        assert faulted_ms > clean_ms
        assert faults >= 1
        assert recoveries >= 1
