"""Figure 3 — vTPM migration time vs instance state size.

Migrates instances of growing state (NV payload sweep) between two
platforms under both protocols.

Expected shape: both curves grow linearly with state size at the same
per-byte slope (network cost); the improved protocol adds a roughly
constant term — dominated by minting the destination's hardware-TPM bind
key — that does not grow with state size.
"""

from _common import emit
from repro.harness.experiments import run_migration_sweep


def test_fig3_migration(run_once):
    result = run_once(run_migration_sweep)
    emit(result)
    rows = result.rows
    adders = [improved - baseline for _size, baseline, improved in rows]
    # The security adder is constant: spread under 10% of its mean.
    mean_adder = sum(adders) / len(adders)
    assert all(abs(a - mean_adder) / mean_adder < 0.10 for a in adders), adders
    # Baseline grows with size (network slope is visible).
    baselines = [row[1] for row in rows]
    assert baselines[-1] > baselines[0] * 1.5
