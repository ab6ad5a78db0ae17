"""Figure 5 — command latency vs offered load (open loop).

Guests submit commands at Poisson arrival times; the single manager thread
serves FIFO.  An extension figure beyond the core reconstruction: it
answers "does the access-control layer move the saturation knee?"

Expected shape: classic queueing growth as offered load approaches the
manager's capacity; the improved curve sits slightly above baseline at
every load, with the gap widening near saturation (queueing amplifies the
constant per-command adder) but no earlier knee.
"""

from _common import emit
from repro.harness.loadtest import run_latency_under_load


def test_fig5_latency_under_load(run_once):
    result = run_once(run_latency_under_load)
    emit(result)
    rows = result.rows
    baseline_means = [row[1] for row in rows]
    improved_means = [row[2] for row in rows]
    # Latency grows with load (queueing is visible by the last point).
    assert baseline_means[-1] > baseline_means[0] * 1.3
    # Improved is above baseline at every load, by a bounded factor.
    for b, i in zip(baseline_means, improved_means):
        assert i > b
        assert i / b < 1.6
