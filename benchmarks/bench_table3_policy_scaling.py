"""Table 3 — policy-engine decision latency vs installed rule count.

Pure microbenchmark of the access-control policy engine: install 10 to
10,000 rules, then time authorization decisions.

Expected shape: decision latency is flat (the engine compiles rules into
a hash table keyed by exact (subject, instance, class) triples, so the
per-command cost does not grow with policy size).
"""

from _common import emit
from repro.harness.experiments import run_policy_scaling


def test_table3_policy_scaling(run_once):
    result = run_once(run_policy_scaling)
    emit(result)
    # Flat: mean decision cost at 10,000 rules within 10% of 10 rules.
    first, last = result.rows[0][1], result.rows[-1][1]
    assert abs(last - first) <= 0.10 * max(first, 1e-9), result.rows
