"""Table 4 — ablation: the cost of each access-control component.

Runs the same command stream under configurations enabling one monitor
component at a time, plus all-off, full-without-cache and full, and breaks
the full configuration's access-control cycles down by operation.

Expected shape: each component adds a sub-microsecond-to-few-microsecond
constant per command; audit (which hashes and appends a record per
decision) is the most expensive; the sum of the singles approximates the
cache-off adder; and the decision cache claws part of that adder back
without changing any decision.
"""

from _common import emit
from repro.harness.experiments import run_ablation


def test_table4_ablation(run_once):
    result = run_once(run_ablation)
    emit(result)
    rows = {label: (mean, delta) for label, mean, delta in result.rows}
    full_delta = rows["full"][1]
    uncached_delta = rows["full (cache off)"][1]
    assert full_delta > 0, "full configuration must cost something"
    singles = [
        rows[f"only {c}"][1]
        for c in ("identity_check", "policy_check", "audit")
    ]
    assert all(delta >= 0 for delta in singles)
    # Components compose roughly additively against the cache-off full
    # configuration (within 50% slack for the audit records of denials/
    # allow reasons differing in size).
    assert abs(sum(singles) - uncached_delta) / uncached_delta < 0.5
    # The decision cache only removes cost — and never all of it (hits
    # still pay the cache probe and the audit append).
    assert 0 < full_delta <= uncached_delta
    # Audit dominates the breakdown.
    breakdown = dict(result.appendix.rows)
    assert breakdown.get("ac.audit.append", 0.0) == max(breakdown.values())
