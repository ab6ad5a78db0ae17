"""Table 1 — per-command vTPM latency, stock vs improved.

Reproduces the paper's microbenchmark table: for each TPM ordinal the
guest stack exercises, the mean command latency through the full split-
driver path, with and without the access-control layer, and the relative
overhead.

Expected shape: overhead is small (≈10% for the cheapest ordinals where
fixed monitor cost is most visible, under 1% for crypto-heavy ordinals
like Quote/Sign/CreateWrapKey, whose RSA work dwarfs the checks).
"""

from _common import emit
from repro.harness.experiments import run_command_latency


def test_table1_command_latency(run_once):
    result = run_once(run_command_latency)
    emit(result)
    # Shape assertions: the monitor never dominates a command.
    assert 0.0 < max(row[3] for row in result.rows) < 25.0
    rows = {row[0]: row for row in result.rows}
    # Crypto-heavy ordinals dilute the fixed checks below 2%.
    for heavy in ("quote", "sign", "create_wrap_key"):
        assert rows[heavy][3] < 2.0, f"{heavy} overhead {rows[heavy][3]:.2f}%"
    # Improved is never faster than baseline (checks are pure overhead).
    for op, _b, _i, overhead in result.rows:
        assert overhead >= 0.0, f"{op} shows negative overhead"
