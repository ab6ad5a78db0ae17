"""Table 2 — security evaluation: the attack matrix.

Runs every modelled attack against the stock Xen vTPM and the improved
configuration.

Expected shape (the paper's security claim): every dump/theft/rebinding
attack succeeds against stock Xen and is blocked by the improvement;
command replay is blocked in both regimes by TPM 1.2's own rolling-nonce
authorization (defence in depth, reported per layer).
"""

from _common import emit
from repro.harness.experiments import run_attack_matrix_experiment

#: attacks the TPM protocol itself blocks regardless of the new layer
BLOCKED_BY_TPM = {"replay"}


def test_table2_attack_matrix(run_once):
    result = run_once(run_attack_matrix_experiment)
    emit(result)
    assert all(row[2] == "blocked" for row in result.rows), (
        "improved regime leaked"
    )
    for attack, baseline_outcome, improved_outcome in result.rows:
        if attack in BLOCKED_BY_TPM:
            assert baseline_outcome == "blocked"
        else:
            assert baseline_outcome == "succeeded", (
                f"{attack} should succeed against stock Xen"
            )
        assert improved_outcome == "blocked"
