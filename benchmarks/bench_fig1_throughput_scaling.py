"""Figure 1 — aggregate vTPM throughput vs number of concurrent VMs.

Guests share the single-threaded vTPM manager; throughput is total
commands over virtual elapsed time as the guest count grows.

Expected shape: the two curves track each other within a few percent at
every population — the access-control checks are a per-command constant
that does not change the scaling behaviour.
"""

from _common import emit
from repro.harness.experiments import run_throughput_scaling


def test_fig1_throughput_scaling(run_once):
    result = run_once(run_throughput_scaling)
    emit(result)
    for vms, baseline_tput, improved_tput, loss_pct in result.rows:
        assert improved_tput <= baseline_tput, f"improved faster at {vms} VMs?"
        assert loss_pct < 10.0, (
            f"access control costs {loss_pct:.1f}% at {vms} VMs; expected <10%"
        )
