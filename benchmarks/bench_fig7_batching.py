"""Figure 7 — ring batching: virtual per-command latency vs batch size.

Sweeps the batched tpmif submission path (N frames per event-channel
kick) across batch sizes and VM counts.  The per-notify charges
(``xen.evtchn.notify`` on both kicks plus the manager's ``vtpm.dispatch``
demux) amortize over the batch, so per-command latency falls toward the
irreducible authorize + execute + transfer work.

Expected shape: monotone improvement with batch size, saturating by
batch≈16 (one 4 KiB page holds at most ~20 PCRRead-sized frames);
identical curves at every VM count because batching amortizes per-notify
cost, not per-VM cost.
"""

from _common import emit
from repro.harness.experiments import run_batching_sweep


def test_fig7_batching(run_once):
    result = run_once(run_batching_sweep)
    emit(result)
    rows = result.rows
    assert rows, "sweep produced no points"
    for row in rows:
        vms, *latencies = row
        # Larger batches never cost more virtual time per command...
        assert all(
            later <= earlier * 1.001
            for earlier, later in zip(latencies, latencies[1:])
        ), f"batching raised per-command latency at {vms} VMs: {latencies}"
        # ...and the largest batch is a real improvement, not noise.
        assert latencies[-1] < latencies[0] * 0.8
    # The amortization is per-ring, so VM count must not change the curve.
    reference = rows[0][1:]
    for row in rows[1:]:
        assert all(
            abs(a - b) / a < 0.05 for a, b in zip(reference, row[1:])
        ), "per-command batching curve should be VM-count independent"
