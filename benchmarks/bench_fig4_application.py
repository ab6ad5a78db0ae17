"""Figure 4 — application-level benchmark: sealed-storage web server.

Requests/s for three deployments of the same web server: private key in
the clear (no vTPM), key sealed in the stock vTPM, key sealed behind the
access-controlled vTPM.

Expected shape: the vTPM path costs well under 1% at the application
level with a 90% session-cache hit rate, and the access-control layer's
additional cost is a small fraction of that.
"""

from _common import emit
from repro.harness.experiments import run_webapp_benchmark


def test_fig4_application(run_once):
    result = run_once(run_webapp_benchmark)
    emit(result)
    rows = {row[0]: row for row in result.rows}
    assert rows["baseline"][2] < 1.0, "vTPM slowdown should be <1% here"
    assert rows["improved"][2] < 1.5
    # The ordering no-vtpm >= baseline >= improved must hold.
    assert (
        rows["no-vtpm"][1] >= rows["baseline"][1] >= rows["improved"][1]
    )
