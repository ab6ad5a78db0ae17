"""One measured pass of one workload, run in a fresh process.

``run.py`` starts one such process per pass and reads the JSON object it
prints last::

    python3 bench/passes.py '{"workload": "measurement", "seed": 2010,
                              "ops": 220000, "traced": false}'

A pass sets the workload up ``SETUPS`` times (their median is
``setup_s``; the last rig is the one measured), then drives ``ops``
operations closed-loop from one thread and checks every result against
the planner's expectation.  The window closes after the audit log's
deferred chain hashing (``AuditLog.chain_head``), so that work counts.
GC stays enabled, as in the program; a collection runs before the window.

**Host-speed probe.**  On a shared host the interpreter itself runs
several percent faster or slower from one second to the next, for
reasons outside the program.  After every chunk of operations (a
fiftieth of a second of nominal work) the pass times a fixed,
allocation-free loop (best of ``PROBE_REPEATS``) and scales that chunk's
wall times by ``NOMINAL_PROBE_NS / probe``; each set-up is scaled by a
probe taken right after it.  Wall metrics are reported at the host's
nominal speed.  The probe is bench code, so no change to the
program can move it; the raw figures are reported beside the scaled ones.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import random
import resource
import statistics
import sys
import time
from array import array

import layers
import workloads
from repro.sim.timing import get_context
from repro.tpm.constants import TPM_AUTHFAIL
from repro.util.errors import TpmError

#: set-ups per pass: enough for a stable median, cheap next to the window
SETUPS = 3
#: chunks per second of nominal work: ops are planned ahead and timed one
#: chunk at a time, and a probe follows each chunk
CHUNKS_PER_SECOND = 50
#: failure messages kept for the report
MAX_MESSAGES = 5
#: iterations of the probe loop and repeats per probe (best one counts)
PROBE_LOOPS = 2000
PROBE_REPEATS = 3
#: the probe's time at nominal host speed (2-vCPU x86-64 VM, Python 3.11)
NOMINAL_PROBE_NS = 175_000


def _probe_step(acc: int, i: int) -> int:
    return (acc * 3 + i) & 0xFFFF


def probe_ns() -> int:
    """Best-of-``PROBE_REPEATS`` wall time of the fixed probe loop."""
    perf = time.perf_counter_ns
    best = None
    for _ in range(PROBE_REPEATS):
        start = perf()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc = _probe_step(acc, i)
        elapsed = perf() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def _percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _counters(rig) -> dict:
    """Program-side counters the per-layer ratios are built from."""
    platform = rig.platform
    monitor = platform.monitor
    admitted = shed = 0
    supervisor = platform.supervisor
    if supervisor is not None:
        for handle in platform.guests.values():
            admission = supervisor.admission_for(handle.domain.uuid)
            admitted += admission.admitted
            shed += sum(admission.shed_counts.values())
    return {
        "audit_records": len(platform.audit),
        "authorize_calls": getattr(monitor, "checks", 0),
        "cache_hits": getattr(monitor, "cache_hits", 0),
        "cache_misses": getattr(monitor, "cache_misses", 0),
        "denials": getattr(monitor, "denials", 0),
        "frames_carried": sum(
            h.frontend.ring.commands_carried for h in platform.guests.values()
        ),
        "admitted": admitted,
        "shed": shed,
    }


class Tally:
    """Outcomes that did not match their expectation."""

    def __init__(self) -> None:
        self.failed = 0
        self.denied = 0
        self.violations: list = []
        self.messages: list = []

    def _fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def check(self, step, result) -> None:
        fn, _target, _arg, expected, ops = step
        name = getattr(fn, "__name__", "op")
        if expected is workloads.DENIED:
            if isinstance(result, TpmError) and result.code == TPM_AUTHFAIL:
                self.denied += 1
            elif isinstance(result, Exception):
                self._fail(ops, f"{name}: scheduled denial raised {result!r}")
            else:
                self.violations.append(
                    f"{name}: a scheduled denial was allowed ({result!r})"
                )
            return
        if isinstance(result, list) and isinstance(expected, list):
            bad = sum(1 for got, want in zip(result, expected) if got != want)
            bad += abs(len(result) - len(expected))
            self._fail(bad, f"{name}: {bad} of {ops} frames answered wrongly")
            return
        self._fail(max(ops, 1), f"{name}: expected {expected!r}, got {result!r}")


def run_pass(workload: workloads.Workload, seed: int, ops: int,
             traced: bool) -> dict:
    """Set up, drive ``ops`` operations, check them; returns the report."""
    setup_s, raw_setup_s = [], []
    rig = None
    for _ in range(SETUPS):
        rig = None  # the previous rig is garbage before the next set-up
        gc.collect()
        start = time.perf_counter()
        rig = workload.setup()
        raw_setup_s.append(time.perf_counter() - start)
        setup_s.append(raw_setup_s[-1] * NOMINAL_PROBE_NS / probe_ns())
    platform = rig.platform
    clock = get_context().clock

    tracer = layers.LayerTracer(clock) if traced else None
    warnings = layers.attach(rig, tracer)
    close = getattr(platform.audit, "chain_head", None)
    ops_table = workloads.OPS
    wrap_cost_us = 0.0
    if tracer is not None:
        ops_table = {
            name: tracer.wrap("tpm.client", fn) for name, fn in ops_table.items()
        }
        if close is not None:
            close = tracer.wrap("core.audit", close)
        wrap_cost_us = layers.calibrate_wrap_cost(clock)
        wrap_cost_us *= NOMINAL_PROBE_NS / probe_ns()
    if close is None:
        warnings.append("layer core.audit: AuditLog.chain_head not found")

    steps = workload.steps(rig, random.Random(seed), ops_table)
    tally = Tally()
    scheduled_denials = 0
    wall = array("q")
    virtual = array("d")
    #: per chunk: (latency samples, wall ns, host-speed factor)
    chunks = []
    chunk_ops = max(1, workload.ops_per_second // CHUNKS_PER_SECOND)
    perf = time.perf_counter_ns
    done = 0
    before = _counters(rig)
    gc.collect()
    v_start = clock.now_us
    while done < ops:
        chunk, planned = [], 0
        goal = min(chunk_ops, ops - done)
        while planned < goal:
            step = next(steps)
            chunk.append(step)
            planned += step[4]
            if step[3] is workloads.DENIED:
                scheduled_denials += 1
        done += planned
        samples = len(wall)
        start = perf()
        for step in chunk:
            fn, target, arg, expected, n = step
            v0 = clock.now_us
            t0 = perf()
            try:
                result = fn(target, arg)
            except Exception as exc:  # counted and reported, never fatal
                result = exc
            dt = perf() - t0
            dv = clock.now_us - v0
            if n == 1:
                wall.append(dt)
                virtual.append(dv)
            elif n:
                wall.extend(itertools.repeat(dt, n))
                virtual.extend(itertools.repeat(dv, n))
            if result is not expected and result != expected:
                tally.check(step, result)
        elapsed = perf() - start
        chunks.append((len(wall) - samples, elapsed, NOMINAL_PROBE_NS / probe_ns()))
    start = perf()
    head = close() if close is not None else None
    close_ns = perf() - start
    v_end = clock.now_us

    after = _counters(rig)
    delta = {key: after[key] - before[key] for key in before}
    nominal = array("d")
    position = 0
    for count, _, factor in chunks:
        nominal.extend(x * factor for x in wall[position:position + count])
        position += count
    wall_sorted = sorted(wall)
    nominal_sorted = sorted(nominal)
    virtual_sorted = sorted(virtual)
    factors = [factor for _, _, factor in chunks]
    report = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "ops": done,
        "samples": len(wall_sorted),
        "scheduled_denials": scheduled_denials,
        "denied": tally.denied,
        "failed": tally.failed,
        "violations": tally.violations,
        "messages": tally.messages,
        "warnings": warnings,
        "window_s": (sum(ns for _, ns, _ in chunks) + close_ns) / 1e9,
        "nominal_window_s": (
            sum(ns * factor for _, ns, factor in chunks) + close_ns * factors[-1]
        ) / 1e9,
        "host_speed": statistics.median(factors),
        "wall_us_p50": _percentile(nominal_sorted, 0.50) / 1000.0,
        "wall_us_p99": _percentile(nominal_sorted, 0.99) / 1000.0,
        "raw_wall_us_p50": _percentile(wall_sorted, 0.50) / 1000.0,
        "raw_wall_us_p99": _percentile(wall_sorted, 0.99) / 1000.0,
        "virtual_us_mean": (v_end - v_start) / done,
        "virtual_us_p50": _percentile(virtual_sorted, 0.50),
        "virtual_us_p99": _percentile(virtual_sorted, 0.99),
        "virtual_units": layers.virtual_units(v_end)
        - layers.virtual_units(v_start),
        "chain_head": head.hex() if head is not None else None,
        "chain_ok": platform.audit.verify_chain(),
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        **delta,
    }
    if tracer is not None:
        report["layers"] = tracer.report()
        report["wrap_cost_us"] = wrap_cost_us
    return report


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(args[0])
    report = run_pass(
        workloads.WORKLOADS[spec["workload"]],
        int(spec["seed"]),
        int(spec["ops"]),
        bool(spec["traced"]),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
