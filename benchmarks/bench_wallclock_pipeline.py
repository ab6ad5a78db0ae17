"""Wall-clock benchmark of the simulator's own command pipeline.

Unlike every other file in this directory, this one measures *host* time:
how many full-stack vTPM commands per second the harness sustains
(``frontend → ring → backend → manager → monitor → instance → executor``).
The deterministic virtual-time results never depend on host speed; this
rail exists so the harness's own hot path cannot silently regress
(ROADMAP: "as fast as the hardware allows").

Run as a script to (re)generate ``BENCH_PIPELINE.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_wallclock_pipeline.py

or as the CI perf-smoke gate, which fails if throughput at nominal host
speed drops more than 30% below the committed figure::

    PYTHONPATH=src python benchmarks/bench_wallclock_pipeline.py --check

Each slice is timed here, outside the ``repro`` package, which never
reads the host clock: build the platform, check a warm-up round trip,
pause the cycle collector, run the ``perf_counter`` loop, time the
host-speed probe, verify the audit chain.

**Host-speed probe.**  A shared host runs the interpreter faster or
slower from one moment to the next, for reasons outside the program; the
raw batch-1 rate has read anywhere from about 31k to 75k cmds/s on the
same code.  Beside each slice the benchmark times a fixed,
allocation-free loop, the probe ``bench/passes.py`` documents (same
loop, same nominal time), and scales that slice's rate by
``probe / NOMINAL_PROBE_NS`` to the host's nominal speed.  The floor
gate compares the median nominal batch-1 rate with the committed one, so
it follows the code, not the phase of the host that wrote the file.
The probe is benchmark code, so no change to the program can move it.

As a pytest module it checks the pipeline's *relative* invariants only
(cache hit rate, audit-chain integrity, batching's virtual-time saving),
so test runs stay independent of machine speed.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_PIPELINE.json"

#: cmds/s measured on this harness immediately before the fast-path
#: overhaul (authorization cache, parse-once dispatch, buffered audit
#: chaining, charge() fast path): 10k improved-mode PCRRead frames,
#: unbatched.  Kept as the fixed reference the speedup column reports.
PRE_OVERHAUL_OPS_PER_SEC = 12_320.0

#: the CI gate: a fresh run must reach this fraction of the committed rate
CHECK_FLOOR = 0.70

#: absolute gates on a fresh ``--check`` run (the "instrumentation is
#: near-free" contract): bare throughput floor and the worst acceptable
#: overhead for tracing (at the default sampling rate) and supervision
MIN_OPS_PER_SEC = 19_000.0
MAX_TRACE_OVERHEAD_PCT = 15.0
MAX_SUPERVISED_OVERHEAD_PCT = 15.0

#: the sampling rate the traced pass benchmarks — the recommended
#: always-on configuration: 1-in-32 span trees recorded, counters stay
#: exact.  Halving the rate roughly doubles the recording share of the
#: overhead (the skip path is near-free); 1-in-16 lands around twice
#: this gate's headroom on a virtualized host.
TRACE_SAMPLE_RATE = 32

#: iterations of the probe loop and repeats per probe (best one counts)
PROBE_LOOPS = 2000
PROBE_REPEATS = 3
#: the probe's time at nominal host speed (2-vCPU x86-64 VM, Python 3.11);
#: ``bench/passes.py`` scales its wall metrics to the same speed
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


#: decimals each per-slice figure keeps in the JSON ``runs`` list
RUN_ROUNDING = {
    "wall_seconds": 6,
    "ops_per_sec": 1,
    "nominal_ops_per_sec": 1,
    "wall_us_per_cmd": 3,
    "virtual_us_per_cmd": 3,
    "cache_hit_rate": 4,
}


def time_slice(commands: int, batch_size: int = 1, tracer=None,
               supervised: bool = False) -> dict:
    """Drive ``commands`` PCRRead frames through the full split-driver stack.

    ``batch_size`` > 1 uses the batched ring submission path (one
    event-channel kick per batch); 1 uses the classic one-frame protocol.
    ``tracer`` (if given) is installed for the timed loop only, so the
    measured rate includes span-collection overhead.  ``supervised``
    puts the back-end under the resilience supervisor, so the rate
    includes the health/breaker/admission hooks.
    """
    from repro.core.config import AccessMode
    from repro.harness.builder import build_platform, fresh_timing_context
    from repro.harness.scenario import observed
    from repro.sim.timing import get_context
    from repro.tpm import marshal
    from repro.tpm.constants import TPM_SUCCESS

    fresh_timing_context()
    platform = build_platform(AccessMode.IMPROVED, seed=2010, name="profile")
    guest = platform.add_guest("bench-guest")
    if supervised:
        platform.enable_supervision()
    wire = marshal.pcr_read_wire(10)
    # The frame must round-trip successfully before anything is timed.
    first = marshal.parse_response(guest.frontend.transport(wire))
    if first.return_code != TPM_SUCCESS:
        raise AssertionError(
            f"pipeline warm-up failed with TPM code {first.return_code:#x}"
        )

    clock = get_context().clock
    virtual_start = clock.now_us
    # A cycle collection landing inside one variant's timed loop but not
    # another's would skew the traced/supervised overhead ratios, so the
    # collector is paused (never triggered, still re-enabled) while the
    # clock runs.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with observed(tracer):
            if batch_size <= 1:
                transport = guest.frontend.transport
                start = time.perf_counter()
                for _ in range(commands):
                    transport(wire)
                wall = time.perf_counter() - start
            else:
                transport_batch = guest.frontend.transport_batch
                full, rest = divmod(commands, batch_size)
                batch = [wire] * batch_size
                tail = [wire] * rest
                start = time.perf_counter()
                for _ in range(full):
                    transport_batch(batch)
                if tail:
                    transport_batch(tail)
                wall = time.perf_counter() - start
        probe = probe_ns()
    finally:
        if gc_was_enabled:
            gc.enable()
    virtual_us = clock.now_us - virtual_start

    monitor = platform.monitor
    lookups = monitor.cache_hits + monitor.cache_misses
    return {
        "mode": AccessMode.IMPROVED.value,
        "commands": commands,
        "batch_size": batch_size,
        "wall_seconds": wall,
        "ops_per_sec": commands / wall,
        "nominal_ops_per_sec": commands / wall * probe / NOMINAL_PROBE_NS,
        "probe_ns": probe,
        "wall_us_per_cmd": wall * 1e6 / commands,
        "virtual_us_per_cmd": virtual_us / commands,
        "cache_hit_rate": monitor.cache_hits / lookups if lookups else 0.0,
        "audit_records": len(platform.audit),
        "chain_ok": platform.audit.verify_chain(),
    }


def run_profiles(commands: int = 3_000, batch_sizes=(1, 16),
                 repeats: int = 40) -> dict:
    """Measure the pipeline at each batch size; returns the JSON payload.

    Alongside the bare batch-size runs, one unbatched variant runs with a
    span tracer installed (counting sink, no retention) at the default
    head-sampling rate — the configuration ``--trace-sample 16`` uses —
    one at rate 1 for the full-recording cost, and one under the
    resilience supervisor.

    Measurement follows the ``timeit`` doctrine scaled to hosts whose
    clock speed drifts (frequency scaling, noisy neighbours, pvclock):
    each variant is timed in many **short slices** (``commands`` each),
    the variant order **rotates** every round (so no variant always runs
    in the thermal shadow of the longest one), and each variant reports
    its **second-smallest** slice time — every variant gets ``repeats``
    chances to catch the host's fast phase, a single turbo-burst outlier
    cannot skew the rates, and a genuine code regression slows every
    slice, so the estimate still gates it.

    The floor gate reads the **median nominal** batch-1 rate: each
    batch-1 slice's rate scaled by the probe timed beside it (see the
    module docstring), so a slow host phase does not read as a
    regression.

    Overheads are **paired**: each round compares every variant with the
    batch-1 slice of the same round, and the gate reads the median of
    those per-round ratios.  Two slices of one round share the host's
    phase, so a drift that lands on one variant's fastest slice but not
    on the baseline's no longer moves the overhead.
    """
    from repro.obs import CountingSink, Tracer

    def measure(variant):
        kind = variant[0]
        if kind == "batch":
            return time_slice(commands, batch_size=variant[1])
        if kind == "traced":
            return time_slice(
                commands,
                tracer=Tracer(CountingSink(), sample_rate=TRACE_SAMPLE_RATE),
            )
        if kind == "traced_full":
            return time_slice(commands, tracer=Tracer(CountingSink()))
        # Supervision (health record, breaker and admission hooks on every
        # frame) must cost wall time only, never virtual time.
        return time_slice(commands, supervised=True)

    variants = [("batch", b) for b in batch_sizes]
    variants += [("traced",), ("traced_full",), ("supervised",)]
    fastest = {variant: [] for variant in variants}  # two smallest walls
    ratios = {variant: [] for variant in variants}  # vs batch 1, per round
    nominal = []  # batch-1 rate at nominal host speed, per round
    for round_no in range(max(1, repeats)):
        shift = round_no % len(variants)
        rates = {}
        for variant in variants[shift:] + variants[:shift]:
            run = measure(variant)
            if not run["chain_ok"]:
                raise AssertionError("audit chain broke during the benchmark")
            rates[variant] = run["ops_per_sec"]
            if variant == ("batch", 1):
                nominal.append(run["nominal_ops_per_sec"])
            pair = fastest[variant]
            pair.append(run)
            pair.sort(key=lambda r: r["wall_seconds"])
            del pair[2:]
        for variant, rate in rates.items():
            ratios[variant].append(rate / rates[("batch", 1)])

    # Second-smallest slice per variant (the smallest where only one
    # round ran).
    best = {variant: pair[-1] for variant, pair in fastest.items()}

    def overhead_pct(variant):
        return round(100.0 * (1.0 - statistics.median(ratios[variant])), 1)

    runs = [
        {key: round(value, RUN_ROUNDING[key]) if key in RUN_ROUNDING
         else value for key, value in best[("batch", b)].items()}
        for b in batch_sizes
    ]
    unbatched = runs[0]["ops_per_sec"]

    return {
        "workload": (
            f"{commands} PCRRead frames per slice x {repeats} interleaved "
            "slices (rates: second-smallest slice; overheads: median of "
            "per-round ratios to batch 1), improved mode, full stack"
        ),
        "pre_overhaul_ops_per_sec": PRE_OVERHAUL_OPS_PER_SEC,
        "ops_per_sec": unbatched,
        "nominal_probe_ns": NOMINAL_PROBE_NS,
        "nominal_ops_per_sec": round(statistics.median(nominal), 1),
        "speedup_vs_pre_overhaul": round(
            unbatched / PRE_OVERHAUL_OPS_PER_SEC, 2
        ),
        "trace_sample_rate": TRACE_SAMPLE_RATE,
        "traced_ops_per_sec": round(best[("traced",)]["ops_per_sec"], 1),
        "trace_overhead_pct": overhead_pct(("traced",)),
        "traced_full_ops_per_sec": round(
            best[("traced_full",)]["ops_per_sec"], 1
        ),
        "trace_full_overhead_pct": overhead_pct(("traced_full",)),
        "supervised_ops_per_sec": round(
            best[("supervised",)]["ops_per_sec"], 1
        ),
        "supervised_overhead_pct": overhead_pct(("supervised",)),
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--commands", type=int, default=3_000,
        help="commands per timed slice (each variant is timed in many "
             "short interleaved slices; the minimum slice gates)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=f"compare against {RESULT_PATH.name} instead of rewriting it; "
             f"fail if below {CHECK_FLOOR:.0%} of the committed rate",
    )
    parser.add_argument("--output", type=Path, default=RESULT_PATH)
    args = parser.parse_args(argv)

    payload = run_profiles(commands=args.commands)
    for run in payload["runs"]:
        print(
            f"batch={run['batch_size']:>2}: {run['ops_per_sec']:>10,.0f} cmds/s "
            f"wall, {run['virtual_us_per_cmd']:.2f} virtual us/cmd, "
            f"cache hit rate {run['cache_hit_rate']:.1%}"
        )
    print(
        f"batch= 1 at nominal host speed: "
        f"{payload['nominal_ops_per_sec']:>10,.0f} cmds/s (median)"
    )
    print(
        f"speedup vs pre-overhaul harness "
        f"({payload['pre_overhaul_ops_per_sec']:,.0f} cmds/s): "
        f"{payload['speedup_vs_pre_overhaul']:.2f}x"
    )
    print(
        f"traced (1-in-{payload['trace_sample_rate']}): "
        f"{payload['traced_ops_per_sec']:>10,.0f} cmds/s "
        f"({payload['trace_overhead_pct']:.1f}% overhead)"
    )
    print(
        f"traced (all)     : {payload['traced_full_ops_per_sec']:>10,.0f} "
        f"cmds/s ({payload['trace_full_overhead_pct']:.1f}% overhead)"
    )
    print(
        f"supervised       : {payload['supervised_ops_per_sec']:>10,.0f} cmds/s "
        f"({payload['supervised_overhead_pct']:.1f}% overhead)"
    )

    if args.check:
        committed = json.loads(args.output.read_text())
        floor = committed["nominal_ops_per_sec"] * CHECK_FLOOR
        fresh_nominal = payload["nominal_ops_per_sec"]
        fresh = payload["ops_per_sec"]
        failures = []
        if fresh_nominal < floor:
            failures.append(
                f"{fresh_nominal:,.0f} cmds/s at nominal host speed is below "
                f"{CHECK_FLOOR:.0%} of the committed "
                f"{committed['nominal_ops_per_sec']:,.0f} cmds/s"
            )
        if fresh < MIN_OPS_PER_SEC:
            failures.append(
                f"{fresh:,.0f} cmds/s is below the absolute "
                f"{MIN_OPS_PER_SEC:,.0f} cmds/s floor"
            )
        if payload["trace_overhead_pct"] > MAX_TRACE_OVERHEAD_PCT:
            failures.append(
                f"trace overhead {payload['trace_overhead_pct']:.1f}% "
                f"exceeds {MAX_TRACE_OVERHEAD_PCT:.0f}%"
            )
        if payload["supervised_overhead_pct"] > MAX_SUPERVISED_OVERHEAD_PCT:
            failures.append(
                f"supervised overhead "
                f"{payload['supervised_overhead_pct']:.1f}% exceeds "
                f"{MAX_SUPERVISED_OVERHEAD_PCT:.0f}%"
            )
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(
            f"perf-smoke OK: {fresh_nominal:,.0f} nominal cmds/s >= "
            f"{floor:,.0f} cmds/s floor; {fresh:,.0f} raw cmds/s >= "
            f"{MIN_OPS_PER_SEC:,.0f}; trace {payload['trace_overhead_pct']:.1f}% / "
            f"supervised {payload['supervised_overhead_pct']:.1f}% "
            f"<= {MAX_TRACE_OVERHEAD_PCT:.0f}% overhead"
        )
        return 0

    # Other benchmarks keep their sections (cluster, verify) in this file.
    merged = json.loads(args.output.read_text()) if args.output.exists() else {}
    merged.update(payload)
    args.output.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


# -- pytest entry points (machine-speed independent) -------------------------


def test_pipeline_invariants():
    """The fast path keeps its semantic invariants at both batch sizes."""
    single = time_slice(1_500, batch_size=1)
    batched = time_slice(1_500, batch_size=16)
    for run in (single, batched):
        assert run["chain_ok"] is True
        assert run["cache_hit_rate"] > 0.95
        # one audit record per command (plus the warm-up frame)
        assert run["audit_records"] == run["commands"] + 1
    # Batching must amortize virtual per-notify costs, not just wall time.
    assert batched["virtual_us_per_cmd"] < single["virtual_us_per_cmd"]


def test_tracing_charges_no_virtual_time():
    """A traced run costs host time, never virtual time: per-command
    virtual cost and the audit chain are identical with spans on."""
    from repro.obs import CountingSink, Tracer

    plain = time_slice(800)
    sink = CountingSink()
    traced = time_slice(800, tracer=Tracer(sink))
    assert traced["virtual_us_per_cmd"] == plain["virtual_us_per_cmd"]
    assert traced["chain_ok"] is True
    assert sink.roots == 800  # one tree per timed command
    assert sink.spans > sink.roots


def test_supervision_charges_no_virtual_time():
    """Supervision costs host time only: per-command virtual cost and the
    audit chain are identical with the supervisor's hooks installed."""
    plain = time_slice(800)
    supervised = time_slice(800, supervised=True)
    assert supervised["virtual_us_per_cmd"] == plain["virtual_us_per_cmd"]
    assert supervised["chain_ok"] is True
    assert supervised["audit_records"] == plain["audit_records"]


def test_committed_numbers_are_fresh():
    """BENCH_PIPELINE.json exists and records the claimed speedup."""
    committed = json.loads(RESULT_PATH.read_text())
    assert committed["pre_overhaul_ops_per_sec"] == PRE_OVERHAUL_OPS_PER_SEC
    # The pre-overhaul reference was measured on one particular host; a
    # slower or more loaded regeneration host shifts the absolute ratio,
    # so the floor only guards against losing the overhaul, not against
    # host variance.
    assert committed["speedup_vs_pre_overhaul"] >= 1.2
    assert committed["runs"], "at least one recorded run"
    assert committed["ops_per_sec"] >= MIN_OPS_PER_SEC
    assert committed["nominal_probe_ns"] == NOMINAL_PROBE_NS
    assert committed["nominal_ops_per_sec"] >= MIN_OPS_PER_SEC
    assert committed["trace_sample_rate"] == TRACE_SAMPLE_RATE
    assert committed["traced_ops_per_sec"] > 0
    assert committed["trace_overhead_pct"] <= MAX_TRACE_OVERHEAD_PCT
    assert committed["traced_full_ops_per_sec"] > 0
    assert committed["supervised_ops_per_sec"] > 0
    assert committed["supervised_overhead_pct"] <= MAX_SUPERVISED_OVERHEAD_PCT


if __name__ == "__main__":
    raise SystemExit(main())
