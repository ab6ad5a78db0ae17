"""Outside-in benchmark of the vTPM command pipeline.

Run from the repository root::

    python3 bench/run.py --workload measurement --seed 2010 --seconds 10 --trace 0

``--trace 0`` runs the untraced pass and reports the end-to-end metrics;
``--trace 1`` runs the untraced pass and then a traced pass over the same
operations, and reports the per-layer metrics.  Each pass runs in a fresh
process with a fixed hash seed.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

#: a whole invocation must finish well inside three minutes
TIME_BUDGET_S = 170.0

#: the benchmark's descriptor: metric names, units, directions and bounds
SPEC_PATH = ROOT / "BENCHMARK.json"


class PassError(RuntimeError):
    """A pass process crashed, timed out or printed no report."""


def spawn_pass(workload: str, seed: int, ops: int, traced: bool,
               deadline: float) -> dict:
    """Run one pass in a fresh interpreter; returns its report."""
    spec = {"workload": workload, "seed": seed, "ops": ops, "traced": traced}
    kind = "traced" if traced else "untraced"
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passes.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{kind} pass timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{kind} pass exited {proc.returncode}")
    return json.loads(lines[-1])


def gate(report: dict) -> list:
    """Correctness failures of one pass."""
    problems = [f"violation: {v}" for v in report["violations"]]
    if report["failed"]:
        problems.append(
            f"{report['failed']} of {report['ops']} ops failed: "
            + "; ".join(report["messages"])
        )
    if report["denied"] != report["scheduled_denials"]:
        problems.append(
            f"{report['denied']} of {report['scheduled_denials']} scheduled "
            f"denials returned TPM_AUTHFAIL"
        )
    if not report["chain_ok"]:
        problems.append("AuditLog.verify_chain() failed")
    if report["audit_records"] != report["authorize_calls"]:
        problems.append(
            f"{report['audit_records']} audit records for "
            f"{report['authorize_calls']} authorize calls"
        )
    return problems


def end_to_end(u: dict) -> dict:
    """The end-to-end metrics, from the untraced pass; wall figures at the
    host's nominal speed (see ``passes``)."""
    return {
        "ops_per_s": u["ops"] / u["nominal_window_s"],
        "wall_us_p50": u["wall_us_p50"],
        "wall_us_p99": u["wall_us_p99"],
        "virtual_us_mean": u["virtual_us_mean"],
        "setup_s": statistics.median(u["setup_s"]),
        "peak_rss_mib": u["peak_rss_mib"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(u: dict, t: dict) -> dict:
    """The per-layer metrics: self times from the traced pass ``t``,
    corrected by the calibrated wrapper cost, against the untraced ``u``.
    Wall figures are at nominal host speed, like the end-to-end ones."""
    ops = t["ops"]
    wrap = t["wrap_cost_us"]
    host = t["nominal_window_s"] / t["window_s"]
    metrics = {}
    self_wall_sum = 0.0
    for layer in layers.LAYERS:
        calls, wall_ns, virtual = t["layers"][layer]
        if layer == "core.audit":
            metrics["core.audit.records_per_op"] = t["audit_records"] / ops
        else:
            metrics[f"{layer}.calls_per_op"] = calls / ops
        self_wall = (wall_ns / 1000.0 * host - wrap * calls) / ops
        self_wall_sum += self_wall
        metrics[f"{layer}.self_wall_us_per_op"] = self_wall
        metrics[f"{layer}.self_virtual_us_per_op"] = (
            virtual / layers.VIRTUAL_SCALE / ops
        )
    untraced_us = u["nominal_window_s"] * 1e6 / u["ops"]
    metrics.update({
        "core.monitor.cache_hit_ratio": _ratio(
            t["cache_hits"], t["cache_hits"] + t["cache_misses"]
        ),
        "core.monitor.deny_ratio": _ratio(t["denials"], t["authorize_calls"]),
        "xen.ring.frames_per_kick": _ratio(
            t["frames_carried"], t["layers"]["xen.ring"][0]
        ),
        "resilience.admission.shed_ratio": _ratio(
            t["shed"], t["admitted"] + t["shed"]
        ),
        "virtual_us_p50": u["virtual_us_p50"],
        "virtual_us_p99": u["virtual_us_p99"],
        "trace.wrap_cost_us": wrap,
        "trace.overhead_pct": (
            t["nominal_window_s"] / u["nominal_window_s"] - 1.0
        ) * 100.0,
        "trace.residual_pct": (self_wall_sum / untraced_us - 1.0) * 100.0,
    })
    return metrics


def traced_gate(u: dict, t: dict) -> list:
    """The traced pass must not change what the untraced pass computed."""
    problems = []
    for key in ("ops", "virtual_units", "virtual_us_mean", "virtual_us_p50",
                "virtual_us_p99", "chain_head", "audit_records"):
        if u[key] != t[key]:
            problems.append(f"traced pass changed {key}: {u[key]} -> {t[key]}")
    layered = sum(entry[2] for entry in t["layers"].values())
    if layered != t["virtual_units"]:
        problems.append(
            "layer self virtual times do not sum to virtual_us_mean "
            f"({layered} != {t['virtual_units']} units)"
        )
    return problems


def describe(report: dict) -> str:
    kind = "traced" if report["traced"] else "untraced"
    return (
        f"{kind} pass: {report['ops']} ops ({report['samples']} latency "
        f"samples) in {report['window_s']:.3f} s raw, "
        f"{report['nominal_window_s']:.3f} s at nominal host speed (host ran "
        f"at {report['host_speed']:.3f}x); raw p50/p99 "
        f"{report['raw_wall_us_p50']:.1f}/{report['raw_wall_us_p99']:.1f} us, "
        f"raw set-up {statistics.median(report['raw_setup_s']):.3f} s; "
        f"{report['denied']} denials of {report['scheduled_denials']} "
        f"scheduled; {report['failed']} failed; chain head "
        f"{report['chain_head']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="window length; sizes the op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies the op count (0.01 = smoke run)")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_BUDGET_S
    workload = workloads.WORKLOADS[args.workload]
    ops = max(1, round(workload.ops_per_second * args.seconds * args.scale))
    try:
        untraced = spawn_pass(args.workload, args.seed, ops, False, deadline)
        traced = (
            spawn_pass(args.workload, args.seed, ops, True, deadline)
            if args.trace else None
        )
    except PassError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    problems = gate(untraced)
    attempted, failed = untraced["ops"], untraced["failed"]
    print(describe(untraced))
    if traced is None:
        metrics = end_to_end(untraced)
    else:
        print(describe(traced))
        problems += gate(traced) + traced_gate(untraced, traced)
        attempted += traced["ops"]
        failed += traced["failed"]
        metrics = per_layer(untraced, traced)
    spec = json.loads(SPEC_PATH.read_text())
    units = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    if set(metrics) != set(units):
        problems.append(
            f"metrics differ from {SPEC_PATH.name}: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    for warning in untraced["warnings"] + (traced or {}).get("warnings", []):
        print(f"warning: {warning}", file=sys.stderr)
    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload:>16} {name:<40} {value:>14.4f} "
              f"{units.get(name, '?')}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "?")}
            for name, value in metrics.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
