"""Measure and record the benchmark's baseline at the current commit.

    python3 bench/baseline.py --out bench/BASELINE.json

Runs every workload untraced once per seed in ``SEEDS``, in each of two
sets, interleaving workloads, then ``TRACED_RUNS`` traced runs of each.
It records, per workload and end-to-end metric, each set's median and
quartiles, the spread (interquartile range over median) that the metric's
bound must cover, and the shift between the two sets' medians; per
workload, the medians of the per-layer metrics; and whether the
virtual-time metrics and audit chain heads repeated exactly across sets.
The exit status is 0 when every spread (set-up time exempt) and every
shift stays within its bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

from compare import SPEC_PATH, bounded_metrics, quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHAIN_HEAD = re.compile(r"chain head ([0-9a-f]+)")
#: one untraced run per seed per set: ten, as the acceptance rule asks
SEEDS = tuple(range(1, 11))
TRACED_RUNS = 3


def run_once(workload: str, seed: int, trace: int, seconds: int) -> tuple:
    """One benchmark invocation: (result object, audit chain head)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200, check=True,
    )
    head = CHAIN_HEAD.search(proc.stdout)
    return json.loads(proc.stdout.strip().splitlines()[-1]), head and head.group(1)


def _stats(values) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE / "BASELINE.json")
    args = parser.parse_args(argv)

    spec = json.loads(SPEC_PATH.read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(SEEDS)
    sets = []
    for set_no in (1, 2):
        runs = {w: [] for w in names}
        for seed in seeds:
            for w in names:
                result, head = run_once(w, seed, 0, seconds)
                runs[w].append((result, head))
                print(f"set {set_no} seed {seed} {w}: correct={result['correct']}",
                      file=sys.stderr)
        sets.append(runs)

    out = {
        "host": f"{platform.machine()} {platform.system()}, "
                f"Python {platform.python_version()}",
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for w in names:
        entry = {"end_to_end": {}}
        for metric in bounded_metrics():
            name, bound = metric["name"], metric["bound"]
            per_set = [
                _stats([r["metrics"][name]["value"] for r, _ in s[w]])
                for s in sets
            ]
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in per_set)
            shift = abs(per_set[1]["median"] - per_set[0]["median"]) / per_set[0]["median"]
            # accepted: the spread (set-up time exempt) and the shift of the
            # medians stay within the bound; the target is a third of it
            steady = shift <= bound and (name == "setup_s" or spread <= bound)
            ok &= steady
            entry["end_to_end"][name] = {
                "bound": bound, "spread": spread, "median_shift": shift,
                "steady": steady, "spread_below_third": spread < bound / 3,
                "set1": per_set[0], "set2": per_set[1],
            }
        virtual = [[r["metrics"]["virtual_us_mean"]["value"] for r, _ in s[w]]
                   for s in sets]
        heads = [[h for _, h in s[w]] for s in sets]
        entry["virtual_repeats"] = virtual[0] == virtual[1]
        entry["chain_heads_repeat"] = heads[0] == heads[1]
        entry["all_correct"] = all(r["correct"] and r["failed"] == 0
                                   for s in sets for r, _ in s[w])
        ok &= entry["virtual_repeats"] and entry["chain_heads_repeat"]
        ok &= entry["all_correct"]

        traced = [run_once(w, seed, 1, seconds)[0]
                  for seed in seeds[:TRACED_RUNS]]
        ok &= all(r["correct"] for r in traced)
        entry["per_layer_median"] = {
            name: statistics.median(r["metrics"][name]["value"] for r in traced)
            for name in traced[0]["metrics"]
        }
        out["workloads"][w] = entry
        print(f"{w}: " + ", ".join(
            f"{n} spread {e['spread']:.1%} shift {e['median_shift']:.1%}"
            for n, e in entry["end_to_end"].items()
        ), file=sys.stderr)
    out["steady"] = ok
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}; steady={ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
