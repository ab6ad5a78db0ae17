"""Paired A/B comparison of benchmark results, one row per workload.

Each directory holds one result per run, named ``<workload>.<pair>.json``
(the JSON line ``run.py`` prints last; a file holding the whole standard
output works too).  The same name in both directories is one pair.  Pairs
must alternate which side ran first, by file modification time::

    mkdir -p results/parent results/change
    for i in $(seq 1 10); do for w in measurement sealed-storage \\
        batch-supervised policy-churn; do
      first=parent second=change; [ $((i % 2)) = 0 ] && first=change second=parent
      for side in $first $second; do (cd $side-checkout && python3 bench/run.py \\
        --workload $w --seed $((100 + i)) --seconds 10 --trace 0) \\
        > results/$side/$w.$i.json; done
    done; done
    python3 bench/compare.py results/parent results/change

Rules, per workload and end-to-end metric (bounds from ``BENCHMARK.json``):

* **gain**: the change wins at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
* **unresolved**: the parent's spread (interquartile range over median)
  exceeds the bound, unless every change run beats every parent run;
* **regression**: the change's median is worse than the parent's by more
  than the bound;
* any rise in the failure ratio (failed / attempted), or any run reporting
  ``correct: false``, rejects the change.

Exit status: 0 when nothing regressed, 1 on a regression or rejection, 2
on unusable input (fewer than 10 pairs, pairs not alternating).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_result(path: Path) -> dict:
    """The result object of one run (the last line of its output)."""
    return json.loads(path.read_text().strip().splitlines()[-1])


def quartiles(values) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def bounded_metrics() -> list:
    """End-to-end metric descriptors from ``BENCHMARK.json``."""
    return json.loads(SPEC_PATH.read_text())["end_to_end"]


def _pairs(parent: Path, change: Path) -> dict:
    """``{workload: [(parent file, change file), ...]}`` ordered by pair."""
    pairs: dict = {}
    for p in sorted(parent.glob("*.json")):
        c = change / p.name
        if not c.exists():
            continue
        workload, _, pair = p.stem.rpartition(".")
        pairs.setdefault(workload, []).append((int(pair), p, c))
    return {w: [(p, c) for _, p, c in sorted(ps)] for w, ps in pairs.items()}


def _alternates(pairs) -> bool:
    firsts = [p.stat().st_mtime < c.stat().st_mtime for p, c in pairs]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def verdict(metric: dict, parent: list, change: list) -> tuple:
    """(verdict, detail) for one metric over paired runs."""
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    q1, mp, q3 = quartiles(parent)
    mc = statistics.median(change)

    def better(a, b):
        return a > b if higher else a < b

    wins = sum(better(c, p) for p, c in zip(parent, change))
    worse_by = ((mp - mc) if higher else (mc - mp)) / mp
    spread = (q3 - q1) / mp
    detail = (
        f"{mp:.4g} [{q1:.4g}, {q3:.4g}] -> {mc:.4g} "
        f"({-worse_by:+.1%}, wins {wins}/{len(parent)}, spread {spread:.1%}, "
        f"bound {bound:.0%})"
    )
    if better(mc, mp) and wins >= WIN_SHARE * len(parent) and abs(mc - mp) > q3 - q1:
        return "gain", detail
    if spread > bound:
        if all(better(c, p) for c in change for p in parent):
            return "better", detail
        return "unresolved", detail
    if worse_by > bound:
        return "REGRESSION", detail
    return "no regression", detail


def compare(parent: Path, change: Path) -> int:
    pairs = _pairs(parent, change)
    if not pairs:
        print("no paired result files found", file=sys.stderr)
        return 2
    status = 0
    for workload, runs in sorted(pairs.items()):
        if len(runs) < MIN_PAIRS:
            print(f"{workload}: {len(runs)} pairs, need at least {MIN_PAIRS}",
                  file=sys.stderr)
            return 2
        if not _alternates(runs):
            print(f"{workload}: pairs do not alternate which side ran first",
                  file=sys.stderr)
            return 2
        results = [(load_result(p), load_result(c)) for p, c in runs]
        rows, verdicts = [], {}
        for metric in bounded_metrics():
            name = metric["name"]
            p_vals = [p["metrics"][name]["value"] for p, _ in results]
            c_vals = [c["metrics"][name]["value"] for _, c in results]
            verdicts[name], detail = verdict(metric, p_vals, c_vals)
            rows.append(f"    {name:<16} {verdicts[name]:<14} {detail}")
        fail = [
            sum(r[i]["failed"] for r in results)
            / sum(r[i]["attempted"] for r in results)
            for i in (0, 1)
        ]
        rejected = []
        if fail[1] > fail[0]:
            rejected.append(f"fail_ratio rose {fail[0]:.2e} -> {fail[1]:.2e}")
        if not all(c["correct"] for _, c in results):
            rejected.append("a change run reported correct: false")
        regressed = [n for n, v in verdicts.items() if v == "REGRESSION"]
        summary = ", ".join(
            f"{label}: {' '.join(n for n, v in verdicts.items() if v == label)}"
            for label in ("gain", "REGRESSION", "unresolved")
            if label in verdicts.values()
        ) or "no regression"
        print(f"{workload:<17} {len(runs)} pairs  {summary}"
              + "".join(f"; REJECTED: {r}" for r in rejected))
        print("\n".join(rows))
        if regressed or rejected:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="results of the parent commit")
    parser.add_argument("change", type=Path, help="results of the change")
    args = parser.parse_args(argv)
    return compare(args.parent, args.change)


if __name__ == "__main__":
    raise SystemExit(main())
