"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench/ -q
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import passes
import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _invoke(workload: str, trace: int, seed: int = 2010) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--scale", "0.01", "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload):
    """A 1%-scale run of each workload passes every correctness gate and
    prints exactly the metrics BENCHMARK.json names, with their units."""
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _invoke(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {
            name: m["unit"] for name, m in result["metrics"].items()
        } == {m["name"]: m["unit"] for m in SPEC[section]}


def _small(name: str, seed: int = 11, traced: bool = False, ops: int = 400,
           workload=None) -> dict:
    return passes.run_pass(workload or workloads.WORKLOADS[name], seed, ops, traced)


def test_same_seed_repeats_virtual_metrics_and_chain_head():
    first, second = _small("sealed-storage"), _small("sealed-storage")
    for key in ("virtual_us_mean", "virtual_us_p50", "virtual_us_p99",
                "virtual_units", "chain_head"):
        assert first[key] == second[key]


def test_different_seed_gives_different_op_sequence():
    def sequence(seed):
        rig = workloads.setup_measurement()  # planning advances its shadow
        steps = workloads.steps_measurement(rig, random.Random(seed), workloads.OPS)
        return [(fn.__name__, arg, expected)
                for fn, _, arg, expected, _ in (next(steps) for _ in range(50))]

    assert sequence(1) == sequence(1)
    assert sequence(1) != sequence(2)


def test_traced_pass_leaves_untraced_results_unchanged():
    untraced = _small("batch-supervised", ops=800)
    traced = _small("batch-supervised", ops=800, traced=True)
    assert run.traced_gate(untraced, traced) == []
    assert run.gate(traced) == []
    calls = {layer: entry[0] for layer, entry in traced["layers"].items()}
    assert calls["resilience.admission"] == calls["xen.ring"] == 800 // 8
    assert calls["core.monitor"] == 800


def test_scheduled_denials_are_all_authfail():
    report = _small("policy-churn", ops=1_000)
    assert report["scheduled_denials"] > 0
    assert report["denied"] == report["scheduled_denials"] == report["denials"]
    assert run.gate(report) == []


def test_missing_entry_point_falls_to_caller(monkeypatch):
    """A layer whose entry point is gone reports no calls, warns, and its
    time is carried by its caller; the run still passes its gates."""
    table = [
        (layer, objects, ("no_such_entry_point",) if layer == "core.monitor" else names)
        for layer, objects, names in layers.ENTRY_POINTS
    ]
    monkeypatch.setattr(layers, "ENTRY_POINTS", tuple(table))
    untraced = _small("measurement")
    traced = _small("measurement", traced=True)
    assert any("core.monitor" in w for w in traced["warnings"])
    assert traced["layers"]["core.monitor"][:3] == [0, 0, 0]
    assert run.traced_gate(untraced, traced) == []
    assert run.gate(traced) == []


def test_batch_of_16_sheds_half_under_default_admission():
    """AdmissionConfig.max_depth = 8: a supervised batch of 16 frames has
    its last 8 shed with TPM_RESOURCES, which is why the batched workload
    submits 8 frames per kick."""
    batch16 = dataclasses.replace(
        workloads.WORKLOADS["batch-supervised"],
        steps=functools.partial(workloads.steps_batch_supervised, batch=16),
    )
    report = _small("batch-supervised", ops=1_600, workload=batch16)
    assert report["shed"] == report["admitted"] == 800
    # every shed frame fails; a shed extend also makes later reads differ
    assert report["failed"] >= report["shed"]


def _write_pairs(tmp_path, parent_values, change_values, failed=(0, 0)):
    """Paired ``ops_per_s`` results; the other metrics are equal."""
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    for i, (p, c) in enumerate(zip(parent_values, change_values)):
        for k, (side, value, fails) in enumerate(
            (("parent", p, failed[0]), ("change", c, failed[1]))
        ):
            metrics = {
                m["name"]: {"value": value if m["name"] == "ops_per_s" else 1.0,
                            "unit": m["unit"]}
                for m in SPEC["end_to_end"]
            }
            path = tmp_path / side / f"measurement.{i}.json"
            path.write_text(json.dumps({"correct": True, "attempted": 100,
                                        "failed": fails, "metrics": metrics}))
            first = k == i % 2  # alternate which side ran first
            os.utime(path, (1000 + 2 * i + (0 if first else 1),) * 2)


@pytest.mark.parametrize("parent, change, failed, expected_status, label", [
    ([100 + i % 3 for i in range(10)], [120 + i % 3 for i in range(10)],
     (0, 0), 0, "gain"),
    ([100 + i % 3 for i in range(10)], [80 + i % 3 for i in range(10)],
     (0, 0), 1, "REGRESSION"),
    ([100 if i % 2 else 140 for i in range(10)],
     [101 if i % 2 else 139 for i in range(10)], (0, 0), 0, "unresolved"),
    ([100] * 10, [100] * 10, (0, 1), 1, "REJECTED"),
])
def test_compare_rules(tmp_path, capsys, parent, change, failed,
                       expected_status, label):
    _write_pairs(tmp_path, parent, change, failed)
    status = compare.compare(tmp_path / "parent", tmp_path / "change")
    assert status == expected_status
    assert label in capsys.readouterr().out


def test_compare_needs_ten_alternating_pairs(tmp_path):
    _write_pairs(tmp_path, [100] * 9, [100] * 9)
    assert compare.compare(tmp_path / "parent", tmp_path / "change") == 2
