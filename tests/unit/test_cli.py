"""Unit tests for the CLI."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.mode == "improved"
        assert args.seed == 2010

    def test_experiment_quick_flag(self):
        args = build_parser().parse_args(["experiment", "table1", "--quick"])
        assert args.id == "table1"
        assert args.quick

    def test_trace_options(self):
        args = build_parser().parse_args(
            ["trace", "--guests", "7", "--mix", "attestation"]
        )
        assert args.guests == 7
        assert args.mix == "attestation"
        assert args.workload is None

    def test_trace_workload_operand(self):
        args = build_parser().parse_args(["trace", "pcrread", "--count", "3"])
        assert args.workload == "pcrread"
        assert args.count == 3
        assert args.mode == "improved"

    def test_chaos_and_experiment_take_trace_path(self):
        assert build_parser().parse_args(
            ["chaos", "--trace", "out.jsonl"]
        ).trace == "out.jsonl"
        assert build_parser().parse_args(
            ["experiment", "table1", "--trace", "-"]
        ).trace == "-"

    def test_verify_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.budget == "small"
        assert args.seed == 2010
        assert args.target is None
        assert args.replay is None
        assert args.inject_bug is None

    def test_verify_options(self):
        args = build_parser().parse_args(
            ["verify", "--budget", "deep", "--target", "40",
             "--inject-bug", "cache-epoch", "--output", "r.json"]
        )
        assert args.budget == "deep"
        assert args.target == 40
        assert args.inject_bug == "cache-epoch"
        assert args.output == "r.json"

    def test_chaos_and_cluster_take_conformance_flag(self):
        assert build_parser().parse_args(
            ["chaos", "--single", "--conformance"]
        ).conformance
        assert build_parser().parse_args(
            ["cluster", "--single", "--conformance"]
        ).conformance
        assert not build_parser().parse_args(["chaos"]).conformance


class TestExperimentRegistry:
    """``cli.EXPERIMENTS``: the full size of each experiment is its
    runner's defaults; ``--quick`` only overrides named parameters."""

    def _record_runners(self, monkeypatch):
        from repro.harness import experiments, loadtest
        from repro.metrics.tables import Table

        calls = []
        for module in (experiments, loadtest):
            for name in [n for n in vars(module) if n.startswith("run_")]:
                def record(*args, _name=name, **kwargs):
                    calls.append((_name, args, kwargs))
                    return Table(_name, ["x"], [])

                monkeypatch.setattr(module, name, record)
        monkeypatch.setattr(cli, "EXPERIMENTS", {})
        return calls

    def test_full_mode_calls_every_runner_with_no_arguments(
        self, monkeypatch, capsys
    ):
        calls = self._record_runners(monkeypatch)
        assert main(["report"]) == 0
        assert len(calls) == len(cli.EXPERIMENTS) == 12
        assert len({name for name, _a, _k in calls}) == 12
        for name, args, kwargs in calls:
            assert (args, kwargs) == ((), {}), name

    def test_quick_mode_passes_its_overrides(self, monkeypatch, capsys):
        calls = self._record_runners(monkeypatch)
        assert main(["experiment", "all", "--quick"]) == 0
        assert [kwargs for _n, _a, kwargs in calls] == [
            quick for _runner, quick in cli.EXPERIMENTS.values()
        ]

    def test_quick_overrides_name_real_parameters(self):
        cli._register_experiments()
        for name, (runner, quick) in cli.EXPERIMENTS.items():
            inspect.signature(runner).bind(**quick)  # TypeError on a typo
            assert quick or name == "table2", f"{name} has no quick size"


class TestCommands:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--mode", "baseline", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "vTPM provisioned" in out
        assert "unsealed" in out

    def test_demo_improved(self, capsys):
        assert main(["demo", "--mode", "improved"]) == 0
        assert "[improved]" in capsys.readouterr().out

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_table3_quick(self, capsys):
        assert main(["experiment", "table3", "--quick"]) == 0
        assert "policy decision latency" in capsys.readouterr().out

    def test_trace_emits_loadable_trace(self, capsys):
        assert main(
            ["trace", "--guests", "2", "--rate", "30", "--duration", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        from repro.workloads.traces import SyntheticTrace

        trace = SyntheticTrace.loads(out)
        assert trace.guests == 2

    def test_attack_matrix_single_mode(self, capsys):
        assert main(["attack-matrix", "--mode", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "mem-dump-manager" in out
        assert "succeeded" in out

    def test_trace_live_workload_prints_span_tree(self, capsys):
        assert main(["trace", "pcrread", "--count", "1"]) == 0
        out = capsys.readouterr().out
        assert "frontend.command" in out
        assert "authz" in out
        assert "engine" in out
        assert "== counters ==" in out
        assert 'ac.decisions{outcome="allow",reason="granted"}' in out

    def test_trace_live_output_is_byte_identical_across_processes(self):
        # Spans carry virtual time only, so two processes print the same
        # bytes; a host-clock column would differ on every run.
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        argv = [sys.executable, "-m", "repro", "trace", "pcrread",
                "--count", "2"]
        first, second = (
            subprocess.run(argv, env=env, capture_output=True, check=True)
            for _ in range(2)
        )
        assert b"frontend.command" in first.stdout
        assert b"wall" not in first.stdout
        assert first.stdout == second.stdout

    @pytest.mark.parametrize("argv", [
        ["chaos", "--single"],
        ["cluster", "--single"],
        ["experiment", "table1"],
    ])
    @pytest.mark.parametrize("rate", ["0", "-2"])
    def test_trace_sample_below_one_is_a_usage_error(self, capsys, argv,
                                                     rate):
        self._assert_usage_error(capsys, argv + ["--trace-sample", rate])

    @pytest.mark.parametrize("argv", [
        ["chaos", "--commands", "-5", "--single"],
        ["chaos", "--commands", "-5"],
        ["health", "--commands", "-3"],
        ["cluster", "--hosts", "0"],
        ["cluster", "--guests", "0"],
        ["cluster", "--steps", "0"],
        ["trace", "pcrread", "--count", "-1"],
        ["trace", "pcrread", "--guests", "0"],
        ["verify", "--target", "0"],
        ["verify", "--target", "-3"],
    ])
    def test_count_below_one_is_a_usage_error(self, capsys, argv):
        self._assert_usage_error(capsys, argv)

    @pytest.mark.parametrize("option", ["--rate", "--duration"])
    @pytest.mark.parametrize("value", ["-5", "0", "nan", "inf"])
    def test_trace_rate_and_duration_must_be_finite_positive(
        self, capsys, option, value
    ):
        self._assert_usage_error(capsys, ["trace", option, value],
                                 "expected a finite positive number")

    def test_xm_negative_guests_is_a_usage_error(self, capsys):
        self._assert_usage_error(capsys, ["xm", "list", "--guests", "-2"],
                                 "expected a non-negative integer")

    def test_xm_list_zero_guests_lists_dom0_only(self, capsys):
        assert main(["xm", "list", "--guests", "0"]) == 0
        out = capsys.readouterr().out
        assert "Domain-0" in out
        assert "guest" not in out

    @pytest.mark.parametrize("argv", [
        ["xm", "vcpu-list", "--domid", "99"],
        ["xm", "dump-core", "--domid", "3"],
    ])
    def test_xm_unknown_domid_is_one_line_and_exit_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"no domain with id {argv[-1]}\n"
        assert captured.out == ""

    @staticmethod
    def _assert_usage_error(capsys, argv,
                            message="expected a positive integer"):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_trace_live_unknown_workload(self, capsys):
        assert main(["trace", "frobnicate"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_chaos_supervised_single(self, capsys):
        assert main(
            ["chaos", "--supervised", "--single", "--commands", "150"]
        ) == 0
        out = capsys.readouterr().out
        assert "plan=supervised-chaos" in out
        assert "malformed=0" in out
        assert "settled=True" in out

    def test_commands_default_is_the_scenarios_own(self):
        from repro.harness.chaos import ChaosScenario, SupervisedChaosScenario

        assert build_parser().parse_args(["chaos"]).commands is None
        assert ChaosScenario().commands == 1000
        assert SupervisedChaosScenario().commands == 600

    def test_supervised_explicit_1000_commands_is_honoured(self, capsys):
        assert main(
            ["chaos", "--supervised", "--single", "--commands", "1000"]
        ) == 0
        assert "commands=1000" in capsys.readouterr().out

    def test_supervised_demo_writes_its_trace(self, capsys, tmp_path):
        from repro.obs import load_jsonl, validate_tree_dict

        argv = ["chaos", "--supervised", "--commands", "100"]
        assert main(argv) == 0
        untraced = capsys.readouterr().out
        out = tmp_path / "supervised.jsonl"
        assert main(argv + ["--trace", str(out)]) == 0
        traced = capsys.readouterr().out
        trees = load_jsonl(out.read_text())
        assert trees, "the chaotic run left no root span"
        for tree in trees:
            validate_tree_dict(tree)
        assert "trace:" in traced and "counters:" in traced

        def states(text):
            return [l for l in text.splitlines() if l.startswith("state[")]

        # The demo itself asserts the traced run's digests equal the
        # untraced replay's; the printed ones match an untraced demo too.
        assert states(untraced) and states(traced) == states(untraced)

    @pytest.mark.parametrize("argv", [
        ["chaos", "--commands", "200"],
        ["chaos", "--supervised", "--commands", "100"],
        ["cluster", "--seed", "9", "--hosts", "3", "--guests", "9",
         "--steps", "24"],
    ])
    def test_conformance_checks_every_demo_run(self, capsys, argv):
        assert main(argv + ["--conformance"]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("conformance:")
        ]
        assert len(lines) == 1
        assert int(lines[0].split()[1]) > 0

    def test_health_subcommand(self, capsys):
        assert main(["health", "--commands", "120"]) == 0
        out = capsys.readouterr().out
        assert "victim" in out
        assert "restarting->healthy[restart-probe-ok]" in out
        assert "settled=True" in out

    def test_health_no_faults(self, capsys):
        assert main(["health", "--commands", "60", "--no-faults"]) == 0
        out = capsys.readouterr().out
        assert "plan=fault-free" in out
        assert "state     : healthy" in out

    def test_chaos_single_with_trace_jsonl(self, capsys, tmp_path):
        from repro.obs import load_jsonl, validate_tree_dict

        out = tmp_path / "chaos.jsonl"
        assert main(
            ["chaos", "--single", "--commands", "40", "--trace", str(out)]
        ) == 0
        stdout = capsys.readouterr().out
        assert "trace:" in stdout and "counters:" in stdout
        trees = load_jsonl(out.read_text())
        assert trees
        for tree in trees:
            validate_tree_dict(tree)

    def test_verify_small_smoke(self, capsys):
        # --target caps the sweep so the unit test stays fast; the full
        # 500+-schedule acceptance run lives in CI.
        assert main(["verify", "--target", "12"]) == 0
        out = capsys.readouterr().out
        assert "distinct schedules explored" in out
        assert "oracle violations           : 0" in out

    def test_verify_inject_bug_catches_and_shrinks(self, capsys, tmp_path):
        from repro.core import monitor as monitor_mod
        from repro.verify import load_repro

        artifact = tmp_path / "repro.json"
        assert main([
            "verify", "--inject-bug", "cache-epoch",
            "--output", str(artifact),
        ]) == 0
        out = capsys.readouterr().out
        assert "injected bug caught and shrunk" in out
        repro = load_repro(str(artifact))
        assert 0 < len(repro.steps) <= 10
        assert repro.inject_bug == "cache-epoch"
        # The hook is always restored, pass or fail.
        assert monitor_mod.INJECT_STALE_POLICY_EPOCH is False

    def test_verify_replay_reproduces_then_exits_nonzero(
        self, capsys, tmp_path
    ):
        artifact = tmp_path / "repro.json"
        assert main([
            "verify", "--inject-bug", "cache-epoch",
            "--output", str(artifact),
        ]) == 0
        capsys.readouterr()
        assert main(["verify", "--replay", str(artifact)]) == 1
        assert "violation reproduces" in capsys.readouterr().out

    def test_verify_replay_clean_artifact_exits_zero(self, capsys, tmp_path):
        import json

        from repro.verify import REPRO_FORMAT

        artifact = tmp_path / "clean.json"
        artifact.write_text(json.dumps({
            "format": REPRO_FORMAT, "seed": 2010, "guests": 2,
            "supervised": False, "inject_bug": None,
            "steps": [{"guest": 0, "op": "extend", "arg": 1}],
            "violation": {"kind": "oracle-mismatch", "step_index": 0,
                          "step": None, "predicted": "", "observed": "",
                          "detail": ""},
        }))
        assert main(["verify", "--replay", str(artifact)]) == 0
        assert "replay clean" in capsys.readouterr().out
