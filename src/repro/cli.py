"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``demo`` — the quickstart flow (provision, measure, seal, quote).
* ``chaos`` — the fault-injection demo: a seeded 1000-command workload
  under injected ring/storage/device/migration faults, with zero state
  loss and a deterministic replay check.
* ``cluster`` — the multi-host fleet demo: N hosts, a migration storm
  and one whole-host crash, with zero state loss vs a single-host
  control and a deterministic replay check.
* ``attack-matrix`` — run every attack against one or both regimes.
* ``experiment <id>`` — regenerate one table/figure (``table1``,
  ``fig1`` … ``table4``, ``fig5``, or ``all``); ``--quick`` shrinks sizes.
* ``trace`` — with no operand, emit a synthetic Poisson workload trace;
  with a workload operand (``pcrread``, ``seal``, …), run it live with
  tracing on and print the span trees plus the counter exposition.
* ``verify`` — the conformance verification subsystem: explore many
  distinct guest-command interleavings against the reference-model
  oracle (``--budget small|deep``), shrink any violation to a minimal
  replayable JSON repro, and replay repros (``--replay FILE``).  The
  ``--inject-bug cache-epoch`` self-check plants a known authz bug and
  succeeds only if the explorer catches and shrinks it.
* ``analyze`` — the domain-specific static analyzer: walk the package
  through the AST rule catalogue (fail-closed, determinism,
  secret-flow, audit-on-deny, counter-registry), honour
  ``# repro: allow[rule-id] -- reason`` pragmas, and with ``--check``
  diff against the committed ``analysis-baseline.json`` (CI gate).
  ``--inject-violation RULE`` plants that rule's example violation and
  must make the run fail — the self-check that each rule can fire.
* ``report`` — run the full evaluation and print a markdown report.

``chaos``, ``cluster`` and ``experiment`` accept ``--trace PATH`` to
stream every finished span tree to ``PATH`` as JSONL (``-`` for stdout).

Every output is a pure function of the seed: spans carry virtual time
only, and nothing here reads the host clock.  Wall time is measured from
outside the package (``bench/run.py``, ``benchmarks/``).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.config import AccessMode
from repro.harness.builder import build_platform, fresh_timing_context

#: experiment id -> (runner, keyword overrides for ``--quick``); the full
#: size is each runner's defaults.  Filled on first use.
EXPERIMENTS: Dict[str, Tuple[Callable, Dict[str, object]]] = {}


def _register_experiments() -> None:
    from repro.harness import experiments as ex
    from repro.harness.loadtest import run_latency_under_load

    EXPERIMENTS.update(
        {
            "table1": (ex.run_command_latency, {"reps": 10}),
            "fig1": (ex.run_throughput_scaling,
                     {"vm_counts": (1, 2, 4), "ops_per_vm": 10}),
            "table2": (ex.run_attack_matrix_experiment, {}),
            "fig2": (ex.run_instance_creation, {"populations": (0, 2, 4)}),
            "fig3": (ex.run_migration_sweep, {"nv_payload_kib": (0, 16)}),
            "table3": (ex.run_policy_scaling,
                       {"rule_counts": (10, 1000), "lookups": 300}),
            "fig4": (ex.run_webapp_benchmark, {"requests": 300}),
            "table4": (ex.run_ablation, {"ops": 40}),
            "fig6": (ex.run_recovery_sweep, {"instance_counts": (1, 2)}),
            "fig6b": (ex.run_faulted_recovery, {"instance_counts": (1, 2)}),
            "fig5": (run_latency_under_load,
                     {"offered_rates": (5_000, 25_000), "guests": 3,
                      "duration_s": 0.2}),
            "fig7": (ex.run_batching_sweep,
                     {"batch_sizes": (1, 4, 16), "vm_counts": (1, 2),
                      "commands_per_vm": 16}),
        }
    )


def _run_experiment(name: str, quick: bool):
    """Run one registered experiment at full or ``--quick`` size."""
    runner, quick_kwargs = EXPERIMENTS[name]
    return runner(**quick_kwargs) if quick else runner()


def cmd_demo(args: argparse.Namespace) -> int:
    import hashlib

    from repro.tpm.constants import TPM_KH_SRK

    fresh_timing_context()
    mode = AccessMode(args.mode)
    platform = build_platform(mode, seed=args.seed)
    guest = platform.add_guest("demo-vm")
    client = guest.client
    ek = client.read_pubek()
    client.take_ownership(b"demo-owner-auth!!!!!", b"demo-srk-auth!!!!!!!", ek)
    client.extend(10, hashlib.sha1(b"demo-app").digest())
    sealed = client.seal(
        TPM_KH_SRK, b"demo-srk-auth!!!!!!!", b"demo secret", b"demo-data-auth!!!!!!"
    )
    recovered = client.unseal(
        TPM_KH_SRK, b"demo-srk-auth!!!!!!!", sealed, b"demo-data-auth!!!!!!"
    )
    print(f"[{mode.value}] platform up, vTPM provisioned")
    print(f"  PCR10 = {client.pcr_read(10).hex()}")
    print(f"  sealed {len(sealed)} bytes, unsealed -> {recovered!r}")
    from repro.sim.timing import get_context

    print(f"  virtual time: {get_context().clock.now_ms:.1f} ms")
    return 0


def _open_trace(path: str, sample_rate: int = 1):
    """``--trace PATH`` plumbing: (tracer, registry, closer) or Nones.

    ``sample_rate`` > 1 records only 1-in-N root span trees (deterministic
    head sampling; counters stay exact).  The returned closer drains the
    sink's line buffer before closing the stream — and flushes without
    closing when the stream is stdout.
    """
    import contextlib

    from repro.obs import CounterRegistry, JsonlSink, Tracer

    if path is None:
        return None, None, contextlib.nullcontext()
    stream = sys.stdout if path == "-" else open(path, "w")
    sink = JsonlSink(stream)
    closer = contextlib.ExitStack()
    if path != "-":
        closer.push(stream)
    closer.callback(sink.flush)  # runs before the stream close above
    return Tracer(sink, sample_rate=sample_rate), CounterRegistry(), closer


def _scenario_for(args: argparse.Namespace):
    """The scenario ``chaos``, ``chaos --supervised`` or ``cluster`` runs."""
    if args.command == "cluster":
        from repro.cluster import ClusterScenario

        return ClusterScenario(seed=args.seed, hosts=args.hosts,
                               guests=args.guests, steps=args.steps)
    from repro.harness.chaos import ChaosScenario, SupervisedChaosScenario

    kind = SupervisedChaosScenario if args.supervised else ChaosScenario
    if args.commands is None:  # each scenario has its own default
        return kind(seed=args.seed)
    return kind(seed=args.seed, commands=args.commands)


def cmd_scenario(args: argparse.Namespace) -> int:
    """Chaos, supervised-chaos or fleet demo: seeded faults, survived."""
    from repro.harness.scenario import run_demo, run_once

    scenario = _scenario_for(args)
    tracer, registry, closer = _open_trace(args.trace, args.trace_sample)
    with closer:
        if args.single:
            report = run_once(
                scenario, scenario.default_plan(), tracer=tracer,
                counters=registry, conformance=args.conformance,
            )
            for line in report.summary_lines():
                print(line)
            _print_conformance(args, report.conformance_checks)
            _print_trace_summary(args.trace, tracer, registry)
            return 0
        result = run_demo(scenario, tracer=tracer, counters=registry,
                          conformance=args.conformance)
    print(f"== {scenario.title} ==")
    for line in result.chaotic.summary_lines():
        print(line)
    print()
    print("== verdict ==")
    for line in scenario.verdict_lines(result):
        print(line)
    _print_conformance(args, result.conformance_checks)
    _print_trace_summary(args.trace, tracer, registry)
    return 0


def _print_conformance(args: argparse.Namespace, checks: int) -> None:
    if args.conformance:
        print(f"conformance: {checks} decisions oracle-checked, 0 mismatches")


def cmd_health(args: argparse.Namespace) -> int:
    """Run a short supervised scenario and print per-guest health."""
    from repro.harness.chaos import SupervisedChaosScenario
    from repro.harness.scenario import run_once

    scenario = SupervisedChaosScenario(seed=args.seed, commands=args.commands)
    report = run_once(scenario, scenario.default_plan() if args.faults else None)
    print(f"plan={report.plan_name} seed={report.seed} "
          f"commands={report.commands} settled={report.settled}")
    for guest in sorted(report.health):
        record = report.health[guest]
        breaker_seq = report.breaker_sequences[guest]
        print(f"\n{guest} (instance {record['instance']}):")
        print(f"  state     : {record['state']} "
              f"(restarts={record['restarts']}, "
              f"failures={record['failure_counts'] or 'none'})")
        print(f"  breaker   : {record['breaker']} "
              f"({len(breaker_seq)} state changes)")
        print(f"  admission : {report.admission_text(guest)}")
        if record["transitions"]:
            print("  lifecycle : " + " ".join(record["transitions"]))
    return 0


def _print_trace_summary(path, tracer, registry) -> None:
    if tracer is None or path == "-":
        return
    sampled = (
        f" (1-in-{tracer.sample_rate} of {tracer.roots_seen} trees)"
        if tracer.sample_rate > 1 else ""
    )
    print(f"trace: {tracer.roots_emitted} root spans "
          f"({tracer.spans_started} total){sampled} -> {path}")
    if registry is not None and registry.series():
        print("counters:")
        for line in registry.exposition().splitlines():
            print(f"  {line}")


def cmd_attack_matrix(args: argparse.Namespace) -> int:
    from repro.attacks.scenarios import matrix_rows, run_attack_matrix
    from repro.metrics.tables import format_table

    fresh_timing_context()
    modes = (
        [AccessMode.BASELINE, AccessMode.IMPROVED]
        if args.mode == "both"
        else [AccessMode(args.mode)]
    )
    results = {m: run_attack_matrix(m, seed=args.seed) for m in modes}
    if len(modes) == 2:
        rows = matrix_rows(results[AccessMode.BASELINE], results[AccessMode.IMPROVED])
        print(format_table(["attack", "stock Xen vTPM", "improved"], rows,
                           title="Attack outcomes"))
    else:
        for report in results[modes[0]]:
            print(f"{report.attack:22s} {report.outcome.value:10s} {report.detail}")
    if args.verbose and len(modes) == 2:
        print()
        for reports in results.values():
            for report in reports:
                print(f"[{report.mode.value:8s}] {report.attack:22s} "
                      f"{report.outcome.value:9s} {report.detail}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.harness.scenario import observed

    _register_experiments()
    names = list(EXPERIMENTS) if args.id == "all" else [args.id]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {unknown}; "
              f"choose from {sorted(EXPERIMENTS)} or 'all'", file=sys.stderr)
        return 2
    # Spans only — experiments reset the timing context once per measured
    # configuration, and a counter registry is bound to a single epoch.
    tracer, _registry, closer = _open_trace(
        getattr(args, "trace", None), getattr(args, "trace_sample", 1)
    )
    with closer, observed(tracer):
        for name in names:
            result = _run_experiment(name, args.quick)
            print(result.render())
            print()
    _print_trace_summary(getattr(args, "trace", None), tracer, None)
    return 0


def _trace_workload_op(workload: str) -> str:
    """Map CLI spellings (``pcrread``) to workload operation names."""
    return {"pcrread": "pcr_read", "pcr-read": "pcr_read"}.get(
        workload, workload.replace("-", "_")
    )


def _cmd_trace_live(args: argparse.Namespace) -> int:
    """``trace <workload>``: run it for real and show the span trees."""
    from repro.harness.scenario import observed
    from repro.obs import CounterRegistry, InMemorySink, Tracer, format_span_tree
    from repro.util.errors import ReproError
    from repro.workloads.mixes import GuestSession

    op = _trace_workload_op(args.workload)
    fresh_timing_context()
    platform = build_platform(AccessMode(args.mode), seed=args.seed)
    session = GuestSession(
        platform.add_guest("trace-vm"), platform.rng.fork("trace-sess")
    )
    if op not in session.operation_names():
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(session.operation_names())}", file=sys.stderr)
        return 2
    sink = InMemorySink()
    tracer = Tracer(sink)
    registry = CounterRegistry()
    with observed(tracer, registry):
        for _ in range(args.count):
            try:
                session.run_operation(op)
            except ReproError as exc:
                print(f"workload {op!r} failed: {exc}", file=sys.stderr)
                return 1
    spans = sink.validate()
    print(f"== {op} x{args.count} ({args.mode} regime, seed {args.seed}) — "
          f"{len(sink)} root spans, {spans} spans total ==")
    for root in sink.roots:
        for line in format_span_tree(root):
            print(line)
        print()
    print("== counters ==")
    sys.stdout.write(registry.exposition())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if args.workload is not None:
        return _cmd_trace_live(args)
    from repro.crypto.random_source import RandomSource
    from repro.workloads.mixes import (
        MIX_ATTESTATION,
        MIX_MEASUREMENT,
        MIX_MIXED,
        MIX_SEALED_STORAGE,
    )
    from repro.workloads.traces import SyntheticTrace

    fresh_timing_context()
    mixes = {
        m.name: m
        for m in (MIX_MEASUREMENT, MIX_SEALED_STORAGE, MIX_ATTESTATION, MIX_MIXED)
    }
    trace = SyntheticTrace.poisson(
        RandomSource(args.seed),
        guests=args.guests,
        rate_per_guest_per_sec=args.rate,
        duration_s=args.duration,
        mix=mixes[args.mix],
    )
    sys.stdout.write(trace.dumps())
    return 0


def cmd_xm(args: argparse.Namespace) -> int:
    from repro.util.errors import DomainNotFound
    from repro.xen import tools

    fresh_timing_context()
    platform = build_platform(AccessMode(args.mode), seed=args.seed)
    for i in range(args.guests):
        platform.add_guest(f"guest{i:02d}")
    hypercalls = platform.dom0_hypercalls()
    try:
        if args.op == "list":
            print(tools.xm_list(hypercalls))
        elif args.op == "info":
            print(tools.xm_info(hypercalls))
        elif args.op == "vcpu-list":
            print(tools.xm_vcpu_list(hypercalls, args.domid))
        elif args.op == "dump-core":
            image = tools.xm_dump_core(hypercalls, args.domid)
            print(f"dumped {len(image)} bytes of dom{args.domid} "
                  f"({args.mode} regime)")
    except DomainNotFound as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0


def cmd_replay_trace(args: argparse.Namespace) -> int:
    """Replay a trace file against a fresh platform, print a latency summary."""
    from pathlib import Path

    from repro.metrics.stats import summarize
    from repro.metrics.tables import format_table
    from repro.util.errors import ReproError
    from repro.workloads.mixes import GuestSession
    from repro.workloads.traces import SyntheticTrace

    text = Path(args.file).read_text() if args.file != "-" else sys.stdin.read()
    try:
        trace = SyntheticTrace.loads(text)
    except ReproError as exc:
        print(f"replay-trace: {args.file}: {exc}", file=sys.stderr)
        return 2
    clock = fresh_timing_context().clock
    platform = build_platform(AccessMode(args.mode), seed=args.seed)
    sessions = [
        GuestSession(platform.add_guest(f"g{i:02d}"), platform.rng.fork(f"s{i}"))
        for i in range(trace.guests)
    ]
    samples: Dict[str, List[float]] = {}
    for entry in trace:
        start = clock.now_us
        sessions[entry.guest_index].run_operation(entry.operation)
        samples.setdefault(entry.operation, []).append(clock.now_us - start)
    rows = []
    for name in sorted(samples):
        summary = summarize(samples[name])
        rows.append((name, summary.count, summary.mean, summary.p95))
    print(format_table(
        ["operation", "count", "mean (us)", "p95 (us)"], rows,
        title=f"trace replay: {len(trace)} ops, {trace.guests} guests, "
              f"{args.mode} regime",
    ))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Conformance verification: explorer sweep, self-check, or replay."""
    import dataclasses

    from repro.core import monitor as monitor_mod
    from repro.verify import (
        BUDGETS,
        explore,
        load_repro,
        replay_repro,
        save_repro,
        shrink_failure,
    )

    if args.replay is not None:
        repro = load_repro(args.replay)
        print(f"replaying {args.replay}: {len(repro.steps)} steps, "
              f"seed {repro.seed}, {repro.guests} guests"
              + (f", injected bug {repro.inject_bug!r}"
                 if repro.inject_bug else ""))
        violation = replay_repro(repro)
        if violation is not None:
            print("violation reproduces:")
            print(f"  {violation.describe()}")
            return 1
        print("replay clean: the recorded violation no longer reproduces")
        return 0

    spec = BUDGETS[args.budget]
    if args.target is not None:
        spec = dataclasses.replace(spec, target_schedules=args.target)
    inject = args.inject_bug is not None
    if inject:
        monitor_mod.INJECT_STALE_POLICY_EPOCH = True
    try:
        report = explore(spec, seed=args.seed, progress=None)
        for line in report.summary_lines():
            print(line)
        if inject:
            # Self-check mode: the sweep MUST catch the planted bug and
            # shrink it to a small replayable repro.
            if not report.failures:
                print(f"FAIL: injected bug {args.inject_bug!r} was NOT "
                      "caught by the explorer")
                return 1
            repro = shrink_failure(report.failures[0])
            save_repro(args.output, repro)
            print(f"injected bug caught and shrunk to {len(repro.steps)} "
                  f"steps -> {args.output}")
            print(f"  {repro.violation.describe()}")
            print(f"  replay: python -m repro verify --replay {args.output}")
            if len(repro.steps) > 10:
                print("FAIL: shrunk repro exceeds 10 steps")
                return 1
            return 0
    finally:
        if inject:
            monitor_mod.INJECT_STALE_POLICY_EPOCH = False

    if report.failures:
        repro = shrink_failure(report.failures[0])
        save_repro(args.output, repro)
        print(f"counterexample shrunk to {len(repro.steps)} steps "
              f"-> {args.output}")
        print(f"  replay: python -m repro verify --replay {args.output}")
        return 1
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        Analyzer,
        check_against_baseline,
        injected_module,
        load_baseline,
        render_baseline,
        render_json,
        render_text,
    )
    from repro.analysis.report import default_baseline_path

    rule_ids = [args.rule] if args.rule else None
    try:
        analyzer = Analyzer(rule_ids=rule_ids)
    except KeyError as exc:
        print(f"analyze: {exc.args[0]}", file=sys.stderr)
        return 2
    extra = []
    if args.inject_violation:
        try:
            extra.append(injected_module(args.inject_violation))
        except KeyError:
            from repro.analysis import RULES

            print(
                f"analyze: unknown rule id {args.inject_violation!r}; "
                f"known: {', '.join(sorted(RULES))}",
                file=sys.stderr,
            )
            return 2
    result = analyzer.run(extra=extra)

    baseline_path = (
        Path(args.baseline) if args.baseline else default_baseline_path()
    )
    if args.write_baseline:
        baseline_path.write_text(render_baseline(result))
        print(f"baseline written: {baseline_path} "
              f"({len(result.findings)} finding(s) accepted as debt)")
        return 0

    outcome = None
    if args.check:
        outcome = check_against_baseline(result, load_baseline(baseline_path))

    if args.json:
        print(render_json(result, outcome), end="")
    else:
        print(render_text(result, outcome))

    if outcome is not None:
        return 0 if outcome.clean else 1
    return 0 if not result.findings else 1


def cmd_report(args: argparse.Namespace) -> int:
    _register_experiments()
    print("# vTPM access-control reproduction — evaluation report\n")
    print(f"(quick mode: {args.quick})\n")
    for name in EXPERIMENTS:
        result = _run_experiment(name, args.quick)
        print(f"## {name}\n")
        print("```")
        print(result.render())
        print("```\n")
    return 0


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1; anything else is a usage error."""
    value = int(text)  # argparse reports a ValueError as a usage error
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0; anything else is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0 (so not nan or inf)."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number, got {text!r}"
        )
    return value


def _add_runner_options(parser: argparse.ArgumentParser) -> None:
    """The scenario runner's options, the same for every scenario."""
    parser.add_argument("--single", action="store_true",
                        help="one chaotic run only (skip control + replay)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write span trees of the chaotic run as JSONL "
                             "(- for stdout)")
    parser.add_argument("--conformance", action="store_true",
                        help="piggyback the reference-model oracle on every "
                             "authz decision of every run")
    parser.add_argument("--trace-sample", metavar="N", type=_positive_int,
                        default=1,
                        help="record 1-in-N root span trees (deterministic "
                             "head sampling; counters stay exact)")
    parser.set_defaults(fn=cmd_scenario)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="vTPM access control on Xen — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_demo = sub.add_parser("demo", help="run the quickstart flow")
    p_demo.add_argument("--mode", choices=["baseline", "improved"],
                        default="improved")
    p_demo.add_argument("--seed", type=int, default=2010)
    p_demo.set_defaults(fn=cmd_demo)

    p_chaos = sub.add_parser(
        "chaos",
        help="fault-injection demo: seeded chaos, zero state loss",
    )
    p_chaos.add_argument("--seed", type=int, default=2026)
    p_chaos.add_argument("--commands", type=_positive_int, default=None,
                         help="workload steps (default: 1000, or 600 "
                              "with --supervised)")
    p_chaos.add_argument("--supervised", action="store_true",
                         help="run the supervised resilience demo (health "
                              "state machine, breakers, admission control)")
    _add_runner_options(p_chaos)

    p_cluster = sub.add_parser(
        "cluster",
        help="multi-host fleet demo: storm + host crash, zero state loss",
    )
    p_cluster.add_argument("--seed", type=int, default=2027)
    p_cluster.add_argument("--hosts", type=_positive_int, default=4)
    p_cluster.add_argument("--guests", type=_positive_int, default=32)
    p_cluster.add_argument("--steps", type=_positive_int, default=96)
    _add_runner_options(p_cluster)

    p_attack = sub.add_parser("attack-matrix", help="run the attack toolkit")
    p_attack.add_argument("--mode", choices=["baseline", "improved", "both"],
                          default="both")
    p_attack.add_argument("--seed", type=int, default=42)
    p_attack.add_argument("--verbose", action="store_true")
    p_attack.set_defaults(fn=cmd_attack_matrix)

    p_exp = sub.add_parser("experiment", help="regenerate a table/figure")
    p_exp.add_argument("id", help="table1|fig1|table2|fig2|fig3|table3|fig4|"
                                  "table4|fig5|fig6|fig7|all")
    p_exp.add_argument("--quick", action="store_true",
                       help="smaller sizes for a fast run")
    p_exp.add_argument("--trace", metavar="PATH", default=None,
                       help="write span trees as JSONL (- for stdout)")
    p_exp.add_argument("--trace-sample", metavar="N", type=_positive_int,
                       default=1,
                       help="record 1-in-N root span trees (deterministic "
                            "head sampling)")
    p_exp.set_defaults(fn=cmd_experiment)

    p_trace = sub.add_parser(
        "trace",
        help="emit a synthetic trace, or run one workload with tracing on",
    )
    p_trace.add_argument(
        "workload", nargs="?", default=None,
        help="run this operation live (pcrread, seal, quote, …) and print "
             "its span trees; omit to emit a synthetic Poisson trace",
    )
    p_trace.add_argument("--mode", choices=["baseline", "improved"],
                         default="improved",
                         help="regime for a live workload run")
    p_trace.add_argument("--count", type=_positive_int, default=2,
                         help="repetitions of the live workload (default 2)")
    p_trace.add_argument("--guests", type=_positive_int, default=4)
    p_trace.add_argument("--rate", type=_positive_float, default=100.0,
                         help="commands per guest per second")
    p_trace.add_argument("--duration", type=_positive_float, default=1.0,
                         help="seconds of trace")
    p_trace.add_argument("--mix", default="mixed",
                         choices=["measurement-heavy", "sealed-storage",
                                  "attestation", "mixed"])
    p_trace.add_argument("--seed", type=int, default=1)
    p_trace.set_defaults(fn=cmd_trace)

    p_xm = sub.add_parser("xm", help="xm-style machine administration views")
    p_xm.add_argument("op", choices=["list", "info", "vcpu-list", "dump-core"])
    p_xm.add_argument("--mode", choices=["baseline", "improved"],
                      default="improved")
    p_xm.add_argument("--guests", type=_non_negative_int, default=2)
    p_xm.add_argument("--domid", type=int, default=0)
    p_xm.add_argument("--seed", type=int, default=2010)
    p_xm.set_defaults(fn=cmd_xm)

    p_replay = sub.add_parser("replay-trace",
                              help="replay a trace file against a platform")
    p_replay.add_argument("file", help="trace file path, or - for stdin")
    p_replay.add_argument("--mode", choices=["baseline", "improved"],
                          default="improved")
    p_replay.add_argument("--seed", type=int, default=2010)
    p_replay.set_defaults(fn=cmd_replay_trace)

    p_health = sub.add_parser(
        "health",
        help="run a short supervised scenario and print per-guest health",
    )
    p_health.add_argument("--seed", type=int, default=2026)
    p_health.add_argument("--commands", type=_positive_int, default=200)
    p_health.add_argument("--no-faults", dest="faults", action="store_false",
                          help="fault-free control run (everything healthy)")
    p_health.set_defaults(fn=cmd_health)

    p_verify = sub.add_parser(
        "verify",
        help="conformance verification: schedule explorer vs the "
             "reference-model oracle",
    )
    p_verify.add_argument("--budget", choices=["small", "deep"],
                          default="small",
                          help="exploration depth: small is the seeded CI "
                               "sweep (<60s), deep is the nightly sweep")
    p_verify.add_argument("--seed", type=int, default=2010)
    p_verify.add_argument("--target", type=_positive_int, default=None,
                          help="override the budget's distinct-schedule "
                               "target (smoke tests)")
    p_verify.add_argument("--output", metavar="PATH",
                          default="verify-repro.json",
                          help="where to write the shrunk repro JSON on "
                               "failure")
    p_verify.add_argument("--replay", metavar="FILE", default=None,
                          help="replay a repro artifact; exits 1 if the "
                               "violation reproduces")
    p_verify.add_argument("--inject-bug", choices=["cache-epoch"],
                          default=None,
                          help="self-check: plant an authz bug behind the "
                               "test-only hook (a rule write that drops no "
                               "cached decision) and require the explorer "
                               "to catch and shrink it")
    p_verify.set_defaults(fn=cmd_verify)

    p_analyze = sub.add_parser(
        "analyze",
        help="static analysis: fail-closed / determinism / secret-flow "
             "lints over the whole package",
    )
    p_analyze.add_argument("--rule", metavar="ID", default=None,
                           help="run one rule only (fail-closed, "
                                "determinism, secret-flow, audit-on-deny, "
                                "counter-registry)")
    p_analyze.add_argument("--check", action="store_true",
                           help="gate mode: exit 1 on any finding not in "
                                "the committed baseline, or on stale "
                                "baseline entries (CI uses this)")
    p_analyze.add_argument("--json", action="store_true",
                           help="machine-readable findings report on stdout")
    p_analyze.add_argument("--inject-violation", metavar="RULE", default=None,
                           help="self-check: plant RULE's example violation "
                                "into the walk; the run must then fail")
    p_analyze.add_argument("--baseline", metavar="PATH", default=None,
                           help="baseline file (default: "
                                "analysis-baseline.json at the repo root)")
    p_analyze.add_argument("--write-baseline", action="store_true",
                           help="accept the current findings as debt and "
                                "rewrite the baseline file")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_report = sub.add_parser("report", help="full evaluation as markdown")
    p_report.add_argument("--quick", action="store_true")
    p_report.set_defaults(fn=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
