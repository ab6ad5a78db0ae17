"""The reconstructed evaluation: one runner per table/figure.

Each ``run_*`` function is self-contained: it installs a fresh timing
context, builds the platforms it needs, runs the workload, and returns a
result object whose ``render()`` prints the same rows/series the paper's
table or figure reports.  The benchmark files under ``benchmarks/`` are
thin wrappers that call these and print the rendering.

All latencies are *virtual* microseconds from the deterministic cost
model, so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.config import AccessControlConfig, AccessMode
from repro.core.policy import ANY, CommandClass, PolicyEngine
from repro.harness.builder import Platform, build_platform, fresh_timing_context
from repro.metrics.stats import Summary, overhead_pct, summarize
from repro.metrics.tables import format_table
from repro.obs import trace as obs_trace
from repro.sim.timing import CostLedger, get_context, ledger_scope
from repro.tpm import marshal
from repro.vtpm.migration import migrate_with_recovery
from repro.workloads.mixes import (
    MIX_MIXED,
    OPERATIONS,
    CommandMix,
    GuestSession,
)

# ---------------------------------------------------------------------------
# E1 / Table 1 — per-command latency, baseline vs improved
# ---------------------------------------------------------------------------


@dataclass
class CommandLatencyResult:
    reps: int
    baseline: Dict[str, Summary]
    improved: Dict[str, Summary]

    def overhead_rows(self) -> List[tuple]:
        rows = []
        for op in OPERATIONS:
            b = self.baseline[op].mean
            i = self.improved[op].mean
            rows.append((op, b / 1000.0, i / 1000.0, overhead_pct(b, i)))
        return rows

    def max_overhead_pct(self) -> float:
        return max(row[3] for row in self.overhead_rows())

    def render(self) -> str:
        return format_table(
            ["command", "baseline (ms)", "improved (ms)", "overhead (%)"],
            self.overhead_rows(),
            title="Table 1 — per-command vTPM latency",
        )


def _session_for(platform: Platform, name: str) -> GuestSession:
    guest = platform.add_guest(name)
    return GuestSession(guest, platform.rng.fork(f"sess-{name}"))


def run_command_latency(reps: int = 50, seed: int = 7) -> CommandLatencyResult:
    """E1: drive every operation ``reps`` times in each regime."""
    results: Dict[str, Dict[str, Summary]] = {}
    for mode in (AccessMode.BASELINE, AccessMode.IMPROVED):
        clock = fresh_timing_context().clock
        platform = build_platform(mode, seed=seed)
        session = _session_for(platform, "bench-guest")
        summaries: Dict[str, Summary] = {}
        for op in OPERATIONS:
            # Warm once so first-use effects (session setup) don't skew.
            session.run_operation(op)
            samples: List[float] = []
            for rep in range(reps):
                start = clock.now_us
                with obs_trace.span(
                    "experiment.op", op=op, mode=mode.value, rep=rep
                ):
                    session.run_operation(op)
                samples.append(clock.now_us - start)
            summaries[op] = summarize(samples)
        results[mode.value] = summaries
    return CommandLatencyResult(
        reps=reps, baseline=results["baseline"], improved=results["improved"]
    )


# ---------------------------------------------------------------------------
# E2 / Figure 1 — throughput vs number of concurrent VMs
# ---------------------------------------------------------------------------


@dataclass
class ThroughputPoint:
    vms: int
    mode: str
    ops: int
    elapsed_us: float

    @property
    def ops_per_sec(self) -> float:
        return self.ops / (self.elapsed_us / 1e6) if self.elapsed_us > 0 else 0.0


@dataclass
class ThroughputScalingResult:
    points: List[ThroughputPoint]

    def series(self, mode: str) -> List[ThroughputPoint]:
        return sorted(
            (p for p in self.points if p.mode == mode), key=lambda p: p.vms
        )

    def rows(self) -> List[tuple]:
        rows = []
        for b, i in zip(self.series("baseline"), self.series("improved")):
            rows.append(
                (b.vms, b.ops_per_sec, i.ops_per_sec, -overhead_pct(b.ops_per_sec, i.ops_per_sec))
            )
        return rows

    def render(self) -> str:
        return format_table(
            ["VMs", "baseline (cmds/s)", "improved (cmds/s)", "loss (%)"],
            self.rows(),
            title="Figure 1 — aggregate vTPM throughput vs concurrent VMs",
        )


def run_throughput_scaling(
    vm_counts: Sequence[int] = (1, 2, 4, 8, 16),
    ops_per_vm: int = 40,
    mix: CommandMix = MIX_MIXED,
    seed: int = 11,
) -> ThroughputScalingResult:
    """E2: round-robin a command mix across N guests through one manager.

    The manager serializes commands (single dispatch thread, as in the real
    daemon); the scheduler charges a context switch whenever the running
    guest changes, so more VMs pay more switching overhead in both regimes.
    """
    points: List[ThroughputPoint] = []
    for mode in (AccessMode.BASELINE, AccessMode.IMPROVED):
        for vms in vm_counts:
            fresh_timing_context()
            platform = build_platform(mode, seed=seed + vms)
            sessions = [
                _session_for(platform, f"guest{i:02d}") for i in range(vms)
            ]
            from repro.crypto.random_source import RandomSource

            # Plans are mode-independent so both regimes run identical
            # command streams at every VM count.
            plans = [
                mix.sequence(
                    RandomSource(f"tput-plan-{seed}-{i}".encode()), ops_per_vm
                )
                for i in range(vms)
            ]
            clock = get_context().clock
            start = clock.now_us
            scheduler = platform.xen.scheduler
            total_ops = 0
            for round_idx in range(ops_per_vm):
                for vm_idx, session in enumerate(sessions):
                    run_start = clock.now_us
                    domid = session.guest.domain.domid
                    # The scheduler picks who runs; we then run that guest's
                    # next op.  With equal weights it degenerates to round
                    # robin, charging one context switch per guest change.
                    scheduler.pick_next()
                    session.run_operation(plans[vm_idx][round_idx])
                    scheduler.account(domid, clock.now_us - run_start)
                    total_ops += 1
            points.append(
                ThroughputPoint(
                    vms=vms,
                    mode=mode.value,
                    ops=total_ops,
                    elapsed_us=clock.now_us - start,
                )
            )
    return ThroughputScalingResult(points=points)


# ---------------------------------------------------------------------------
# E3 / Table 2 — attack matrix
# ---------------------------------------------------------------------------


@dataclass
class AttackMatrixResult:
    rows: List[tuple]  # (attack, baseline outcome, improved outcome)
    details: List  # AttackReport list, both regimes

    def render(self) -> str:
        return format_table(
            ["attack", "stock Xen vTPM", "improved"],
            self.rows,
            title="Table 2 — attack outcomes by regime",
        )

    def improvement_blocks_all(self) -> bool:
        return all(row[2] == "blocked" for row in self.rows)


def run_attack_matrix_experiment(seed: int = 42) -> AttackMatrixResult:
    """E3: the full attack matrix in both regimes."""
    from repro.attacks.scenarios import matrix_rows, run_attack_matrix

    fresh_timing_context()
    baseline = run_attack_matrix(AccessMode.BASELINE, seed=seed)
    improved = run_attack_matrix(AccessMode.IMPROVED, seed=seed)
    return AttackMatrixResult(
        rows=matrix_rows(baseline, improved), details=baseline + improved
    )


# ---------------------------------------------------------------------------
# E4 / Figure 2 — instance-creation latency vs population
# ---------------------------------------------------------------------------


@dataclass
class CreationLatencyResult:
    points: List[tuple]  # (existing instances, mode, creation ms)

    def rows(self) -> List[tuple]:
        by_count: Dict[int, Dict[str, float]] = {}
        for count, mode, ms in self.points:
            by_count.setdefault(count, {})[mode] = ms
        return [
            (count, values.get("baseline", 0.0), values.get("improved", 0.0))
            for count, values in sorted(by_count.items())
        ]

    def render(self) -> str:
        return format_table(
            ["existing instances", "baseline (ms)", "improved (ms)"],
            self.rows(),
            title="Figure 2 — vTPM instance creation latency vs population",
        )


def run_instance_creation(
    populations: Sequence[int] = (0, 1, 2, 4, 8, 16, 32),
    seed: int = 23,
) -> CreationLatencyResult:
    """E4: create instances up to each population, timing the last one."""
    points: List[tuple] = []
    for mode in (AccessMode.BASELINE, AccessMode.IMPROVED):
        fresh_timing_context()
        platform = build_platform(mode, seed=seed)
        clock = get_context().clock
        created = 0
        for target in sorted(populations):
            while created < target:
                domain = platform.xen.create_domain(
                    f"fill{created:03d}", kernel_image=f"k{created}".encode()
                )
                if mode is AccessMode.IMPROVED:
                    platform.identities.register(domain)
                platform.manager.create_instance(domain)
                created += 1
            probe = platform.xen.create_domain(
                f"probe{target:03d}", kernel_image=f"probe{target}".encode()
            )
            if mode is AccessMode.IMPROVED:
                platform.identities.register(probe)
            start = clock.now_us
            instance = platform.manager.create_instance(probe)
            points.append((target, mode.value, (clock.now_us - start) / 1000.0))
            platform.manager.destroy_instance(instance.instance_id, persist=False)
    return CreationLatencyResult(points=points)


# ---------------------------------------------------------------------------
# E5 / Figure 3 — migration time vs state size
# ---------------------------------------------------------------------------


@dataclass
class MigrationResult:
    points: List[tuple]  # (state KiB, mode, migration ms)

    def rows(self) -> List[tuple]:
        by_size: Dict[float, Dict[str, float]] = {}
        for size_kib, mode, ms in self.points:
            by_size.setdefault(round(size_kib, 1), {})[mode] = ms
        return [
            (size, v.get("baseline", 0.0), v.get("improved", 0.0))
            for size, v in sorted(by_size.items())
        ]

    def render(self) -> str:
        return format_table(
            ["state (KiB)", "baseline (ms)", "improved (ms)"],
            self.rows(),
            title="Figure 3 — vTPM migration time vs instance state size",
        )


def run_migration_sweep(
    nv_payload_kib: Sequence[int] = (0, 8, 32, 128),
    seed: int = 31,
) -> MigrationResult:
    """E5: migrate instances of growing state size between two platforms."""
    from repro.tpm.nvram import NV_PER_AUTHWRITE

    points: List[tuple] = []
    for mode in (AccessMode.BASELINE, AccessMode.IMPROVED):
        for payload_kib in nv_payload_kib:
            fresh_timing_context()
            source = build_platform(
                mode, seed=seed, name=f"src-{mode.value}-{payload_kib}",
                nv_capacity=max(2048, (payload_kib + 4) * 1024),
            )
            destination = build_platform(
                mode, seed=seed + 1, name=f"dst-{mode.value}-{payload_kib}",
            )
            guest = source.add_guest("migrant")
            session = GuestSession(guest, source.rng.fork("mig-session"))
            # Grow the state with NV payload.
            if payload_kib:
                from repro.workloads.mixes import OWNER_AUTH

                chunk_auth = b"migration-nv-auth!!!"
                guest.client.nv_define(
                    OWNER_AUTH, 0x3000, payload_kib * 1024, NV_PER_AUTHWRITE,
                    chunk_auth,
                )
                data = source.rng.fork("nv-data").bytes(payload_kib * 1024)
                guest.client.nv_write(chunk_auth, 0x3000, 0, data)
            instance = source.manager.instance(guest.instance_id)
            state_kib = len(instance.device.save_state_blob()) / 1024.0
            target_vm = destination.migration.landing_domain(guest.domain)
            clock = get_context().clock
            start = clock.now_us
            migrate_with_recovery(
                source.migration, destination.migration,
                guest.domain.uuid, target_vm,
            )
            points.append((state_kib, mode.value, (clock.now_us - start) / 1000.0))
    return MigrationResult(points=points)


# ---------------------------------------------------------------------------
# E6 / Table 3 — policy-engine decision latency vs rule count
# ---------------------------------------------------------------------------


@dataclass
class PolicyScalingResult:
    rows: List[tuple]  # (rules, mean decision us, p95 us)

    def render(self) -> str:
        return format_table(
            ["rules installed", "mean decision (us)", "p95 (us)"],
            self.rows,
            title="Table 3 — policy decision latency vs policy size",
        )

    def is_flat(self, tolerance: float = 0.25) -> bool:
        """Decision cost at the largest policy within tolerance of smallest."""
        if len(self.rows) < 2:
            return True
        first, last = self.rows[0][1], self.rows[-1][1]
        return abs(last - first) <= tolerance * max(first, 1e-9)


def run_policy_scaling(
    rule_counts: Sequence[int] = (10, 100, 1_000, 10_000),
    lookups: int = 2_000,
    seed: int = 57,
) -> PolicyScalingResult:
    """E6: pure policy-engine microbenchmark."""
    from repro.crypto.random_source import RandomSource

    rows: List[tuple] = []
    for rules in rule_counts:
        fresh_timing_context()
        rng = RandomSource(seed + rules)
        engine = PolicyEngine()
        subjects = [rng.bytes(32).hex() for _ in range(max(4, rules // 4))]
        classes = [c for c in CommandClass if c is not CommandClass.UNKNOWN]
        installed = 0
        instance = 0
        while installed < rules:
            engine.add_rule(
                subjects[installed % len(subjects)],
                instance,
                classes[installed % len(classes)],
            )
            installed += 1
            if installed % len(classes) == 0:
                instance += 1
        from repro.tpm.constants import TPM_ORD_Extend, TPM_ORD_PcrRead, TPM_ORD_Sign

        ordinals = (TPM_ORD_Extend, TPM_ORD_PcrRead, TPM_ORD_Sign)
        clock = get_context().clock
        samples = []
        for i in range(lookups):
            subject = subjects[i % len(subjects)]
            start = clock.now_us
            engine.decide(subject, i % max(1, instance), ordinals[i % 3])
            samples.append(clock.now_us - start)
        summary = summarize(samples)
        rows.append((rules, summary.mean, summary.p95))
    return PolicyScalingResult(rows=rows)


# ---------------------------------------------------------------------------
# E7 / Figure 4 — application-level benchmark
# ---------------------------------------------------------------------------


@dataclass
class WebAppBenchResult:
    rows: List[tuple]  # (deployment, req/s, slowdown vs no-vtpm %)

    def render(self) -> str:
        return format_table(
            ["deployment", "requests/s", "slowdown vs no-vTPM (%)"],
            self.rows,
            title="Figure 4 — sealed-storage web server throughput",
        )


def run_webapp_benchmark(
    requests: int = 2_000, cache_hit_ratio: float = 0.9, seed: int = 71
) -> WebAppBenchResult:
    """E7: requests/s for no-vtpm vs baseline vTPM vs improved vTPM."""
    from repro.crypto.random_source import RandomSource
    from repro.workloads.webapp import SealedStorageWebApp

    results = []
    fresh_timing_context()
    app = SealedStorageWebApp(
        RandomSource(seed), None, "no-vtpm", cache_hit_ratio=cache_hit_ratio
    )
    results.append(app.serve(requests))
    for mode, label in (
        (AccessMode.BASELINE, "baseline"),
        (AccessMode.IMPROVED, "improved"),
    ):
        fresh_timing_context()
        platform = build_platform(mode, seed=seed)
        session = _session_for(platform, "webserver")
        app = SealedStorageWebApp(
            RandomSource(seed), session, label, cache_hit_ratio=cache_hit_ratio
        )
        results.append(app.serve(requests))
    reference = results[0].requests_per_sec
    rows = [
        (
            r.deployment,
            r.requests_per_sec,
            overhead_pct(r.requests_per_sec, reference) if r.deployment != "no-vtpm"
            else 0.0,
        )
        for r in results
    ]
    return WebAppBenchResult(rows=rows)


# ---------------------------------------------------------------------------
# E8 / Table 4 — ablation: cost of each access-control component
# ---------------------------------------------------------------------------


@dataclass
class AblationResult:
    rows: List[tuple]  # (configuration, mean cmd latency us, delta vs none us)
    breakdown: Dict[str, float]  # component op prefix -> total us (full config)

    def render(self) -> str:
        table = format_table(
            ["configuration", "mean command (us)", "added vs all-off (us)"],
            self.rows,
            title="Table 4 — ablation of access-control components",
        )
        breakdown_rows = [
            (op, cost) for op, cost in sorted(self.breakdown.items())
        ]
        table += "\n\n" + format_table(
            ["access-control op", "total cost (us)"],
            breakdown_rows,
            title="Cost breakdown inside the full configuration",
        )
        return table


# ---------------------------------------------------------------------------
# E10 / Figure 6 — manager crash-recovery time vs instance count (extension)
# ---------------------------------------------------------------------------


@dataclass
class RecoveryResult:
    points: List[tuple]  # (instances, mode, recovery ms)

    def rows(self) -> List[tuple]:
        by_count: Dict[int, Dict[str, float]] = {}
        for count, mode, ms in self.points:
            by_count.setdefault(count, {})[mode] = ms
        return [
            (count, v.get("baseline", 0.0), v.get("improved", 0.0))
            for count, v in sorted(by_count.items())
        ]

    def render(self) -> str:
        return format_table(
            ["instances", "baseline (ms)", "improved (ms)"],
            self.rows(),
            title="Figure 6 — manager crash-recovery time vs instance count",
        )


def run_recovery_sweep(
    instance_counts: Sequence[int] = (1, 2, 4, 8),
    seed: int = 123,
) -> RecoveryResult:
    """E10: time a manager restart as the instance population grows.

    The improved path pays one hardware-TPM unseal to re-earn the sealer
    root, plus per-instance state decryption — both visible here; the
    per-instance slope is dominated by storage I/O in both regimes.
    """
    points: List[tuple] = []
    for mode in (AccessMode.BASELINE, AccessMode.IMPROVED):
        for count in instance_counts:
            fresh_timing_context()
            platform = build_platform(
                mode, seed=seed, name=f"rec-{mode.value}-{count}"
            )
            for i in range(count):
                platform.add_guest(f"guest{i:02d}")
            clock = get_context().clock
            start = clock.now_us
            recovered = platform.restart_manager()
            assert recovered == count
            points.append((count, mode.value, (clock.now_us - start) / 1000.0))
    return RecoveryResult(points=points)


# ---------------------------------------------------------------------------
# E10b / Figure 6b — crash recovery under injected storage faults
# ---------------------------------------------------------------------------


@dataclass
class FaultedRecoveryResult:
    points: List[tuple]  # (instances, clean ms, faulted ms, faults, recoveries)

    def rows(self) -> List[tuple]:
        return list(self.points)

    def render(self) -> str:
        return format_table(
            ["instances", "clean (ms)", "faulted (ms)", "faults", "recoveries"],
            self.points,
            title=(
                "Figure 6b — crash recovery with injected storage faults "
                "(improved)"
            ),
        )


def run_faulted_recovery(
    instance_counts: Sequence[int] = (1, 2, 4, 8),
    seed: int = 321,
) -> FaultedRecoveryResult:
    """E10b: recovery latency when the crash is *not* clean.

    Each faulted platform crashes hard mid-checkpoint: the newest state
    generation of one instance is torn on disk, and the recovery reads
    then hit transient corruption.  The restart must fall back a
    generation for the torn instance and re-read through the corruption
    — so the faulted column is the measured price of the crash-consistency
    machinery doing real work, next to a clean hard restart of the same
    population.
    """
    from repro.faults import (
        FaultInjector,
        FaultKind,
        FaultPlan,
        injector_scope,
        spec,
    )
    from repro.util.errors import FaultInjected

    def _populated(label: str, count: int) -> Platform:
        fresh_timing_context()
        platform = build_platform(
            AccessMode.IMPROVED, seed=seed, name=f"frec-{label}-{count}"
        )
        for i in range(count):
            platform.add_guest(f"guest{i:02d}")
        platform.manager.save_all()
        return platform

    points: List[tuple] = []
    for count in instance_counts:
        # Reference: a hard restart with intact state files.
        platform = _populated("clean", count)
        clock = get_context().clock
        start = clock.now_us
        assert platform.restart_manager(clean=False) == count
        clean_ms = (clock.now_us - start) / 1000.0

        # Faulted: the checkpoint preceding the crash dies mid-write...
        platform = _populated("fault", count)
        crash_plan = FaultPlan(
            name="crash-mid-save", seed=seed,
            specs=(spec(FaultKind.STORAGE_TORN_WRITE, at=(0,),
                        transient=False),),
        )
        with injector_scope(FaultInjector(crash_plan)):
            try:
                platform.manager.save_all()
            except FaultInjected:
                pass  # the manager is 'dead'; a torn generation is on disk
        # ...and the recovery reads hit transient corruption on top.
        recovery_plan = FaultPlan(
            name="recovery-chaos", seed=seed,
            specs=(spec(FaultKind.STORAGE_READ_CORRUPT, every=3),),
        )
        clock = get_context().clock
        start = clock.now_us
        with injector_scope(FaultInjector(recovery_plan)) as injector:
            assert platform.restart_manager(clean=False) == count
        faulted_ms = (clock.now_us - start) / 1000.0
        points.append(
            (
                count,
                clean_ms,
                faulted_ms,
                len(injector.events) + 1,  # corrupt reads + the torn write
                injector.recoveries + platform.storage.fallbacks,
            )
        )
    return FaultedRecoveryResult(points=points)


_ABLATION_COMPONENTS = ("identity_check", "policy_check", "audit")


def run_ablation(
    ops: int = 150, mix: CommandMix = MIX_MIXED, seed: int = 83
) -> AblationResult:
    """E8: per-command cost of each monitor component.

    Memory protection and sealed storage do not sit on the per-command path
    (they cost at creation/persistence time), so the per-command ablation
    covers the three monitor checks; the breakdown ledger shows where the
    full configuration's cycles go.
    """
    configs: List[tuple[str, AccessControlConfig]] = [
        ("all-off", AccessControlConfig.all_off())
    ]
    for component in _ABLATION_COMPONENTS:
        configs.append((f"only {component}", AccessControlConfig.all_off().with_only(component)))
    configs.append(
        ("full (cache off)", AccessControlConfig.all_on().without("authz_cache"))
    )
    configs.append(("full", AccessControlConfig.all_on()))

    from repro.crypto.random_source import RandomSource

    # One fixed plan for every configuration, so the only difference
    # between rows is the monitor components themselves.
    plan = mix.sequence(RandomSource(f"ablation-plan-{seed}".encode()), ops)
    means: List[tuple[str, float]] = []
    breakdown: Dict[str, float] = {}
    for label, config in configs:
        fresh_timing_context()
        platform = build_platform(
            AccessMode.IMPROVED, seed=seed, ac_config=config, name=f"abl-{label}"
        )
        session = _session_for(platform, "ablation-guest")
        clock = get_context().clock
        ledger = CostLedger(name=label)
        with ledger_scope(ledger):
            start = clock.now_us
            for op in plan:
                session.run_operation(op)
            elapsed = clock.now_us - start
        means.append((label, elapsed / ops))
        if label == "full":
            breakdown = {
                op: cost
                for op, cost in ledger.cost_by_op.items()
                if op.startswith("ac.")
            }
    base = means[0][1]
    rows = [(label, mean, mean - base) for label, mean in means]
    return AblationResult(rows=rows, breakdown=breakdown)


# ---------------------------------------------------------------------------
# E11 / Figure 7 — ring batching: virtual latency vs batch size and VM count
# ---------------------------------------------------------------------------


@dataclass
class BatchingResult:
    points: List[tuple]  # (vms, batch size, ops, elapsed us)

    def rows(self) -> List[tuple]:
        batch_sizes = sorted({p[1] for p in self.points})
        by_vms: Dict[int, Dict[int, float]] = {}
        for vms, batch, ops, elapsed_us in self.points:
            per_cmd = elapsed_us / ops if ops else 0.0
            by_vms.setdefault(vms, {})[batch] = per_cmd
        return [
            (vms, *(cols.get(b, 0.0) for b in batch_sizes))
            for vms, cols in sorted(by_vms.items())
        ]

    def render(self) -> str:
        batch_sizes = sorted({p[1] for p in self.points})
        return format_table(
            ["VMs"] + [f"batch={b} (us/cmd)" for b in batch_sizes],
            self.rows(),
            title="Figure 7 — per-command virtual latency vs ring batch size",
        )

    def speedup(self, vms: int) -> float:
        """Per-command latency ratio, smallest batch vs largest batch."""
        cols = {b: e / ops for v, b, ops, e in self.points if v == vms and ops}
        if not cols:
            return 1.0
        smallest, largest = min(cols), max(cols)
        return cols[smallest] / cols[largest] if cols[largest] else 1.0


def run_batching_sweep(
    batch_sizes: Sequence[int] = (1, 2, 4, 8, 16),
    vm_counts: Sequence[int] = (1, 2, 4),
    commands_per_vm: int = 64,
    seed: int = 97,
) -> BatchingResult:
    """E11: amortization of per-notify costs via batched ring submissions.

    Every VM pushes the same read-only command stream; batch size N means
    the front-end packs N frames per event-channel kick, so the notify and
    manager-demux charges spread over N commands.  Authorization is still
    per-command (the monitor's decision cache keeps that cheap), so the
    curve flattens toward the irreducible per-command work.
    """
    points: List[tuple] = []
    wire = marshal.pcr_read_wire(10)
    for vms in vm_counts:
        for batch in batch_sizes:
            fresh_timing_context()
            platform = build_platform(
                AccessMode.IMPROVED, seed=seed, name=f"batch-{vms}-{batch}"
            )
            guests = [platform.add_guest(f"guest{i:02d}") for i in range(vms)]
            clock = get_context().clock
            start = clock.now_us
            total_ops = 0
            for guest in guests:
                remaining = commands_per_vm
                while remaining > 0:
                    chunk = min(batch, remaining)
                    if chunk == 1:
                        guest.frontend.transport(wire)
                    else:
                        guest.frontend.transport_batch([wire] * chunk)
                    remaining -= chunk
                    total_ops += chunk
            points.append((vms, batch, total_ops, clock.now_us - start))
    return BatchingResult(points=points)
