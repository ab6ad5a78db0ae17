"""The reconstructed evaluation: one runner per table/figure.

Each ``run_*`` function is self-contained: it installs a fresh timing
context, builds the platforms it needs, runs the workload, and returns a
:class:`~repro.metrics.tables.Table` whose ``render()`` prints the same
rows/series the paper's table or figure reports.  Every runner's defaults
are the published full size; ``repro experiment --quick`` shrinks them.
The benchmark files under ``benchmarks/`` are thin wrappers that call
these and print the rendering.

All latencies are *virtual* microseconds from the deterministic cost
model, so runs are bit-reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.config import AccessControlConfig, AccessMode
from repro.core.policy import CommandClass, PolicyEngine
from repro.crypto.random_source import RandomSource
from repro.harness.builder import Platform, build_platform, fresh_timing_context
from repro.metrics.stats import overhead_pct, summarize
from repro.metrics.tables import Table, pivot
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


def _session_for(platform: Platform, name: str) -> GuestSession:
    guest = platform.add_guest(name)
    return GuestSession(guest, platform.rng.fork(f"sess-{name}"))


# ---------------------------------------------------------------------------
# E1 / Table 1 — per-command latency, baseline vs improved
# ---------------------------------------------------------------------------


def run_command_latency(reps: int = 50, seed: int = 7) -> Table:
    """E1: drive every operation ``reps`` times in each regime."""
    points: List[tuple] = []  # (operation, mode, mean us)
    for mode in (AccessMode.BASELINE, AccessMode.IMPROVED):
        clock = fresh_timing_context().clock
        platform = build_platform(mode, seed=seed)
        session = _session_for(platform, "bench-guest")
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
            points.append((op, mode.value, summarize(samples).mean))
    return Table(
        "Table 1 — per-command vTPM latency",
        ["command", "baseline (ms)", "improved (ms)", "overhead (%)"],
        [
            (op, b / 1000.0, i / 1000.0, overhead_pct(b, i))
            for op, b, i in pivot(points)
        ],
    )


# ---------------------------------------------------------------------------
# E2 / Figure 1 — throughput vs number of concurrent VMs
# ---------------------------------------------------------------------------


def run_throughput_scaling(
    vm_counts: Sequence[int] = (1, 2, 4, 8, 16),
    ops_per_vm: int = 40,
    mix: CommandMix = MIX_MIXED,
    seed: int = 11,
) -> Table:
    """E2: round-robin a command mix across N guests through one manager.

    The manager serializes commands (single dispatch thread, as in the real
    daemon); the scheduler charges a context switch whenever the running
    guest changes, so more VMs pay more switching overhead in both regimes.
    """
    points: List[tuple] = []  # (VMs, mode, cmds/s)
    for mode in (AccessMode.BASELINE, AccessMode.IMPROVED):
        for vms in vm_counts:
            fresh_timing_context()
            platform = build_platform(mode, seed=seed + vms)
            sessions = [
                _session_for(platform, f"guest{i:02d}") for i in range(vms)
            ]
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
            ops = 0
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
                    ops += 1
            elapsed_us = clock.now_us - start
            points.append((vms, mode.value, ops / (elapsed_us / 1e6)))
    return Table(
        "Figure 1 — aggregate vTPM throughput vs concurrent VMs",
        ["VMs", "baseline (cmds/s)", "improved (cmds/s)", "loss (%)"],
        [(vms, b, i, -overhead_pct(b, i)) for vms, b, i in pivot(points)],
    )


# ---------------------------------------------------------------------------
# E3 / Table 2 — attack matrix
# ---------------------------------------------------------------------------


def run_attack_matrix_experiment(seed: int = 42) -> Table:
    """E3: the full attack matrix in both regimes."""
    from repro.attacks.scenarios import matrix_rows, run_attack_matrix

    fresh_timing_context()
    baseline = run_attack_matrix(AccessMode.BASELINE, seed=seed)
    improved = run_attack_matrix(AccessMode.IMPROVED, seed=seed)
    return Table(
        "Table 2 — attack outcomes by regime",
        ["attack", "stock Xen vTPM", "improved"],
        matrix_rows(baseline, improved),
    )


# ---------------------------------------------------------------------------
# E4 / Figure 2 — instance-creation latency vs population
# ---------------------------------------------------------------------------


def run_instance_creation(
    populations: Sequence[int] = (0, 1, 2, 4, 8, 16, 32),
    seed: int = 23,
) -> Table:
    """E4: create instances up to each population, timing the last one."""
    points: List[tuple] = []  # (existing instances, mode, creation ms)
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
    return Table(
        "Figure 2 — vTPM instance creation latency vs population",
        ["existing instances", "baseline (ms)", "improved (ms)"],
        pivot(points),
    )


# ---------------------------------------------------------------------------
# E5 / Figure 3 — migration time vs state size
# ---------------------------------------------------------------------------


def run_migration_sweep(
    nv_payload_kib: Sequence[int] = (0, 8, 32, 128),
    seed: int = 31,
) -> Table:
    """E5: migrate instances of growing state size between two platforms."""
    from repro.tpm.nvram import NV_PER_AUTHWRITE
    from repro.workloads.mixes import OWNER_AUTH

    points: List[tuple] = []  # (state KiB, mode, migration ms)
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
            # Provision ownership, a key, sealed data, NV and a counter.
            GuestSession(guest, source.rng.fork("mig-session"))
            # Grow the state with NV payload.
            if payload_kib:
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
            points.append(
                (round(state_kib, 1), mode.value, (clock.now_us - start) / 1000.0)
            )
    return Table(
        "Figure 3 — vTPM migration time vs instance state size",
        ["state (KiB)", "baseline (ms)", "improved (ms)"],
        pivot(points),
    )


# ---------------------------------------------------------------------------
# E6 / Table 3 — policy-engine decision latency vs rule count
# ---------------------------------------------------------------------------


def run_policy_scaling(
    rule_counts: Sequence[int] = (10, 100, 1_000, 10_000),
    lookups: int = 2_000,
    seed: int = 57,
) -> Table:
    """E6: pure policy-engine microbenchmark."""
    from repro.tpm.constants import TPM_ORD_Extend, TPM_ORD_PcrRead, TPM_ORD_Sign

    ordinals = (TPM_ORD_Extend, TPM_ORD_PcrRead, TPM_ORD_Sign)
    rows: List[tuple] = []  # (rules, mean decision us, p95 us)
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
        clock = get_context().clock
        samples = []
        for i in range(lookups):
            subject = subjects[i % len(subjects)]
            start = clock.now_us
            engine.decide(subject, i % max(1, instance), ordinals[i % 3])
            samples.append(clock.now_us - start)
        summary = summarize(samples)
        rows.append((rules, summary.mean, summary.p95))
    return Table(
        "Table 3 — policy decision latency vs policy size",
        ["rules installed", "mean decision (us)", "p95 (us)"],
        rows,
    )


# ---------------------------------------------------------------------------
# E7 / Figure 4 — application-level benchmark
# ---------------------------------------------------------------------------


def run_webapp_benchmark(
    requests: int = 2_000, cache_hit_ratio: float = 0.9, seed: int = 71
) -> Table:
    """E7: requests/s for no-vtpm vs baseline vTPM vs improved vTPM."""
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
    return Table(
        "Figure 4 — sealed-storage web server throughput",
        ["deployment", "requests/s", "slowdown vs no-vTPM (%)"],
        rows,
    )


# ---------------------------------------------------------------------------
# E8 / Table 4 — ablation: cost of each access-control component
# ---------------------------------------------------------------------------


_ABLATION_COMPONENTS = ("identity_check", "policy_check", "audit")


def run_ablation(
    ops: int = 150, mix: CommandMix = MIX_MIXED, seed: int = 83
) -> Table:
    """E8: per-command cost of each monitor component.

    Memory protection and sealed storage do not sit on the per-command path
    (they cost at creation/persistence time), so the per-command ablation
    covers the three monitor checks; the appendix table breaks the full
    configuration's ``ac.*`` cycles down by operation.
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
    return Table(
        "Table 4 — ablation of access-control components",
        ["configuration", "mean command (us)", "added vs all-off (us)"],
        [(label, mean, mean - base) for label, mean in means],
        appendix=Table(
            "Cost breakdown inside the full configuration",
            ["access-control op", "total cost (us)"],
            sorted(breakdown.items()),
        ),
    )


# ---------------------------------------------------------------------------
# E10 / Figure 6 — manager crash-recovery time vs instance count (extension)
# ---------------------------------------------------------------------------


def run_recovery_sweep(
    instance_counts: Sequence[int] = (1, 2, 4, 8),
    seed: int = 123,
) -> Table:
    """E10: time a manager restart as the instance population grows.

    The improved path pays one hardware-TPM unseal to re-earn the sealer
    root, plus per-instance state decryption — both visible here; the
    per-instance slope is dominated by storage I/O in both regimes.
    """
    points: List[tuple] = []  # (instances, mode, recovery ms)
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
    return Table(
        "Figure 6 — manager crash-recovery time vs instance count",
        ["instances", "baseline (ms)", "improved (ms)"],
        pivot(points),
    )


# ---------------------------------------------------------------------------
# E10b / Figure 6b — crash recovery under injected storage faults
# ---------------------------------------------------------------------------


def run_faulted_recovery(
    instance_counts: Sequence[int] = (1, 2, 4, 8),
    seed: int = 321,
) -> Table:
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

    rows: List[tuple] = []  # (instances, clean ms, faulted ms, faults, recoveries)
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
        rows.append(
            (
                count,
                clean_ms,
                faulted_ms,
                len(injector.events) + 1,  # corrupt reads + the torn write
                injector.recoveries + platform.storage.fallbacks,
            )
        )
    return Table(
        "Figure 6b — crash recovery with injected storage faults (improved)",
        ["instances", "clean (ms)", "faulted (ms)", "faults", "recoveries"],
        rows,
    )


# ---------------------------------------------------------------------------
# E11 / Figure 7 — ring batching: virtual latency vs batch size and VM count
# ---------------------------------------------------------------------------


def run_batching_sweep(
    batch_sizes: Sequence[int] = (1, 2, 4, 8, 16),
    vm_counts: Sequence[int] = (1, 2, 4),
    commands_per_vm: int = 64,
    seed: int = 97,
) -> Table:
    """E11: amortization of per-notify costs via batched ring submissions.

    Every VM pushes the same read-only command stream; batch size N means
    the front-end packs N frames per event-channel kick, so the notify and
    manager-demux charges spread over N commands.  Authorization is still
    per-command (the monitor's decision cache keeps that cheap), so the
    curve flattens toward the irreducible per-command work.
    """
    points: List[tuple] = []  # (VMs, batch size, us per command)
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
            ops = 0
            for guest in guests:
                remaining = commands_per_vm
                while remaining > 0:
                    chunk = min(batch, remaining)
                    if chunk == 1:
                        guest.frontend.transport(wire)
                    else:
                        guest.frontend.transport_batch([wire] * chunk)
                    remaining -= chunk
                    ops += chunk
            elapsed_us = clock.now_us - start
            points.append((vms, batch, elapsed_us / ops))
    columns = sorted(set(batch_sizes))
    return Table(
        "Figure 7 — per-command virtual latency vs ring batch size",
        ["VMs"] + [f"batch={b} (us/cmd)" for b in columns],
        pivot(points, columns),
    )
