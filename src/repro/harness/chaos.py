"""Chaos workload: a seeded 1000-command run that survives injected faults.

This is the robustness counterpart of the performance experiments: two
platforms, two guests, a deterministic command mix, periodic checkpoints,
one live migration and one hard manager crash — all driven under a
:class:`~repro.faults.plan.FaultPlan` that stalls rings, drops kicks,
tears state writes, fills the disk, corrupts reads, fails the device and
interrupts the migration.  The claim the demo checks is *zero state
loss*: the PCR and NV contents of every guest after the chaotic run are
byte-identical to a fault-free run of the same seed, and the same seed
reproduces the identical fault sequence twice.
"""

from __future__ import annotations

import contextlib
import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.config import AccessMode
from repro.faults import FaultInjector, FaultKind, FaultPlan, injector_scope, spec
from repro.harness.builder import Platform, build_platform, fresh_timing_context
from repro.metrics.recorder import LatencyRecorder
from repro.obs import counters as obs_counters
from repro.obs import trace as obs_trace
from repro.sim.timing import get_context
from repro.tpm import marshal
from repro.tpm.client import TpmClient
from repro.tpm.constants import NUM_PCRS, TPM_ORD_PcrRead
from repro.tpm.nvram import NV_PER_AUTHWRITE
from repro.util.errors import ReproError
from repro.vtpm.migration import migrate_with_recovery

#: the demo's fixed shape: deterministic, and long enough that every fault
#: kind in the default plan gets its chance to fire
DEFAULT_COMMANDS = 1_000
CHECKPOINT_EVERY = 100
MIGRATE_AT = 400
CRASH_AT = 700

OWNER_AUTH = b"chaos-owner-auth!!!!"
NV_AUTH = b"chaos-nv-area-auth!!"
NV_INDEX = 0x1100
NV_SIZE = 64


def default_chaos_plan(seed: int = 0) -> FaultPlan:
    """Every fault kind the injector knows, tuned to the demo workload.

    Schedules are call-count based, so they are deterministic for a given
    workload regardless of the seed; the seed only drives probabilistic
    specs (of which this plan has none) — it is kept in the plan so the
    report names the full reproduction recipe.
    """
    return FaultPlan(
        name="default-chaos",
        seed=seed,
        specs=(
            # Ring path: periodic stalls plus a few lost kicks.
            spec(FaultKind.RING_STALL, every=97),
            spec(FaultKind.RING_DROP_NOTIFY, every=211, max_fires=3),
            # Device path: transient bus errors on virtual TPMs only, plus
            # one isolated wedge (cleared by the next retry attempt — a
            # *consecutive* wedge storm is the supervised demo's job).
            spec(FaultKind.DEVICE_TRANSIENT, every=53, match={"device": "vtpm*"}),
            spec(FaultKind.WEDGE, at=(10,), match={"device": "vtpm*"}),
            # Supervisor probe path: inert here (the site only exists under
            # supervision) but keeps the plan covering every kind.
            spec(FaultKind.FLAP, at=(0,)),
            # Storage path: torn checkpoint writes, one full disk, one
            # corrupt read during crash recovery.
            spec(FaultKind.STORAGE_TORN_WRITE, every=5),
            spec(FaultKind.STORAGE_ENOSPC, at=(7,)),
            spec(FaultKind.STORAGE_READ_CORRUPT, at=(0,)),
            # Migration path: first transfer lost on the wire, second one
            # reaches a destination that immediately crashes.
            spec(FaultKind.MIGRATION_NET_DROP, at=(0,)),
            spec(FaultKind.MIGRATION_DEST_CRASH, at=(0,)),
        ),
    )


@dataclass
class ChaosReport:
    """Everything one chaos run produced, for comparison and display."""

    seed: int
    commands: int
    plan_name: str
    digests: Dict[str, str]
    fault_counts: Dict[str, int]
    total_faults: int
    retries: int
    recoveries: int
    event_signature: Tuple[Tuple[str, str, int], ...]
    audit_fault_records: int
    metrics_counts: Dict[str, int]
    mean_recovery_us: float
    elapsed_virtual_us: float
    #: hex chain head of platform A's audit log — the tracing
    #: non-interference oracle compares this byte-for-byte
    audit_chain_hex: str = ""
    #: decisions double-checked by the piggyback conformance oracle
    #: (0 unless the run was started with ``conformance=True``)
    conformance_checks: int = 0

    def summary_lines(self) -> list[str]:
        lines = [
            f"plan={self.plan_name} seed={self.seed} commands={self.commands}",
            f"faults injected: {self.total_faults} "
            f"({', '.join(f'{k}={v}' for k, v in sorted(self.fault_counts.items())) or 'none'})",
            f"retries={self.retries} recoveries={self.recoveries} "
            f"mean recovery latency={self.mean_recovery_us:.1f} us",
            f"audit fault records={self.audit_fault_records} "
            f"virtual time={self.elapsed_virtual_us / 1000.0:.2f} ms",
        ]
        for name, digest in sorted(self.digests.items()):
            lines.append(f"state[{name}] = {digest[:16]}…")
        return lines


def _direct_transport(manager, domid: int, instance_id: int):
    """A backend-equivalent transport for a migrated guest: the ring
    path's batch of one, retry envelope and degradation included."""

    def transport(wire: bytes) -> bytes:
        return manager.handle_batch(domid, instance_id, [wire])[0]

    return transport


def _state_digest(instance) -> str:
    """PCR + NV digest of one instance — the 'no state loss' yardstick."""
    state = instance.device.state
    h = hashlib.sha256()
    for index in range(NUM_PCRS):
        h.update(state.pcrs.read(index))
    for area in sorted(state.nv.areas(), key=lambda a: a.index):
        h.update(struct.pack(">II", area.index, len(area.data)))
        h.update(area.data)
    return h.hexdigest()


def run_chaos_workload(
    seed: int = 2026,
    commands: int = DEFAULT_COMMANDS,
    plan: Optional[FaultPlan] = None,
    mode: AccessMode = AccessMode.IMPROVED,
    tracer: Optional[obs_trace.Tracer] = None,
    counters: Optional[obs_counters.CounterRegistry] = None,
    conformance: bool = False,
) -> ChaosReport:
    """One full chaos run; ``plan=None`` means the fault-free control run.

    The workload script — command mix, checkpoint points, the migration
    at :data:`MIGRATE_AT`, the hard manager crash at :data:`CRASH_AT` —
    is identical with and without faults; only the injected chaos
    differs.  That is what makes the digest comparison meaningful.

    ``tracer``/``counters`` optionally observe the run: they are installed
    *after* the timing-context reset (a registry binds to the context it
    first records under), and the non-interference suite asserts they
    change no digest and no audit chain byte.

    ``conformance=True`` piggybacks the charge-free reference-model
    oracle (:mod:`repro.verify.oracle`) on every authorization decision
    and raises if the pipeline ever disagrees with it.
    """
    fresh_timing_context()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(obs_trace.tracer_scope(tracer))
        if counters is not None:
            stack.enter_context(obs_counters.registry_scope(counters))
        return _run_chaos_workload(seed, commands, plan, mode, conformance)


def _run_chaos_workload(
    seed: int,
    commands: int,
    plan: Optional[FaultPlan],
    mode: AccessMode,
    conformance: bool = False,
) -> ChaosReport:
    platform_a = build_platform(mode, seed=seed, name="chaos-a")
    platform_b = build_platform(mode, seed=seed + 1, name="chaos-b")
    oracles = []
    if conformance:
        from repro.verify.oracle import attach_oracle

        oracles = [attach_oracle(platform_a), attach_oracle(platform_b)]

    # -- setup (outside the injector's reach) --------------------------------------
    anchor = platform_a.add_guest("anchor")
    mover = platform_a.add_guest("mover")
    for guest in (anchor, mover):
        ek = guest.client.read_pubek()
        guest.client.take_ownership(OWNER_AUTH, b"s" * 20, ek)
        guest.client.nv_define(
            OWNER_AUTH, NV_INDEX, NV_SIZE, NV_PER_AUTHWRITE, NV_AUTH
        )

    workload_rng = platform_a.rng.fork("chaos-workload")
    metrics = LatencyRecorder()
    injector = FaultInjector(
        plan if plan is not None else FaultPlan(name="fault-free", seed=seed),
        audit=platform_a.audit,
        metrics=metrics,
    )

    clients: Dict[str, TpmClient] = {
        "anchor": anchor.client,
        "mover": mover.client,
    }
    mover_home: Tuple[Platform, str] = (platform_a, mover.domain.uuid)
    start_us = get_context().clock.now_us

    with injector_scope(injector):
        for step in range(1, commands + 1):
            name = "anchor" if workload_rng.randint_below(2) == 0 else "mover"
            client = clients[name]
            op = workload_rng.randint_below(100)
            if op < 50:
                client.extend(workload_rng.randint_below(16),
                              workload_rng.bytes(20))
            elif op < 75:
                client.get_random(16)
            elif op < 90:
                client.pcr_read(workload_rng.randint_below(16))
            else:
                client.nv_write(NV_AUTH, NV_INDEX,
                                workload_rng.randint_below(NV_SIZE - 32),
                                workload_rng.bytes(32))

            if step % CHECKPOINT_EVERY == 0:
                platform_a.manager.save_all()

            if step == MIGRATE_AT:
                # Live-migrate 'mover' to platform B; the injector may cut
                # the wire or crash the destination — the driver recovers.
                handle = platform_a.guests.pop("mover")
                target_vm = platform_b.xen.create_domain(
                    handle.domain.name,
                    kernel_image=handle.domain.kernel_image,
                    config=dict(handle.domain.config),
                )
                instance = migrate_with_recovery(
                    platform_a.migration, platform_b.migration,
                    handle.domain.uuid, target_vm,
                    sealed=mode is AccessMode.IMPROVED,
                )
                handle.frontend.close()
                if mode is AccessMode.IMPROVED:
                    platform_a.identities.forget(handle.domain.domid)
                platform_a.xen.destroy_domain(handle.domain.domid)
                clients["mover"] = TpmClient(
                    _direct_transport(
                        platform_b.manager, target_vm.domid,
                        instance.instance_id,
                    ),
                    platform_b.rng.fork("chaos-mover"),
                )
                mover_home = (platform_b, target_vm.uuid)

            if step == CRASH_AT:
                # Hard manager crash right after a command burst: the new
                # daemon recovers the last committed checkpoint — with the
                # injector free to corrupt the recovery reads.
                platform_a.manager.save_all()
                platform_a.restart_manager(clean=False)

        digests = {
            "anchor": _state_digest(
                platform_a.manager.instance_for_vm(anchor.domain.uuid)
            ),
            "mover": _state_digest(
                mover_home[0].manager.instance_for_vm(mover_home[1])
            ),
        }

    conformance_checks = 0
    if oracles:
        from repro.verify.oracle import settle_oracles

        conformance_checks = settle_oracles(oracles)

    recovery = metrics.samples("fault.recovery")
    return ChaosReport(
        seed=seed,
        commands=commands,
        plan_name=injector.plan.name,
        digests=digests,
        fault_counts=dict(injector.fault_counts),
        total_faults=len(injector.events),
        retries=injector.retries,
        recoveries=injector.recoveries,
        event_signature=injector.event_signature(),
        audit_fault_records=sum(
            1 for r in platform_a.audit.records()
            if r.operation.startswith("FAULT")
        ),
        metrics_counts={
            name: len(metrics.samples(name)) for name in metrics.names()
        },
        mean_recovery_us=(sum(recovery) / len(recovery)) if recovery else 0.0,
        elapsed_virtual_us=get_context().clock.now_us - start_us,
        audit_chain_hex=platform_a.audit.chain_head().hex(),
        conformance_checks=conformance_checks,
    )


def run_chaos_demo(
    seed: int = 2026,
    commands: int = DEFAULT_COMMANDS,
    plan: Optional[FaultPlan] = None,
    tracer: Optional[obs_trace.Tracer] = None,
    counters: Optional[obs_counters.CounterRegistry] = None,
) -> Dict[str, object]:
    """The acceptance demo: fault-free vs chaotic vs chaotic-again.

    Returns a result dict and raises :class:`AssertionError` if any of the
    three robustness claims fails — state loss, fault starvation, or
    non-determinism.  ``tracer``/``counters`` observe the *chaotic* run
    only; the determinism assertions then double as proof that observation
    changed nothing.
    """
    chaos_plan = plan if plan is not None else default_chaos_plan(seed)
    clean = run_chaos_workload(seed=seed, commands=commands, plan=None)
    chaotic = run_chaos_workload(
        seed=seed, commands=commands, plan=chaos_plan,
        tracer=tracer, counters=counters,
    )
    replay = run_chaos_workload(seed=seed, commands=commands, plan=chaos_plan)

    assert clean.total_faults == 0, "control run must be fault-free"
    assert len(chaotic.fault_counts) >= 4, (
        f"chaos plan only exercised {sorted(chaotic.fault_counts)}"
    )
    assert chaotic.digests == clean.digests, (
        "state loss: post-recovery PCR/NV diverged from the fault-free run"
    )
    assert chaotic.event_signature == replay.event_signature, (
        "non-determinism: same seed produced a different fault sequence"
    )
    assert chaotic.digests == replay.digests
    assert chaotic.audit_fault_records >= chaotic.total_faults
    return {
        "clean": clean,
        "chaotic": chaotic,
        "replay": replay,
        "state_preserved": True,
        "deterministic": True,
    }


# -- supervised chaos -----------------------------------------------------------------
#
# The resilience counterpart of the chaos demo above: one platform, three
# guests, a supervisor over every back-end.  A wedge storm drives the
# "victim" guest through the full quarantine → supervised-restart →
# re-attest → probe lifecycle (the first restart flaps on purpose), while
# the "bursty" guest floods the ring with oversized batches so admission
# control sheds on depth and deadline, and the "anchor" guest does normal
# state-changing work the whole time.  The oracles: zero silently dropped
# commands (every submitted frame gets exactly one well-formed response),
# every quarantined instance recovered-and-re-attested or explicitly
# failed, every guest's state digest byte-identical to the fault-free run,
# and breaker open/close sequences identical across same-seed runs.

SUPERVISED_COMMANDS = 600
#: global tpm.device.execute call index the wedge storm starts at
WEDGE_START = 40
#: a consecutive-wedge budget of 16 = four fully exhausted retry episodes
WEDGE_FIRES = 16
BURST_EVERY = 4
BURST_SIZE = 16


def supervised_chaos_plan(seed: int = 0) -> FaultPlan:
    """Wedge storm on the victim, one probe flap, background ring stalls.

    The wedge matches device ``vtpm2`` — the second guest added by
    :func:`run_supervised_chaos` — and fires on *every* matching call once
    the storm starts, which is what burns whole retry budgets and drives
    the health record into quarantine.  The restored instance gets a new
    device name, so recovery also ends the storm naturally.
    """
    return FaultPlan(
        name="supervised-chaos",
        seed=seed,
        specs=(
            spec(FaultKind.WEDGE, every=1, offset=WEDGE_START,
                 max_fires=WEDGE_FIRES, match={"device": "vtpm2"}),
            # The first supervised restart's health probe fails: the
            # instance flaps back to quarantine and restarts again.
            spec(FaultKind.FLAP, at=(0,)),
            spec(FaultKind.RING_STALL, every=131),
        ),
    )


@dataclass
class SupervisedChaosReport:
    """Everything one supervised chaos run produced."""

    seed: int
    commands: int
    plan_name: str
    digests: Dict[str, str]
    fault_counts: Dict[str, int]
    total_faults: int
    event_signature: Tuple[Tuple[str, str, int], ...]
    #: the zero-silent-drop ledger
    submitted: int
    answered: int
    malformed: int
    response_codes: Dict[int, int]
    #: per guest: shed counts by reason, admitted totals
    shed_counts: Dict[str, Dict[str, int]]
    admitted: Dict[str, int]
    #: per guest: the breaker's (state, virtual us) trail
    breaker_sequences: Dict[str, Tuple]
    health: Dict[str, Dict[str, object]]
    settled: bool
    elapsed_virtual_us: float
    audit_chain_hex: str = ""
    #: decisions double-checked by the piggyback conformance oracle
    conformance_checks: int = 0

    def summary_lines(self) -> list[str]:
        lines = [
            f"plan={self.plan_name} seed={self.seed} commands={self.commands}",
            f"faults injected: {self.total_faults} "
            f"({', '.join(f'{k}={v}' for k, v in sorted(self.fault_counts.items())) or 'none'})",
            f"ledger: submitted={self.submitted} answered={self.answered} "
            f"malformed={self.malformed}",
            "response codes: "
            + (", ".join(f"{code:#x}={n}"
                         for code, n in sorted(self.response_codes.items()))
               or "none"),
        ]
        for guest in sorted(self.health):
            record = self.health[guest]
            shed = self.shed_counts.get(guest, {})
            lines.append(
                f"{guest}: state={record['state']} restarts={record['restarts']} "
                f"admitted={self.admitted.get(guest, 0)} "
                f"shed={sum(shed.values())}"
                + (f" ({', '.join(f'{k}={v}' for k, v in sorted(shed.items()))})"
                   if shed else "")
            )
        for name, digest in sorted(self.digests.items()):
            lines.append(f"state[{name}] = {digest[:16]}…")
        lines.append(f"settled={self.settled} "
                     f"virtual time={self.elapsed_virtual_us / 1000.0:.2f} ms")
        return lines


def _pcr_read_wire(index: int) -> bytes:
    return marshal.build_command(TPM_ORD_PcrRead, index.to_bytes(4, "big"))


def run_supervised_chaos(
    seed: int = 2026,
    commands: int = SUPERVISED_COMMANDS,
    plan: Optional[FaultPlan] = None,
    mode: AccessMode = AccessMode.IMPROVED,
    tracer: Optional[obs_trace.Tracer] = None,
    counters: Optional[obs_counters.CounterRegistry] = None,
    conformance: bool = False,
) -> SupervisedChaosReport:
    """One supervised chaos run; ``plan=None`` is the fault-free control."""
    fresh_timing_context()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(obs_trace.tracer_scope(tracer))
        if counters is not None:
            stack.enter_context(obs_counters.registry_scope(counters))
        return _run_supervised_chaos(seed, commands, plan, mode, conformance)


def _run_supervised_chaos(
    seed: int,
    commands: int,
    plan: Optional[FaultPlan],
    mode: AccessMode,
    conformance: bool = False,
) -> SupervisedChaosReport:
    from repro.resilience import AdmissionConfig

    platform = build_platform(mode, seed=seed, name="supervised-chaos")
    oracles = []
    if conformance:
        from repro.verify.oracle import attach_oracle

        oracles = [attach_oracle(platform)]

    # -- setup (outside the injector's reach) --------------------------------------
    anchor = platform.add_guest("anchor")
    victim = platform.add_guest("victim")  # instance 2 — the wedge target
    bursty = platform.add_guest("bursty")
    for index in range(5):
        victim.client.extend(
            index, hashlib.sha1(f"victim-pcr-{index}".encode()).digest()
        )
    # The committed checkpoint every supervised restart restores from.
    platform.manager.save_all()

    supervisor = platform.enable_supervision(
        # A tight deadline budget so the bursty guest's oversized batches
        # shed on expected queueing delay as well as raw depth; single
        # frames (backlog 0) are never deadline-shed, so the anchor and
        # victim paths are unaffected.
        admission=AdmissionConfig(max_depth=8, deadline_us=150.0),
        # A short cooldown keeps the whole open → half-open → closed
        # breaker arc inside the run instead of parking it in drain().
        breaker_cooldown_us=2_000.0,
    )

    injector = FaultInjector(
        plan if plan is not None else FaultPlan(name="fault-free", seed=seed),
        audit=platform.audit,
    )
    workload_rng = platform.rng.fork("supervised-workload")

    submitted = 0
    answered = 0
    malformed = 0
    response_codes: Dict[int, int] = {}

    def note(response: bytes) -> None:
        nonlocal answered, malformed
        answered += 1
        try:
            code = marshal.parse_response(response).return_code
        except ReproError:
            malformed += 1
            return
        response_codes[code] = response_codes.get(code, 0) + 1

    start_us = get_context().clock.now_us
    with injector_scope(injector):
        for step in range(1, commands + 1):
            # The anchor does normal, state-changing trusted-computing work
            # throughout — its digest must not feel the chaos at all.
            op = workload_rng.randint_below(100)
            if op < 60:
                anchor.client.extend(
                    workload_rng.randint_below(NUM_PCRS),
                    workload_rng.bytes(20),
                )
            elif op < 85:
                anchor.client.pcr_read(workload_rng.randint_below(NUM_PCRS))
            else:
                anchor.client.get_random(16)

            # The victim drives one read per step, raw on the wire so shed
            # and degraded frames land in the ledger instead of raising.
            wire = _pcr_read_wire(step % NUM_PCRS)
            submitted += 1
            note(victim.frontend.transport(wire))

            # The bursty guest floods the ring with oversized batches.
            if step % BURST_EVERY == 0:
                burst = [
                    _pcr_read_wire((step + i) % NUM_PCRS)
                    for i in range(BURST_SIZE)
                ]
                submitted += len(burst)
                for response in bursty.frontend.transport_batch(burst):
                    note(response)

        # Settle: wait out cooldowns and probe until every breaker closes.
        supervisor.drain()

        digests = {
            name: _state_digest(
                platform.manager.instance_for_vm(handle.domain.uuid)
            )
            for name, handle in (
                ("anchor", anchor), ("victim", victim), ("bursty", bursty),
            )
        }

    conformance_checks = 0
    if oracles:
        from repro.verify.oracle import settle_oracles

        conformance_checks = settle_oracles(oracles)

    status = {entry["guest"]: entry for entry in supervisor.status()}
    return SupervisedChaosReport(
        seed=seed,
        commands=commands,
        plan_name=injector.plan.name,
        digests=digests,
        fault_counts=dict(injector.fault_counts),
        total_faults=len(injector.events),
        event_signature=injector.event_signature(),
        submitted=submitted,
        answered=answered,
        malformed=malformed,
        response_codes=dict(response_codes),
        shed_counts={g: dict(e["shed"]) for g, e in status.items()},
        admitted={g: e["admitted"] for g, e in status.items()},
        breaker_sequences={
            g: supervisor.breaker_for(e["vm"]).sequence()
            for g, e in status.items()
        },
        health=status,
        settled=supervisor.settled(),
        elapsed_virtual_us=get_context().clock.now_us - start_us,
        audit_chain_hex=platform.audit.chain_head().hex(),
        conformance_checks=conformance_checks,
    )


def run_supervised_chaos_demo(
    seed: int = 2026,
    commands: int = SUPERVISED_COMMANDS,
    plan: Optional[FaultPlan] = None,
) -> Dict[str, object]:
    """The supervised acceptance demo: fault-free vs chaotic vs replay.

    Raises :class:`AssertionError` if any resilience claim fails: a
    silently dropped command, a quarantined instance that neither
    recovered nor failed explicitly, chaos bleeding into unaffected
    guests' state, or a non-deterministic breaker schedule.
    """
    chaos_plan = plan if plan is not None else supervised_chaos_plan(seed)
    clean = run_supervised_chaos(seed=seed, commands=commands, plan=None)
    chaotic = run_supervised_chaos(seed=seed, commands=commands,
                                   plan=chaos_plan)
    replay = run_supervised_chaos(seed=seed, commands=commands,
                                  plan=chaos_plan)

    assert clean.total_faults == 0, "control run must be fault-free"
    assert chaotic.total_faults > 0, "chaos plan never fired"
    # Zero silent drops: every frame answered, every answer well-formed.
    for report in (clean, chaotic, replay):
        assert report.answered == report.submitted, (
            f"{report.plan_name}: {report.submitted - report.answered} "
            f"commands silently dropped"
        )
        assert report.malformed == 0, (
            f"{report.plan_name}: {report.malformed} malformed responses"
        )
    # Every quarantined instance was restored-and-re-attested (settled
    # healthy) or explicitly failed — never left in limbo.
    assert chaotic.settled, f"unsettled run: {chaotic.health}"
    assert any(
        record["restarts"] > 0 for record in chaotic.health.values()
    ), "the wedge storm never drove a supervised restart"
    # Chaos must not bleed into state: every guest's digest matches the
    # fault-free run (the victim's reads changed nothing after its
    # checkpoint, so even its restored state is byte-identical).
    assert chaotic.digests == clean.digests, (
        "state divergence from the fault-free run"
    )
    # Determinism: same seed, same fault sequence, same breaker schedule.
    assert chaotic.event_signature == replay.event_signature
    assert chaotic.breaker_sequences == replay.breaker_sequences
    assert chaotic.digests == replay.digests
    assert chaotic.shed_counts == replay.shed_counts
    return {
        "clean": clean,
        "chaotic": chaotic,
        "replay": replay,
        "zero_dropped": True,
        "deterministic": True,
    }
