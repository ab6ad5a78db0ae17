"""Deterministic schedule explorer for the access-control pipeline.

Drives N guests' command streams through the real platform — frontends,
rings, manager, monitor, cache, (optionally) supervisor — under many
distinct interleavings, checking the :mod:`repro.verify.model` oracle,
audit-chain integrity and the zero-silent-drop invariant at every step.

Interleavings come from three sources, all seeded and deterministic:

1. the **credit-scheduler base order** — the canonical interleaving the
   real :class:`~repro.xen.scheduler.CreditScheduler` produces for the
   round's per-guest streams and weights;
2. **seeded shuffles** — random interleavings that preserve each guest's
   program order;
3. **DPOR-lite neighbour swaps** — for every executed schedule, adjacent
   steps of different guests whose footprints conflict (same target
   instance, or one of them is a global event like a manager restart)
   are swapped to probe the orderings where races actually live.

Schedules are deduplicated globally, so the reported count is *distinct*
interleavings explored.  To keep host cost sane, many schedules share
one platform (RSA keygen dominates platform construction); the model
re-syncs from live state at every schedule boundary, and the shrinker
re-validates counterexamples on a fresh platform before minimizing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import AccessControlConfig, AccessMode
from repro.core.policy import CommandClass
from repro.core.reason import Reason
from repro.crypto.random_source import RandomSource
from repro.harness.builder import (
    GuestHandle,
    Platform,
    build_platform,
    fresh_timing_context,
)
from repro.sim.engine import Simulator
from repro.sim.timing import get_context
from repro.tpm import marshal
from repro.tpm.constants import TPM_SUCCESS
from repro.util.errors import ReproError
from repro.verify.model import Prediction, ReferenceModel, observed_identity

#: PCR indices the explorer touches (kept clear of the boot-measurement
#: range so hardware-anchored features stay inert)
PCR_RANGE = 8

#: command classes the policy-mutation ops cycle through
MUTABLE_CLASSES = (CommandClass.MEASURE, CommandClass.READ, CommandClass.USE_KEY)

#: ops that issue an actual TPM command (and therefore get a response)
COMMAND_OPS = ("extend", "pcr_read", "get_random", "cross_read")
#: administrative ops that mutate authz-relevant state
ADMIN_OPS = ("revoke", "grant", "forget", "reregister", "restart")

#: rough virtual-time cost per op, for credit-scheduler accounting
_OP_COST_US = {
    "extend": 30.0,
    "pcr_read": 12.0,
    "get_random": 15.0,
    "cross_read": 12.0,
    "revoke": 5.0,
    "grant": 5.0,
    "forget": 4.0,
    "reregister": 8.0,
    "restart": 400.0,
}


@dataclass(frozen=True)
class Step:
    """One schedule step: ``guest`` performs ``op`` (``arg`` disambiguates
    PCR index / command class / cross-read target)."""

    guest: int
    op: str
    arg: int = 0

    def to_json(self) -> Dict[str, object]:
        return {"guest": self.guest, "op": self.op, "arg": self.arg}

    @staticmethod
    def from_json(obj: Dict[str, object]) -> "Step":
        return Step(guest=int(obj["guest"]), op=str(obj["op"]),
                    arg=int(obj.get("arg", 0)))


@dataclass
class Violation:
    """One conformance failure: what the model said vs what happened."""

    kind: str  # oracle-mismatch | reason-code | denial-count | silent-drop | pcr-divergence | audit-chain
    step_index: int
    step: Optional[Step]
    predicted: str
    observed: str
    detail: str

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "step_index": self.step_index,
            "step": self.step.to_json() if self.step is not None else None,
            "predicted": self.predicted,
            "observed": self.observed,
            "detail": self.detail,
        }

    def describe(self) -> str:
        where = (
            f"step {self.step_index} ({self.step.op} by g{self.step.guest})"
            if self.step is not None else "end of schedule"
        )
        return (f"{self.kind} at {where}: predicted {self.predicted}, "
                f"observed {self.observed} — {self.detail}")


@dataclass
class FailingRun:
    """A violation plus the executed trace that led to it."""

    violation: Violation
    #: every step executed on the platform since it was built, including
    #: the failing one — the unit the shrinker minimizes
    trace: Tuple[Step, ...]
    #: the schedule being run when the violation fired
    schedule: Tuple[Step, ...]
    seed: int
    guests: int
    supervised: bool


@dataclass
class ExplorationReport:
    budget: str
    seed: int
    guests: int
    distinct_schedules: int = 0
    steps_executed: int = 0
    platforms_built: int = 0
    failures: List[FailingRun] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_lines(self) -> List[str]:
        lines = [
            f"budget={self.budget} seed={self.seed} guests={self.guests}",
            f"distinct schedules explored : {self.distinct_schedules}",
            f"steps executed              : {self.steps_executed}",
            f"platforms built             : {self.platforms_built}",
            f"oracle violations           : {len(self.failures)}",
        ]
        for failure in self.failures:
            lines.append("  " + failure.violation.describe())
        return lines


# -- wires -------------------------------------------------------------------------


def _measurement_for(step: Step) -> bytes:
    """Deterministic 20-byte measurement, a pure function of the step
    fields so shrunk/reordered traces extend identical values."""
    return hashlib.sha1(f"verify-m-{step.guest}-{step.arg}".encode()).digest()


# -- the runner --------------------------------------------------------------------


class ScheduleRunner:
    """Owns one platform and executes schedules against it.

    Steps run inside a :class:`~repro.sim.engine.Simulator` process that
    shares the timing-context clock (``charge()`` inside the pipeline
    advances it), with a yield point between steps and the real
    :class:`~repro.xen.scheduler.CreditScheduler` accounting each
    guest's consumed virtual time — so explored runs carry the same
    serialization structure as the throughput experiments.
    """

    def __init__(
        self, guests: int = 3, seed: int = 2010, supervised: bool = False,
        platform: Optional[Platform] = None,
    ) -> None:
        self.seed = seed
        self.supervised = supervised
        if platform is None:
            fresh_timing_context()
            platform = build_platform(
                AccessMode.IMPROVED,
                seed=seed,
                # Sealing and memory protection are orthogonal to the
                # authz decision surface and dominate build cost; the
                # explorer's platforms skip them.
                ac_config=AccessControlConfig(
                    seal_storage=False, protect_memory=False
                ),
                name=f"verify-{seed}",
            )
        self.platform = platform
        self.handles: List[GuestHandle] = [
            platform.guests[name] if name in platform.guests
            else platform.add_guest(name)
            for name in (f"g{i}" for i in range(guests))
        ]
        if supervised and platform.supervisor is None:
            platform.enable_supervision()
        self.model = ReferenceModel()
        #: every step executed since the platform was built
        self.history: List[Step] = []
        self.steps_executed = 0

    # -- model seeding ---------------------------------------------------------

    def sync_model(self) -> None:
        """Seed the model from live platform state (schedule boundary)."""
        platform = self.platform
        for index, handle in enumerate(self.handles):
            instance = platform.manager.instance(handle.instance_id)
            pcrs = {
                i: instance.device.state.pcrs.read(i)
                for i in range(PCR_RANGE)
            }
            supervisor = platform.supervisor
            turbulent = supervisor is not None and supervisor.record_for(
                handle.domain.uuid
            ).state.value != "healthy"
            self.model.sync_guest(
                f"g{index}",
                identity=observed_identity(platform.identities, handle.domain),
                grants=platform.policy.granted_classes(
                    handle.domain.measurement.hex(), handle.instance_id
                ),
                pcr_values=pcrs, health="turbulent" if turbulent else "healthy",
            )

    # -- execution -------------------------------------------------------------

    def run(self, steps: Sequence[Step]) -> List[Violation]:
        """Execute one schedule; returns the violations it produced."""
        self.sync_model()
        violations: List[Violation] = []
        sim = Simulator(clock=get_context().clock)
        from repro.xen.scheduler import CreditScheduler

        scheduler = CreditScheduler()
        for handle in self.handles:
            scheduler.add(handle.domain.domid)

        def driver():
            clock = get_context().clock
            for index, step in enumerate(steps):
                before_us = clock.now_us
                violation = self._execute_step(index, step)
                self.history.append(step)
                self.steps_executed += 1
                domid = self.handles[step.guest % len(self.handles)].domain.domid
                scheduler.account(
                    domid,
                    max(clock.now_us - before_us, _OP_COST_US[step.op]),
                )
                if violation is not None:
                    violations.append(violation)
                    return
                yield 1.0  # yield point between steps

        sim.spawn(driver(), name="verify-driver")
        sim.run()
        if not violations:
            violations.extend(self._end_of_run_checks(len(steps)))
        return violations

    def _execute_step(self, index: int, step: Step) -> Optional[Violation]:
        handles = self.handles
        guest = step.guest % len(handles)
        handle = handles[guest]
        name = f"g{guest}"
        platform = self.platform
        op = step.op

        if op == "restart":
            platform.restart_manager(clean=True)
            self.model.on_manager_restart()
            return None
        if op == "forget":
            platform.identities.forget(handle.domain.domid)
            self.model.on_identity_forgotten(name)
            return None
        if op == "reregister":
            if platform.identities.lookup(handle.domain.domid) is None:
                platform.identities.register(handle.domain)
            self.model.on_identity_reregistered(name)
            return None
        if op in ("grant", "revoke"):
            command_class = MUTABLE_CLASSES[step.arg % len(MUTABLE_CLASSES)]
            subject = handle.domain.measurement.hex()
            if op == "grant":
                platform.policy.add_rule(
                    subject, handle.instance_id, command_class
                )
                self.model.on_grant(name, command_class)
            else:
                doomed = [
                    rule.rule_id
                    for rule in platform.policy.rules_for_subject(subject)
                    if rule.instance == handle.instance_id
                    and rule.command_class is command_class
                ]
                for rule_id in doomed:
                    platform.policy.revoke_rule(rule_id)
                if doomed:
                    self.model.on_revoke(name, command_class)
            return None

        # -- command ops: predict, execute, check ------------------------------
        if op == "extend":
            wire = marshal.extend_wire(
                step.arg % PCR_RANGE, _measurement_for(step)
            )
            target, command_class = guest, CommandClass.MEASURE
        elif op == "pcr_read":
            wire = marshal.pcr_read_wire(step.arg % PCR_RANGE)
            target, command_class = guest, CommandClass.READ
        elif op == "get_random":
            wire = marshal.get_random_wire(16)
            target, command_class = guest, CommandClass.READ
        elif op == "cross_read":
            target = (guest + 1 + step.arg % max(1, len(handles) - 1)) % len(handles)
            if target == guest:  # single-guest runs have no cross target
                return None
            wire = marshal.pcr_read_wire(step.arg % PCR_RANGE)
            command_class = CommandClass.READ
        else:
            raise ReproError(f"unknown verify op {op!r}")

        target_name = f"g{target}"
        prediction = self.model.predict(name, target_name, command_class)
        monitor = platform.monitor
        denials_before = getattr(monitor, "denials", 0)

        if op == "cross_read":
            # A rogue backend claiming another guest's instance: hits the
            # manager directly with hypervisor-true caller domid but a
            # cross instance id — the binding check's exact threat model.
            [response] = platform.manager.handle_batch(
                handle.domain.domid, handles[target].instance_id, [wire]
            )
        else:
            response = handle.frontend.transport(wire)

        # Zero-silent-drop: every submitted frame gets a well-formed answer.
        if not response:
            return self._violation(
                "silent-drop", index, step, prediction,
                observed="no response frame",
                detail="command produced no response bytes",
            )
        try:
            code = marshal.parse_response(response).return_code
        except ReproError as exc:
            return self._violation(
                "silent-drop", index, step, prediction,
                observed=f"unparseable response ({exc})",
                detail="response frame failed to parse",
            )

        if code not in prediction.accept:
            return self._violation(
                "oracle-mismatch", index, step, prediction,
                observed=f"return code {code:#x}",
                detail=f"model accepts {sorted(prediction.accept)}",
            )
        if prediction.strict:
            delta = getattr(monitor, "denials", 0) - denials_before
            expected = 1 if prediction.verdict == "deny" else 0
            if delta != expected:
                return self._violation(
                    "denial-count", index, step, prediction,
                    observed=f"denial counter moved by {delta}",
                    detail=f"expected exactly {expected} for a "
                           f"{prediction.verdict}",
                )
            # The monitor's decision is the newest audit record.
            [record] = platform.audit.tail(1)
            if Reason.from_record(record.reason) is not prediction.reason:
                return self._violation(
                    "reason-code", index, step, prediction,
                    observed=f"audited {record.reason!r}",
                    detail="the monitor decided with a different code",
                )
        if op == "extend" and code == TPM_SUCCESS:
            self.model.apply_extend(
                name, step.arg % PCR_RANGE, _measurement_for(step)
            )
        return None

    def _end_of_run_checks(self, schedule_len: int) -> List[Violation]:
        violations: List[Violation] = []
        platform = self.platform
        for index, handle in enumerate(self.handles):
            name = f"g{index}"
            instance = platform.manager.instance(handle.instance_id)
            for pcr_index, expected in sorted(
                self.model.guests[name].pcrs.items()
            ):
                live = instance.device.state.pcrs.read(pcr_index)
                if live != expected:
                    violations.append(Violation(
                        kind="pcr-divergence",
                        step_index=schedule_len,
                        step=None,
                        predicted=f"{name} PCR{pcr_index}={expected.hex()[:16]}…",
                        observed=f"{live.hex()[:16]}…",
                        detail="shadow PCR bank diverged from the live "
                               "instance",
                    ))
        if not platform.audit.verify_chain():
            violations.append(Violation(
                kind="audit-chain",
                step_index=schedule_len,
                step=None,
                predicted="hash chain verifies",
                observed="verify_chain() == False",
                detail="audit log chain is not serializable",
            ))
        return violations

    @staticmethod
    def _violation(
        kind: str, index: int, step: Step, prediction: Prediction,
        observed: str, detail: str,
    ) -> Violation:
        return Violation(
            kind=kind,
            step_index=index,
            step=step,
            predicted=f"{prediction.verdict} ({prediction.reason.value})",
            observed=observed,
            detail=detail,
        )


# -- schedule generation ------------------------------------------------------------


def _generate_streams(
    seed: int, round_index: int, guests: int, ops_per_guest: int
) -> List[List[Step]]:
    """Per-guest command streams for one round, seeded and deterministic."""
    rng = RandomSource(f"verify-streams-{seed}-{round_index}".encode())
    streams: List[List[Step]] = []
    for guest in range(guests):
        stream: List[Step] = []
        for _ in range(ops_per_guest):
            roll = rng.randint_below(100)
            arg = rng.randint_below(PCR_RANGE)
            if roll < 30:
                stream.append(Step(guest, "extend", arg))
            elif roll < 45:
                stream.append(Step(guest, "pcr_read", arg))
            elif roll < 53:
                stream.append(Step(guest, "get_random"))
            elif roll < 65:
                stream.append(Step(guest, "cross_read", arg))
            elif roll < 77:
                stream.append(Step(guest, "revoke", arg))
            elif roll < 86:
                stream.append(Step(guest, "grant", arg))
            elif roll < 92:
                stream.append(Step(guest, "forget"))
            elif roll < 97:
                stream.append(Step(guest, "reregister"))
            else:
                stream.append(Step(guest, "restart"))
        streams.append(stream)
    return streams


def _credit_base_order(
    streams: Sequence[Sequence[Step]], weights: Sequence[int]
) -> Tuple[Step, ...]:
    """The canonical interleaving the real credit scheduler would pick."""
    from repro.xen.scheduler import CreditScheduler

    scheduler = CreditScheduler()
    remaining = {g: list(stream) for g, stream in enumerate(streams) if stream}
    for guest in remaining:
        scheduler.add(guest + 1, weight=weights[guest])
    order: List[Step] = []
    while remaining:
        domid = scheduler.pick_next()
        guest = domid - 1
        step = remaining[guest].pop(0)
        order.append(step)
        scheduler.account(domid, _OP_COST_US[step.op])
        if not remaining[guest]:
            scheduler.remove(domid)
            del remaining[guest]
    return tuple(order)


def _random_interleaving(
    streams: Sequence[Sequence[Step]], rng: RandomSource
) -> Tuple[Step, ...]:
    """A random interleaving preserving each guest's program order."""
    cursors = [0] * len(streams)
    total = sum(len(s) for s in streams)
    order: List[Step] = []
    while total:
        pick = rng.randint_below(total)
        for guest, stream in enumerate(streams):
            left = len(stream) - cursors[guest]
            if pick < left:
                order.append(stream[cursors[guest]])
                cursors[guest] += 1
                break
            pick -= left
        total -= 1
    return tuple(order)


def _footprint(step: Step, guests: int) -> Optional[Set[int]]:
    """Guest instances an op touches; ``None`` means global (conflicts
    with everything)."""
    if step.op == "restart":
        return None
    if step.op == "cross_read":
        target = (step.guest + 1 + step.arg % max(1, guests - 1)) % guests
        return {step.guest, target}
    return {step.guest}


def _conflicting(a: Step, b: Step, guests: int) -> bool:
    fa, fb = _footprint(a, guests), _footprint(b, guests)
    if fa is None or fb is None:
        return True
    return bool(fa & fb)


def _dpor_swaps(
    schedule: Tuple[Step, ...], guests: int, cap: int
) -> List[Tuple[Step, ...]]:
    """DPOR-lite: adjacent swaps at conflicting cross-guest pairs.

    Swapping steps of *different* guests preserves program order, so
    every variant is a legal interleaving of the same streams; pairs
    with disjoint footprints commute and are skipped (that pruning is
    the partial-order part).
    """
    variants: List[Tuple[Step, ...]] = []
    for i in range(len(schedule) - 1):
        a, b = schedule[i], schedule[i + 1]
        if a.guest == b.guest:
            continue
        if not _conflicting(a, b, guests):
            continue
        swapped = list(schedule)
        swapped[i], swapped[i + 1] = b, a
        variants.append(tuple(swapped))
        if len(variants) >= cap:
            break
    return variants


# -- the explorer -------------------------------------------------------------------


@dataclass(frozen=True)
class Budget:
    name: str
    guests: int
    ops_per_guest: int
    rounds: int
    shuffles_per_round: int
    dpor_cap: int
    target_schedules: int
    platform_batch: int


BUDGETS: Dict[str, Budget] = {
    "small": Budget(
        name="small", guests=3, ops_per_guest=5, rounds=60,
        shuffles_per_round=10, dpor_cap=12, target_schedules=600,
        platform_batch=40,
    ),
    "deep": Budget(
        name="deep", guests=4, ops_per_guest=8, rounds=400,
        shuffles_per_round=16, dpor_cap=24, target_schedules=5000,
        platform_batch=40,
    ),
}


def explore(
    budget: str | Budget = "small",
    seed: int = 2010,
    supervised: bool = False,
    max_failures: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> ExplorationReport:
    """Run one exploration sweep; stops at ``max_failures`` violations."""
    spec = BUDGETS[budget] if isinstance(budget, str) else budget
    report = ExplorationReport(
        budget=spec.name, seed=seed, guests=spec.guests
    )
    seen: Set[Tuple[Step, ...]] = set()
    runner: Optional[ScheduleRunner] = None
    in_batch = 0

    def fresh_runner() -> ScheduleRunner:
        report.platforms_built += 1
        return ScheduleRunner(
            guests=spec.guests,
            seed=seed + report.platforms_built,
            supervised=supervised,
        )

    def run_one(schedule: Tuple[Step, ...]) -> bool:
        """Execute one schedule; returns False when exploration must stop."""
        nonlocal runner, in_batch
        if runner is None or in_batch >= spec.platform_batch:
            runner = fresh_runner()
            in_batch = 0
        in_batch += 1
        steps_before = runner.steps_executed
        violations = runner.run(schedule)
        report.steps_executed += runner.steps_executed - steps_before
        report.distinct_schedules += 1
        if violations:
            report.failures.append(FailingRun(
                violation=violations[0],
                trace=tuple(runner.history),
                schedule=schedule,
                seed=seed,
                guests=spec.guests,
                supervised=supervised,
            ))
            # A poisoned platform would re-report the same failure for
            # every later schedule in the batch; start clean instead.
            runner = None
            in_batch = 0
            if len(report.failures) >= max_failures:
                return False
        return True

    rng = RandomSource(f"verify-interleave-{seed}".encode())
    for round_index in range(spec.rounds):
        if report.distinct_schedules >= spec.target_schedules:
            break
        streams = _generate_streams(
            seed, round_index, spec.guests, spec.ops_per_guest
        )
        weights = [128 + rng.randint_below(512) for _ in range(spec.guests)]
        candidates: List[Tuple[Step, ...]] = [
            _credit_base_order(streams, weights)
        ]
        for _ in range(spec.shuffles_per_round):
            candidates.append(_random_interleaving(streams, rng))
        executed_this_round: List[Tuple[Step, ...]] = []
        for schedule in candidates:
            if schedule in seen:
                continue
            seen.add(schedule)
            executed_this_round.append(schedule)
            if not run_one(schedule):
                return report
            if report.distinct_schedules >= spec.target_schedules:
                break
        # DPOR-lite second wave over what actually ran this round.
        for schedule in executed_this_round:
            if report.distinct_schedules >= spec.target_schedules:
                break
            for variant in _dpor_swaps(schedule, spec.guests, spec.dpor_cap):
                if variant in seen:
                    continue
                seen.add(variant)
                if not run_one(variant):
                    return report
                if report.distinct_schedules >= spec.target_schedules:
                    break
        if progress is not None and (round_index + 1) % 10 == 0:
            progress(
                f"round {round_index + 1}: "
                f"{report.distinct_schedules} schedules explored"
            )
    return report
