"""One scenario runner for the chaos, supervised-chaos and cluster harnesses.

A harness is a :class:`Scenario`: topology, guest setup, per-step
workload, default fault plan and its own extra checks.  The plumbing
they share lives here once: :func:`run_once` (one observed, optionally
oracle-checked run under the fault injector), :class:`ResponseLedger`
(the zero-silent-drop ledger), :func:`run_demo` (control, chaotic and
replay runs plus the shared invariants) and :class:`RunReport` (the
shared report fields and summary lines).
"""

from __future__ import annotations

import contextlib
import hashlib
import struct
from dataclasses import asdict, dataclass, field
from typing import ClassVar, Dict, List, NamedTuple, Optional, Tuple

from repro.faults import FaultInjector, FaultPlan, injector_scope
from repro.harness.builder import fresh_timing_context
from repro.obs import counters as obs_counters
from repro.obs import trace as obs_trace
from repro.tpm import marshal
from repro.tpm.constants import NUM_PCRS
from repro.util.errors import ReproError


def state_digest(instance) -> str:
    """PCR + NV digest of one instance — the 'no state loss' yardstick."""
    state = instance.device.state
    h = hashlib.sha256()
    for index in range(NUM_PCRS):
        h.update(state.pcrs.read(index))
    for area in sorted(state.nv.areas(), key=lambda a: a.index):
        h.update(struct.pack(">II", area.index, len(area.data)))
        h.update(area.data)
    return h.hexdigest()


@contextlib.contextmanager
def observed(tracer=None, counters=None):
    """Install ``tracer`` and ``counters`` for the block; ``None`` skips one."""
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(obs_trace.tracer_scope(tracer))
        if counters is not None:
            stack.enter_context(obs_counters.registry_scope(counters))
        yield


@dataclass
class ResponseLedger:
    """Every raw frame a workload submitted, and what came back."""

    submitted: int = 0
    answered: int = 0
    malformed: int = 0
    response_codes: Dict[int, int] = field(default_factory=dict)

    def answer(self, response: bytes) -> None:
        self.answered += 1
        try:
            code = marshal.parse_response(response).return_code
        except ReproError:
            self.malformed += 1
            return
        self.response_codes[code] = self.response_codes.get(code, 0) + 1


@dataclass(kw_only=True)
class RunReport:
    """What every run reports.  Each scenario's report adds its own
    fields, ``shape()`` (the run's size, for the first summary line) and
    ``detail_lines()`` (printed between the fault line and the digests).
    """

    seed: int
    plan_name: str
    #: per-guest PCR/NV digest of the final instance, wherever it lives
    digests: Dict[str, str]
    fault_counts: Dict[str, int]
    total_faults: int
    event_signature: Tuple[Tuple[str, str, int], ...]
    retries: int
    recoveries: int
    #: fault records on the injector's audit log
    audit_fault_records: int
    mean_recovery_us: float
    #: the zero-silent-drop ledger (empty for workloads that only use
    #: raising client calls)
    submitted: int
    answered: int
    malformed: int
    response_codes: Dict[int, int]
    elapsed_virtual_us: float
    #: hex chain head of the audit log the injector writes to — the
    #: tracing non-interference oracle compares this byte-for-byte
    audit_chain_hex: str
    #: decisions double-checked by the piggyback conformance oracle
    #: (0 unless the run was started with ``conformance=True``)
    conformance_checks: int

    #: state digests printed by :meth:`summary_lines` (``None``: all)
    digests_shown: ClassVar[Optional[int]] = None

    def ledger_line(self) -> str:
        return (f"ledger: submitted={self.submitted} "
                f"answered={self.answered} malformed={self.malformed}")

    def summary_lines(self) -> List[str]:
        faults = ", ".join(
            f"{k}={v}" for k, v in sorted(self.fault_counts.items())
        )
        lines = [
            f"plan={self.plan_name} seed={self.seed} {self.shape()}",
            f"faults injected: {self.total_faults} ({faults or 'none'})",
            *self.detail_lines(),
        ]
        shown = sorted(self.digests.items())[:self.digests_shown]
        lines += [f"state[{name}] = {digest[:16]}…" for name, digest in shown]
        if len(self.digests) > len(shown):
            lines.append(f"… and {len(self.digests) - len(shown)} "
                         f"more guests, all digested")
        return lines


class Scenario:
    """One harness's own part of a run.

    Subclasses are dataclasses of their knobs (``seed`` among them) with
    a ``title``, ``steps`` and these hooks, called in this order:
    ``build()`` makes the topology, sets ``audit`` (the injector's log)
    and returns every platform before any guest exists; ``setup()`` adds
    the guests outside the injector's reach; ``step(step, ledger)`` runs
    steps 1…``steps`` and ``finish()`` settles and returns per-guest
    state digests, both under the injector; ``report(**shared)`` builds
    the report.  :func:`run_demo` and the CLI use ``default_plan()``,
    ``control()``, ``check(result)`` (the scenario's own invariants) and
    ``verdict_lines(result)``.  Every run rebuilds the per-run state, so
    one object serves a whole demo.
    """

    def control(self) -> "Scenario":
        """The fault-free control run's scenario: this one by default."""
        return self


def run_once(
    scenario: Scenario,
    plan: Optional[FaultPlan] = None,
    *,
    tracer: Optional[obs_trace.Tracer] = None,
    counters: Optional[obs_counters.CounterRegistry] = None,
    conformance: bool = False,
) -> RunReport:
    """One run of ``scenario``; ``plan=None`` is the fault-free control.

    ``tracer``/``counters`` are installed *after* the timing-context
    reset (a registry binds to the context it first records under).
    ``conformance=True`` piggybacks the charge-free reference-model
    oracle (:mod:`repro.verify.oracle`) on every platform's monitor and
    raises if any authorization decision disagrees with it.
    """
    # verify sits above harness: imported here, not at module load
    from repro.verify.oracle import attach_oracle, settle_oracles

    clock = fresh_timing_context().clock
    with observed(tracer, counters):
        platforms = scenario.build()
        oracles = [attach_oracle(p) for p in platforms] if conformance else []
        scenario.setup()
        injector = FaultInjector(
            plan if plan is not None
            else FaultPlan(name="fault-free", seed=scenario.seed),
            audit=scenario.audit,
        )
        ledger = ResponseLedger()
        start_us = clock.now_us
        with injector_scope(injector):
            for step in range(1, scenario.steps + 1):
                scenario.step(step, ledger)
            digests = scenario.finish()

        conformance_checks = settle_oracles(oracles)
        return scenario.report(
            seed=scenario.seed,
            plan_name=injector.plan.name,
            digests=digests,
            fault_counts=dict(injector.fault_counts),
            total_faults=len(injector.events),
            event_signature=injector.event_signature(),
            retries=injector.retries,
            recoveries=injector.recoveries,
            audit_fault_records=scenario.audit.count(
                lambda fields: fields[2].startswith("FAULT")
            ),
            mean_recovery_us=(injector.recovery_us / injector.recoveries
                              if injector.recoveries else 0.0),
            **asdict(ledger),
            elapsed_virtual_us=clock.now_us - start_us,
            audit_chain_hex=scenario.audit.chain_head().hex(),
            conformance_checks=conformance_checks,
        )


class ScenarioResult(NamedTuple):
    """The three runs of one demo, and the invariants they share."""

    control: RunReport
    chaotic: RunReport
    replay: RunReport

    @property
    def zero_dropped(self) -> bool:
        return all(r.answered == r.submitted and r.malformed == 0 for r in self)

    @property
    def state_preserved(self) -> bool:
        return self.chaotic.digests == self.control.digests

    @property
    def deterministic(self) -> bool:
        return (self.chaotic.event_signature == self.replay.event_signature
                and self.chaotic.digests == self.replay.digests)

    @property
    def conformance_checks(self) -> int:
        return sum(r.conformance_checks for r in self)


def run_demo(
    scenario: Scenario,
    plan: Optional[FaultPlan] = None,
    *,
    tracer: Optional[obs_trace.Tracer] = None,
    counters: Optional[obs_counters.CounterRegistry] = None,
    conformance: bool = False,
) -> ScenarioResult:
    """The acceptance demo: fault-free control vs chaotic vs replay.

    ``plan`` defaults to the scenario's own.  ``tracer``/``counters``
    observe the chaotic run only, so the replay comparison doubles as
    the observer non-interference check; ``conformance`` applies to all
    three runs.  Raises :class:`AssertionError` if a shared invariant or
    one of the scenario's own fails.
    """
    chaos_plan = plan if plan is not None else scenario.default_plan()
    result = ScenarioResult(
        control=run_once(scenario.control(), conformance=conformance),
        chaotic=run_once(scenario, chaos_plan, tracer=tracer,
                         counters=counters, conformance=conformance),
        replay=run_once(scenario, chaos_plan, conformance=conformance),
    )
    assert result.control.total_faults == 0, "control run must be fault-free"
    assert result.chaotic.total_faults > 0, "chaos plan never fired"
    assert result.zero_dropped, "silent drops: " + ", ".join(
        f"{r.plan_name} answered {r.answered}/{r.submitted}, "
        f"{r.malformed} malformed" for r in result
    )
    assert result.state_preserved, (
        "state loss: digests diverged from the fault-free control"
    )
    assert result.deterministic, (
        "non-determinism: same seed, different fault sequence or state"
    )
    scenario.check(result)
    return result
