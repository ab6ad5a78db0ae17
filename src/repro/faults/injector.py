"""The deterministic fault injector and its ambient installation.

Instrumented code calls :func:`fire` at named hook sites (the fast path is
one ``None`` check when no injector is installed).  The installed
:class:`FaultInjector` consults the plan's specs for that site, counts the
call, and — when a spec's schedule is due — emits a :class:`FaultEvent`.
The *caller* decides what the event means (tear a write, drop a kick,
raise :class:`~repro.util.errors.FaultInjected`); the injector only
decides *whether* and records everything it decided.

Determinism: scheduling depends only on per-site call counts, the virtual
clock, and a DRBG forked from the plan seed — so two runs of the same
seeded workload observe byte-identical fault sequences, which is what the
chaos demo asserts.

Every fired event, retry and recovery is counted on the injector itself
(``fault_counts``, ``retries``, ``recoveries``, ``recovery_us``) and
mirrored into the ambient ``faults.*`` obs counters and, optionally, an
audit log (as ``FAULT:*`` records on the hash chain), so chaos is
first-class observable, not a side channel.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.crypto.random_source import RandomSource
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.obs import counters as obs_counters
from repro.obs import trace as obs_trace
from repro.sim.timing import get_context
from repro.util.errors import FaultInjected


@dataclass(frozen=True)
class FaultEvent:
    """One fault decision, as recorded for determinism checks."""

    seq: int
    kind: FaultKind
    site: str
    call_index: int
    t_us: float
    transient: bool
    detail: str = ""

    def signature(self) -> Tuple[str, str, int]:
        """The time-free identity used to compare two runs."""
        return (self.kind.value, self.site, self.call_index)

    def raise_fault(self) -> None:
        """Raise this event as a :class:`FaultInjected`."""
        raise FaultInjected(
            self.kind.value, self.site, transient=self.transient, detail=self.detail
        )


class FaultInjector:
    """Executes one :class:`FaultPlan` against a running stack.

    Parameters
    ----------
    plan:
        The schedule to execute.
    audit:
        Optional audit log (anything with the :class:`AuditLog.append`
        signature); fired faults and recoveries land on the hash chain.
    """

    def __init__(self, plan: FaultPlan, audit=None) -> None:
        self.plan = plan
        self.audit = audit
        self._rng = RandomSource(f"fault-plan-{plan.name}-{plan.seed}".encode())
        self._site_calls: Dict[str, int] = {}
        self._spec_fires: Dict[Tuple[str, int], int] = {}
        self.events: List[FaultEvent] = []
        self.fault_counts: Dict[str, int] = {}
        self.retries = 0
        self.recoveries = 0
        #: virtual µs from fault to recovery, summed over ``recoveries``
        self.recovery_us = 0.0
        self.enabled = True

    # -- the hook entry point -----------------------------------------------------

    def fire(self, site: str, **ctx) -> Optional[FaultEvent]:
        """Count one call at ``site``; return an event if a fault is due."""
        if not self.enabled:
            return None
        index = self._site_calls.get(site, 0)
        self._site_calls[site] = index + 1
        now_us = get_context().clock.now_us
        for spec_idx, spec in enumerate(self.plan.for_site(site)):
            key = (site, spec_idx)
            if not self._due(spec, key, index, now_us, ctx):
                continue
            event = FaultEvent(
                seq=len(self.events),
                kind=spec.kind,
                site=site,
                call_index=index,
                t_us=now_us,
                transient=spec.transient,
                detail=str(ctx.get("name", ctx.get("device", ""))),
            )
            self._record(event, key)
            return event
        return None

    def _due(
        self,
        spec: FaultSpec,
        key: Tuple[str, int],
        index: int,
        now_us: float,
        ctx: Dict[str, object],
    ) -> bool:
        if spec.max_fires is not None and self._spec_fires.get(key, 0) >= spec.max_fires:
            return False
        if now_us < spec.after_us:
            return False
        if spec.until_us is not None and now_us > spec.until_us:
            return False
        if not spec.matches_context(ctx):
            return False
        decision = spec.due_at(index)
        if decision is None:  # probabilistic schedule: one deterministic draw
            draw = self._rng.uniform(0.0, 1.0)
            decision = draw < (spec.probability or 0.0)
        return bool(decision)

    def _record(self, event: FaultEvent, key: Tuple[str, int]) -> None:
        self._spec_fires[key] = self._spec_fires.get(key, 0) + 1
        self.events.append(event)
        kind = event.kind.value
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        obs_counters.inc("faults.injected", kind=kind)
        obs_trace.span_event("fault", kind=kind, site=event.site,
                             call_index=event.call_index)
        if self.audit is not None:
            self.audit.append(
                subject="fault-injector",
                instance=event.detail or event.site,
                operation=f"FAULT:{kind}",
                allowed=True,
                reason=f"{event.site}#{event.call_index}",
            )

    # -- recovery bookkeeping ------------------------------------------------------

    def note_retry(self, site: str) -> None:
        self.retries += 1
        obs_counters.inc("faults.retries", site=site)

    def note_recovery(self, site: str, elapsed_us: float = 0.0) -> None:
        self.recoveries += 1
        self.recovery_us += max(0.0, elapsed_us)
        obs_counters.inc("faults.recoveries", site=site)
        if self.audit is not None:
            self.audit.append(
                subject="fault-injector",
                instance=site,
                operation="FAULT-RECOVERY",
                allowed=True,
                reason=f"recovered after injected fault ({elapsed_us:.1f} us)",
            )

    # -- reporting ------------------------------------------------------------------

    def event_signature(self) -> Tuple[Tuple[str, str, int], ...]:
        """Time-free fault sequence; equal across same-seed runs."""
        return tuple(event.signature() for event in self.events)

    def report(self) -> Dict[str, object]:
        return {
            "plan": self.plan.name,
            "seed": self.plan.seed,
            "faults": dict(sorted(self.fault_counts.items())),
            "total_faults": len(self.events),
            "retries": self.retries,
            "recoveries": self.recoveries,
        }


# -- ambient installation ------------------------------------------------------------

_current_injector: Optional[FaultInjector] = None


def install(injector: Optional[FaultInjector]) -> Optional[FaultInjector]:
    """Install (or clear, with ``None``) the ambient injector."""
    global _current_injector
    previous = _current_injector
    _current_injector = injector
    return previous


def current() -> Optional[FaultInjector]:
    return _current_injector


@contextlib.contextmanager
def injector_scope(injector: FaultInjector) -> Iterator[FaultInjector]:
    """``with injector_scope(inj):`` — faults fire only inside the block."""
    previous = install(injector)
    try:
        yield injector
    finally:
        install(previous)


def fire(site: str, **ctx) -> Optional[FaultEvent]:
    """Hook entry point used by instrumented code; no-op when chaos is off."""
    if _current_injector is None:
        return None
    return _current_injector.fire(site, **ctx)


def note_retry(site: str) -> None:
    if _current_injector is not None:
        _current_injector.note_retry(site)


def note_recovery(site: str, elapsed_us: float = 0.0) -> None:
    if _current_injector is not None:
        _current_injector.note_recovery(site, elapsed_us)
