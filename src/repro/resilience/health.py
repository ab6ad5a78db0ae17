"""Per-instance health state machine.

Every supervised vTPM instance carries one :class:`InstanceHealth` record.
The watchdog signals it observes are the three failure modes the pipeline
can already produce — a ``with_retry`` episode burning its whole budget, a
``TPM_FAIL`` degraded response, and a per-command deadline miss — plus
plain successes.  Consecutive failures walk the instance down
``healthy → degraded → quarantined``; the supervisor then drives the
``quarantined → restarting → healthy|failed`` leg (see
:mod:`repro.resilience.supervisor`).

The transition table is closed and enforced: any transition outside it
raises :class:`~repro.util.errors.SupervisionError`.  That strictness is
the security invariant the property tests lean on — a supervisor bug can
never silently route traffic to a half-recovered instance, because the
only paths back to ``healthy`` run through a completed, re-attested
restart or an observed success streak.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core.policy import CommandClass
from repro.obs import counters as obs_counters
from repro.util.errors import SupervisionError


class HealthState(enum.Enum):
    """Where an instance sits in its supervised lifecycle."""

    #: full service, every granted ordinal class admitted
    HEALTHY = "healthy"
    #: failure streak under way: only read-only ordinals admitted
    DEGRADED = "degraded"
    #: pulled from service; the supervisor owes it a restart
    QUARANTINED = "quarantined"
    #: torn down and restored; awaiting re-attestation + probe
    RESTARTING = "restarting"
    #: terminal: re-attestation or the restart budget failed — deny all
    FAILED = "failed"


#: the complete set of legal transitions; everything else is a bug
LEGAL_TRANSITIONS: FrozenSet[Tuple[HealthState, HealthState]] = frozenset(
    {
        (HealthState.HEALTHY, HealthState.DEGRADED),
        (HealthState.HEALTHY, HealthState.QUARANTINED),
        (HealthState.DEGRADED, HealthState.HEALTHY),
        (HealthState.DEGRADED, HealthState.QUARANTINED),
        (HealthState.QUARANTINED, HealthState.RESTARTING),
        (HealthState.QUARANTINED, HealthState.FAILED),
        (HealthState.RESTARTING, HealthState.HEALTHY),
        # a restart that flaps (probe failure) goes back to quarantine
        (HealthState.RESTARTING, HealthState.QUARANTINED),
        (HealthState.RESTARTING, HealthState.FAILED),
    }
)

#: the degradation matrix: the ordinal classes each health state admits.
#: Admission sheds, and the reference monitor's health gate refuses, every
#: other class; restarting admits reads so the supervisor's probes pass.
ADMITTED_CLASSES: Dict[HealthState, FrozenSet[CommandClass]] = {
    HealthState.HEALTHY: frozenset(CommandClass),
    HealthState.DEGRADED: frozenset({CommandClass.READ}),
    HealthState.RESTARTING: frozenset({CommandClass.READ}),
    HealthState.QUARANTINED: frozenset(),
    HealthState.FAILED: frozenset(),
}

#: watchdog failure signals (the ``kind`` argument of ``note_failure``)
FAILURE_KINDS = ("retry-exhausted", "tpm-fail", "deadline-miss")


@dataclass
class HealthThresholds:
    """How many consecutive observations drive each transition."""

    #: consecutive failures before ``healthy → degraded``
    degrade_after: int = 2
    #: consecutive failures before ``→ quarantined``
    quarantine_after: int = 4
    #: consecutive successes before ``degraded → healthy``
    recover_after: int = 6
    #: supervised restarts allowed before the instance is declared failed
    max_restarts: int = 3


@dataclass
class InstanceHealth:
    """The watchdog record for one supervised instance.

    ``instance_id`` tracks the *current* instance id — a supervised
    restart replaces the instance object (and id) while the health record,
    keyed by the owning VM, persists across it.
    """

    vm_uuid: str
    instance_id: int
    thresholds: HealthThresholds = field(default_factory=HealthThresholds)
    state: HealthState = HealthState.HEALTHY
    consecutive_failures: int = 0
    consecutive_successes: int = 0
    restarts: int = 0
    #: append-only transition trail: (from, to, cause) — the property
    #: tests audit it against LEGAL_TRANSITIONS
    history: List[Tuple[HealthState, HealthState, str]] = field(
        default_factory=list
    )
    failure_counts: Dict[str, int] = field(default_factory=dict)
    #: observer invoked after every state change — the supervisor uses it
    #: to keep its unhealthy-instance index in sync (see
    #: ``Supervisor.unhealthy_instances``)
    on_transition: Optional[Callable[["InstanceHealth"], None]] = field(
        default=None, repr=False, compare=False
    )

    # -- transitions ---------------------------------------------------------

    def transition(self, to: HealthState, cause: str) -> None:
        """Move to ``to``; illegal moves raise :class:`SupervisionError`."""
        frm = self.state
        if (frm, to) not in LEGAL_TRANSITIONS:
            raise SupervisionError(
                f"illegal health transition {frm.value} → {to.value} "
                f"for vm {self.vm_uuid} (cause: {cause})"
            )
        self.state = to
        self.history.append((frm, to, cause))
        obs_counters.inc("resilience.transitions", frm=frm.value, to=to.value)
        if self.on_transition is not None:
            self.on_transition(self)

    # -- watchdog signals -----------------------------------------------------

    def note_failure(self, kind: str) -> None:
        """One failure observation; may degrade or quarantine the instance.

        Signals arriving in terminal or supervisor-owned states are
        recorded but drive no transition — the supervisor owns those legs.
        """
        if kind not in FAILURE_KINDS:
            raise SupervisionError(f"unknown failure kind {kind!r}")
        self.failure_counts[kind] = self.failure_counts.get(kind, 0) + 1
        self.consecutive_successes = 0
        self.consecutive_failures += 1
        t = self.thresholds
        if (
            self.state is HealthState.HEALTHY
            and self.consecutive_failures >= t.degrade_after
        ):
            self.transition(HealthState.DEGRADED, kind)
        if (
            self.state is HealthState.DEGRADED
            and self.consecutive_failures >= t.quarantine_after
        ):
            self.transition(HealthState.QUARANTINED, kind)

    def note_success(self) -> None:
        """One successful command; a streak heals a degraded instance."""
        self.consecutive_failures = 0
        self.consecutive_successes += 1
        if (
            self.state is HealthState.DEGRADED
            and self.consecutive_successes >= self.thresholds.recover_after
        ):
            self.transition(HealthState.HEALTHY, "success-streak")

    # -- queries --------------------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state is HealthState.FAILED

    def describe(self) -> Dict[str, object]:
        return {
            "vm": self.vm_uuid,
            "instance": self.instance_id,
            "state": self.state.value,
            "restarts": self.restarts,
            "consecutive_failures": self.consecutive_failures,
            "failure_counts": dict(self.failure_counts),
            "transitions": [
                f"{frm.value}->{to.value}[{cause}]"
                for frm, to, cause in self.history
            ],
        }
