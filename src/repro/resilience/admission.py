"""Admission control: bounded queues, deadline propagation, load shedding.

The ring consults the supervisor *before* forwarding frames (see
``TpmRing.set_admission``).  Each frame gets a verdict: ``None`` admits
it; a pre-built response frame sheds it.  Shedding is deterministic and
always answered — a shed command receives exactly one well-formed
``TPM_RESOURCES`` busy frame (``TPM_FAIL`` for a terminally failed
instance), never a silent drop, so the front-end's driver can back off
and retry like it would against a busy hardware part.

The queue model: frames admitted from one ring notify form the
instance's backlog.  Position ``k`` in the backlog expects to wait
``k × service_estimate_us`` — an EWMA over observed per-command virtual
latencies — and a frame whose expected wait exceeds the instance's
deadline budget is shed (*deadline propagation*: the shed happens at
admission, before the frame consumes manager capacity).  Depth is bounded
independently, so a flood of cheap commands still cannot grow the backlog
without limit.

The degradation matrix (``health.ADMITTED_CLASSES``) is enforced here
for the fast path and again inside the reference monitor as the
authoritative gate.  A state that admits nothing sheds every frame under
its own name — busy when quarantined, ``TPM_FAIL`` when failed; a state
that admits only some classes sheds the rest busy as ``degraded``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.policy import classify_ordinal
from repro.obs import counters as obs_counters
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.health import (
    ADMITTED_CLASSES,
    HealthState,
    InstanceHealth,
)
from repro.tpm.constants import TPM_FAIL, TPM_RESOURCES
from repro.tpm.marshal import build_response

#: shed reasons, in the order they are checked
SHED_REASONS = ("failed", "quarantined", "breaker", "degraded", "depth",
                "deadline")


@dataclass
class AdmissionConfig:
    """Per-instance queue budgets."""

    #: most frames admitted from one ring notify
    max_depth: int = 8
    #: a frame expecting to queue longer than this is shed (virtual us)
    deadline_us: float = 20_000.0
    #: starting per-command service estimate (virtual us)
    service_estimate_us: float = 30.0
    #: EWMA weight for new observations (0 freezes the estimate)
    ewma_alpha: float = 0.2


def _ordinal_of(wire: bytes) -> int:
    return int.from_bytes(wire[6:10], "big") if len(wire) >= 10 else -1


class AdmissionController:
    """Computes shed-or-admit verdicts for one instance's frames."""

    def __init__(self, vm_uuid: str, config: Optional[AdmissionConfig] = None
                 ) -> None:
        self.vm_uuid = vm_uuid
        self.config = config or AdmissionConfig()
        self.service_estimate_us = self.config.service_estimate_us
        self.admitted = 0
        self.shed_counts: dict = {}
        #: pre-resolved handle for the hot admitted counter (one per vm)
        self._admitted_counter = obs_counters.counter(
            "resilience.admitted", vm=vm_uuid
        )

    # -- feedback ----------------------------------------------------------------

    def observe_service_us(self, elapsed_us: float) -> None:
        """Feed one observed per-command latency into the EWMA."""
        alpha = self.config.ewma_alpha
        if alpha > 0.0:
            self.service_estimate_us += alpha * (
                elapsed_us - self.service_estimate_us
            )

    # -- the verdict --------------------------------------------------------------

    def _shed(self, reason: str, return_code: int) -> bytes:
        self.shed_counts[reason] = self.shed_counts.get(reason, 0) + 1
        obs_counters.inc("resilience.shed", reason=reason, vm=self.vm_uuid)
        return build_response(return_code)

    def verdicts(
        self,
        wires: List[bytes],
        health: InstanceHealth,
        breaker: CircuitBreaker,
    ) -> List[Optional[bytes]]:
        """One verdict per frame, in submission order.

        ``None`` = admitted; otherwise the response frame to return in the
        admitted frames' stead.  The backlog position used for deadline
        propagation counts only frames admitted *from this batch* — the
        split driver is synchronous, so the previous notify's backlog has
        fully drained by the time the next one arrives.
        """
        out: List[Optional[bytes]] = []
        cfg = self.config
        backlog = 0
        for wire in wires:
            state = health.state
            if state is not HealthState.HEALTHY:
                admits = ADMITTED_CLASSES[state]
                if not admits:
                    failed = state is HealthState.FAILED
                    out.append(self._shed(
                        state.value, TPM_FAIL if failed else TPM_RESOURCES
                    ))
                    continue
                if classify_ordinal(_ordinal_of(wire)) not in admits:
                    out.append(self._shed("degraded", TPM_RESOURCES))
                    continue
            if backlog >= cfg.max_depth:
                out.append(self._shed("depth", TPM_RESOURCES))
                continue
            if backlog * self.service_estimate_us > cfg.deadline_us:
                out.append(self._shed("deadline", TPM_RESOURCES))
                continue
            # The breaker check is last: allow() may consume the single
            # half-open probe slot, so a frame it admits must actually run.
            if not breaker.allow():
                out.append(self._shed("breaker", TPM_RESOURCES))
                continue
            backlog += 1
            self.admitted += 1
            out.append(None)
        if backlog:
            self._admitted_counter.add(backlog)
        return out
