"""The supervisor: watchdog, breaker owner, and restart driver.

One :class:`Supervisor` oversees every supervised back-end on a platform.
Per guest it owns an :class:`~repro.resilience.health.InstanceHealth`
record, a :class:`~repro.resilience.breaker.CircuitBreaker` and an
:class:`~repro.resilience.admission.AdmissionController`; the back-end
feeds it outcome observations, the ring asks it for admission verdicts,
and the reference monitor consults its :meth:`gate` for the authoritative
degraded-mode ordinal gating.

**Supervised restart.**  When a record reaches ``quarantined`` the
supervisor immediately drives the recovery leg, inline and in virtual
time: best-effort state flush, teardown, restore through the manager's
crash-consistent :meth:`~repro.vtpm.manager.VtpmManager.restore_instance`
path, **re-attestation** of the restored instance against the guest's
measured launch identity, re-bind of the back-end (itself fail-closed),
and a health probe (``TPM_GetTestResult``).  Only a probed, re-attested
instance returns to ``healthy`` — and even then its breaker is forced
open so traffic re-earns the path through a cooldown and a half-open
probe.  A failed re-attestation, a failed restore, or an exhausted
restart budget moves the record to ``failed``, where every ordinal is
refused forever.

Every hook on the fault-free path is charge-free: supervision observes
the clock but never advances it unless a fault actually fired (the same
neutrality discipline tracing follows).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.policy import CommandClass
from repro.core.reason import Reason
from repro.crypto.random_source import RandomSource
from repro.faults import FaultKind, fire
from repro.obs import counters as obs_counters
from repro.obs import trace as obs_trace
from repro.resilience.admission import AdmissionConfig, AdmissionController
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.health import (
    ADMITTED_CLASSES,
    HealthState,
    HealthThresholds,
    InstanceHealth,
)
from repro.sim.timing import charge
from repro.tpm.constants import TPM_ORD_GetTestResult, TPM_FAIL, TPM_SUCCESS
from repro.tpm.marshal import build_command
from repro.util.errors import (
    IdentityError,
    ReproError,
    SupervisionError,
)

#: a command slower than this (virtual us) counts as a deadline miss —
#: far above any healthy single command, but a retry storm trips it
DEFAULT_COMMAND_DEADLINE_US = 100_000.0

#: the probe everyone agrees is harmless: TPM_GetTestResult (READ class,
#: serialization-neutral, no auth)
PROBE_WIRE = build_command(TPM_ORD_GetTestResult, b"")


#: the states the per-frame hooks test, bound once: an enum member lookup
#: through its class costs several times a module-global read
_HEALTHY = HealthState.HEALTHY
_QUARANTINED = HealthState.QUARANTINED
_CLOSED = BreakerState.CLOSED


def _return_code(response: bytes) -> int:
    return int.from_bytes(response[6:10], "big") if len(response) >= 10 else -1


class Supervisor:
    """Platform-wide resilience coordinator."""

    def __init__(
        self,
        manager,
        rng: RandomSource,
        thresholds: Optional[HealthThresholds] = None,
        admission: Optional[AdmissionConfig] = None,
        breaker_failure_threshold: int = 3,
        breaker_cooldown_us: float = 50_000.0,
        command_deadline_us: float = DEFAULT_COMMAND_DEADLINE_US,
    ) -> None:
        self.manager = manager
        self._rng = rng
        self.thresholds = thresholds or HealthThresholds()
        self.default_admission = admission or AdmissionConfig()
        self.breaker_failure_threshold = breaker_failure_threshold
        self.breaker_cooldown_us = breaker_cooldown_us
        self.command_deadline_us = command_deadline_us
        #: vm uuid -> supervised back-end; its ``_supervised`` tuple holds
        #: the guest's health record, breaker and admission controller
        self._backends: Dict[str, object] = {}
        self._by_instance: Dict[int, InstanceHealth] = {}
        #: instance id -> health record, for every record NOT currently
        #: healthy.  Shared with the access-control monitor
        #: (``Monitor.health_index``) so its per-command resilience check
        #: is one dict-membership test in the all-green steady state; the
        #: full :meth:`gate` walk runs only for instances listed here.
        #: Kept in sync by the ``InstanceHealth.on_transition`` observer.
        self.unhealthy_instances: Dict[int, InstanceHealth] = {}

    # -- wiring ------------------------------------------------------------------

    def attach(self, backend, admission: Optional[AdmissionConfig] = None) -> None:
        """Put one back-end under supervision (idempotent per guest)."""
        vm = backend.frontend.guest
        if vm.uuid in self._backends:
            raise SupervisionError(f"guest {vm.name} is already supervised")
        record = InstanceHealth(
            vm_uuid=vm.uuid,
            instance_id=backend.instance_id,
            thresholds=self.thresholds,
        )
        self._by_instance[backend.instance_id] = record
        record.on_transition = self._reindex_health
        breaker = CircuitBreaker(
            name=vm.name,
            rng=self._rng.fork(f"breaker-{vm.uuid}"),
            failure_threshold=self.breaker_failure_threshold,
            cooldown_us=self.breaker_cooldown_us,
        )
        admission_controller = AdmissionController(
            vm.uuid, admission or self.default_admission
        )
        self._backends[vm.uuid] = backend
        # The per-guest objects live on the back-end: the admit and
        # observe hooks run once per notify and read them without a lookup.
        backend._supervised = (record, breaker, admission_controller)
        backend.attach_supervision(self)

    def detach(self, backend) -> None:
        """Stop supervising a retired guest: its record leaves
        :meth:`status` and the monitor's health gate."""
        record = self._backends.pop(backend.frontend.guest.uuid)._supervised[0]
        self._by_instance.pop(record.instance_id, None)
        self.unhealthy_instances.pop(record.instance_id, None)

    def _reindex_health(self, record: InstanceHealth) -> None:
        """Transition observer: keep :attr:`unhealthy_instances` exact."""
        if record.state is HealthState.HEALTHY:
            self.unhealthy_instances.pop(record.instance_id, None)
        else:
            self.unhealthy_instances[record.instance_id] = record

    def record_for(self, vm_uuid: str) -> InstanceHealth:
        return self._backends[vm_uuid]._supervised[0]

    def breaker_for(self, vm_uuid: str) -> CircuitBreaker:
        return self._backends[vm_uuid]._supervised[1]

    def admission_for(self, vm_uuid: str) -> AdmissionController:
        return self._backends[vm_uuid]._supervised[2]

    def records(self) -> List[InstanceHealth]:
        """Every supervised guest's health record, in attach order."""
        return [backend._supervised[0] for backend in self._backends.values()]

    # -- ring-side: admission ------------------------------------------------------

    def admit(self, backend, wires: List[bytes]) -> List[Optional[bytes]]:
        """Verdicts for one ring notify's frames (None = admitted); the
        ring submits a lone frame as a batch of one."""
        record, breaker, admission = backend._supervised
        n = len(wires)
        if (
            record.state is _HEALTHY
            and breaker.state is _CLOSED
            and n <= admission.config.max_depth
            and (n - 1) * admission.service_estimate_us
            <= admission.config.deadline_us
        ):
            # All-green fast path.  Under these conditions the verdict
            # loop admits every frame: the health gates pass, the backlog
            # never reaches the depth or deadline bound (frame k waits
            # k x estimate, maximal at k = n-1), and a closed breaker's
            # allow() returns True with zero side effects.  Bulk-admit
            # with identical state effects and skip the per-frame walk.
            admission.admitted += n
            admission._admitted_counter.add(n)
            return [None] * n
        return admission.verdicts(wires, record, breaker)

    # -- monitor-side: the authoritative ordinal gate ------------------------------

    def gate(self, instance_id: int, command_class: CommandClass
             ) -> Optional[Reason]:
        """``health-gate`` when the instance's health state does not admit
        the class (``health.ADMITTED_CLASSES``), else None."""
        record = self._by_instance.get(instance_id)
        if record is None or command_class in ADMITTED_CLASSES[record.state]:
            return None
        return Reason.HEALTH_GATE

    # -- backend-side: outcome observations ----------------------------------------

    def observe(self, backend, outcomes) -> None:
        """Apply one ring notify's per-frame outcomes, in submission order.

        Each outcome is ``(response, elapsed_us, exhausted)`` as reported
        by :meth:`~repro.vtpm.manager.VtpmManager.handle_batch` after the
        notify's last frame ran, so a batch never restarts its instance
        under its own remaining frames; a lone frame is the n=1 case.

        The breaker measures *responsiveness*: any answered frame except a
        degraded ``TPM_FAIL`` counts as breaker success (an auth denial
        still proves the instance alive).  Health is stricter: only
        ``TPM_SUCCESS`` inside the deadline feeds the recovery streak, and
        a frame that burned its whole retry budget counts as
        ``retry-exhausted``.
        """
        record, breaker, admission = backend._supervised
        alpha = admission.config.ewma_alpha
        for response, elapsed_us, exhausted in outcomes:
            if exhausted is None:
                # The admission EWMA (AdmissionController.observe_service_us)
                # sees every answered frame, fast path or slow.
                admission.service_estimate_us += alpha * (
                    elapsed_us - admission.service_estimate_us
                )
                if (
                    record.state is _HEALTHY
                    and breaker.state is _CLOSED
                    and elapsed_us <= self.command_deadline_us
                    and response.startswith(b"\x00\x00\x00\x00", 6)
                ):
                    # All-green fast path: a TPM_SUCCESS inside the
                    # deadline on a healthy record with a closed breaker.
                    # record_success() on a closed breaker and
                    # note_success() on a healthy record reduce to exactly
                    # these three assignments (no transition is
                    # reachable), so the streaks match the slow path.
                    breaker.consecutive_failures = 0
                    record.consecutive_failures = 0
                    record.consecutive_successes += 1
                    continue
                rc = _return_code(response)
                if rc == TPM_FAIL:
                    record.note_failure("tpm-fail")
                    breaker.record_failure()
                else:
                    breaker.record_success()
                    if elapsed_us > self.command_deadline_us:
                        record.note_failure("deadline-miss")
                    elif rc == TPM_SUCCESS:
                        record.note_success()
            else:
                record.note_failure("retry-exhausted")
                breaker.record_failure()
            if record.state is _QUARANTINED:
                self._supervised_restart(backend)

    def on_rebind(self, backend, new_instance_id: int) -> None:
        """The back-end was re-pointed (supervised restart or manager
        crash-recovery): key the health record to the new instance."""
        if backend.frontend.guest.uuid not in self._backends:
            return
        record = backend._supervised[0]
        if self._by_instance.get(record.instance_id) is record:
            del self._by_instance[record.instance_id]
        if self.unhealthy_instances.pop(record.instance_id, None) is not None:
            self.unhealthy_instances[new_instance_id] = record
        record.instance_id = new_instance_id
        self._by_instance[new_instance_id] = record

    # -- the supervised restart leg -------------------------------------------------

    def _reattest(self, vm, restored) -> bool:
        """The restored instance must still belong to the measured identity."""
        if restored.bound_identity_hex is None or self.manager.identities is None:
            return True  # baseline regime: no identity to attest against
        try:
            identity = self.manager.identities.verify_current(vm)
        except IdentityError:
            return False
        return identity.hex == restored.bound_identity_hex

    def _run_probe(self, vm, instance_id: int) -> bool:
        """Health-probe one instance through the monitored command path."""
        with obs_trace.span("supervisor.probe", instance=instance_id):
            event = fire("vtpm.supervisor.probe", vm=vm.name,
                         instance=instance_id)
            if event is not None and event.kind is FaultKind.FLAP:
                obs_trace.span_event("probe_flap", instance=instance_id)
                return False
            # handle_batch retries device faults itself and degrades an
            # exhausted one to TPM_FAIL, so the probe needs no retry loop.
            [response] = self.manager.handle_batch(
                vm.domid, instance_id, [PROBE_WIRE]
            )
            return _return_code(response) == TPM_SUCCESS

    def _supervised_restart(self, backend) -> None:
        """Drive ``quarantined → restarting → healthy|failed``, retrying
        flapped restarts until the budget runs out."""
        vm = backend.frontend.guest
        record, breaker, _ = backend._supervised
        while record.state is HealthState.QUARANTINED:
            if record.restarts >= record.thresholds.max_restarts:
                record.transition(HealthState.FAILED,
                                  "restart-budget-exhausted")
                obs_counters.inc("resilience.restarts", outcome="failed",
                                 vm=vm.uuid)
                return
            record.restarts += 1
            record.transition(HealthState.RESTARTING,
                              f"supervised-restart-{record.restarts}")
            charge("supervisor.restart")
            with obs_trace.span("supervisor.restart", vm=vm.name,
                                attempt=record.restarts):
                try:
                    self.manager.save_instance(record.instance_id)
                except ReproError:
                    # A wedged flush loses nothing — restore uses the last
                    # committed, generation-stamped checkpoint — but the
                    # skipped checkpoint is counted so a restart that ran
                    # from stale state is visible in the exposition.
                    obs_counters.inc("resilience.checkpoint_skipped",
                                     vm=vm.uuid)
                self.manager.destroy_instance(record.instance_id,
                                              persist=False)
                try:
                    restored = self.manager.restore_instance(vm)
                except ReproError as exc:
                    record.transition(HealthState.FAILED,
                                      f"restore-failed: {exc}")
                    obs_counters.inc("resilience.restarts", outcome="failed",
                                     vm=vm.uuid)
                    return
                if not self._reattest(vm, restored):
                    record.transition(HealthState.FAILED,
                                      "re-attestation-failed")
                    obs_counters.inc("resilience.restarts", outcome="failed",
                                     vm=vm.uuid)
                    return
                backend.rebind(restored.instance_id)  # keys the record too
                if self._run_probe(vm, restored.instance_id):
                    record.transition(HealthState.HEALTHY, "restart-probe-ok")
                    record.consecutive_failures = 0
                    record.consecutive_successes = 0
                    # Traffic still re-earns the path: cooldown, then one
                    # half-open probe, then the breaker closes.
                    breaker.force_open()
                    obs_counters.inc("resilience.restarts",
                                     outcome="recovered", vm=vm.uuid)
                else:
                    record.transition(HealthState.QUARANTINED, "probe-flap")
                    obs_counters.inc("resilience.restarts", outcome="flap",
                                     vm=vm.uuid)

    # -- end-of-run settling ---------------------------------------------------------

    def drain(self, max_wait_us: float = 1_000_000.0) -> None:
        """Settle every guest: wait out cooldowns (charged as
        ``supervisor.wait``) and probe until each record is ``healthy``
        with a closed breaker, or terminally ``failed``.  Bounded by
        ``max_wait_us`` of waiting plus a probe-count safety cap."""
        budget = max_wait_us
        with obs_trace.span("supervisor.drain"):
            for backend in self._backends.values():
                record, breaker, _ = backend._supervised
                for _ in range(64):  # probe cap per guest
                    if record.terminal:
                        break
                    if record.state is HealthState.QUARANTINED:
                        self._supervised_restart(backend)
                        continue
                    if (
                        breaker.state is BreakerState.CLOSED
                        and record.state is HealthState.HEALTHY
                    ):
                        break
                    wait = breaker.remaining_cooldown_us()
                    if wait > 0.0:
                        if wait > budget:
                            break
                        charge("supervisor.wait", wait)
                        budget -= wait
                    # A real probe through the full forwarded path: its
                    # outcome feeds back via observe().
                    if breaker.state is BreakerState.OPEN:
                        breaker.allow()  # cooldown elapsed → half-open slot
                    backend._forward(PROBE_WIRE)

    # -- exposition -------------------------------------------------------------------

    def settled(self) -> bool:
        """True when every record is healthy-with-closed-breaker or failed."""
        for backend in self._backends.values():
            record, breaker, _ = backend._supervised
            if record.terminal:
                continue
            if record.state is not HealthState.HEALTHY:
                return False
            if breaker.state is not BreakerState.CLOSED:
                return False
        return True

    def status(self) -> List[Dict[str, object]]:
        """One dict per supervised guest (CLI ``health`` exposition)."""
        out = []
        for backend in self._backends.values():
            record, breaker, admission = backend._supervised
            entry = record.describe()
            entry.update(
                {
                    "guest": backend.frontend.guest.name,
                    "breaker": breaker.state.value,
                    "breaker_events": [
                        f"{state}@{t_us:.0f}us" for state, t_us in breaker.events
                    ],
                    "shed": dict(admission.shed_counts),
                    "admitted": admission.admitted,
                    "service_estimate_us": round(
                        admission.service_estimate_us, 2
                    ),
                }
            )
            out.append(entry)
        return out
