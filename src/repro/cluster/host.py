"""One addressable fleet node: a whole platform behind a host id.

A :class:`Host` wraps one :class:`~repro.harness.builder.Platform`
(hypervisor + hardware TPM + vTPM manager + monitor + optional
supervisor) and adds the fleet-facing surface: a capacity budget, a load
EWMA fed by the router, a health score derived from the platform's
resilience records, the attestation report used in migration handshakes,
and the crash/hard-restart lifecycle the ``HOST_CRASH`` fault drives.

Hosts never talk to each other directly — the fleet's router, scheduler
and migrator are the only cross-host paths, and each of those passes
through the ``cluster.link`` fault site.
"""

from __future__ import annotations

import enum
from typing import Dict

from repro.cluster.attestation import AttestationReport
from repro.obs import inc
from repro.resilience.admission import AdmissionController
from repro.resilience.health import HealthState
from repro.util.errors import ClusterError


class HostState(enum.Enum):
    """Fleet-visible lifecycle of one host."""

    #: serving: the scheduler may place and the router may forward
    UP = "up"
    #: no new placements; existing residents still served (pre-maintenance)
    DRAINING = "draining"
    #: manager daemon dead; nothing routable until recovery completes
    CRASHED = "crashed"


#: scheduler health penalty per non-healthy resilience record
HEALTH_PENALTY = {
    HealthState.HEALTHY: 0.0,
    HealthState.DEGRADED: 1.0,
    HealthState.RESTARTING: 2.0,
    HealthState.QUARANTINED: 3.0,
    HealthState.FAILED: 1.0,  # failed guests stop consuming capacity soon
}


class Host:
    """One hypervisor + vTPM manager + monitor (+ supervisor) node."""

    def __init__(self, host_id: str, platform, capacity: int) -> None:
        if capacity < 1:
            raise ClusterError(f"host {host_id!r} needs positive capacity")
        self.host_id = host_id
        self.platform = platform
        self.capacity = capacity
        self.state = HostState.UP
        self.policy_epoch = 1
        #: reuses the admission layer's EWMA as the host-level load signal;
        #: the router feeds it one observation per routed command
        self.admission = AdmissionController(f"host:{host_id}")
        #: measured at enrolment; attestation re-reads the PCRs live, so
        #: a host whose boot chain moved after enrolment fails to verify
        self.enrolled_identity = platform.hw.composite().hex()

    # -- signals the scheduler consumes --------------------------------------------

    @property
    def resident_count(self) -> int:
        return len(self.platform.manager.instances())

    @property
    def spare_capacity(self) -> int:
        return self.capacity - self.resident_count

    def observe_service_us(self, elapsed_us: float) -> None:
        self.admission.observe_service_us(elapsed_us)

    @property
    def load_estimate_us(self) -> float:
        return self.admission.service_estimate_us

    def health_penalty(self) -> float:
        """Sum of per-guest penalties from the resilience records."""
        supervisor = self.platform.supervisor
        if supervisor is None:
            return 0.0
        return sum(
            HEALTH_PENALTY[record.state]
            for record in supervisor.records()
        )

    def admissible(self) -> bool:
        """May the scheduler place (or migrate) a new guest here?"""
        return self.state is HostState.UP and self.spare_capacity > 0

    # -- attestation -----------------------------------------------------------------

    def attestation_report(self, nonce: bytes) -> AttestationReport:
        """What this host asserts about itself, bound to one handshake."""
        if self.state is not HostState.UP:
            raise ClusterError(
                f"host {self.host_id} is {self.state.value}: cannot attest"
            )
        return AttestationReport(
            host_id=self.host_id,
            nonce=nonce,
            measured_identity=self.platform.hw.composite().hex(),
            policy_epoch=self.policy_epoch,
        )

    # -- crash / recovery --------------------------------------------------------------

    def crash(self) -> None:
        """The manager daemon dies hard; volatile instance state is gone."""
        if self.state is HostState.CRASHED:
            raise ClusterError(f"host {self.host_id} is already crashed")
        self.state = HostState.CRASHED
        self.platform.migration.crash()  # in-flight offers die with it
        inc("cluster.host_crashes", host=self.host_id)

    def hard_restart(self) -> int:
        """Bring a crashed host back from its last committed checkpoints.

        Sealed state is bound to *this* host's hardware TPM, so recovery
        is strictly in-place: the platform's manager restart re-earns the
        sealer root and restores every instance its manager held,
        migrated-in ones included.  Returns how many were restored.
        """
        if self.state is not HostState.CRASHED:
            raise ClusterError(
                f"host {self.host_id} is {self.state.value}, not crashed"
            )
        restored = self.platform.restart_manager(clean=False)
        self.state = HostState.UP
        inc("cluster.host_recoveries", host=self.host_id)
        return restored

    # -- exposition --------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        return {
            "host": self.host_id,
            "state": self.state.value,
            "residents": self.resident_count,
            "capacity": self.capacity,
            "load_estimate_us": round(self.load_estimate_us, 2),
            "health_penalty": self.health_penalty(),
            "policy_epoch": self.policy_epoch,
        }
