"""The fleet router: workloads address guests by name, never by host.

A workload holds a name like ``"web07"``; the router owns the only map
from names to ``(host, domain, instance)`` and forwards each command to
wherever the instance currently lives.  Migration and host recovery
re-point the map atomically, so callers never observe an intermediate
address.

Forwarding crosses the ``cluster.link`` fault site under the same
bounded-retry contract as the single-host backend path: a transient
``PARTITION`` is retried with backoff in virtual time, and an exhausted
episode degrades to the manager's well-formed ``TPM_FAIL`` response —
never a silent drop, which is what lets the demo's ledger assert
``answered == submitted`` through a migration storm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cluster.host import Host, HostState
from repro.crypto.random_source import RandomSource
from repro.faults import FaultKind, fire, with_retry
from repro.obs import inc, span
from repro.sim.timing import get_context
from repro.tpm.client import TpmClient
from repro.util.errors import ClusterError, RetryExhausted


@dataclass
class GuestLocation:
    """Where one named guest's vTPM currently lives."""

    host_id: str
    domid: int
    instance_id: int
    vm_uuid: str


class FleetRouter:
    """Name-to-instance indirection over every host's manager."""

    def __init__(self, hosts: Dict[str, Host]) -> None:
        self.hosts = hosts
        self._locations: Dict[str, GuestLocation] = {}
        self.degraded = 0

    # -- the name map ------------------------------------------------------------

    def register(
        self, name: str, host_id: str, domid: int, instance_id: int,
        vm_uuid: str,
    ) -> None:
        if name in self._locations:
            raise ClusterError(f"guest {name!r} is already registered")
        self._locations[name] = GuestLocation(
            host_id=host_id, domid=domid, instance_id=instance_id,
            vm_uuid=vm_uuid,
        )

    def relocate(
        self, name: str, host_id: str, domid: int, instance_id: int,
        vm_uuid: str,
    ) -> None:
        """Re-point one name after a migration (atomic from callers' view)."""
        self.locate(name)  # raises on unknown names
        self._locations[name] = GuestLocation(
            host_id=host_id, domid=domid, instance_id=instance_id,
            vm_uuid=vm_uuid,
        )

    def rebind_instance(self, name: str, new_instance_id: int) -> None:
        """Same host, new instance id (post-crash restore)."""
        self.locate(name).instance_id = new_instance_id

    def forget(self, name: str) -> None:
        del self._locations[name]

    def locate(self, name: str) -> GuestLocation:
        location = self._locations.get(name)
        if location is None:
            raise ClusterError(f"no guest named {name!r} in the fleet")
        return location

    def locations(self) -> Dict[str, GuestLocation]:
        return dict(self._locations)

    def placements(self) -> Dict[str, str]:
        """``{guest: host_id}`` — the scheduler's rebalance input."""
        return {
            name: loc.host_id for name, loc in sorted(self._locations.items())
        }

    # -- forwarding --------------------------------------------------------------

    def send(self, name: str, wire: bytes) -> bytes:
        """Forward one command frame to wherever ``name`` lives now."""
        location = self.locate(name)
        host = self.hosts[location.host_id]
        if host.state is HostState.CRASHED:
            raise ClusterError(
                f"host {location.host_id} is crashed; guest {name!r} is "
                f"unroutable until recovery"
            )
        with span(
            "cluster.route", guest=name, host=location.host_id,
            instance=location.instance_id,
        ):
            manager = host.platform.manager

            def attempt() -> bytes:
                event = fire(
                    "cluster.link", host=location.host_id, guest=name,
                    phase="route",
                )
                if event is not None and event.kind is FaultKind.PARTITION:
                    event.raise_fault()
                return manager.handle_command(
                    location.domid, location.instance_id, wire
                )

            started_us = get_context().clock.now_us
            try:
                response = with_retry(attempt, site="cluster.link")
            except RetryExhausted as exc:
                self.degraded += 1
                inc("cluster.routed", host=location.host_id,
                    outcome="degraded")
                return manager.fault_response(location.instance_id, exc)
            host.observe_service_us(get_context().clock.now_us - started_us)
            inc("cluster.routed", host=location.host_id, outcome="ok")
            return response

    def client_for(self, name: str) -> TpmClient:
        """A TPM client whose transport follows the guest across hosts.

        The client rng is keyed to the guest name alone, so a workload
        driving the same command script gets byte-identical auth traffic
        regardless of which host the instance occupies.
        """
        return TpmClient(
            lambda wire: self.send(name, wire),
            RandomSource(f"cluster-client-{name}".encode()),
        )
