"""The fleet router: workloads address guests by name, never by host.

A workload holds a name like ``"web07"``; the router owns the only map
from names to host ids and forwards each command through the guest's
own ring on that host — the front-end, back-end, supervision and
monitor every local command crosses.  Migration re-points the map
atomically, so callers never observe an intermediate address; a host's
recovery rebinds the guests' back-ends in place and needs no re-point.

Forwarding crosses the ``cluster.link`` fault site under the same
bounded-retry contract as the single-host backend path: a transient
``PARTITION`` is retried with backoff in virtual time, and an exhausted
episode degrades to the manager's well-formed ``TPM_FAIL`` response —
never a silent drop, which is what lets the demo's ledger assert
``answered == submitted`` through a migration storm.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.host import Host, HostState
from repro.crypto.random_source import RandomSource
from repro.faults import FaultKind, fire, with_retry
from repro.obs import inc, span
from repro.sim.timing import get_context
from repro.tpm.client import TpmClient
from repro.util.errors import ClusterError, RetryExhausted


class FleetRouter:
    """Name-to-host indirection over every host's guests."""

    def __init__(self, hosts: Dict[str, Host]) -> None:
        self.hosts = hosts
        self._locations: Dict[str, str] = {}
        self.degraded = 0

    # -- the name map ------------------------------------------------------------

    def register(self, name: str, host_id: str) -> None:
        if name in self._locations:
            raise ClusterError(f"guest {name!r} is already registered")
        self._locations[name] = host_id

    def relocate(self, name: str, host_id: str) -> None:
        """Re-point one name after a migration (atomic from callers' view)."""
        self.locate(name)  # raises on unknown names
        self._locations[name] = host_id

    def locate(self, name: str) -> str:
        """The id of the host ``name`` lives on."""
        host_id = self._locations.get(name)
        if host_id is None:
            raise ClusterError(f"no guest named {name!r} in the fleet")
        return host_id

    def placements(self) -> Dict[str, str]:
        """``{guest: host_id}`` — the scheduler's rebalance input."""
        return dict(sorted(self._locations.items()))

    # -- forwarding --------------------------------------------------------------

    def send(self, name: str, wire: bytes) -> bytes:
        """Forward one command frame through ``name``'s ring, wherever it
        lives now."""
        host_id = self.locate(name)
        host = self.hosts[host_id]
        if host.state is HostState.CRASHED:
            raise ClusterError(
                f"host {host_id} is crashed; guest {name!r} is "
                f"unroutable until recovery"
            )
        handle = host.platform.guests[name]
        with span(
            "cluster.route", guest=name, host=host_id,
            instance=handle.instance_id,
        ):
            transport = handle.frontend.transport

            def attempt() -> bytes:
                event = fire(
                    "cluster.link", host=host_id, guest=name, phase="route",
                )
                if event is not None and event.kind is FaultKind.PARTITION:
                    event.raise_fault()
                return transport(wire)

            started_us = get_context().clock.now_us
            try:
                response = with_retry(attempt, site="cluster.link")
            except RetryExhausted as exc:
                self.degraded += 1
                inc("cluster.routed", host=host_id, outcome="degraded")
                return host.platform.manager.fault_response(
                    handle.instance_id, exc
                )
            host.observe_service_us(get_context().clock.now_us - started_us)
            inc("cluster.routed", host=host_id, outcome="ok")
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
