"""The fleet: N hosts, one virtual clock, one placement authority.

``build_fleet`` assembles N full platforms (each its own hypervisor,
hardware TPM, manager, monitor and supervisor) on the *shared* ambient
timing context — the discrete-event clock is fleet-global, which is what
makes cross-host schedules (placement trails, migration storms, breaker
sequences) deterministic and replay-comparable.

The fleet owns the pieces the tentpole names:

* the consistent-hash ring + :class:`PlacementScheduler` (sharded
  manager pool: every guest's vTPM lives in exactly one host's manager,
  chosen deterministically);
* the :class:`FleetRouter` (workloads address guests by name);
* the :class:`ClusterMigrator` (attested cross-host movement);
* host lifecycle — the ``cluster.host`` fault site is polled once per
  host per workload step, and a fired ``HOST_CRASH`` drives the
  crash → hard-restart leg inline, exactly like the
  supervisor drives instance restarts.

Enrolment: at build time the fleet records every host's measured
identity (hardware PCR chain) and stamps the fleet policy epoch on it.
Those enrolment records are what migration handshakes verify against.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.host import Host, HostState
from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.migrator import ClusterMigrator, MigrationRecord
from repro.cluster.router import FleetRouter
from repro.cluster.scheduler import PlacementScheduler
from repro.core.config import AccessMode
from repro.crypto.random_source import RandomSource
from repro.faults import FaultKind, fire
from repro.harness.builder import build_platform
from repro.obs import inc, span
from repro.util.errors import ClusterError


class Fleet:
    """N addressable hosts behind one scheduler, router and migrator."""

    def __init__(
        self,
        num_hosts: int,
        seed: int = 2027,
        capacity: int = 16,
        name: str = "fleet",
    ) -> None:
        if num_hosts < 1:
            raise ClusterError("a fleet needs at least one host")
        self.seed = seed
        self.name = name
        self.rng = RandomSource(f"{name}-{seed}".encode())
        self.policy_epoch = 1
        self.hosts: Dict[str, Host] = {}
        self.ring = ConsistentHashRing()
        for index in range(num_hosts):
            host_id = f"h{index}"
            platform = build_platform(
                AccessMode.IMPROVED, seed=seed + index, name=f"{name}-{host_id}"
            )
            platform.enable_supervision()
            host = Host(host_id, platform, capacity=capacity)
            host.policy_epoch = self.policy_epoch
            self.hosts[host_id] = host
            self.ring.add(host_id, weight=capacity)
        #: enrolment-time measured identities — the attestation baseline
        self._enrolled: Dict[str, str] = {
            host_id: host.enrolled_identity
            for host_id, host in self.hosts.items()
        }
        self.router = FleetRouter(self.hosts)
        self.scheduler = PlacementScheduler(self.ring, self.hosts)
        self.migrator = ClusterMigrator(self)

    # -- enrolment ----------------------------------------------------------------

    def enrolled_identity(self, host_id: str) -> str:
        identity = self._enrolled.get(host_id)
        if identity is None:
            raise ClusterError(f"host {host_id!r} was never enrolled")
        return identity

    def bump_policy_epoch(self, host_ids: Optional[List[str]] = None) -> int:
        """Push a new policy generation to all (or only some) hosts.

        Leaving a host off the push models the stale-policy condition the
        migration handshake must refuse.
        """
        self.policy_epoch += 1
        for host_id in (host_ids if host_ids is not None else self.hosts):
            self.hosts[host_id].policy_epoch = self.policy_epoch
        return self.policy_epoch

    # -- guests -------------------------------------------------------------------

    def add_guest(self, name: str, **kwargs) -> str:
        """Place and create one guest; returns the chosen host id."""
        host_id = self.scheduler.place(name)
        host = self.hosts[host_id]
        host.platform.add_guest(name, **kwargs)
        self.router.register(name, host_id)
        return host_id

    def instance_for(self, name: str):
        """The live vTPM instance behind one guest name (any host)."""
        platform = self.hosts[self.router.locate(name)].platform
        return platform.manager.instance_for_vm(
            platform.guests[name].domain.uuid
        )

    # -- movement -----------------------------------------------------------------

    def migrate(self, name: str, target_host_id: str):
        return self.migrator.migrate(name, target_host_id)

    def rebalance(self) -> List[MigrationRecord]:
        """Plan and execute a rebalance storm under the current signals."""
        plan = self.scheduler.rebalance_plan(self.router.placements())
        if not plan:
            return []
        return self.migrator.storm(plan)

    # -- host lifecycle -----------------------------------------------------------

    def poll_host_faults(self) -> int:
        """Give the injector one shot at every UP host; returns crashes.

        Called once per workload step.  A fired ``HOST_CRASH`` drives the
        whole crash → recover leg inline: the host's volatile manager
        state dies, and the replacement daemon restores every instance
        its manager held from the last committed checkpoint and rebinds
        its guests' back-ends.  The fault is *handled*, not raised —
        like the supervisor's restart leg, recovery is the behaviour
        under test.
        """
        crashes = 0
        for host_id in sorted(self.hosts):
            host = self.hosts[host_id]
            if host.state is not HostState.UP:
                continue
            event = fire("cluster.host", host=host_id)
            if event is not None and event.kind is FaultKind.HOST_CRASH:
                crashes += 1
                self.crash_host(host_id)
                self.recover_host(host_id)
        return crashes

    def crash_host(self, host_id: str) -> None:
        """Kill one host's manager daemon hard.

        The periodic checkpointer is modelled as having run just before
        the crash (the chaos demo's convention).
        """
        host = self.hosts[host_id]
        host.platform.manager.save_all()
        host.crash()

    def recover_host(self, host_id: str) -> int:
        """Hard-restart a crashed host; returns how many instances were
        restored.  The restart rebinds every resident's back-end, so the
        router's name map needs no change."""
        host = self.hosts[host_id]
        with span("cluster.recover", host=host_id,
                  residents=len(host.platform.guests)):
            return host.hard_restart()

    # -- exposition ---------------------------------------------------------------

    def describe(self) -> List[Dict[str, object]]:
        return [self.hosts[h].describe() for h in sorted(self.hosts)]


def build_fleet(
    num_hosts: int = 4,
    seed: int = 2027,
    capacity: int = 16,
    name: str = "fleet",
) -> Fleet:
    """The one-liner the demo, benchmarks and tests build fleets through."""
    return Fleet(num_hosts=num_hosts, seed=seed, capacity=capacity, name=name)
