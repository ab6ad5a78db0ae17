"""Multi-host vTPM fleet: sharded managers, placement, attested migration.

One :class:`Fleet` owns N :class:`Host` objects — each a full platform
(hypervisor, hardware TPM, manager, monitor, supervisor) — on a single
shared virtual clock.  Guests are addressed by name through the
:class:`FleetRouter`; the :class:`PlacementScheduler` decides which
host's manager shards each vTPM (consistent hashing filtered by
capacity, load and health signals); the :class:`ClusterMigrator` moves
instances between hosts through the sealed-export path behind a
fail-closed attestation handshake.

``python -m repro cluster`` runs the acceptance demo, the
:class:`ClusterScenario` under :mod:`repro.harness.scenario`; the unit and
integration suites exercise every piece in isolation.
"""

from repro.cluster.attestation import AttestationReport, verify_report
from repro.cluster.demo import (
    ClusterReport,
    ClusterScenario,
    default_cluster_plan,
    storm_moves,
)
from repro.cluster.fleet import Fleet, build_fleet
from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.host import Host, HostState
from repro.cluster.migrator import ClusterMigrator, MigrationRecord
from repro.cluster.router import FleetRouter
from repro.cluster.scheduler import PlacementDecision, PlacementScheduler

__all__ = [
    "AttestationReport",
    "ClusterMigrator",
    "ClusterReport",
    "ClusterScenario",
    "ConsistentHashRing",
    "Fleet",
    "FleetRouter",
    "Host",
    "HostState",
    "MigrationRecord",
    "PlacementDecision",
    "PlacementScheduler",
    "build_fleet",
    "default_cluster_plan",
    "storm_moves",
    "verify_report",
]
