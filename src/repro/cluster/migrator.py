"""The attested cross-host migration orchestrator.

One migration is a five-leg protocol, every cross-host leg passing the
``cluster.link`` fault site:

1. **handshake** — the source mints a nonce and asks the target for an
   attestation report bound to it;
2. **verify** — the source checks the report against the target's
   enrolment-time measured identity and the fleet policy epoch.  Any
   mismatch raises :class:`~repro.util.errors.ClusterError` *before* an
   offer is consumed or a byte of state leaves the source — fail closed,
   the guest keeps serving where it is;
3. **offer + export** — the verified target mints a single-use
   hardware-TPM-bound :class:`~repro.vtpm.migration.MigrationOffer`; the
   source opens a sealed export transaction against it;
4. **transfer + import** — the package crosses the link (where a
   ``PARTITION`` may drop it); the target unbinds the session key in its
   hardware TPM, checks identity continuity, and instantiates;
5. **commit** — only now does the source destroy its copy and tear down
   the old domain; the target connects the guest's ring (and supervises
   it) and the router is re-pointed.

Legs 3–5, their rollback (plus scrubbing the half-made target domain)
and the bounded retry loop are the shared
:class:`~repro.vtpm.migration.Migration`; a transient fault in any leg
renegotiates from scratch with a fresh nonce and offer.

``storm`` executes a batch of moves back-to-back, which is the chaos
demo's rebalance-under-fire mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.cluster.attestation import verify_report
from repro.faults import FaultKind, fire
from repro.obs import inc, span
from repro.util.errors import ClusterError, RetryExhausted
from repro.vtpm.migration import MIGRATION_ATTEMPTS, Migration

HANDSHAKE_NONCE_SIZE = 20


@dataclass(frozen=True)
class MigrationRecord:
    """One completed (or failed) migration, for the replay oracle."""

    guest: str
    source: str
    target: str
    outcome: str  # "moved" | "failed"
    attempts: int


class _AttestedMove(Migration):
    """The shared migration transaction with the fleet's own legs."""

    site = "cluster.migrate"

    def __init__(self, migrator: "ClusterMigrator", name: str, source, target,
                 source_domain) -> None:
        super().__init__(source.platform.migration, target.platform.migration,
                         source_domain.uuid)
        self.migrator = migrator
        self.name = name
        self.source_host = source
        self.target_host = target
        self.source_domain = source_domain

    def _link(self, host_id: str, phase: str) -> None:
        """One message crossing the inter-host link (partitionable)."""
        event = fire("cluster.link", host=host_id, guest=self.name, phase=phase)
        if event is not None and event.kind is FaultKind.PARTITION:
            event.raise_fault()

    def before_offer(self) -> None:
        # Leg 1+2: attestation handshake, then fail-closed verification.
        # ClusterError from verify_report propagates — a target that fails
        # attestation is not a transient condition retries can fix.
        migrator, target = self.migrator, self.target_host
        nonce = migrator._rng.bytes(HANDSHAKE_NONCE_SIZE)
        self._link(target.host_id, phase="challenge")
        report = target.attestation_report(nonce)
        self._link(self.source_host.host_id, phase="report")
        verify_report(
            report,
            expected_identity=migrator.fleet.enrolled_identity(target.host_id),
            expected_epoch=migrator.fleet.policy_epoch,
            nonce=nonce,
        )

    def wire(self, package) -> None:
        # Leg 4: the package crosses the link; the target builds the domain
        # it lands in.
        self._link(self.target_host.host_id, phase="transfer")
        self.target_vm = self.destination.landing_domain(self.source_domain)

    def rolled_back(self) -> None:
        # The half-made domain is scrubbed with the rest of the attempt.
        if self.target_vm is not None:
            self.target_host.platform.xen.destroy_domain(self.target_vm.domid)
            self.target_vm = None


class ClusterMigrator:
    """Drives guests between hosts through the attested sealed path."""

    def __init__(self, fleet) -> None:
        self.fleet = fleet
        self._rng = fleet.rng.fork("cluster-migrator")
        #: append-only, time-free migration trail
        self.trail: List[MigrationRecord] = []

    # -- one migration ------------------------------------------------------------

    def migrate(self, name: str, target_host_id: str):
        """Move guest ``name`` to ``target_host_id``; returns the new instance."""
        fleet = self.fleet
        source_host_id = fleet.router.locate(name)
        if source_host_id == target_host_id:
            raise ClusterError(f"guest {name!r} already lives on "
                               f"{target_host_id}")
        source = fleet.hosts[source_host_id]
        target = fleet.hosts[target_host_id]
        if not target.admissible():
            raise ClusterError(
                f"host {target_host_id} is not admissible "
                f"({target.state.value}, {target.spare_capacity} slots free)"
            )
        move = _AttestedMove(
            self, name, source, target,
            source.platform.guests[name].domain,
        )
        with span(
            "cluster.migrate", guest=name, source=source.host_id,
            target=target.host_id,
        ):
            try:
                instance = move.run()
            except RetryExhausted:
                inc("cluster.migrations", outcome="failed")
                self.trail.append(MigrationRecord(
                    guest=name, source=source.host_id, target=target.host_id,
                    outcome="failed", attempts=MIGRATION_ATTEMPTS,
                ))
                raise
            # Leg 5 tail: the source copy is gone (commit_export), so
            # retire the guest there, give it its ring on the target and
            # re-point the router.
            source.platform.remove_guest(name)
            target.platform.adopt_migrated(
                name, move.target_vm, instance.instance_id
            )
            fleet.router.relocate(name, target.host_id)
            inc("cluster.migrations", outcome="moved", target=target.host_id)
            self.trail.append(MigrationRecord(
                guest=name, source=source.host_id, target=target.host_id,
                outcome="moved", attempts=move.attempt,
            ))
            return instance

    # -- storm mode ----------------------------------------------------------------

    def storm(
        self, moves: List[Tuple[str, str, str]]
    ) -> List[MigrationRecord]:
        """Execute a batch of rebalance moves back-to-back.

        Each move runs the full attested protocol.  A move whose target
        stopped being admissible mid-storm is recorded as failed and the
        storm continues — a rebalance must never take the fleet down.
        """
        executed: List[MigrationRecord] = []
        with span("cluster.storm", moves=len(moves)):
            for guest, _source, target_id in moves:
                try:
                    self.migrate(guest, target_id)
                # repro: allow[fail-closed] -- migrate() already recorded and counted this failure
                except RetryExhausted:
                    pass
                except ClusterError:
                    inc("cluster.migrations", outcome="refused")
                    self.trail.append(MigrationRecord(
                        guest=guest,
                        source=_source,
                        target=target_id,
                        outcome="failed",
                        attempts=0,
                    ))
                executed.append(self.trail[-1])
        return executed

    # -- oracle view ----------------------------------------------------------------

    def trail_signature(self) -> Tuple[Tuple[str, str, str, str, int], ...]:
        return tuple(
            (r.guest, r.source, r.target, r.outcome, r.attempts)
            for r in self.trail
        )
