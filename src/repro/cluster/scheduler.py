"""Deterministic placement: where new guests land, and when to move them.

The ring proposes candidates in a stable order; the scheduler filters
them to admissible hosts (``UP`` with spare capacity) and scores the
first few by the three signals the fleet already measures:

* **capacity pressure** — residents / capacity;
* **load** — the host-level admission EWMA over routed-command virtual
  latency, normalised by the configured base estimate;
* **health** — the penalty sum over the platform's resilience records
  (a host nursing quarantined instances attracts nothing new).

Lowest score wins; ties break by ring order, so placement is a pure
function of fleet state and the decision trail replays identically under
a fixed seed — the demo's determinism oracle compares trails across
runs.  Rebalancing is the same decision inverted: a guest whose current
host is no longer its best admissible candidate is proposed for
migration, worst displacement first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.host import Host
from repro.obs import inc
from repro.util.errors import ClusterError

#: how many admissible ring candidates are scored per decision
SCORE_CANDIDATES = 3


@dataclass(frozen=True)
class PlacementDecision:
    """One scheduling decision, recorded for the replay oracle."""

    guest: str
    chosen: str
    #: (host_id, score) for every candidate considered, in ring order
    scored: Tuple[Tuple[str, float], ...]


class PlacementScheduler:
    """Capacity-, load-, and health-aware placement over the hash ring."""

    def __init__(
        self, ring: ConsistentHashRing, hosts: Dict[str, Host]
    ) -> None:
        self.ring = ring
        self.hosts = hosts
        #: append-only decision trail (placements and rebalance proposals)
        self.trail: List[PlacementDecision] = []

    # -- scoring -----------------------------------------------------------------

    def _score(self, host: Host) -> float:
        pressure = host.resident_count / host.capacity
        load = host.load_estimate_us / host.admission.config.service_estimate_us
        return round(pressure + load + host.health_penalty(), 6)

    def _decide(self, guest: str) -> PlacementDecision:
        admissible = [
            host_id
            for host_id in self.ring.candidates(guest)
            if self.hosts[host_id].admissible()
        ]
        if not admissible:
            inc("cluster.placements", outcome="failed")
            raise ClusterError(
                f"no admissible host for guest {guest!r}: every host is "
                f"down, draining, or at capacity"
            )
        scored = tuple(
            (host_id, self._score(self.hosts[host_id]))
            for host_id in admissible[:SCORE_CANDIDATES]
        )
        chosen = min(scored, key=lambda entry: entry[1])[0]
        return PlacementDecision(guest=guest, chosen=chosen, scored=scored)

    # -- the two decisions -------------------------------------------------------

    def place(self, guest: str) -> str:
        """Pick the host a new guest lands on; records the decision."""
        decision = self._decide(guest)
        self.trail.append(decision)
        inc("cluster.placements", outcome="placed", host=decision.chosen)
        return decision.chosen

    def rebalance_plan(
        self, placements: Dict[str, str]
    ) -> List[Tuple[str, str, str]]:
        """Moves that bring ``{guest: current_host}`` toward ideal.

        Returns ``(guest, source, target)`` tuples, worst-placed guest
        first.  Proposals only — the migrator executes them (each through
        the full attestation handshake), and a proposal that stops being
        valid mid-storm (its target crashed) simply fails that move.
        """
        proposals: List[Tuple[float, str, str, str]] = []
        for guest in sorted(placements):
            current = placements[guest]
            decision = self._decide(guest)
            if decision.chosen == current:
                continue
            current_score = (
                self._score(self.hosts[current])
                if current in self.hosts
                else float("inf")
            )
            ideal_score = dict(decision.scored)[decision.chosen]
            gain = current_score - ideal_score
            self.trail.append(decision)
            proposals.append((gain, guest, current, decision.chosen))
        proposals.sort(key=lambda p: (-p[0], p[1]))
        return [(guest, src, dst) for _gain, guest, src, dst in proposals]

    # -- oracle view -------------------------------------------------------------

    def trail_signature(self) -> Tuple[Tuple[str, str, Tuple], ...]:
        """Time-free trail view for replay-identity comparison."""
        return tuple(
            (d.guest, d.chosen, d.scored) for d in self.trail
        )
