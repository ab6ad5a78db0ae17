"""The cluster acceptance demo: a fleet surviving a storm and a crash.

The claim mirrors the single-host chaos demo, scaled out: N hosts and M
guests run a deterministic per-guest command script while the fleet is
subjected to link partitions, a migration storm (a third of the guests
rebalanced mid-run through the attested sealed path) and one whole-host
crash with in-place recovery.  The oracles:

* **zero silent drops** — every submitted frame receives exactly one
  well-formed response (retried partitions return the real response;
  exhausted episodes return a degraded ``TPM_FAIL``, never nothing);
* **placed or failed** — every guest ends on an ``UP`` host, or its
  placement failed explicitly at admission;
* **no state loss, no placement sensitivity** — every guest's PCR/NV
  digest *and* its response-byte digest are byte-identical to a
  single-host, fault-free control run of the same per-guest scripts;
* **replay identity** — placement decisions, migration records and the
  fault sequence are identical across same-seed runs.

The per-guest scripts use only deterministic no-auth commands (extend,
PCR read) — exactly the commands whose responses depend on nothing but
the instance's own state, which is what makes the cross-host response
comparison meaningful.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.cluster.fleet import Fleet, build_fleet
from repro.cluster.host import HostState
from repro.crypto.random_source import RandomSource
from repro.faults import FaultKind, FaultPlan, spec
from repro.harness.scenario import (
    ResponseLedger,
    RunReport,
    Scenario,
    ScenarioResult,
    state_digest,
)
from repro.tpm import marshal
from repro.tpm.constants import NUM_PCRS
from repro.util.errors import ClusterError

DEFAULT_HOSTS = 4
DEFAULT_GUESTS = 32
DEFAULT_STEPS = 96
CHECKPOINT_EVERY = 24
#: every STORM_STRIDE-th guest (sorted) is rebalanced in the storm
STORM_STRIDE = 3
#: the host the default plan crashes mid-run
CRASH_HOST = "h1"


def default_cluster_plan(seed: int, num_hosts: int, crash_step: int) -> FaultPlan:
    """Link partitions throughout, one whole-host crash mid-run.

    The ``cluster.host`` site is polled once per UP host per step (sorted
    order), so the crash spec arms at the first poll of ``crash_step``
    and the ``match`` filter lets it fire on :data:`CRASH_HOST` only.
    """
    crash_offset = max(0, (crash_step - 1) * num_hosts)
    return FaultPlan(
        name="cluster-chaos",
        seed=seed,
        specs=(
            # Sparse enough that one bounded-retry episode always clears
            # it (no two consecutive link calls both fire), so responses
            # stay byte-identical to the fault-free control.
            spec(FaultKind.PARTITION, every=23),
            spec(
                FaultKind.HOST_CRASH,
                every=1,
                offset=crash_offset,
                max_fires=1,
                match={"host": CRASH_HOST},
            ),
        ),
    )


@dataclass(kw_only=True)
class ClusterReport(RunReport):
    """One fleet run: the shared report plus placement and migration."""

    hosts: int
    guests: int
    steps: int
    #: per-guest SHA-256 over every response frame, in script order
    response_digests: Dict[str, str]
    placement_signature: Tuple
    migration_signature: Tuple[Tuple[str, str, str, str, int], ...]
    #: guests whose placement failed explicitly (admission refused)
    placement_failures: List[str]
    final_placements: Dict[str, str]
    host_states: Dict[str, str]
    host_crashes: int
    migrations_moved: int
    migrations_failed: int
    degraded: int

    digests_shown = 4

    def shape(self) -> str:
        return f"hosts={self.hosts} guests={self.guests} steps={self.steps}"

    def detail_lines(self) -> List[str]:
        return [
            f"{self.ledger_line()} degraded={self.degraded}",
            f"host crashes survived: {self.host_crashes}; migrations: "
            f"{self.migrations_moved} moved, {self.migrations_failed} failed",
            f"placements: "
            + ", ".join(
                f"{h}={sum(1 for p in self.final_placements.values() if p == h)}"
                for h in sorted(self.host_states)
            )
            + (f"; failed={self.placement_failures}"
               if self.placement_failures else ""),
            f"virtual time={self.elapsed_virtual_us / 1000.0:.2f} ms",
        ]


def storm_moves(
    fleet: Fleet, guest_names: List[str]
) -> List[Tuple[str, str, str]]:
    """Every STORM_STRIDE-th guest moves to its next admissible ring
    candidate — guaranteed cross-host movement, unlike a pure rebalance
    of an already-well-placed fleet."""
    moves: List[Tuple[str, str, str]] = []
    for position, name in enumerate(sorted(guest_names)):
        if position % STORM_STRIDE:
            continue
        home = fleet.router.locate(name)
        candidates = fleet.ring.candidates(name)
        start = candidates.index(home) + 1 if home in candidates else 0
        for offset in range(len(candidates)):
            target = candidates[(start + offset) % len(candidates)]
            if target != home and fleet.hosts[target].admissible():
                moves.append((name, home, target))
                break
    return moves


@dataclass
class ClusterScenario(Scenario):
    """N hosts, M guests, a migration storm a third of the way in and the
    default plan's host crash two thirds of the way in.

    Each guest's command script is drawn from an rng keyed to *(seed,
    guest name)* alone — independent of host count, placement, and every
    other guest — so the same scripts replay against any fleet shape and
    the per-guest digests are directly comparable across shapes.  The
    control run is the same scripts on one host, where no storm happens.
    """

    seed: int = 2027
    hosts: int = DEFAULT_HOSTS
    guests: int = DEFAULT_GUESTS
    steps: int = DEFAULT_STEPS

    title = "chaotic fleet run"

    def default_plan(self) -> FaultPlan:
        return default_cluster_plan(
            self.seed, self.hosts, crash_step=max(1, (2 * self.steps) // 3)
        )

    def control(self) -> "ClusterScenario":
        return replace(self, hosts=1)

    def build(self) -> list:
        # Capacity covers a whole fleet's worth of guests per host, so the
        # one-host control run and mid-storm transients always fit.
        self.fleet = build_fleet(num_hosts=self.hosts, seed=self.seed,
                                 capacity=max(self.guests, 4))
        self.audit = self.fleet.hosts["h0"].platform.audit
        return [self.fleet.hosts[h].platform for h in sorted(self.fleet.hosts)]

    def setup(self) -> None:
        self.placement_failures: List[str] = []
        self.placed: List[str] = []
        for name in (f"g{index:02d}" for index in range(self.guests)):
            try:
                self.fleet.add_guest(name)
            except ClusterError:
                self.placement_failures.append(name)
            else:
                self.placed.append(name)
        self.streams = {
            name: RandomSource(f"cluster-wl-{self.seed}-{name}".encode())
            for name in self.placed
        }
        self.response_hash = {name: hashlib.sha256() for name in self.placed}
        self.crash_count = 0

    def step(self, step: int, ledger: ResponseLedger) -> None:
        fleet = self.fleet
        self.crash_count += fleet.poll_host_faults()
        for name in self.placed:
            rng = self.streams[name]
            if rng.randint_below(100) < 55:
                wire = marshal.extend_wire(
                    rng.randint_below(NUM_PCRS), rng.bytes(20)
                )
            else:
                wire = marshal.pcr_read_wire(rng.randint_below(NUM_PCRS))
            ledger.submitted += 1
            response = fleet.router.send(name, wire)
            ledger.answer(response)
            self.response_hash[name].update(response)

        if step % CHECKPOINT_EVERY == 0:
            for host_id in sorted(fleet.hosts):
                fleet.hosts[host_id].platform.manager.save_all()
        if step == max(1, self.steps // 3) and len(fleet.hosts) > 1:
            fleet.migrator.storm(storm_moves(fleet, self.placed))

    def finish(self) -> Dict[str, str]:
        return {
            name: state_digest(self.fleet.instance_for(name))
            for name in self.placed
        }

    def report(self, **shared) -> ClusterReport:
        fleet = self.fleet
        outcomes = [record.outcome for record in fleet.migrator.trail]
        return ClusterReport(
            hosts=self.hosts,
            guests=self.guests,
            steps=self.steps,
            response_digests={
                name: h.hexdigest() for name, h in self.response_hash.items()
            },
            placement_signature=fleet.scheduler.trail_signature(),
            migration_signature=fleet.migrator.trail_signature(),
            placement_failures=self.placement_failures,
            final_placements=fleet.router.placements(),
            host_states={
                host_id: host.state.value
                for host_id, host in sorted(fleet.hosts.items())
            },
            host_crashes=self.crash_count,
            migrations_moved=outcomes.count("moved"),
            migrations_failed=outcomes.count("failed"),
            degraded=fleet.router.degraded,
            **shared,
        )

    def check(self, result: ScenarioResult) -> None:
        control, chaotic, replay = result
        assert chaotic.fault_counts.get("partition", 0) > 0, (
            "the plan never partitioned the cluster link"
        )
        assert chaotic.host_crashes >= 1, "the plan never crashed a host"
        assert chaotic.migrations_moved >= 1, "the storm never moved a guest"
        # Placed-or-failed: every guest ends on an UP host or failed loudly.
        for report in (chaotic, replay):
            for guest, host_id in report.final_placements.items():
                assert report.host_states[host_id] == HostState.UP.value, (
                    f"guest {guest} stranded on {host_id} "
                    f"({report.host_states[host_id]})"
                )
            assert (
                len(report.final_placements) + len(report.placement_failures)
                == report.guests
            )
        # No placement sensitivity: responses match the single-host
        # fault-free control byte for byte.
        assert chaotic.response_digests == control.response_digests, (
            "response divergence vs the single-host fault-free control"
        )
        # Replay identity: schedules reproduce exactly.
        assert chaotic.placement_signature == replay.placement_signature
        assert chaotic.migration_signature == replay.migration_signature
        assert chaotic.response_digests == replay.response_digests

    def verdict_lines(self, result: ScenarioResult) -> List[str]:
        chaotic = result.chaotic
        return [
            f"zero silent drops     : {result.zero_dropped} "
            f"({chaotic.answered}/{chaotic.submitted} frames answered)",
            f"placed or failed      : True "
            f"({len(chaotic.final_placements)} guests on UP hosts, "
            f"{len(chaotic.placement_failures)} failed explicitly)",
            f"state preserved       : {result.state_preserved} "
            "(all digests match the single-host fault-free control)",
            f"deterministic         : {result.deterministic} "
            "(same seed → identical placement, migration and fault "
            "sequences)",
        ]
