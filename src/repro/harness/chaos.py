"""Chaos scenarios: seeded workloads that survive injected faults.

This is the robustness counterpart of the performance experiments: two
platforms, two guests, a deterministic command mix, periodic checkpoints,
one live migration and one hard manager crash — all driven under a
:class:`~repro.faults.plan.FaultPlan` that stalls rings, drops kicks,
tears state writes, fills the disk, corrupts reads, fails the device and
interrupts the migration.  The claim the demo checks is *zero state
loss*: the PCR and NV contents of every guest after the chaotic run are
byte-identical to a fault-free run of the same seed, and the same seed
reproduces the identical fault sequence twice.  The supervised scenario
below adds the resilience claims.  Both run through
:mod:`repro.harness.scenario`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.config import AccessMode
from repro.faults import FaultKind, FaultPlan, spec
from repro.harness.builder import build_platform
from repro.harness.scenario import (
    ResponseLedger,
    RunReport,
    Scenario,
    ScenarioResult,
    state_digest,
)
from repro.tpm import marshal
from repro.tpm.client import TpmClient
from repro.tpm.constants import NUM_PCRS
from repro.tpm.nvram import NV_PER_AUTHWRITE
from repro.vtpm.migration import migrate_with_recovery

#: the demo's fixed shape: deterministic, and long enough that every fault
#: kind in the default plan gets its chance to fire
DEFAULT_COMMANDS = 1_000
CHECKPOINT_EVERY = 100
MIGRATE_AT = 400
CRASH_AT = 700

OWNER_AUTH = b"chaos-owner-auth!!!!"
NV_AUTH = b"chaos-nv-area-auth!!"
NV_INDEX = 0x1100
NV_SIZE = 64


@dataclass(kw_only=True)
class ChaosReport(RunReport):
    """One chaos run: the shared report plus its recovery summary."""

    commands: int

    def shape(self) -> str:
        return f"commands={self.commands}"

    def detail_lines(self) -> List[str]:
        return [
            f"retries={self.retries} recoveries={self.recoveries} "
            f"mean recovery latency={self.mean_recovery_us:.1f} us",
            f"audit fault records={self.audit_fault_records} "
            f"virtual time={self.elapsed_virtual_us / 1000.0:.2f} ms",
        ]


@dataclass
class ChaosScenario(Scenario):
    """The chaos workload described above: the script is identical with
    and without faults, which makes the digest comparison meaningful."""

    seed: int = 2026
    commands: int = DEFAULT_COMMANDS

    title = "chaotic run"

    @property
    def steps(self) -> int:
        return self.commands

    def default_plan(self) -> FaultPlan:
        """Every fault kind the injector knows, tuned to this workload.

        Schedules are call-count based, so they are deterministic for a
        given workload regardless of the seed; the seed only drives
        probabilistic specs (of which this plan has none) — it is kept in
        the plan so the report names the full reproduction recipe.
        """
        return FaultPlan(
            name="default-chaos",
            seed=self.seed,
            specs=(
                # Ring path: periodic stalls plus a few lost kicks.
                spec(FaultKind.RING_STALL, every=97),
                spec(FaultKind.RING_DROP_NOTIFY, every=211, max_fires=3),
                # Device path: transient bus errors on virtual TPMs only, plus
                # one isolated wedge (cleared by the next retry attempt — a
                # *consecutive* wedge storm is the supervised demo's job).
                spec(FaultKind.DEVICE_TRANSIENT, every=53, match={"device": "vtpm*"}),
                spec(FaultKind.WEDGE, at=(10,), match={"device": "vtpm*"}),
                # Supervisor probe path: inert here (the site only exists under
                # supervision) but keeps the plan covering every kind.
                spec(FaultKind.FLAP, at=(0,)),
                # Storage path: torn checkpoint writes, one full disk, one
                # corrupt read during crash recovery.
                spec(FaultKind.STORAGE_TORN_WRITE, every=5),
                spec(FaultKind.STORAGE_ENOSPC, at=(7,)),
                spec(FaultKind.STORAGE_READ_CORRUPT, at=(0,)),
                # Migration path: first transfer lost on the wire, second one
                # reaches a destination that immediately crashes.
                spec(FaultKind.MIGRATION_NET_DROP, at=(0,)),
                spec(FaultKind.MIGRATION_DEST_CRASH, at=(0,)),
            ),
        )

    def build(self) -> list:
        improved = AccessMode.IMPROVED
        self.platform_a = build_platform(improved, seed=self.seed, name="chaos-a")
        self.platform_b = build_platform(improved, seed=self.seed + 1,
                                         name="chaos-b")
        self.audit = self.platform_a.audit
        return [self.platform_a, self.platform_b]

    def setup(self) -> None:
        guests = {
            name: self.platform_a.add_guest(name) for name in ("anchor", "mover")
        }
        for guest in guests.values():
            ek = guest.client.read_pubek()
            guest.client.take_ownership(OWNER_AUTH, b"s" * 20, ek)
            guest.client.nv_define(
                OWNER_AUTH, NV_INDEX, NV_SIZE, NV_PER_AUTHWRITE, NV_AUTH
            )
        self.clients: Dict[str, TpmClient] = {
            name: guest.client for name, guest in guests.items()
        }
        self.workload_rng = self.platform_a.rng.fork("chaos-workload")

    def step(self, step: int, ledger: ResponseLedger) -> None:
        rng = self.workload_rng
        client = self.clients["anchor" if rng.randint_below(2) == 0 else "mover"]
        op = rng.randint_below(100)
        if op < 50:
            client.extend(rng.randint_below(16), rng.bytes(20))
        elif op < 75:
            client.get_random(16)
        elif op < 90:
            client.pcr_read(rng.randint_below(16))
        else:
            client.nv_write(NV_AUTH, NV_INDEX, rng.randint_below(NV_SIZE - 32),
                            rng.bytes(32))

        if step % CHECKPOINT_EVERY == 0:
            self.platform_a.manager.save_all()
        if step == MIGRATE_AT:
            self._migrate_mover()
        if step == CRASH_AT:
            # Hard manager crash right after a command burst: the new
            # daemon recovers the last committed checkpoint — with the
            # injector free to corrupt the recovery reads.
            self.platform_a.manager.save_all()
            self.platform_a.restart_manager(clean=False)

    def _migrate_mover(self) -> None:
        """Live-migrate 'mover' to platform B; the injector may cut the
        wire or crash the destination — migrate_with_recovery recovers."""
        source, target = self.platform_a, self.platform_b
        domain = source.guests["mover"].domain
        target_vm = target.migration.landing_domain(domain)
        instance = migrate_with_recovery(
            source.migration, target.migration, domain.uuid, target_vm
        )
        source.remove_guest("mover")
        self.clients["mover"] = target.adopt_migrated(
            "mover", target_vm, instance.instance_id
        ).client

    def finish(self) -> Dict[str, str]:
        return {
            name: state_digest(platform.manager.instance_for_vm(
                platform.guests[name].domain.uuid
            ))
            for platform in (self.platform_a, self.platform_b)
            for name in platform.guests
        }

    def report(self, **shared) -> ChaosReport:
        return ChaosReport(commands=self.commands, **shared)

    def check(self, result: ScenarioResult) -> None:
        chaotic = result.chaotic
        assert len(chaotic.fault_counts) >= 4, (
            f"chaos plan only exercised {sorted(chaotic.fault_counts)}"
        )
        assert chaotic.audit_fault_records >= chaotic.total_faults

    def verdict_lines(self, result: ScenarioResult) -> List[str]:
        return [
            f"fault kinds exercised : {len(result.chaotic.fault_counts)}",
            f"state preserved       : {result.state_preserved} "
            "(PCR/NV digests match the fault-free run)",
            f"deterministic         : {result.deterministic} "
            "(same seed → identical fault sequence)",
        ]


# -- supervised chaos -----------------------------------------------------------------

SUPERVISED_COMMANDS = 600
#: global tpm.device.execute call index the wedge storm starts at
WEDGE_START = 40
#: a consecutive-wedge budget of 16 = four fully exhausted retry episodes
WEDGE_FIRES = 16
BURST_EVERY = 4
BURST_SIZE = 16


@dataclass(kw_only=True)
class SupervisedChaosReport(RunReport):
    """One supervised chaos run: the shared report plus supervision state."""

    commands: int
    #: per guest: shed counts by reason, admitted totals
    shed_counts: Dict[str, Dict[str, int]]
    admitted: Dict[str, int]
    #: per guest: the breaker's (state, virtual us) trail
    breaker_sequences: Dict[str, Tuple]
    health: Dict[str, Dict[str, object]]
    settled: bool

    def shape(self) -> str:
        return f"commands={self.commands}"

    def detail_lines(self) -> List[str]:
        lines = [
            self.ledger_line(),
            "response codes: "
            + (", ".join(f"{code:#x}={n}"
                         for code, n in sorted(self.response_codes.items()))
               or "none"),
        ]
        for guest in sorted(self.health):
            record = self.health[guest]
            lines.append(
                f"{guest}: state={record['state']} restarts={record['restarts']} "
                + self.admission_text(guest)
            )
        return lines

    def admission_text(self, guest: str) -> str:
        shed = self.shed_counts.get(guest, {})
        return (
            f"admitted={self.admitted.get(guest, 0)} shed={sum(shed.values())}"
            + (f" ({', '.join(f'{k}={v}' for k, v in sorted(shed.items()))})"
               if shed else "")
        )

    def summary_lines(self) -> List[str]:
        return super().summary_lines() + [
            f"settled={self.settled} "
            f"virtual time={self.elapsed_virtual_us / 1000.0:.2f} ms"
        ]


@dataclass
class SupervisedChaosScenario(Scenario):
    """The resilience counterpart of :class:`ChaosScenario`.

    One platform, three guests, a supervisor over every back-end.  A wedge
    storm drives the "victim" guest through the full quarantine →
    supervised-restart → re-attest → probe lifecycle (the first restart
    flaps on purpose), while the "bursty" guest floods the ring with
    oversized batches so admission control sheds on depth and deadline,
    and the "anchor" guest does normal state-changing work the whole time.
    The oracles: zero silently dropped commands (every submitted frame
    gets exactly one well-formed response), every quarantined instance
    recovered-and-re-attested or explicitly failed, every guest's state
    digest byte-identical to the fault-free run, and breaker open/close
    sequences identical across same-seed runs.
    """

    seed: int = 2026
    commands: int = SUPERVISED_COMMANDS

    title = "supervised chaotic run"

    @property
    def steps(self) -> int:
        return self.commands

    def default_plan(self) -> FaultPlan:
        """Wedge storm on the victim, one probe flap, background ring stalls.

        The wedge matches device ``vtpm2`` — the second guest added by
        :meth:`setup` — and fires on *every* matching call once the storm
        starts, which is what burns whole retry budgets and drives
        the health record into quarantine.  The restored instance gets a new
        device name, so recovery also ends the storm naturally.
        """
        return FaultPlan(
            name="supervised-chaos",
            seed=self.seed,
            specs=(
                spec(FaultKind.WEDGE, every=1, offset=WEDGE_START,
                     max_fires=WEDGE_FIRES, match={"device": "vtpm2"}),
                # The first supervised restart's health probe fails: the
                # instance flaps back to quarantine and restarts again.
                spec(FaultKind.FLAP, at=(0,)),
                spec(FaultKind.RING_STALL, every=131),
            ),
        )

    def build(self) -> list:
        self.platform = build_platform(AccessMode.IMPROVED, seed=self.seed,
                                       name="supervised-chaos")
        self.audit = self.platform.audit
        return [self.platform]

    def setup(self) -> None:
        from repro.resilience import AdmissionConfig

        platform = self.platform
        # victim is instance 2 — the wedge target
        self.guests = {
            name: platform.add_guest(name)
            for name in ("anchor", "victim", "bursty")
        }
        for index in range(5):
            self.guests["victim"].client.extend(
                index, hashlib.sha1(f"victim-pcr-{index}".encode()).digest()
            )
        # The committed checkpoint every supervised restart restores from.
        platform.manager.save_all()
        self.supervisor = platform.enable_supervision(
            # A tight deadline budget so the bursty guest's oversized
            # batches shed on expected queueing delay as well as raw depth;
            # single frames (backlog 0) are never deadline-shed, so the
            # anchor and victim paths are unaffected.
            admission=AdmissionConfig(max_depth=8, deadline_us=150.0),
            # A short cooldown keeps the whole open → half-open → closed
            # breaker arc inside the run instead of parking it in drain().
            breaker_cooldown_us=2_000.0,
        )
        self.workload_rng = platform.rng.fork("supervised-workload")

    def step(self, step: int, ledger: ResponseLedger) -> None:
        rng = self.workload_rng
        # The anchor does normal, state-changing trusted-computing work
        # throughout — its digest must not feel the chaos at all.
        anchor = self.guests["anchor"].client
        op = rng.randint_below(100)
        if op < 60:
            anchor.extend(rng.randint_below(NUM_PCRS), rng.bytes(20))
        elif op < 85:
            anchor.pcr_read(rng.randint_below(NUM_PCRS))
        else:
            anchor.get_random(16)

        # The victim drives one read per step, raw on the wire so shed
        # and degraded frames land in the ledger instead of raising.
        ledger.submitted += 1
        ledger.answer(self.guests["victim"].frontend.transport(
            marshal.pcr_read_wire(step % NUM_PCRS)
        ))

        # The bursty guest floods the ring with oversized batches.
        if step % BURST_EVERY == 0:
            burst = [
                marshal.pcr_read_wire((step + i) % NUM_PCRS)
                for i in range(BURST_SIZE)
            ]
            ledger.submitted += len(burst)
            for response in self.guests["bursty"].frontend.transport_batch(burst):
                ledger.answer(response)

    def finish(self) -> Dict[str, str]:
        # Settle: wait out cooldowns and probe until every breaker closes.
        self.supervisor.drain()
        return {
            name: state_digest(
                self.platform.manager.instance_for_vm(handle.domain.uuid)
            )
            for name, handle in self.guests.items()
        }

    def report(self, **shared) -> SupervisedChaosReport:
        supervisor = self.supervisor
        status = {entry["guest"]: entry for entry in supervisor.status()}
        return SupervisedChaosReport(
            commands=self.commands,
            shed_counts={g: dict(e["shed"]) for g, e in status.items()},
            admitted={g: e["admitted"] for g, e in status.items()},
            breaker_sequences={
                g: supervisor.breaker_for(e["vm"]).sequence()
                for g, e in status.items()
            },
            health=status,
            settled=supervisor.settled(),
            **shared,
        )

    def check(self, result: ScenarioResult) -> None:
        chaotic, replay = result.chaotic, result.replay
        # Every quarantined instance was restored-and-re-attested (settled
        # healthy) or explicitly failed — never left in limbo.
        assert chaotic.settled, f"unsettled run: {chaotic.health}"
        assert any(
            record["restarts"] > 0 for record in chaotic.health.values()
        ), "the wedge storm never drove a supervised restart"
        # Determinism: same seed, same breaker schedule and shedding.
        assert chaotic.breaker_sequences == replay.breaker_sequences
        assert chaotic.shed_counts == replay.shed_counts

    def verdict_lines(self, result: ScenarioResult) -> List[str]:
        chaotic = result.chaotic
        return [
            f"zero silent drops     : {result.zero_dropped} "
            f"({chaotic.answered}/{chaotic.submitted} frames answered)",
            f"supervision settled   : {chaotic.settled} "
            "(every guest healthy-with-closed-breaker or explicitly failed)",
            f"state preserved       : {result.state_preserved} "
            "(all guests' digests match the fault-free run)",
            f"deterministic         : {result.deterministic} "
            "(same seed → identical fault + breaker sequences)",
        ]
