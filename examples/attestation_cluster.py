#!/usr/bin/env python3
"""Attestation across a multi-host fleet: guests, hosts, and migration.

Four guests are scheduled across a four-host fleet (consistent-hash
placement filtered by capacity, load and health).  A challenger attests
every guest; one guest is then live-migrated between hosts through the
attested sealed-export path and keeps passing attestation against the
same reference values — migration is invisible to the challenger.  Then
the two failure directions:

* a **compromised guest** (unexpected code measured into its application
  PCR) fails its next attestation round, and only that guest fails;
* a **compromised host** (hardware boot chain re-measured after
  enrolment) is refused as a migration target — the handshake fails
  closed and the guest keeps serving where it is.

Usage:  python examples/attestation_cluster.py
"""

import hashlib

from repro import fresh_timing_context
from repro.cluster import build_fleet
from repro.sim.timing import get_context
from repro.util.errors import ClusterError
from repro.workloads.attestation import AttestationWorkload
from repro.workloads.mixes import GuestSession

CLUSTER = ("web01", "web02", "db01", "cache01")


class FleetGuest:
    """Adapter: a guest handle whose client follows migrations."""

    def __init__(self, fleet, name: str) -> None:
        self.name = name
        self.client = fleet.router.client_for(name)


def main() -> None:
    fresh_timing_context()
    fleet = build_fleet(num_hosts=4, seed=9, capacity=4)

    print(f"placing {len(CLUSTER)} guests across {len(fleet.hosts)} hosts...")
    workloads = {}
    references = {}
    for name in CLUSTER:
        host_id = fleet.add_guest(name)
        print(f"  {name:8s} -> {host_id}")
        session = GuestSession(
            FleetGuest(fleet, name), fleet.rng.fork(f"att-{name}")
        )
        # Each guest measures its application stack into PCR 12.
        session.guest.client.extend(
            12, hashlib.sha1(f"app-{name}-v1".encode()).digest()
        )
        workloads[name] = AttestationWorkload(
            session, fleet.rng.fork(f"chal-{name}"), pcr_indices=(0, 12)
        )
        references[name] = [
            session.guest.client.pcr_read(0),
            session.guest.client.pcr_read(12),
        ]

    print("\nround 1: everyone healthy")
    for name, workload in workloads.items():
        ok = workload.challenge_once(expected_values=references[name])
        print(f"  {name:8s} attestation {'PASS' if ok else 'FAIL'}")

    mover = "web01"
    source = fleet.router.locate(mover)
    target = next(h for h in sorted(fleet.hosts)
                  if h != source and fleet.hosts[h].admissible())
    print(f"\nlive-migrating {mover}: {source} -> {target} "
          "(attested sealed-export path)")
    fleet.migrate(mover, target)
    ok = workloads[mover].challenge_once(expected_values=references[mover])
    assert ok, "migration must be invisible to the challenger"
    print(f"  {mover:8s} attestation {'PASS' if ok else 'FAIL'} "
          f"on {fleet.router.locate(mover)} — same reference values")

    victim = "web02"
    print(f"\ncompromising guest {victim}: unexpected code measured into PCR 12")
    workloads[victim].session.guest.client.extend(
        12, hashlib.sha1(b"cryptominer.so").digest()
    )
    print("round 2: challenger compares against reference values")
    flagged = []
    for name, workload in workloads.items():
        ok = workload.challenge_once(expected_values=references[name])
        print(f"  {name:8s} attestation {'PASS' if ok else 'FAIL'}")
        if not ok:
            flagged.append(name)
    assert flagged == [victim], f"expected only {victim} flagged, got {flagged}"
    print(f"exactly the compromised guest ({victim}) failed; "
          "signatures from the others still verify")

    stray = "cache01"
    stray_home = fleet.router.locate(stray)
    bad_host = next(h for h in sorted(fleet.hosts) if h != stray_home)
    print(f"\ncompromising host {bad_host}: boot chain re-measured "
          "after enrolment")
    fleet.hosts[bad_host].platform.hw.client.extend(
        0, hashlib.sha1(b"evil-bootloader").digest()
    )
    try:
        fleet.migrate(stray, bad_host)
        raise AssertionError("migration to a tampered host must fail closed")
    except ClusterError as exc:
        print(f"  migration of {stray} refused: {exc}")
    assert fleet.router.locate(stray) == stray_home
    ok = workloads[stray].challenge_once(expected_values=references[stray])
    assert ok, "the refused guest must keep serving where it is"
    print(f"  {stray:8s} still serving and attesting on {stray_home}")

    print(f"\nvirtual time: {get_context().clock.now_us / 1000.0:.1f} ms")


if __name__ == "__main__":
    main()
