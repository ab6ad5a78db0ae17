#!/usr/bin/env python3
"""Live vTPM migration between two physical hosts.

Moves a guest's vTPM from host A to host B using the improved sealed
protocol, then proves:

* sealed data created before the move still unseals after it (state
  continuity),
* an eavesdropper on the migration path learns nothing (the package is
  encrypted to host B's hardware TPM),
* a replay of the captured package is rejected (single-use nonce).

Usage:  python examples/live_migration.py
"""

from repro import AccessMode, build_platform, fresh_timing_context
from repro.attacks.memdump import secrets_found
from repro.tpm.constants import TPM_KH_SRK
from repro.util.errors import MigrationError
from repro.vtpm.migration import Migration

OWNER_AUTH = b"migrating-owner-au!!"
SRK_AUTH = b"migrating-srk-auth!!"
DATA_AUTH = b"migrating-data-aut!!"


class Eavesdropped(Migration):
    """The one migration transaction, with an eavesdropper on its wire."""

    def __init__(self, secrets, *endpoints_and_vm) -> None:
        super().__init__(*endpoints_and_vm)
        self.secrets = secrets

    def wire(self, package) -> None:
        self.package = package
        print(f"migration package: {len(package)} bytes on the wire")
        leaked = secrets_found(package.payload, self.secrets)
        print(f"eavesdropper analysis: {len(leaked)} secrets visible in the stream")
        assert not leaked


def main() -> None:
    fresh_timing_context()
    host_a = build_platform(AccessMode.IMPROVED, seed=100, name="host-a")
    host_b = build_platform(AccessMode.IMPROVED, seed=200, name="host-b")

    guest = host_a.add_guest("tenant-vm")
    client = guest.client
    ek = client.read_pubek()
    client.take_ownership(OWNER_AUTH, SRK_AUTH, ek)
    sealed = client.seal(TPM_KH_SRK, SRK_AUTH, b"tenant-master-secret-42", DATA_AUTH)
    secrets_before = host_a.manager.instance(
        guest.instance_id
    ).device.state.secret_material()
    print(f"guest provisioned on host A; sealed blob of {len(sealed)} bytes")

    # The VM lands on host B with identical kernel/name/config, so its
    # measured identity carries over.
    target_vm = host_b.migration.landing_domain(guest.domain)
    move = Eavesdropped(
        secrets_before, host_a.migration, host_b.migration,
        guest.domain.uuid, target_vm,
    )
    instance = move.run()
    package = move.package
    print(f"host B instantiated vTPM instance {instance.instance_id}")
    host_a.remove_guest("tenant-vm")
    moved = host_b.adopt_migrated("tenant-vm", target_vm, instance.instance_id)

    # Continuity: the sealed blob made on host A opens on host B, through
    # the guest's own ring there.
    recovered = moved.client.unseal(TPM_KH_SRK, SRK_AUTH, sealed, DATA_AUTH)
    assert recovered == b"tenant-master-secret-42"
    print("sealed data unseals on host B — state continuity holds")

    # Replay: the captured package cannot be imported twice.
    replay_vm = host_b.xen.create_domain(
        "replayed-vm", kernel_image=guest.domain.kernel_image,
        config=dict(guest.domain.config),
    )
    try:
        host_b.migration.import_sealed(package, replay_vm)
        raise SystemExit("BUG: replayed migration package accepted")
    except MigrationError as exc:
        print(f"replayed package rejected: {exc}")


if __name__ == "__main__":
    main()
