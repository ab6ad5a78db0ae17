"""Data-at-rest and data-in-flight theft attacks.

* :class:`StateFileTheftAttack` — copy the manager's state files from disk
  and scan for key material (baseline stores plaintext).
* :class:`MigrationInterceptAttack` — capture the migration byte stream
  between two platforms and scan it.
* :class:`ForeignRestoreAttack` — take the stolen files *and* the sealed
  root blob to a different physical machine and try to open them there;
  the hardware-TPM sealing makes the loot platform-locked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.attacks.memdump import secrets_found
from repro.core.config import AccessMode
from repro.core.sealing import StateSealer
from repro.harness.builder import GuestHandle, Platform
from repro.tpm.state import TpmState
from repro.util.errors import MarshalError, SealingError
from repro.vtpm.migration import Migration, MigrationPackage
from repro.vtpm.storage import latest_raw_payload


@dataclass
class StateFileTheftAttack:
    """Steal every vTPM state file from the manager's disk."""

    platform: Platform

    name = "state-theft"
    description = "attacker copies persistent vTPM state files from Dom0 disk"

    def run(self, victim_instance_id: int) -> tuple[bool, str]:
        manager = self.platform.manager
        manager.save_all()  # the files a long-running manager would have
        loot = manager.storage.disk.raw_contents()
        image = b"".join(loot.values())
        victim = manager.instance(victim_instance_id)
        hits = secrets_found(image, victim.device.state.secret_material())
        if hits:
            return True, (
                f"{len(loot)} stolen files contained {len(hits)} secret strings "
                "in cleartext"
            )
        return False, (
            f"{len(loot)} stolen files are ciphertext; no victim secrets found"
        )


class _WireTap(Migration):
    """A migration whose wire an eavesdropper records."""

    def wire(self, package: MigrationPackage) -> None:
        self.captured = package


@dataclass
class MigrationInterceptAttack:
    """Capture the vTPM migration stream between two platforms."""

    source: Platform
    destination: Platform

    name = "migration-intercept"
    description = "attacker records vTPM migration traffic on the wire"

    def run(self, victim: GuestHandle) -> tuple[bool, str]:
        source, destination = self.source, self.destination
        victim_secrets = source.manager.instance(
            victim.instance_id
        ).device.state.secret_material()
        tap = _WireTap(
            source.migration, destination.migration, victim.domain.uuid,
            destination.migration.landing_domain(victim.domain),
        )
        tap.run()
        package = tap.captured
        hits = secrets_found(package.payload, victim_secrets)
        if hits:
            return True, (
                f"captured {len(package)} bytes of migration traffic containing "
                f"{len(hits)} secret strings"
            )
        return False, (
            f"captured {len(package)} bytes; stream is sealed to the destination "
            "hardware TPM"
        )


@dataclass
class ForeignRestoreAttack:
    """Restore stolen state files on the attacker's own machine."""

    platform: Platform
    attacker_platform: Optional[Platform] = None

    name = "foreign-restore"
    description = "attacker rebuilds stolen vTPM state on another physical host"

    def run(self, victim_instance_id: int) -> tuple[bool, str]:
        manager = self.platform.manager
        manager.save_all()
        victim = manager.instance(victim_instance_id)
        loot = manager.storage.disk.raw_contents()
        # Strip the crash-consistency generation frame — a thief reads the
        # newest complete payload straight off the stolen medium.
        state_file = latest_raw_payload(loot, victim.vm_uuid)
        if state_file is None:
            return False, "no state file on disk for the victim"
        # Direct rebuild: works iff the file is cleartext TPM state.
        try:
            TpmState.deserialize(state_file)
            return True, (
                "state file parsed as cleartext TPM state on a foreign host; "
                "full key hierarchy recovered"
            )
        # repro: allow[fail-closed] -- attack harness deliberately probes malformed frames
        except MarshalError:
            pass
        # Ciphertext: the attacker also stole the sealed root blob and tries
        # to unlock it with *their own* machine's hardware TPM.
        attacker = self.attacker_platform or Platform(
            mode=AccessMode.IMPROVED, seed=666, name="attacker-host"
        )
        sealed_root = (
            self.platform.sealer.sealed_root_blob if self.platform.sealer else None
        )
        if sealed_root is None:
            return False, "state file is ciphertext and no sealed root exists"
        foreign_sealer = StateSealer(attacker.hw, attacker.rng.fork("thief"))
        try:
            foreign_sealer.unlock(sealed_root)
        except SealingError as exc:
            return False, f"foreign hardware TPM refused the sealed root: {exc}"
        return True, "foreign TPM unsealed the root (should be impossible)"
