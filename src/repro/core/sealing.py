"""Sealed persistent state for vTPM instances.

The storage half of the defence.  The manager owns a random **root
secret**; every instance's state file is encrypted (authenticated) with a
key derived from that root plus the instance UUID and owning identity.
The root itself is kept *sealed to the hardware TPM* bound to the
platform's boot PCRs, so:

* a stolen state file is ciphertext;
* a stolen state file **plus** the sealed-root file is still useless off
  the original platform (the hardware TPM refuses to unseal there);
* on-platform, only the measured manager stack (matching PCRs) can unlock.
"""

from __future__ import annotations

from typing import Optional

from repro.core.hwroot import HardwareRoot
from repro.crypto.kdf import derive_key
from repro.crypto.random_source import RandomSource
from repro.crypto.symmetric import EncryptedBlob, SymmetricKey
from repro.util.errors import SealingError, TpmError

ROOT_SECRET_SIZE = 32


class StateSealer:
    """Encrypts/decrypts vTPM instance state under a TPM-sealed root."""

    def __init__(self, hw: HardwareRoot, rng: RandomSource) -> None:
        self._hw = hw
        self._rng = rng
        self._root: Optional[bytes] = None
        self._blob_auth = rng.bytes(20)
        self.sealed_root_blob: Optional[bytes] = None

    # -- root lifecycle --------------------------------------------------------

    def initialize(self) -> bytes:
        """Generate the root secret and seal it to the hardware TPM, bound
        to the platform's current boot measurements.

        Returns the sealed blob (safe to persist next to the state files).
        """
        self._root = self._rng.bytes(ROOT_SECRET_SIZE)
        self.sealed_root_blob = self._hw.seal(self._root, self._blob_auth)
        return self.sealed_root_blob

    def lock(self) -> None:
        """Drop the in-memory root (manager shutdown)."""
        self._root = None

    def unlock(self, sealed_blob: Optional[bytes] = None) -> None:
        """Recover the root via hardware-TPM unseal.

        Fails with :class:`SealingError` if the platform PCRs moved or the
        blob belongs to a different machine.
        """
        blob = self.sealed_root_blob if sealed_blob is None else sealed_blob
        if blob is None:
            raise SealingError("no sealed root blob to unlock from")
        try:
            self._root = self._hw.unseal(blob, self._blob_auth)
        except TpmError as exc:
            raise SealingError(
                f"hardware TPM refused to unseal the root (code {exc.code:#x}); "
                "wrong platform or changed boot measurements"
            ) from exc
        if len(self._root) != ROOT_SECRET_SIZE:
            self._root = None
            raise SealingError("unsealed root has the wrong size")

    @property
    def unlocked(self) -> bool:
        return self._root is not None

    # -- per-instance state protection ------------------------------------------

    def _instance_key(self, instance_uuid: str, identity_hex: str) -> SymmetricKey:
        if self._root is None:
            raise SealingError("sealer is locked; unlock() first")
        material = derive_key(
            self._root,
            instance_uuid.encode("utf-8"),
            b"vtpm-state|" + identity_hex.encode("utf-8"),
            32,
        )
        return SymmetricKey(material)

    def seal_state(
        self, instance_uuid: str, identity_hex: str, state: bytes
    ) -> bytes:
        """Encrypt one instance's state blob for rest."""
        key = self._instance_key(instance_uuid, identity_hex)
        return key.encrypt(state, self._rng).serialize()

    def unseal_state(
        self, instance_uuid: str, identity_hex: str, blob: bytes
    ) -> bytes:
        """Decrypt a state file; tamper or wrong identity/uuid fails closed."""
        key = self._instance_key(instance_uuid, identity_hex)
        try:
            return key.decrypt(EncryptedBlob.deserialize(blob))
        except Exception as exc:
            raise SealingError(f"state unseal failed: {exc}") from exc
