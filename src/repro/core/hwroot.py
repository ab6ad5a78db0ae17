"""The platform's hardware TPM: its one owner.

Every use of the physical TPM goes through :class:`HardwareRoot`.  The root
builds the device, takes ownership, measures the boot chain into the
platform PCRs and keeps the owner and SRK authorizations to itself; the
state sealer, the deep-attestation certifier, the audit anchor, the
migration endpoint and a fleet host's attestation ask it for what they
need.  The platform measurement is encoded here only, as the PCR
composite of :data:`_PLATFORM_PCRS`, read live on every call.
"""

from __future__ import annotations

import hashlib

from repro.crypto.random_source import RandomSource
from repro.crypto.rsa import RsaPublicKey
from repro.tpm.client import TpmClient
from repro.tpm.constants import TPM_KH_SRK
from repro.tpm.device import TpmDevice
from repro.tpm.pcr import PcrBank, PcrSelection

#: key size used throughout simulations; virtual-time cost is billed at the
#: declared size class, so small real keys keep host time low without
#: touching results.
SIM_KEY_BITS = 512

_OWNER_AUTH = b"platform-owner-auth!"  # 20 bytes
_SRK_AUTH = b"platform-srk-auth!!!"    # 20 bytes
#: the hardware PCRs the boot chain is measured into, one stage each
_PLATFORM_PCRS = (0, 1, 2)
_BOOT_CHAIN = (b"bios", b"bootloader", b"xen+dom0")
_SELECTION = PcrSelection(_PLATFORM_PCRS)


class HardwareRoot:
    """One platform's owned, booted hardware TPM."""

    def __init__(self, rng: RandomSource) -> None:
        self.device = TpmDevice(
            rng.fork("hw-tpm"), key_bits=SIM_KEY_BITS, name="hwtpm"
        )
        self.device.power_on()
        self.client = TpmClient(self.device.execute, rng.fork("hw-client"))
        self.client.take_ownership(
            _OWNER_AUTH, _SRK_AUTH, self.client.read_pubek()
        )
        for index, stage in zip(_PLATFORM_PCRS, _BOOT_CHAIN):
            self.client.extend(index, hashlib.sha1(stage).digest())

    def composite(self) -> bytes:
        """The platform measurement: the composite of the boot PCRs, read
        live from the hardware on every call."""
        values = [self.client.pcr_read(index) for index in _PLATFORM_PCRS]
        return PcrBank.composite_of(_SELECTION, values)

    def seal(self, secret: bytes, auth: bytes) -> bytes:
        """Seal ``secret`` under the SRK, releasable only while the boot
        PCRs hold what they hold now."""
        return self.client.seal(
            TPM_KH_SRK, _SRK_AUTH, secret, auth,
            pcr_selection=_SELECTION, digest_at_release=self.composite(),
        )

    def unseal(self, blob: bytes, auth: bytes) -> bytes:
        """Unseal a blob from :meth:`seal` (the TPM refuses it elsewhere or
        after the boot PCRs moved)."""
        return self.client.unseal(TPM_KH_SRK, _SRK_AUTH, blob, auth)

    def load_new_key(self, auth: bytes, usage: int,
                     bits: int) -> tuple[int, RsaPublicKey]:
        """Create and load a key wrapped by the SRK; returns its handle and
        public key."""
        blob = self.client.create_wrap_key(TPM_KH_SRK, _SRK_AUTH, auth, usage, bits)
        return self._load(blob, auth)

    def load_new_aik(self, auth: bytes,
                     label: bytes) -> tuple[int, RsaPublicKey]:
        """Make and load an attestation identity key; returns its handle
        and public key."""
        blob, _binding = self.client.make_identity(_OWNER_AUTH, auth, label)
        return self._load(blob, auth)

    def _load(self, blob: bytes, auth: bytes) -> tuple[int, RsaPublicKey]:
        handle = self.client.load_key2(TPM_KH_SRK, _SRK_AUTH, blob)
        return handle, self.client.get_pub_key(handle, auth)

    def nv_define(self, index: int, size: int, attributes: int,
                  auth: bytes) -> None:
        """Define an owner-authorized NV area."""
        self.client.nv_define(_OWNER_AUTH, index, size, attributes, auth)

    def create_counter(self, auth: bytes, label: bytes) -> tuple[int, int]:
        """Create a monotonic counter; returns its handle and start value."""
        return self.client.create_counter(_OWNER_AUTH, auth, label)
