"""Deep attestation: chain vTPM quotes to the hardware TPM.

A vTPM quote only proves "some software TPM signed these PCRs" — a
challenger must also learn that the signing vTPM really runs on a
trustworthy platform, bound to the VM it claims.  This module implements
the certification chain the vTPM literature calls *deep attestation*:

1. the platform owner mints an **AIK on the hardware TPM**;
2. the manager issues an **endorsement certificate** for a guest's vTPM
   key: a hardware-AIK signature over (vTPM key modulus, the VM's measured
   identity, the platform's boot-PCR composite);
3. a challenger verifies guest quotes with the vTPM key, the endorsement
   with the hardware AIK, and the platform state inside the endorsement.

Endorsement requests flow through the reference monitor: only the VM whose
identity an instance is bound to can get keys endorsed for it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.hwroot import HardwareRoot
from repro.crypto.rsa import RsaPublicKey
from repro.util.bytesio import ByteReader, ByteWriter
from repro.util.errors import AccessControlError, AccessDenied

CERT_MAGIC = b"VTPMCERT"


@dataclass(frozen=True)
class EndorsementCertificate:
    """A hardware-AIK-signed binding of a vTPM key to a VM identity."""

    vtpm_key_modulus: bytes
    identity_hex: str
    platform_composite: bytes
    signature: bytes

    def statement(self) -> bytes:
        """The exact bytes the hardware AIK signed."""
        w = ByteWriter()
        w.raw(CERT_MAGIC)
        w.sized(self.vtpm_key_modulus)
        w.sized(self.identity_hex.encode("ascii"))
        w.raw(self.platform_composite)
        return w.getvalue()

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.raw(self.statement())
        w.sized(self.signature)
        return w.getvalue()

    @staticmethod
    def deserialize(data: bytes) -> "EndorsementCertificate":
        r = ByteReader(data)
        magic = r.raw(len(CERT_MAGIC))
        if magic != CERT_MAGIC:
            raise AccessControlError("not an endorsement certificate")
        modulus = r.sized(max_size=1 << 12)
        identity_hex = r.sized(max_size=256).decode("ascii")
        composite = r.raw(20)
        signature = r.sized(max_size=1 << 12)
        r.expect_end()
        return EndorsementCertificate(
            vtpm_key_modulus=modulus,
            identity_hex=identity_hex,
            platform_composite=composite,
            signature=signature,
        )


class VtpmCertifier:
    """Manager-side endorsement issuer backed by a hardware AIK."""

    def __init__(self, hw: HardwareRoot, aik_auth: bytes) -> None:
        self._hw = hw
        self._aik_auth = aik_auth
        self._aik_handle, self.aik_public = hw.load_new_aik(
            aik_auth, b"vtpm-certifier"
        )
        self.certificates_issued = 0

    def endorse(
        self,
        manager,                      # VtpmManager
        requester_domid: int,
        instance_id: int,
        vtpm_key_public: RsaPublicKey,
    ) -> EndorsementCertificate:
        """Issue an endorsement after the monitor-style binding check.

        The requester must be the domain whose measured identity the
        instance is bound to — a rogue guest cannot obtain certificates
        naming a victim's identity.
        """
        instance = manager.instance(instance_id)
        identity_hex = instance.bound_identity_hex
        if identity_hex is None:
            raise AccessControlError(
                "endorsement requires an identity-bound instance "
                "(improved mode)"
            )
        if manager.identities is None:
            raise AccessControlError("manager has no identity registry")
        caller = manager.xen.domain(requester_domid)
        caller_identity = manager.identities.verify_current(caller)
        if caller_identity.hex != identity_hex:
            raise AccessDenied(
                caller_identity.hex,
                "endorse",
                f"instance {instance_id} is bound to {identity_hex[:12]}…",
            )
        cert = EndorsementCertificate(
            vtpm_key_modulus=vtpm_key_public.modulus_bytes(),
            identity_hex=identity_hex,
            platform_composite=self._hw.composite(),
            signature=b"",
        )
        digest = hashlib.sha1(cert.statement()).digest()
        signature = self._hw.client.sign(self._aik_handle, self._aik_auth, digest)
        self.certificates_issued += 1
        return EndorsementCertificate(
            vtpm_key_modulus=cert.vtpm_key_modulus,
            identity_hex=cert.identity_hex,
            platform_composite=cert.platform_composite,
            signature=signature,
        )


def verify_endorsement(
    cert: EndorsementCertificate,
    hw_aik_public: RsaPublicKey,
    expected_identity_hex: str | None = None,
    expected_platform_composite: bytes | None = None,
) -> bool:
    """Challenger-side verification of the whole chain link.

    Checks the hardware-AIK signature, and optionally that the endorsed
    identity and platform state match the challenger's reference values.
    """
    digest = hashlib.sha1(cert.statement()).digest()
    if not hw_aik_public.verify_sha1(digest, cert.signature):
        return False
    if expected_identity_hex is not None and cert.identity_hex != expected_identity_hex:
        return False
    if (
        expected_platform_composite is not None
        and cert.platform_composite != expected_platform_composite
    ):
        return False
    return True
