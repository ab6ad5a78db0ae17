"""Measured domain identity.

Stock Xen associates a vTPM instance with a *domain id* — a small integer
that is reused across reboots and trivially spoofed by a privileged
backend.  The improvement binds instances to a **launch measurement**:
``SHA-256(kernel image || name || config)`` taken when the domain is
built.  Verification recomputes the measurement from hypervisor-held
ground truth, so a rogue backend cannot claim another VM's identity by
editing XenStore.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.reason import Reason
from repro.crypto.hashes import sha256
from repro.sim.timing import charge
from repro.util.errors import IdentityError
from repro.xen.domain import Domain

MEASUREMENT_SIZE = 32


def _canonical_config(config: Dict[str, str]) -> bytes:
    """Deterministic byte form of a domain config dict."""
    return b"\x00".join(
        f"{k}={config[k]}".encode("utf-8") for k in sorted(config)
    )


@dataclass(frozen=True)
class DomainIdentity:
    """The launch-time identity of one domain."""

    measurement: bytes
    name: str
    uuid: str

    def __post_init__(self) -> None:
        if len(self.measurement) != MEASUREMENT_SIZE:
            raise IdentityError("measurement must be a SHA-256 digest")

    @property
    def hex(self) -> str:
        return self.measurement.hex()

    def short(self) -> str:
        """Abbreviated form for logs and audit records."""
        return self.measurement[:6].hex()


def measure_domain(domain: Domain) -> bytes:
    """Compute the launch measurement from hypervisor ground truth."""
    charge("ac.identity.measure")
    payload = (
        domain.kernel_image
        + b"\x1f"
        + domain.name.encode("utf-8")
        + b"\x1f"
        + _canonical_config(domain.config)
    )
    return sha256(payload)


class IdentityRegistry:
    """Tracks measured identities and verifies callers against them.

    ``register`` runs at domain launch (the measured-boot hook);
    ``verify_current`` is the per-command fast path: it compares the cached
    measurement against one recomputed from the live domain, so a domain
    that was torn down and rebuilt with a different kernel under a recycled
    domid fails verification.
    """

    def __init__(self) -> None:
        self._by_domid: Dict[int, DomainIdentity] = {}
        #: callables told of every registration and forgetting; the
        #: monitor drops its whole decision cache on each
        self.listeners: list = []

    def register(self, domain: Domain) -> DomainIdentity:
        measurement = measure_domain(domain)
        identity = DomainIdentity(
            measurement=measurement, name=domain.name, uuid=domain.uuid
        )
        domain.measurement = measurement
        self._by_domid[domain.domid] = identity
        for listener in self.listeners:
            listener()
        return identity

    def forget(self, domid: int) -> None:
        if self._by_domid.pop(domid, None) is not None:
            for listener in self.listeners:
                listener()

    def lookup(self, domid: int) -> Optional[DomainIdentity]:
        return self._by_domid.get(domid)

    def verify_current(self, domain: Domain) -> DomainIdentity:
        """Cheap per-command check: cached vs live measurement.

        The full hash only reruns when the cached copy is missing; the hot
        path is a 32-byte compare, which is what ``ac.identity.check``
        charges.  A failure raises :class:`IdentityError` carrying
        ``unregistered-identity`` or ``measurement-mismatch``.
        """
        charge("ac.identity.check")
        cached = self._by_domid.get(domain.domid)
        if cached is None:
            raise IdentityError(
                f"dom{domain.domid} ({domain.name}) was never measured",
                Reason.UNREGISTERED_IDENTITY,
            )
        live = domain.measurement
        if live is None:
            raise IdentityError(
                f"dom{domain.domid} carries no live measurement",
                Reason.MEASUREMENT_MISMATCH,
            )
        if not hashlib.sha256(live).digest() == hashlib.sha256(cached.measurement).digest():
            # Compare via hashes so the check is constant-time in the
            # measurement contents (paranoia mirroring the auth paths).
            raise IdentityError(
                f"dom{domain.domid} measurement mismatch: expected "
                f"{cached.short()}, live differs",
                Reason.MEASUREMENT_MISMATCH,
            )
        return cached
