"""Exception hierarchy for the whole reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch either the broad family or a precise failure.  TPM-level failures
additionally carry the TPM 1.2 result code so command-level tests can
assert on the exact error the real device would return.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "MarshalError",
    "CryptoError",
    "TpmError",
    "XenError",
    "DomainNotFound",
    "PageFault",
    "GrantError",
    "EventChannelError",
    "XenStoreError",
    "RingError",
    "VtpmError",
    "MigrationError",
    "SupervisionError",
    "ClusterError",
    "AccessControlError",
    "AccessDenied",
    "IdentityError",
    "SealingError",
    "FaultInjected",
    "RetryExhausted",
]


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulation kernel (e.g. time going backwards)."""


class MarshalError(ReproError):
    """Malformed wire data encountered while (un)marshalling TPM structures."""


class CryptoError(ReproError):
    """Failure inside the crypto substrate (bad key sizes, verify failures...)."""


class TpmError(ReproError):
    """A TPM command failed; carries the TPM 1.2 result code.

    Attributes
    ----------
    code:
        The ``TPM_*`` result code (see :mod:`repro.tpm.constants`).
    """

    def __init__(self, code: int, message: str = "") -> None:
        super().__init__(message or f"TPM error code {code:#x}")
        self.code = code


class XenError(ReproError):
    """Hypervisor substrate failure (bad domain id, unmapped page, ...)."""


class DomainNotFound(XenError):
    """No domain with the requested id exists."""


class PageFault(XenError):
    """Access to an unmapped or foreign-protected page."""


class GrantError(XenError):
    """Invalid grant-table operation."""


class EventChannelError(XenError):
    """Invalid event-channel operation."""


class XenStoreError(XenError):
    """Invalid XenStore path or permission failure."""


class RingError(XenError):
    """Shared-ring transport failure (full ring, short read...)."""


class VtpmError(ReproError):
    """vTPM subsystem failure (unknown instance, storage corruption...)."""


class MigrationError(VtpmError):
    """vTPM live-migration protocol failure."""


class SupervisionError(VtpmError):
    """The resilience layer was driven into an illegal state.

    Raised for illegal health-state transitions and for supervisor misuse
    (e.g. restarting an instance that is not quarantined).  The transition
    table itself is the security invariant — a supervisor bug must surface
    loudly, never silently route traffic to a half-recovered instance.
    """


class ClusterError(VtpmError):
    """Multi-host fleet failure (unreachable host, failed attestation
    handshake, no admissible placement target).

    Attested migration fails *closed* through this type: a target host
    whose measured identity or policy epoch cannot be verified never
    receives a sealed export, and the guest keeps serving on the source.
    """


class AccessControlError(ReproError):
    """Base class for the access-control (core) subsystem."""


class AccessDenied(AccessControlError):
    """The reference monitor denied an operation.

    Attributes
    ----------
    subject:
        Identity (or domain id) of the denied subject.
    operation:
        Human-readable operation name (e.g. ``"TPM_Quote"``).
    reason:
        Why the policy denied it.
    """

    def __init__(self, subject: object, operation: str, reason: str) -> None:
        super().__init__(f"access denied: subject={subject!r} op={operation} ({reason})")
        self.subject = subject
        self.operation = operation
        self.reason = reason


class IdentityError(AccessControlError):
    """Domain identity could not be established or verified; ``reason`` is
    the monitor's :class:`repro.core.reason.Reason` code for it, if any."""

    def __init__(self, message: str, reason=None) -> None:
        super().__init__(message)
        self.reason = reason


class SealingError(AccessControlError):
    """Sealed vTPM state could not be unsealed (wrong platform state or key)."""


class FaultInjected(ReproError):
    """A scheduled fault from the deterministic injector fired.

    Attributes
    ----------
    kind:
        The fault kind name (see :class:`repro.faults.FaultKind`).
    site:
        The hook point that fired (e.g. ``"vtpm.storage.write"``).
    transient:
        ``True`` for faults a bounded retry is expected to clear (the
        recovery layers catch these); ``False`` models a hard crash that
        must propagate to the harness.
    """

    def __init__(
        self, kind: str, site: str, transient: bool = True, detail: str = ""
    ) -> None:
        super().__init__(
            f"injected fault {kind} at {site}" + (f": {detail}" if detail else "")
        )
        self.kind = kind
        self.site = site
        self.transient = transient
        self.detail = detail


class RetryExhausted(ReproError):
    """Bounded retry-with-backoff gave up on a transient fault.

    Attributes
    ----------
    site:
        The operation that kept failing.
    attempts:
        How many attempts were made before giving up.
    last:
        The final exception.
    """

    def __init__(self, site: str, attempts: int, last: Exception) -> None:
        super().__init__(f"{site} still failing after {attempts} attempts: {last}")
        self.site = site
        self.attempts = attempts
        self.last = last
