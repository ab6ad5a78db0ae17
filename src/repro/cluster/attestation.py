"""The inter-host attestation handshake guarding cross-host migration.

Before a sealed vTPM export ever leaves a source host, the target must
prove two things about itself:

1. **Measured identity** — its hardware root's boot-PCR composite
   (the BIOS → bootloader → xen+dom0 chain measured at platform build).
   The fleet recorded this at enrolment; a host whose boot measurements
   moved since (compromised loader, different hypervisor) produces a
   different digest and the handshake fails *closed*: no offer is
   consumed, no state crosses the wire, and the guest keeps serving on
   the source.
2. **Policy epoch** — the fleet-wide access-control generation.  A host
   that missed a policy push would enforce stale rules on the migrated
   instance; refusing the migration is the conservative answer the
   paper's binding argument demands.

The report is bound to a per-handshake nonce so a captured report cannot
vouch for a later, different migration.  Verification failures raise
:class:`~repro.util.errors.ClusterError` and are counted under
``cluster.attestations`` for the trace exposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import inc


@dataclass(frozen=True)
class AttestationReport:
    """What a target host asserts about itself for one migration."""

    host_id: str
    nonce: bytes
    measured_identity: str  # hex of the hardware root's boot-PCR composite
    policy_epoch: int


def verify_report(
    report: AttestationReport,
    expected_identity: str,
    expected_epoch: int,
    nonce: bytes,
) -> None:
    """Source-side verification; any mismatch fails the migration closed."""
    from repro.util.errors import ClusterError

    if report.nonce != nonce:
        inc("cluster.attestations", outcome="rejected", why="nonce")
        raise ClusterError(
            f"attestation of host {report.host_id} is not bound to this "
            f"handshake (nonce mismatch)"
        )
    if report.measured_identity != expected_identity:
        inc("cluster.attestations", outcome="rejected", why="identity")
        raise ClusterError(
            f"host {report.host_id} failed attestation: measured identity "
            f"diverged from its enrolment"
        )
    if report.policy_epoch != expected_epoch:
        inc("cluster.attestations", outcome="rejected", why="epoch")
        raise ClusterError(
            f"host {report.host_id} enforces policy epoch "
            f"{report.policy_epoch}, fleet is at {expected_epoch}"
        )
    inc("cluster.attestations", outcome="verified")
