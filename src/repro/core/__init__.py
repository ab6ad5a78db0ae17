"""The paper's contribution: access control for the Xen vTPM.

Five cooperating mechanisms close the "CPU and memory dump" hole the
abstract describes, while leaving the stock vTPM function intact:

* :mod:`~repro.core.identity` — measured launch identity for domains, so a
  vTPM instance binds to *what* a VM is, not a reusable domain id.
* :mod:`~repro.core.policy` — deny-by-default per-command authorization
  with O(1) amortized decisions.
* :mod:`~repro.core.monitor` — the reference monitor interposed on the
  vTPM manager's command path, combining identity, policy and audit;
  every outcome is one :class:`~repro.core.reason.Reason` code.
* :mod:`~repro.core.protection` — hypervisor page protection that removes
  vTPM secret memory from the foreign-map/dump interface.
* :mod:`~repro.core.sealing` — persistent vTPM state encrypted under a
  root secret sealed to the *hardware* TPM.

``AccessControlConfig`` toggles each mechanism independently, which is how
the ablation experiment (Table 4) isolates their costs, and how
``AccessMode.BASELINE`` reproduces stock Xen behaviour for every
comparison.
"""

from repro.core.config import AccessControlConfig, AccessMode
from repro.core.identity import DomainIdentity, IdentityRegistry
from repro.core.policy import (
    ANY,
    CommandClass,
    Decision,
    PolicyEngine,
    PolicyRule,
    classify_ordinal,
)
from repro.core.monitor import AccessControlMonitor, BaselineMonitor, Monitor
from repro.core.reason import Reason
from repro.core.protection import MemoryProtector
from repro.core.sealing import StateSealer
from repro.core.audit import AuditLog, AuditRecord
from repro.core.anchor import Anchor, AuditAnchor
from repro.core.certification import (
    EndorsementCertificate,
    VtpmCertifier,
    verify_endorsement,
)
from repro.core.profiles import PROFILES, PolicyProfile, profile_by_name

__all__ = [
    "AccessControlConfig",
    "AccessMode",
    "DomainIdentity",
    "IdentityRegistry",
    "ANY",
    "CommandClass",
    "Decision",
    "PolicyEngine",
    "PolicyRule",
    "classify_ordinal",
    "AccessControlMonitor",
    "BaselineMonitor",
    "Monitor",
    "Reason",
    "MemoryProtector",
    "StateSealer",
    "AuditLog",
    "AuditRecord",
    "Anchor",
    "AuditAnchor",
    "EndorsementCertificate",
    "VtpmCertifier",
    "verify_endorsement",
    "PROFILES",
    "PolicyProfile",
    "profile_by_name",
]
