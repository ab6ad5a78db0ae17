"""Configuration for the access-control layer."""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace


class AccessMode(enum.Enum):
    """Which vTPM protection regime a platform runs."""

    #: Stock Xen vTPM: trust-by-domid, plaintext state, dumpable memory.
    BASELINE = "baseline"
    #: The paper's improvement: full reference monitor + protections.
    IMPROVED = "improved"


@dataclass(frozen=True)
class AccessControlConfig:
    """Per-mechanism switches (all on = the paper's full scheme).

    The ablation benchmark toggles these one at a time to attribute cost;
    the baseline platform simply never consults them.
    """

    identity_check: bool = True     # verify caller measurement per command
    policy_check: bool = True       # per-ordinal policy decision
    authz_cache: bool = True        # writer-invalidated decision cache
    audit: bool = True              # append-only audit records
    protect_memory: bool = True     # hypervisor-protect vTPM secret pages
    seal_storage: bool = True       # encrypt state at rest, key sealed to hw TPM

    @staticmethod
    def all_on() -> "AccessControlConfig":
        return AccessControlConfig()

    @staticmethod
    def all_off() -> "AccessControlConfig":
        return AccessControlConfig(
            **{f.name: False for f in fields(AccessControlConfig)}
        )

    def with_only(self, component: str) -> "AccessControlConfig":
        """A config with exactly one mechanism enabled (ablation helper)."""
        return replace(self.all_off(), **{_checked(component): True})

    def without(self, component: str) -> "AccessControlConfig":
        """A config with one mechanism disabled (leave-one-out ablation)."""
        return replace(self, **{_checked(component): False})


def _checked(component: str) -> str:
    """``component`` if it names a switch, else ``ValueError``."""
    if component not in {f.name for f in fields(AccessControlConfig)}:
        raise ValueError(f"unknown access-control component {component!r}")
    return component
