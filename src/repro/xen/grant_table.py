"""Grant tables: explicit page sharing between domains.

A domain *grants* a specific remote domain access to one of its frames and
receives a grant reference; the remote maps that reference through the
hypervisor.  Unlike foreign mapping this is consent-based — it is the
legitimate channel the vTPM split driver uses, and it keeps working even
when the manager's secret pages are dump-protected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.sim.timing import charge
from repro.util.errors import GrantError
from repro.xen.memory import PhysicalMemory


@dataclass
class GrantEntry:
    gref: int
    granter: int
    grantee: int
    frame: int
    readonly: bool
    mapped: bool = False


class GrantTable:
    """Machine-wide grant state (per-domain tables folded into one index)."""

    def __init__(self, memory: PhysicalMemory) -> None:
        self._memory = memory
        self._entries: Dict[Tuple[int, int], GrantEntry] = {}  # (granter, gref)
        self._next_gref: Dict[int, int] = {}

    def grant_access(
        self, granter: int, grantee: int, frame: int, readonly: bool = False
    ) -> int:
        """Create a grant; the granter must own the frame."""
        charge("xen.hypercall")
        page = self._memory.page(frame)
        if page.owner != granter:
            raise GrantError(f"dom{granter} cannot grant frame {frame} it does not own")
        gref = self._next_gref.get(granter, 1)
        self._next_gref[granter] = gref + 1
        self._entries[(granter, gref)] = GrantEntry(
            gref=gref, granter=granter, grantee=grantee, frame=frame, readonly=readonly
        )
        return gref

    def map_grant(self, grantee: int, granter: int, gref: int) -> int:
        """Map a grant; returns the frame number now shared with grantee."""
        charge("xen.grant.map")
        entry = self._get(granter, gref)
        if entry.grantee != grantee:
            raise GrantError(
                f"grant {gref} of dom{granter} is for dom{entry.grantee}, "
                f"not dom{grantee}"
            )
        entry.mapped = True
        self._sync_page(entry.frame, grantee)
        return entry.frame

    def unmap_grant(self, grantee: int, granter: int, gref: int) -> None:
        charge("xen.grant.unmap")
        entry = self._get(granter, gref)
        if not entry.mapped:
            raise GrantError(f"grant {gref} of dom{granter} is not mapped")
        entry.mapped = False
        self._sync_page(entry.frame, grantee)

    def _sync_page(self, frame: int, grantee: int) -> None:
        """Derive the page's sharing with ``grantee`` from the grants of
        that frame to it still mapped: shared while any is mapped,
        read-only while every mapped one is."""
        readonly = [
            entry.readonly for entry in self._entries.values()
            if entry.mapped and entry.frame == frame and entry.grantee == grantee
        ]
        page = self._memory.page(frame)
        if readonly:
            page.shared_with = page.shared_with | {grantee}
        else:
            page.shared_with = page.shared_with - {grantee}
        if readonly and all(readonly):
            page.read_only_for = page.read_only_for | {grantee}
        else:
            page.read_only_for = page.read_only_for - {grantee}

    def end_access(self, granter: int, gref: int) -> None:
        """Revoke a grant (must be unmapped first, as in real Xen)."""
        charge("xen.hypercall")
        entry = self._get(granter, gref)
        if entry.mapped:
            raise GrantError(f"grant {gref} still mapped; unmap before revoke")
        del self._entries[(granter, gref)]

    def _get(self, granter: int, gref: int) -> GrantEntry:
        try:
            return self._entries[(granter, gref)]
        except KeyError:
            raise GrantError(f"no grant {gref} from dom{granter}") from None

    def entry(self, granter: int, gref: int) -> GrantEntry:
        """Introspection for tests."""
        return self._get(granter, gref)

    @property
    def active_grants(self) -> int:
        return len(self._entries)
