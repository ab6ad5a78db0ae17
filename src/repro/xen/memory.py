"""Page-granular physical memory with ownership and foreign mapping.

This is where the paper's threat lives: Xen lets a privileged domain map
any other domain's frames (``xc_map_foreign_range``), which is exactly what
"CPU and memory dump software" uses.  The access-control improvement marks
the vTPM manager's secret-holding frames *hypervisor-protected*: foreign
map requests against them fail (or return zeroed snapshots), closing the
dump channel while leaving normal grant-based sharing intact.

Frames are demand-zero: a page holds no bytes until its first write, and
reads, foreign maps and dumps of an unwritten frame see zeros without
giving it any.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.sim.timing import charge
from repro.util.errors import PageFault, XenError

PAGE_SIZE = 4096

#: What every whole-page snapshot of an unwritten frame returns.
_ZERO_PAGE = bytes(PAGE_SIZE)


@dataclass(slots=True)
class Page:
    """One machine frame."""

    frame: int
    owner: int                      # domain id
    data: Optional[bytearray] = None  # backing, created by the first write
    protected: bool = False         # excluded from foreign mapping
    shared_with: frozenset[int] = frozenset()    # via grant table
    read_only_for: frozenset[int] = frozenset()  # grantees mapped read-only

    def snapshot(self) -> bytes:
        """The whole frame's bytes; unwritten frames share one zero page."""
        return _ZERO_PAGE if self.data is None else bytes(self.data)


class PhysicalMemory:
    """The machine's frame array plus the allocator."""

    def __init__(self, total_pages: int = 1 << 16) -> None:
        if total_pages <= 0:
            raise XenError(f"machine must have pages, got {total_pages}")
        self.total_pages = total_pages
        self._pages: Dict[int, Page] = {}
        self._next_frame = 0

    @property
    def allocated_pages(self) -> int:
        return len(self._pages)

    def allocate(self, owner: int, count: int) -> List[int]:
        """Allocate ``count`` frames to a domain; returns frame numbers."""
        if count <= 0:
            raise XenError(f"cannot allocate {count} pages")
        if self.allocated_pages + count > self.total_pages:
            raise XenError(
                f"out of memory: {self.allocated_pages}+{count} > {self.total_pages}"
            )
        frames = []
        for _ in range(count):
            frame = self._next_frame
            self._next_frame += 1
            self._pages[frame] = Page(frame=frame, owner=owner)
            frames.append(frame)
        return frames

    def free(self, frames: Iterable[int]) -> None:
        """Release frames; contents are scrubbed (Xen scrubs on free)."""
        for frame in frames:
            page = self._pages.pop(frame, None)
            if page is not None:
                page.data = None

    def page(self, frame: int) -> Page:
        try:
            return self._pages[frame]
        except KeyError:
            raise PageFault(f"frame {frame} is not allocated") from None

    def frames_owned_by(self, domid: int) -> List[int]:
        """Every frame a domain owns (dump tools walk the full P2M, not
        just the initial allocation)."""
        return sorted(f for f, p in self._pages.items() if p.owner == domid)

    # -- owner access -----------------------------------------------------------

    def write(self, domid: int, frame: int, offset: int, data: bytes) -> None:
        """Write by the owner, or by a domain with a read-write grant mapping."""
        page = self.page(frame)
        if page.owner != domid:
            if domid not in page.shared_with:
                raise PageFault(f"dom{domid} does not own frame {frame}")
            if domid in page.read_only_for:
                raise PageFault(f"dom{domid} maps frame {frame} read-only")
        if offset < 0 or offset + len(data) > PAGE_SIZE:
            raise PageFault(f"write beyond page: {offset}+{len(data)}")
        backing = page.data
        if backing is None:
            backing = page.data = bytearray(PAGE_SIZE)
        backing[offset : offset + len(data)] = data

    def read(self, domid: int, frame: int, offset: int, size: int) -> bytes:
        page = self.page(frame)
        if page.owner != domid and domid not in page.shared_with:
            raise PageFault(f"dom{domid} does not own frame {frame}")
        if offset < 0 or size < 0 or offset + size > PAGE_SIZE:
            raise PageFault(f"read beyond page: {offset}+{size}")
        backing = page.data
        if backing is None:
            return bytes(size)
        return bytes(backing[offset : offset + size])

    # -- protection (the paper's hook) -------------------------------------------

    def set_protected(self, frame: int, protected: bool = True) -> None:
        """Mark a frame hypervisor-protected (vTPM secret pages)."""
        self.page(frame).protected = protected

    # -- foreign mapping (the attack surface) --------------------------------------

    def foreign_map(
        self, requester: int, frame: int, *, requester_privileged: bool
    ) -> bytes:
        """Map another domain's frame, as privileged dump tools do.

        Returns a snapshot of the page contents.  Unprivileged requesters
        are refused outright; protected frames raise :class:`PageFault`
        even for Dom0 — that refusal *is* the paper's defence.
        """
        charge("xen.hypercall")
        charge("xen.grant.map")
        page = self.page(frame)
        if page.protected:
            # Refused even for the owning domain: dump tooling goes through
            # this interface, while the manager reads its secrets through
            # its private mapping (read/write above).  This is the paper's
            # defence against Dom0-resident dump software.
            raise PageFault(
                f"frame {frame} is hypervisor-protected; foreign map refused"
            )
        if page.owner == requester:
            return page.snapshot()
        if not requester_privileged:
            raise PageFault(
                f"dom{requester} is not privileged to foreign-map frame {frame}"
            )
        charge("xen.page.copy", PAGE_SIZE)
        return page.snapshot()


class MemoryRegion:
    """A contiguous-by-construction byte region over a domain's frames.

    Gives domain software a flat address space ``[0, size)`` without every
    caller doing page arithmetic.
    """

    def __init__(self, memory: PhysicalMemory, domid: int, frames: List[int]) -> None:
        self._memory = memory
        self.domid = domid
        self.frames = list(frames)

    @property
    def size(self) -> int:
        return len(self.frames) * PAGE_SIZE

    def write(self, offset: int, data: bytes) -> None:
        if offset < 0 or offset + len(data) > self.size:
            raise PageFault(f"region write out of range: {offset}+{len(data)}")
        pos = 0
        while pos < len(data):
            frame_idx, page_off = divmod(offset + pos, PAGE_SIZE)
            chunk = min(PAGE_SIZE - page_off, len(data) - pos)
            self._memory.write(
                self.domid, self.frames[frame_idx], page_off, data[pos : pos + chunk]
            )
            pos += chunk

    def read(self, offset: int, size: int) -> bytes:
        if offset < 0 or size < 0 or offset + size > self.size:
            raise PageFault(f"region read out of range: {offset}+{size}")
        out = bytearray()
        pos = 0
        while pos < size:
            frame_idx, page_off = divmod(offset + pos, PAGE_SIZE)
            chunk = min(PAGE_SIZE - page_off, size - pos)
            out += self._memory.read(
                self.domid, self.frames[frame_idx], page_off, chunk
            )
            pos += chunk
        return bytes(out)

    def set_protected(self, protected: bool = True) -> None:
        """Protect/unprotect every frame of the region."""
        for frame in self.frames:
            self._memory.set_protected(frame, protected)
