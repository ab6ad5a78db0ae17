"""Property test: demand-zero frames behave exactly like eager frames.

``EagerMemory`` below is the frame array as it was before frames became
demand-zero: every allocated frame is backed by a zero-filled 4 KiB
``bytearray`` at once and scrubbed in place on free.  Its one deliberate
difference from that code is the negative-size check in ``read``, which
the old code lacked (a negative size returned ``b""``).  Random
operation sequences (allocate, write, read, foreign map by privileged
and unprivileged requesters, protection, read-only and read-write grant
map/unmap, free) run against it and against
:class:`~repro.xen.memory.PhysicalMemory`, each with its own
:class:`~repro.xen.grant_table.GrantTable`; every result — bytes
returned or the error raised — must match, and a frame must be backed
exactly when it has been written since it was allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.errors import GrantError, PageFault, XenError
from repro.xen.grant_table import GrantTable
from repro.xen.memory import PAGE_SIZE, PhysicalMemory

DOMAINS = 3
#: frames each domain owns before the operations start
PREFILL = 2
TOTAL_PAGES = DOMAINS * PREFILL + 3


@dataclass
class EagerPage:
    frame: int
    owner: int
    data: bytearray = field(default_factory=lambda: bytearray(PAGE_SIZE))
    protected: bool = False
    shared_with: set = field(default_factory=set)
    read_only_for: frozenset = frozenset()


class EagerMemory:
    """Reference frame array: every frame is backed at allocation."""

    def __init__(self, total_pages: int) -> None:
        self.total_pages = total_pages
        self._pages: Dict[int, EagerPage] = {}
        self._next_frame = 0

    @property
    def allocated_pages(self) -> int:
        return len(self._pages)

    def allocate(self, owner: int, count: int) -> List[int]:
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
            self._pages[frame] = EagerPage(frame=frame, owner=owner)
            frames.append(frame)
        return frames

    def free(self, frames: Iterable[int]) -> None:
        for frame in frames:
            page = self._pages.pop(frame, None)
            if page is not None:
                page.data[:] = b"\x00" * PAGE_SIZE

    def page(self, frame: int) -> EagerPage:
        try:
            return self._pages[frame]
        except KeyError:
            raise PageFault(f"frame {frame} is not allocated") from None

    def frames_owned_by(self, domid: int) -> List[int]:
        return sorted(f for f, p in self._pages.items() if p.owner == domid)

    def write(self, domid: int, frame: int, offset: int, data: bytes) -> None:
        page = self.page(frame)
        if page.owner != domid:
            if domid not in page.shared_with:
                raise PageFault(f"dom{domid} does not own frame {frame}")
            if domid in page.read_only_for:
                raise PageFault(f"dom{domid} maps frame {frame} read-only")
        if offset < 0 or offset + len(data) > PAGE_SIZE:
            raise PageFault(f"write beyond page: {offset}+{len(data)}")
        page.data[offset : offset + len(data)] = data

    def read(self, domid: int, frame: int, offset: int, size: int) -> bytes:
        page = self.page(frame)
        if page.owner != domid and domid not in page.shared_with:
            raise PageFault(f"dom{domid} does not own frame {frame}")
        if offset < 0 or size < 0 or offset + size > PAGE_SIZE:
            raise PageFault(f"read beyond page: {offset}+{size}")
        return bytes(page.data[offset : offset + size])

    def set_protected(self, frame: int, protected: bool = True) -> None:
        self.page(frame).protected = protected

    def foreign_map(
        self, requester: int, frame: int, *, requester_privileged: bool
    ) -> bytes:
        page = self.page(frame)
        if page.protected:
            raise PageFault(
                f"frame {frame} is hypervisor-protected; foreign map refused"
            )
        if page.owner == requester:
            return bytes(page.data)
        if not requester_privileged:
            raise PageFault(
                f"dom{requester} is not privileged to foreign-map frame {frame}"
            )
        return bytes(page.data)


# -- operations ------------------------------------------------------------------
#
# Frames are named by their index into the list of every frame ever
# allocated (freed ones included, so stale frames are exercised); an index
# past its end names a frame that was never allocated.  An accessor of
# ``None`` is the frame's owner, and a write offset of ``None`` ends the
# payload on the page's last byte.  Offsets and sizes cluster at both ends
# of a page, negative ones included.

domid = st.integers(0, DOMAINS - 1)
accessor = st.none() | domid
frame_ref = st.integers(0, TOTAL_PAGES)
offset = st.one_of(
    st.integers(0, 64),
    st.integers(PAGE_SIZE - 32, PAGE_SIZE - 1),
    st.integers(-4, -1),
    st.integers(PAGE_SIZE, PAGE_SIZE + 4),
)
size = st.one_of(
    st.integers(0, 64),
    st.integers(PAGE_SIZE - 8, PAGE_SIZE + 4),
    st.integers(-4, -1),
)
# A payload starts with a non-zero byte (hypothesis favours zero bytes), so
# a write always changes what the frame reads; a few are empty.
payload = st.one_of(
    st.binary(max_size=24).map(lambda b: b"\xa5" + b),
    st.binary(max_size=8).map(lambda b: (b"\x5a" + b) * 300),
    st.just(b""),
)

write = st.tuples(
    st.just("write"), accessor, frame_ref, st.none() | offset, payload
)
operation = st.one_of(
    write,
    st.tuples(st.just("read"), accessor, frame_ref, offset, size),
    st.tuples(st.just("read_page"), accessor, frame_ref),
    st.tuples(st.just("foreign_map"), accessor, frame_ref, st.booleans()),
    # a privileged non-owner maps the frame, as a dump sweep does
    st.tuples(st.just("dump"), frame_ref),
    write,
    st.tuples(st.just("grant"), domid, domid, frame_ref, st.booleans()),
    # grantee None: the grant's own grantee; a domid: possibly another one
    st.tuples(st.just("map"), st.integers(0, 8), st.none() | domid),
    st.tuples(st.just("unmap"), st.integers(0, 8), st.none() | domid),
    st.tuples(st.just("protect"), frame_ref, st.booleans()),
    st.tuples(st.just("allocate"), domid, st.integers(0, 3)),
    st.tuples(st.just("free"), frame_ref),
)


def _outcome(call):
    try:
        return ("ok", call())
    except (PageFault, GrantError, XenError) as exc:
        return (type(exc).__name__, str(exc))


def _apply(op, memory, grants, frames: List[int], grant_refs: List[tuple]):
    kind, *args = op

    def frame(ref: int) -> int:
        return frames[ref] if ref < len(frames) else 10_000 + ref

    def who(dom, ref: int) -> int:
        if dom is not None:
            return dom
        try:
            return memory.page(frame(ref)).owner
        except PageFault:
            return 0

    if kind == "allocate":
        owner, count = args
        return memory.allocate(owner, count)
    if kind == "write":
        dom, ref, off, data = args
        if off is None:
            off = PAGE_SIZE - len(data)
        return memory.write(who(dom, ref), frame(ref), off, data)
    if kind == "read":
        dom, ref, off, size = args
        return memory.read(who(dom, ref), frame(ref), off, size)
    if kind == "read_page":
        dom, ref = args
        return memory.read(who(dom, ref), frame(ref), 0, PAGE_SIZE)
    if kind == "foreign_map":
        requester, ref, privileged = args
        return memory.foreign_map(
            who(requester, ref), frame(ref), requester_privileged=privileged
        )
    if kind == "dump":
        [ref] = args
        return memory.foreign_map(
            (who(None, ref) + 1) % DOMAINS, frame(ref), requester_privileged=True
        )
    if kind == "protect":
        ref, protected = args
        return memory.set_protected(frame(ref), protected)
    if kind == "grant":
        granter, grantee, ref, readonly = args
        gref = grants.grant_access(granter, grantee, frame(ref), readonly)
        return (granter, grantee, gref)
    if kind in ("map", "unmap"):
        index, grantee = args
        if index >= len(grant_refs):
            return None
        granter, grantee_of_grant, gref = grant_refs[index]
        if grantee is None:
            grantee = grantee_of_grant
        if kind == "map":
            return grants.map_grant(grantee, granter, gref)
        return grants.unmap_grant(grantee, granter, gref)
    if kind == "free":
        [ref] = args
        return memory.free([frame(ref)])
    raise AssertionError(kind)


@settings(max_examples=200, deadline=None)
@given(st.lists(operation, min_size=20, max_size=50))
def test_demand_zero_matches_eager_reference(ops):
    lazy, eager = PhysicalMemory(TOTAL_PAGES), EagerMemory(TOTAL_PAGES)
    lazy_grants, eager_grants = GrantTable(lazy), GrantTable(eager)
    frames: List[int] = []
    for dom in range(DOMAINS):
        frames += lazy.allocate(dom, PREFILL)
        assert eager.allocate(dom, PREFILL) == frames[-PREFILL:]
    grant_refs: List[tuple] = []
    written: set = set()
    for op in ops:
        got = _outcome(lambda: _apply(op, lazy, lazy_grants, frames, grant_refs))
        want = _outcome(lambda: _apply(op, eager, eager_grants, frames, grant_refs))
        assert got == want, op
        status, value = got
        if status != "ok":
            continue
        if op[0] == "allocate":
            frames.extend(value)
        elif op[0] == "grant":
            grant_refs.append(value)
        elif op[0] == "write":
            written.add(frames[op[2]])
        elif op[0] == "free" and op[1] < len(frames):
            written.discard(frames[op[1]])

        assert lazy.allocated_pages == eager.allocated_pages
        live = [f for f in frames if f in eager._pages]
        assert {f for f in live if lazy.page(f).data is not None} == written
        for f in live:
            assert lazy.page(f).shared_with == eager.page(f).shared_with
            assert lazy.page(f).read_only_for == eager.page(f).read_only_for
    for f in frames:
        if f in eager._pages:
            assert lazy.page(f).snapshot() == bytes(eager.page(f).data)
    for dom in range(DOMAINS):
        assert lazy.frames_owned_by(dom) == eager.frames_owned_by(dom)


def test_unwritten_snapshots_share_one_zero_page():
    memory = PhysicalMemory(8)
    a, b = memory.allocate(1, 2)
    first = memory.foreign_map(0, a, requester_privileged=True)
    second = memory.foreign_map(1, b, requester_privileged=False)
    assert first == bytes(PAGE_SIZE)
    assert first is second
    assert memory.page(a).data is None and memory.page(b).data is None


def test_free_drops_the_backing():
    memory = PhysicalMemory(8)
    [frame] = memory.allocate(1, 1)
    memory.write(1, frame, 0, b"secret")
    page = memory.page(frame)
    memory.free([frame])
    assert page.data is None
    assert page.snapshot() == bytes(PAGE_SIZE)
