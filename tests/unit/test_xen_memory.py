"""Unit tests for physical memory, regions, and foreign mapping."""

import pytest

from repro.xen.memory import PAGE_SIZE, MemoryRegion, PhysicalMemory
from repro.util.errors import PageFault, XenError


@pytest.fixture
def memory():
    return PhysicalMemory(total_pages=64)


class TestAllocation:
    def test_allocate_assigns_owner(self, memory):
        frames = memory.allocate(owner=3, count=4)
        assert len(frames) == 4
        for frame in frames:
            assert memory.page(frame).owner == 3

    def test_out_of_memory(self, memory):
        memory.allocate(1, 60)
        with pytest.raises(XenError, match="out of memory"):
            memory.allocate(1, 5)

    def test_zero_allocation_rejected(self, memory):
        with pytest.raises(XenError):
            memory.allocate(1, 0)

    def test_free_scrubs_contents(self, memory):
        [frame] = memory.allocate(1, 1)
        memory.write(1, frame, 0, b"sensitive")
        page = memory.page(frame)
        memory.free([frame])
        assert b"sensitive" not in page.snapshot()
        with pytest.raises(PageFault):
            memory.page(frame)

    def test_frames_owned_by(self, memory):
        a = memory.allocate(1, 2)
        b = memory.allocate(2, 3)
        assert memory.frames_owned_by(1) == sorted(a)
        assert memory.frames_owned_by(2) == sorted(b)


class TestOwnerAccess:
    def test_read_write_roundtrip(self, memory):
        [frame] = memory.allocate(5, 1)
        memory.write(5, frame, 100, b"hello")
        assert memory.read(5, frame, 100, 5) == b"hello"

    def test_non_owner_rejected(self, memory):
        [frame] = memory.allocate(5, 1)
        with pytest.raises(PageFault):
            memory.read(6, frame, 0, 1)
        with pytest.raises(PageFault):
            memory.write(6, frame, 0, b"x")

    def test_shared_with_allows_access(self, memory):
        [frame] = memory.allocate(5, 1)
        page = memory.page(frame)
        page.shared_with = page.shared_with | {6}
        memory.write(6, frame, 0, b"via grant")
        assert memory.read(6, frame, 0, 9) == b"via grant"

    def test_bounds_checked(self, memory):
        [frame] = memory.allocate(5, 1)
        with pytest.raises(PageFault):
            memory.write(5, frame, PAGE_SIZE - 2, b"xyz")
        with pytest.raises(PageFault):
            memory.read(5, frame, PAGE_SIZE, 1)

    @pytest.mark.parametrize("written", [False, True], ids=["unwritten", "written"])
    def test_negative_read_size_faults(self, memory, written):
        [frame] = memory.allocate(5, 1)
        if written:
            memory.write(5, frame, 0, b"data")
        with pytest.raises(PageFault, match="read beyond page"):
            memory.read(5, frame, 10, -4)
        with pytest.raises(PageFault, match="read beyond page"):
            memory.read(5, frame, -4, 10)


class TestForeignMap:
    def test_privileged_can_map_foreign(self, memory):
        [frame] = memory.allocate(7, 1)
        memory.write(7, frame, 0, b"guest data")
        snapshot = memory.foreign_map(0, frame, requester_privileged=True)
        assert snapshot.startswith(b"guest data")

    def test_unprivileged_rejected(self, memory):
        [frame] = memory.allocate(7, 1)
        with pytest.raises(PageFault, match="not privileged"):
            memory.foreign_map(8, frame, requester_privileged=False)

    def test_protected_frame_refused_even_privileged(self, memory):
        [frame] = memory.allocate(7, 1)
        memory.set_protected(frame)
        with pytest.raises(PageFault, match="hypervisor-protected"):
            memory.foreign_map(0, frame, requester_privileged=True)

    def test_protected_frame_refused_even_for_owner(self, memory):
        """The dump interface is closed for everyone; owners use their
        private mapping."""
        [frame] = memory.allocate(0, 1)
        memory.set_protected(frame)
        with pytest.raises(PageFault):
            memory.foreign_map(0, frame, requester_privileged=True)
        # ...but the owner's normal read path still works.
        memory.write(0, frame, 0, b"still mine")
        assert memory.read(0, frame, 0, 10) == b"still mine"

    def test_unprotect_reopens(self, memory):
        [frame] = memory.allocate(7, 1)
        memory.set_protected(frame)
        memory.set_protected(frame, False)
        memory.foreign_map(0, frame, requester_privileged=True)


class TestMemoryRegion:
    def test_cross_page_write_read(self, memory):
        frames = memory.allocate(9, 3)
        region = MemoryRegion(memory, 9, frames)
        data = bytes(range(256)) * 40  # 10240 bytes, spans 3 pages
        region.write(100, data)
        assert region.read(100, len(data)) == data

    def test_region_bounds(self, memory):
        region = MemoryRegion(memory, 9, memory.allocate(9, 1))
        with pytest.raises(PageFault):
            region.write(PAGE_SIZE - 1, b"ab")
        with pytest.raises(PageFault):
            region.read(0, PAGE_SIZE + 1)
        with pytest.raises(PageFault, match="region read out of range"):
            region.read(10, -4)

    def test_region_size(self, memory):
        region = MemoryRegion(memory, 9, memory.allocate(9, 2))
        assert region.size == 2 * PAGE_SIZE

    def test_set_protected_covers_all_frames(self, memory):
        region = MemoryRegion(memory, 9, memory.allocate(9, 2))
        region.set_protected(True)
        for frame in region.frames:
            assert memory.page(frame).protected
