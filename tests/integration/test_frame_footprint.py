"""Footprint of demand-zero machine frames on a busy platform.

A platform shaped like the ``policy-churn`` benchmark rig (12 owner
guests that take ownership, 4 read-only monitor guests) allocates well
over a thousand frames, of which only a few dozen are ever written.
Frames get a 4 KiB backing on their first write and never otherwise:
reads, dumps and the frames' bookkeeping must not give them one.
"""

from __future__ import annotations

import inspect
import tracemalloc

import pytest

from repro.core.config import AccessMode
from repro.core.profiles import PROFILE_MONITOR
from repro.harness.builder import build_platform
from repro.xen.memory import PAGE_SIZE, PhysicalMemory

OWNER = b"o" * 20
SRK = b"s" * 20

#: ceiling per frame of the frame array (about 167 B measured on this platform)
MAX_UNWRITTEN_FRAME_BYTES = 192


@pytest.fixture
def written(monkeypatch):
    """Every frame any successful write has touched."""
    frames: set = set()
    write = PhysicalMemory.write

    def recording_write(self, domid, frame, offset, data):
        write(self, domid, frame, offset, data)
        frames.add(frame)

    monkeypatch.setattr(PhysicalMemory, "write", recording_write)
    return frames


def _build():
    platform = build_platform(AccessMode.IMPROVED, seed=34, name="footprint")
    for i in range(12):
        client = platform.add_guest(f"owner{i}").client
        client.take_ownership(OWNER, SRK, client.read_pubek())
        client.extend(10, bytes([i]) * 20)
    for i in range(4):
        client = platform.add_guest(f"monitor{i}", profile=PROFILE_MONITOR).client
        client.pcr_read(10)
    return platform


@pytest.fixture
def platform(written):
    return _build()


def _backed(memory: PhysicalMemory) -> set:
    return {f for f, page in memory._pages.items() if page.data is not None}


def test_backed_frames_are_the_written_frames(platform, written):
    memory = platform.xen.memory
    live = set(memory._pages)
    assert _backed(memory) == written & live
    # the platform is mostly unwritten: most frames hold no bytes
    assert len(_backed(memory)) * 10 < memory.allocated_pages


def test_dump_sweep_backs_no_frame(platform):
    memory = platform.xen.memory
    before = _backed(memory)
    dom0 = platform.dom0_hypercalls()
    swept = 0
    for guest in platform.guests.values():
        domid = guest.domain.domid
        image = dom0.dump_domain_memory(domid)
        assert sorted(image) == memory.frames_owned_by(domid)
        for frame, contents in image.items():
            assert contents == memory.read(domid, frame, 0, PAGE_SIZE)
        swept += len(image)
    assert swept > 16 * 64
    assert _backed(memory) == before


def test_unwritten_frame_cost():
    """Everything ``xen/memory.py`` holds per frame, except the backings
    ``write`` gave the written frames: pages, frame numbers and the frame
    table's share."""
    tracemalloc.start()
    try:
        platform = _build()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    memory = platform.xen.memory
    source, first = inspect.getsourcelines(PhysicalMemory.write)
    backings = range(first, first + len(source))
    held = sum(
        stat.size
        for stat in snapshot.filter_traces(
            [tracemalloc.Filter(True, inspect.getfile(PhysicalMemory))]
        ).statistics("lineno")
        if stat.traceback[0].lineno not in backings
    )
    assert memory.allocated_pages - len(_backed(memory)) > 1_000
    per_frame = held / memory.allocated_pages
    assert per_frame <= MAX_UNWRITTEN_FRAME_BYTES, per_frame
