"""The batched ring's vector codec, on both sides of the page.

``_pack_vector`` lays a frame list out as ``status | count | [length |
payload]*`` and ``_unpack_vector`` reads it back; the back-end decodes a
submission with it and the front-end decodes the response vector with
it.  Any frame list that fits the page must survive the round trip
unchanged.  A vector that is cut short, or whose length word or payload
runs past the page, must raise :class:`RingError` on either side — never
a ``struct.error`` from the word decoder.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.util.errors import RingError
from repro.xen import ring as ring_mod
from repro.xen.event_channel import EventChannels
from repro.xen.grant_table import GrantTable
from repro.xen.memory import PAGE_SIZE, PhysicalMemory
from repro.xen.ring import STATUS_BATCH, STATUS_BATCH_RESPONSE, TpmRing

FRONT = 5
HEADER = ring_mod._HEADER.size
FRAMES = st.lists(st.binary(max_size=400), max_size=24)


def _ring() -> TpmRing:
    memory = PhysicalMemory(total_pages=8)
    return TpmRing(memory, GrantTable(memory), EventChannels(),
                   front_domid=FRONT, back_domid=0)


def _straddling(k: int) -> bytes:
    """A full page claiming two frames whose first ends ``k`` bytes before
    the page end, so the second's length word straddles it."""
    filler = b"f" * (PAGE_SIZE - HEADER - 4 - k)
    page = ring_mod._pack_vector(STATUS_BATCH, [filler])
    header = ring_mod._HEADER.pack(STATUS_BATCH, 2)
    return header + page[HEADER:] + b"\x00" * k


def _overrunning(frames: list, victim: int, excess: int) -> bytes:
    """``frames`` packed with the ``victim``-th length word claiming
    ``excess`` bytes more than the rest of the page holds."""
    page = bytearray(ring_mod._pack_vector(STATUS_BATCH, frames))
    offset = HEADER
    for frame in frames[:victim]:
        offset += 4 + len(frame)
    page[offset:offset + 4] = struct.pack(
        ">I", PAGE_SIZE - (offset + 4) + excess
    )
    return bytes(page)


# -- the decoder itself --------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(FRAMES, st.sampled_from([STATUS_BATCH, STATUS_BATCH_RESPONSE]))
def test_frames_that_fit_decode_unchanged(frames, status):
    packed = ring_mod._pack_vector(status, frames)
    assume(len(packed) <= PAGE_SIZE)
    page = packed + b"\x00" * (PAGE_SIZE - len(packed))
    assert ring_mod._HEADER.unpack_from(page) == (status, len(frames))
    assert ring_mod._unpack_vector(page, len(frames)) == (frames, len(packed))


@settings(max_examples=200, deadline=None)
@given(FRAMES.filter(bool), st.data())
def test_a_truncated_vector_raises_ring_error(frames, data):
    packed = ring_mod._pack_vector(STATUS_BATCH, frames)
    cut = data.draw(st.integers(HEADER, len(packed) - 1))
    with pytest.raises(RingError):
        ring_mod._unpack_vector(packed[:cut], len(frames))


# -- both sides of a live ring -------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(FRAMES.filter(bool))
def test_frames_that_fit_cross_the_ring_unchanged(frames):
    assume(len(ring_mod._pack_vector(STATUS_BATCH, frames)) <= PAGE_SIZE)
    ring = _ring()
    seen = []

    def backend(wires):
        seen.append(wires)
        return [wire[::-1] for wire in wires]

    ring.connect_backend(backend)
    assert ring.send_batch(frames) == [frame[::-1] for frame in frames]
    assert seen == [frames]


def _back_end_reads(page: bytes) -> None:
    """Hand ``page`` to the back-end as a batched submission."""
    ring = _ring()
    ring.connect_backend(lambda wires: wires)
    ring._memory.write(FRONT, ring.frame, 0, page)
    ring._events.notify(ring.port, FRONT)


def _front_end_reads(page: bytes, count: int, monkeypatch) -> None:
    """Have a back-end answer a ``count``-frame batch with ``page``."""
    pack = ring_mod._pack_vector

    def answer(status, frames):
        if status == STATUS_BATCH_RESPONSE:
            return ring_mod._HEADER.pack(status, count) + page[HEADER:]
        return pack(status, frames)

    monkeypatch.setattr(ring_mod, "_pack_vector", answer)
    ring = _ring()
    ring.connect_backend(lambda wires: wires)
    ring.send_batch([b"x"] * count)


@pytest.mark.parametrize("side", ["back", "front"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_length_word_straddling_the_page_end_raises_ring_error(
    side, k, monkeypatch
):
    page = _straddling(k)
    assert len(page) == PAGE_SIZE
    with pytest.raises(RingError, match="overruns the page"):
        if side == "back":
            _back_end_reads(page)
        else:
            _front_end_reads(page, 2, monkeypatch)


@settings(max_examples=60, deadline=None)
@given(FRAMES.filter(bool), st.integers(1, 2**31), st.data(),
       st.sampled_from(["back", "front"]))
def test_a_payload_overrunning_the_page_raises_ring_error(
    frames, excess, data, side
):
    assume(len(ring_mod._pack_vector(STATUS_BATCH, frames)) <= PAGE_SIZE)
    victim = data.draw(st.integers(0, len(frames) - 1))
    page = _overrunning(frames, victim, excess)
    page += b"\x00" * (PAGE_SIZE - len(page))
    with pytest.raises(RingError, match="overruns the page"):
        if side == "back":
            _back_end_reads(page)
        else:
            with pytest.MonkeyPatch.context() as monkeypatch:
                _front_end_reads(page, len(frames), monkeypatch)
