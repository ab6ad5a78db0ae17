"""The tpmif transport: one granted page plus one event channel.

Xen's vTPM split driver is not a multi-slot I/O ring: the front-end grants
a single page to the back-end, writes a whole TPM command into it, kicks
the event channel, and the back-end overwrites the page with the response.
This module reproduces that byte-for-byte over the simulated grant table,
physical pages and event channels — so the access-control monitor sits on
a faithful command path, and so ring transfers cost virtual time.

Page layout: ``status(u32) | length(u32) | payload…``

**Batched frames** (the throughput fast path) reuse the same page with a
vector layout: ``status(u32) | count(u32) | [length(u32) | payload…]*``.
The front-end packs up to a page's worth of commands, kicks the channel
*once*, and the back-end answers with the matching response vector — so
the per-notify costs (``xen.evtchn.notify``, the manager's
``vtpm.dispatch`` demux) are amortized over the whole batch while every
command is still individually authorized.

The back-end installs one callable for both layouts: a list of wires in,
one response per wire out.  A lone command reaches it as ``[wire]``.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional, Tuple

from repro.faults import FaultKind, fire, with_retry
from repro.faults import injector as _injector
from repro.obs import counters as obs_counters
from repro.obs import trace as obs_trace
from repro.sim.timing import charge
from repro.util.errors import RingError
from repro.xen.memory import PAGE_SIZE, PhysicalMemory

_RING_KICKS = obs_counters.counter("ring.kicks")
_RING_SHED = obs_counters.counter("ring.shed")
_RING_BATCHED_FRAMES = obs_counters.counter("ring.batched_frames")

STATUS_IDLE = 0
STATUS_COMMAND = 1
STATUS_RESPONSE = 2
STATUS_BATCH = 3
STATUS_BATCH_RESPONSE = 4

_HEADER = struct.Struct(">II")
_WORD = struct.Struct(">I")
MAX_PAYLOAD = PAGE_SIZE - _HEADER.size

#: how many times tpmfront re-kicks a silent back-end before giving up
MAX_KICKS = 5

#: the back-end's command handler: list of wires → one response per wire
BatchBackend = Callable[[list], list]
#: admission callback: list of wires → per-frame verdicts (None = admit,
#: bytes = the pre-built shed response to return instead)
Admission = Callable[[list], list]


def _pack_vector(status: int, frames: list) -> bytes:
    """Serialize a frame vector into the batched page layout."""
    parts = [_HEADER.pack(status, len(frames))]
    for frame in frames:
        parts += (_WORD.pack(len(frame)), frame)
    return b"".join(parts)


def _unpack_vector(page: bytes, count: int) -> Tuple[list, int]:
    """The ``count`` frames of a batched page and the offset just past the
    last one; a length word or frame that overruns the page raises
    :class:`RingError`."""
    frames = []
    offset = _HEADER.size
    end = len(page)
    for _ in range(count):
        if offset + 4 > end:
            raise RingError("batch vector overruns the page")
        [length] = _WORD.unpack_from(page, offset)
        offset += 4
        if offset + length > end:
            raise RingError("batched frame overruns the page")
        frames.append(page[offset : offset + length])
        offset += length
    return frames, offset


def max_batch_frames(frame_size: int) -> int:
    """How many frames of ``frame_size`` bytes fit in one batched page."""
    if frame_size <= 0:
        raise RingError(f"frame size must be positive, got {frame_size}")
    return max(1, (PAGE_SIZE - _HEADER.size) // (4 + frame_size))


class TpmRing:
    """Front-end view of the shared command page.

    Built by the front-end domain: it allocates the page, grants it to the
    back-end domain, and exchanges whole commands synchronously (the event
    channel delivery is synchronous under the deterministic simulator,
    matching the blocking ioctl path of the real tpmfront driver).
    """

    def __init__(
        self,
        memory: PhysicalMemory,
        grants,            # GrantTable
        events,            # EventChannels
        front_domid: int,
        back_domid: int,
    ) -> None:
        self._memory = memory
        self._grants = grants
        self._events = events
        self.front_domid = front_domid
        self.back_domid = back_domid
        [self.frame] = memory.allocate(front_domid, 1)
        self.gref = grants.grant_access(front_domid, back_domid, self.frame)
        self.port = events.alloc_unbound(front_domid, back_domid)
        self._backend: Optional[BatchBackend] = None
        self._admission: Optional[Admission] = None
        self._admission_one = None
        self._mapped_frame: Optional[int] = None
        self.commands_carried = 0
        events.bind(self.port, front_domid, self._on_front_event)
        self._response_ready = False

    # -- back-end side -----------------------------------------------------------

    def connect_backend(self, backend: BatchBackend, retired=None) -> None:
        """Back-end maps the grant and installs its command handler: a
        list-of-wires → list-of-responses callable that serves both page
        layouts (a lone command arrives as ``[wire]``).

        ``retired`` is the second handler of the old two-callable form.
        ``bench/layers.py`` still passes it, always ``None``; any other
        value is refused, so a caller of the old form fails loudly.
        """
        if retired is not None:
            raise RingError("the ring takes one back-end callable")
        self._mapped_frame = self._grants.map_grant(
            self.back_domid, self.front_domid, self.gref
        )
        self._backend = backend
        self._events.bind(self.port, self.back_domid, self._on_back_event)

    def set_admission(self, admission: Optional[Admission],
                      admission_one=None) -> None:
        """Install (or clear) the back-end's admission-control verdict hook.

        With a hook installed, every frame read off the page is submitted
        to it *before* the backend callable; frames it sheds are answered
        with its pre-built response and never reach the backend.  Shed
        frames still occupy their slot in the response vector, so the
        front-end always receives exactly one response per command.

        ``admission_one``, when given, is a single-frame variant
        (``wire -> verdict``) for the unbatched layout; without it a lone
        command goes to ``admission`` as a batch of one.
        """
        self._admission = admission
        self._admission_one = admission_one

    def disconnect_backend(self) -> None:
        if self._mapped_frame is not None:
            self._grants.unmap_grant(self.back_domid, self.front_domid, self.gref)
            self._mapped_frame = None
        self._backend = None
        self._admission = None
        self._admission_one = None

    def _on_back_event(self, _port: int) -> None:
        """Back-end interrupt: read command(s), execute, write response(s)."""
        if self._backend is None or self._mapped_frame is None:
            raise RingError("back-end notified but not connected")
        status, length = _HEADER.unpack(
            self._memory.read(self.back_domid, self._mapped_frame, 0, _HEADER.size)
        )
        if status == STATUS_BATCH:
            self._on_back_batch(length)
            return
        if status != STATUS_COMMAND:
            raise RingError(f"back-end woke with status {status}, not COMMAND")
        if length > MAX_PAYLOAD:
            raise RingError(f"command of {length} bytes exceeds page window")
        charge("xen.ring.transfer", length)
        command = self._memory.read(
            self.back_domid, self._mapped_frame, _HEADER.size, length
        )
        if self._admission_one is not None:
            verdict = self._admission_one(command)
        elif self._admission is not None:
            [verdict] = self._admission([command])
        else:
            verdict = None
        if verdict is not None:
            _RING_SHED.inc()
            response = verdict
        else:
            [response] = self._execute([command])
        if len(response) > MAX_PAYLOAD:
            raise RingError(f"response of {len(response)} bytes exceeds page window")
        charge("xen.ring.transfer", len(response))
        self._memory.write(
            self.back_domid,
            self._mapped_frame,
            0,
            _HEADER.pack(STATUS_RESPONSE, len(response)) + response,
        )
        self._events.notify(self.port, self.back_domid)

    def _on_back_batch(self, count: int) -> None:
        """Drain a batched submission: one page read, one response vector."""
        page = self._memory.read(
            self.back_domid, self._mapped_frame, 0, PAGE_SIZE
        )
        commands, offset = _unpack_vector(page, count)
        charge("xen.ring.transfer", offset - _HEADER.size)
        verdicts = (
            None if self._admission is None else self._admission(commands)
        )
        shed = 0 if verdicts is None else count - verdicts.count(None)
        if not shed:
            responses = self._execute(commands)
        else:
            _RING_SHED.add(shed)
            admitted = [c for c, v in zip(commands, verdicts) if v is None]
            executed = iter(self._execute(admitted))
            # Re-merge in submission order: every frame — admitted or
            # shed — gets exactly one response slot.
            responses = [
                next(executed) if verdict is None else verdict
                for verdict in verdicts
            ]
        reply = _pack_vector(STATUS_BATCH_RESPONSE, responses)
        if len(reply) > PAGE_SIZE:
            raise RingError("batched responses exceed the page window")
        charge("xen.ring.transfer", len(reply) - _HEADER.size)
        self._memory.write(self.back_domid, self._mapped_frame, 0, reply)
        self._events.notify(self.port, self.back_domid)

    def _execute(self, commands: list) -> list:
        """The back-end's responses to ``commands``, one per frame."""
        if not commands:
            return []
        executed = self._backend(commands)
        if len(executed) != len(commands):
            raise RingError(
                f"back-end answered {len(executed)} frames for "
                f"{len(commands)} admitted"
            )
        return executed

    # -- front-end side ------------------------------------------------------------

    def _on_front_event(self, _port: int) -> None:
        self._response_ready = True

    def send_command(self, command: bytes) -> bytes:
        """Carry one TPM command to the back-end and return its response."""
        if len(command) > MAX_PAYLOAD:
            raise RingError(f"command of {len(command)} bytes exceeds page window")
        if self._backend is None:
            raise RingError("no back-end connected to this vTPM ring")
        tracer = obs_trace._current_tracer
        if tracer is None:
            return self._send_command(command)
        with tracer.start_span("ring.send", {"bytes": len(command)}):
            return self._send_command(command)

    def _send_command(self, command: bytes) -> bytes:
        if obs_counters._current_registry is not None:
            _RING_KICKS.inc()
        charge("xen.ring.transfer", len(command))
        memory, front, frame = self._memory, self.front_domid, self.frame
        memory.write(
            front, frame, 0, _HEADER.pack(STATUS_COMMAND, len(command)) + command
        )
        self._response_ready = False
        if _injector._current_injector is None:
            self._events.notify(self.port, front)
        else:
            self._kick_backend()
        if not self._response_ready:
            raise RingError("back-end did not produce a response")
        status, length = _HEADER.unpack(memory.read(front, frame, 0, _HEADER.size))
        if status != STATUS_RESPONSE:
            raise RingError(f"front-end woke with status {status}, not RESPONSE")
        if length > MAX_PAYLOAD:
            raise RingError(f"response of {length} bytes exceeds page window")
        response = memory.read(front, frame, _HEADER.size, length)
        self.commands_carried += 1
        return response

    def send_batch(self, commands: list) -> list:
        """Carry several TPM commands in one page write and one kick.

        The whole vector must fit the page; callers size batches with
        :func:`max_batch_frames`.  Returns the responses in submission
        order.
        """
        if not commands:
            return []
        if self._backend is None:
            raise RingError("no back-end connected to this vTPM ring")
        tracer = obs_trace._current_tracer
        if tracer is None:
            return self._send_batch(commands)
        with tracer.start_span("ring.send_batch", {"frames": len(commands)}):
            return self._send_batch(commands)

    def _send_batch(self, commands: list) -> list:
        if obs_counters._current_registry is not None:
            _RING_KICKS.inc()
            _RING_BATCHED_FRAMES.add(len(commands))
        submission = _pack_vector(STATUS_BATCH, commands)
        if len(submission) > PAGE_SIZE:
            raise RingError(
                f"batch of {len(commands)} frames ({len(submission)} bytes) "
                f"exceeds the page window"
            )
        charge("xen.ring.transfer", len(submission) - _HEADER.size)
        self._memory.write(self.front_domid, self.frame, 0, submission)
        self._response_ready = False
        if _injector._current_injector is None:
            self._events.notify(self.port, self.front_domid)
        else:
            self._kick_backend()
        if not self._response_ready:
            raise RingError("back-end did not produce a response")
        page = self._memory.read(self.front_domid, self.frame, 0, PAGE_SIZE)
        status, count = _HEADER.unpack_from(page)
        if status != STATUS_BATCH_RESPONSE:
            raise RingError(
                f"front-end woke with status {status}, not BATCH_RESPONSE"
            )
        if count != len(commands):
            raise RingError(
                f"back-end answered {count} frames for a batch of {len(commands)}"
            )
        responses, _ = _unpack_vector(page, count)
        self.commands_carried += count
        return responses

    def _kick_backend(self) -> None:
        """Deliver the front-end's kick, surviving injected channel faults.

        The fault injector can stall a transfer (the kick lands late; the
        stall is paid in virtual time) or drop the notification entirely
        (the back-end never wakes).  The real tpmfront driver waits on a
        timeout and re-kicks; we model that bounded-retry loop here, so a
        lossy event channel degrades latency rather than correctness.
        Both senders notify directly while no injector is installed.
        """
        # The driver timeout is the whole wait between kicks: no backoff.
        with_retry(self._kick_once, site="xen.ring.notify", attempts=MAX_KICKS,
                   base_backoff_us=0.0)

    def _kick_once(self) -> None:
        """One kick: a dropped one waits out the driver timeout and raises."""
        event = fire("xen.ring.notify", port=self.port, front=self.front_domid)
        if event is not None and event.kind is FaultKind.RING_DROP_NOTIFY:
            charge("fault.ring.timeout")
            event.raise_fault()
        if event is not None and event.kind is FaultKind.RING_STALL:
            # The transfer stalls but the kick still lands afterwards.
            charge("fault.ring.stall")
        self._events.notify(self.port, self.front_domid)

    def teardown(self) -> None:
        """Release grant, channel and page (front-end shutdown path)."""
        self.disconnect_backend()
        self._grants.end_access(self.front_domid, self.gref)
        self._events.close(self.port)
        self._memory.free([self.frame])
