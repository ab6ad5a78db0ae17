"""One virtual TPM instance.

An instance owns a full software TPM (:class:`~repro.tpm.device.TpmDevice`)
plus the manager-domain memory pages its serialized state lives in — the
pages a memory-dump attack reads, and the pages the improved design
hypervisor-protects.
"""

from __future__ import annotations

from typing import Optional

from repro.obs import trace as obs_trace
from repro.sim import timing as _timing
from repro.sim.timing import get_context
from repro.tpm.constants import DIGEST_SIZE
from repro.tpm.device import TpmDevice
from repro.tpm.state import IMAGE_EFFECTS, ImageEffect
from repro.xen.memory import PAGE_SIZE, MemoryRegion, PhysicalMemory

#: pages reserved per instance for the in-memory state image
STATE_PAGES = 8

_IMAGE_EFFECT = IMAGE_EFFECTS.get
_NONE = ImageEffect.NONE
_PCR_SLOTS = ImageEffect.PCR_SLOTS
_WHOLE = ImageEffect.WHOLE


def image_pages(blob: bytes) -> int:
    """Frames a length-prefixed state image of ``blob`` occupies."""
    return (len(blob) + 4 + PAGE_SIZE - 1) // PAGE_SIZE


class VtpmInstance:
    """A per-VM virtual TPM, resident in the manager domain."""

    def __init__(
        self,
        instance_id: int,
        vm_uuid: str,
        device: TpmDevice,
        memory: PhysicalMemory,
        manager_domid: int,
        bound_identity_hex: Optional[str] = None,
        pages: int = STATE_PAGES,
    ) -> None:
        self.instance_id = instance_id
        self.vm_uuid = vm_uuid
        self.bound_identity_hex = bound_identity_hex
        self.device = device
        self.commands_handled = 0
        #: virtual timestamp of the last executed command; the supervisor's
        #: watchdog reads it to tell a quiet instance from a wedged one
        self.last_activity_us = 0.0
        #: memoized EK-fragment register image, filled lazily by the
        #: manager's working-register model
        self.working_registers = None
        # The state image lives in real (simulated) manager-domain frames so
        # dump tooling sees exactly what a live manager process would hold.
        frames = memory.allocate(manager_domid, pages)
        self.state_region = MemoryRegion(memory, manager_domid, frames)
        self._memory = memory
        #: the strongest :class:`ImageEffect` of the commands run since the
        #: last :meth:`sync_to_memory`
        self.image_effect = _WHOLE
        #: blob bytes resident after the length word
        self._image_len = 0
        #: region offset of PCR 0's slot in the resident image
        self._pcr_window = 0
        self.sync_to_memory()

    def sync_to_memory(self) -> int:
        """Bring the manager-frame state image up to date; returns the
        blob length.

        Models the manager daemon's heap residency of instance state; no
        virtual time is charged because the real daemon holds this state
        in place rather than copying it per command.  The manager calls
        this once per ring notify, after the notify's last frame, when
        :meth:`execute` recorded an effect other than NONE.

        The image is ``len(blob) || blob`` followed by zeros to the end of
        the region.  A PCR_SLOTS effect rewrites only the PCR slots the
        bank marks dirty, in place.  A WHOLE effect re-serializes the blob,
        moves it to larger frames if it outgrew the region, and zeroes
        whatever the previous, longer image left past the new end.
        """
        effect = self.image_effect
        if effect is _NONE:
            return self._image_len
        self.image_effect = _NONE
        state = self.device.state
        pcrs = state.pcrs
        dirty = pcrs.take_dirty()
        if effect is _PCR_SLOTS:
            window = self._pcr_window
            for index in dirty:
                self.state_region.write(window + DIGEST_SIZE * index, pcrs.read(index))
            return self._image_len
        blob = self.device.save_state_blob()
        stale_end = 4 + self._image_len
        if len(blob) + 4 > self.state_region.size:
            # Grow: allocate more frames (the daemon's heap growing); the
            # old frames are scrubbed on free.
            old_frames = self.state_region.frames
            was_protected = self._memory.page(old_frames[0]).protected
            frames = self._memory.allocate(self.state_region.domid, image_pages(blob))
            self._memory.free(old_frames)
            self.state_region = MemoryRegion(self._memory, self.state_region.domid, frames)
            if was_protected:
                self.state_region.set_protected(True)
            stale_end = 0
        end = 4 + len(blob)
        self.state_region.write(0, len(blob).to_bytes(4, "big") + blob)
        if stale_end > end:
            self.state_region.write(end, bytes(stale_end - end))
        self._image_len = len(blob)
        self._pcr_window = 4 + state.pcr_window_offset()
        return len(blob)

    def memory_image(self) -> bytes:
        """The state bytes as resident in memory (owner view, for tests)."""
        length = int.from_bytes(self.state_region.read(0, 4), "big")
        return self.state_region.read(4, length)

    def execute(self, wire: bytes, locality: int = 0, parsed=None) -> bytes:
        """Run one TPM command on this instance.

        ``parsed`` optionally carries the already-parsed frame (the monitor
        parses every command once).  The command's image effect (see
        :data:`~repro.tpm.state.IMAGE_EFFECTS`) is recorded before it runs,
        so a command that raises still gets its image refreshed; the
        manager applies the strongest effect with :meth:`sync_to_memory`
        once its notify's last frame has run.
        """
        if parsed is not None:
            ordinal = parsed.ordinal
        elif len(wire) >= 10:
            ordinal = int.from_bytes(wire[6:10], "big")
        else:
            ordinal = -1
        effect = _IMAGE_EFFECT(ordinal, _WHOLE)
        if effect > self.image_effect:
            self.image_effect = effect
        tracer = obs_trace._current_tracer
        if tracer is None:
            response = self.device.execute(wire, locality=locality, parsed=parsed)
        else:
            with tracer.start_span("engine", {"instance": self.instance_id}):
                response = self.device.execute(
                    wire, locality=locality, parsed=parsed
                )
        self.commands_handled += 1
        self.last_activity_us = _timing._current_context.clock._now_us
        return response

    def idle_us(self) -> float:
        """Virtual time since the last executed command (watchdog input)."""
        return get_context().clock.now_us - self.last_activity_us

    def teardown(self) -> None:
        """Scrub and free the state frames."""
        self.state_region.write(0, b"\x00" * self.state_region.size)
        self._memory.free(self.state_region.frames)

    def __repr__(self) -> str:
        bound = (
            self.bound_identity_hex[:12] + "…" if self.bound_identity_hex else None
        )
        return (
            f"VtpmInstance(id={self.instance_id}, vm={self.vm_uuid[:8]}, "
            f"bound={bound})"
        )
