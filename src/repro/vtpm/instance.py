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
from repro.tpm import constants as tc
from repro.tpm.device import TpmDevice
from repro.xen.memory import PAGE_SIZE, MemoryRegion, PhysicalMemory

#: pages reserved per instance for the in-memory state image
STATE_PAGES = 8

#: Ordinals that cannot change the *serialized* TPM state: pure reads, plus
#: session setup (auth sessions and the RNG are volatile — deliberately not
#: part of the state blob, see ``TpmState.serialize``).  One of these leaves
#: the in-memory image current, so it does not mark the image stale.
_SERIALIZATION_NEUTRAL = frozenset(
    {
        tc.TPM_ORD_PcrRead,
        tc.TPM_ORD_GetRandom,
        tc.TPM_ORD_GetCapability,
        tc.TPM_ORD_ReadPubek,
        tc.TPM_ORD_DirRead,
        tc.TPM_ORD_GetTestResult,
        tc.TPM_ORD_ReadCounter,
        tc.TPM_ORD_OIAP,
        tc.TPM_ORD_OSAP,
    }
)


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
        self.sync_to_memory()

    def sync_to_memory(self) -> int:
        """Mirror the serialized TPM state into the manager's frames.

        Models the manager daemon's heap residency of instance state; no
        virtual time is charged because the real daemon holds this state
        in place rather than copying it per command.  The manager calls
        this once per ring notify, after the notify's last frame, when
        :meth:`execute` has marked the image stale.
        """
        blob = self.device.save_state_blob()
        if len(blob) + 4 > self.state_region.size:
            # Grow: allocate more frames (the daemon's heap growing).
            old_frames = self.state_region.frames
            was_protected = self._memory.page(old_frames[0]).protected
            frames = self._memory.allocate(self.state_region.domid, image_pages(blob))
            self._memory.free(old_frames)
            self.state_region = MemoryRegion(self._memory, self.state_region.domid, frames)
            if was_protected:
                self.state_region.set_protected(True)
        self.state_region.write(0, len(blob).to_bytes(4, "big") + blob)
        self.image_stale = False
        return len(blob)

    def memory_image(self) -> bytes:
        """The state bytes as resident in memory (owner view, for tests)."""
        length = int.from_bytes(self.state_region.read(0, 4), "big")
        return self.state_region.read(4, length)

    def execute(self, wire: bytes, locality: int = 0, parsed=None) -> bytes:
        """Run one TPM command on this instance.

        ``parsed`` optionally carries the already-parsed frame (the monitor
        parses every command once).  A command that can alter the serialized
        state marks the image stale; the manager refreshes it with
        :meth:`sync_to_memory` once its notify's last frame has run.
        """
        tracer = obs_trace._current_tracer
        if tracer is None:
            response = self.device.execute(wire, locality=locality, parsed=parsed)
        else:
            with tracer.start_span("engine", {"instance": self.instance_id}):
                response = self.device.execute(
                    wire, locality=locality, parsed=parsed
                )
        self.commands_handled += 1
        self.last_activity_us = _timing._current_context.clock.now_us
        if parsed is not None:
            ordinal = parsed.ordinal
        elif len(wire) >= 10:
            ordinal = int.from_bytes(wire[6:10], "big")
        else:
            ordinal = -1
        if ordinal not in _SERIALIZATION_NEUTRAL:
            self.image_stale = True
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
