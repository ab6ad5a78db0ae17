"""Property test: the write-back state image reads like an eager one.

An instance's state image lives in manager frames that dump tooling
reads.  A PCR_SLOTS command (``Extend``, ``PCR_Reset``) writes nothing
when it runs: it marks the frames under the PCR window, and the first
allowed read or foreign map of a marked frame writes the dirty slots
back.  A WHOLE command is still written at its notify's end.  Whatever
the order, every observation must see the eager reference image,
``len(blob) || blob`` followed by zeros to the end of the region, where
``blob`` is ``device.save_state_blob()`` at the time of the read.

Interleaved notifies of every shape (single frames, a batch, an extend
before or after an NV write or an NV define that can grow the image onto
new frames, a PCR reset at locality 2, a migration to a second platform,
a supervised restart inside the observe hook) run in baseline and
improved mode, with the manager in Dom0 or in a stub domain.  Between
them, random observations read the frames through every path:
``PhysicalMemory.read`` at random offsets, ``MemoryRegion.read``,
``memory_image()``, a foreign map by the owner and by Dom0, and Dom0's
``dump_domain_memory``.  A refused read (a protected frame, a non-owner,
an unprivileged mapper) must leave every frame of the image untouched:
its bytes and its pending writer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AccessMode
from repro.crypto.random_source import RandomSource
from repro.faults import FaultInjector, FaultKind, FaultPlan, injector_scope, spec
from repro.harness.builder import build_platform, fresh_timing_context
from repro.tpm import marshal
from repro.tpm.client import TpmClient
from repro.tpm.constants import (
    TPM_ORD_Extend,
    TPM_ORD_GetRandom,
    TPM_ORD_OIAP,
    TPM_ORD_OSAP,
    TPM_ORD_PCR_Reset,
    TPM_ORD_PcrRead,
)
from repro.tpm.nvram import NV_PER_AUTHWRITE
from repro.tpm.pcr import PcrSelection
from repro.util.errors import PageFault, TpmError, XenError
from repro.vtpm.migration import migrate_with_recovery
from repro.xen.memory import PAGE_SIZE

OWNER = b"o" * 20
SRK = b"s" * 20
NV_AUTH = b"n" * 20
#: the NV area every nv-write step rewrites
NV_INDEX = 0x20


def _wire(kind: str, arg: int) -> bytes:
    if kind == "extend":
        return marshal.build_command(
            TPM_ORD_Extend, arg.to_bytes(4, "big") + bytes([arg + 1]) * 20
        )
    if kind == "read":
        return marshal.build_command(TPM_ORD_PcrRead, arg.to_bytes(4, "big"))
    return marshal.build_command(TPM_ORD_GetRandom, (arg + 1).to_bytes(4, "big"))


class _Held(Exception):
    """Raised by the capturing transport once it holds the command."""


def _authorized_wire(guest, call) -> bytes:
    """The wire of one authorized command, held back instead of sent; its
    OIAP/OSAP session opens on the guest's real instance."""
    held = []

    def send(wire: bytes) -> bytes:
        if int.from_bytes(wire[6:10], "big") in (TPM_ORD_OIAP, TPM_ORD_OSAP):
            return guest.frontend.transport(wire)
        held.append(wire)
        raise _Held

    with pytest.raises(_Held):
        call(TpmClient(send, RandomSource(b"held-wire")))
    return held[0]


class Rig:
    """One guest whose vTPM the steps drive and the observations read."""

    def __init__(self, mode: AccessMode, stub: bool, supervised: bool,
                 seed: int) -> None:
        self.mode, self.stub, self.supervised = mode, stub, supervised
        self.seed = seed
        self.platform = self._platform("wb-source")
        self.guest = self.platform.add_guest("g")
        client = self.guest.client
        client.take_ownership(OWNER, SRK, client.read_pubek())
        client.nv_define(OWNER, NV_INDEX, 16, NV_PER_AUTHWRITE, NV_AUTH)
        if supervised:
            self.platform.enable_supervision()
        self.next_index = NV_INDEX + 1
        self.migrated = False

    def _platform(self, name: str):
        return build_platform(
            self.mode, seed=self.seed, name=name, nv_capacity=1 << 18,
            stub_manager=self.stub,
        )

    @property
    def instance(self):
        return self.platform.manager.instance(self.guest.backend.instance_id)

    @property
    def memory(self):
        return self.platform.xen.memory

    def expected(self) -> bytes:
        """The eager reference image: the whole region."""
        blob = self.instance.device.save_state_blob()
        image = len(blob).to_bytes(4, "big") + blob
        return image + bytes(self.instance.state_region.size - len(image))

    # -- steps ------------------------------------------------------------------

    def whole_wire(self, kind: str, size: int, step: int) -> bytes:
        if kind == "nv-write":
            return _authorized_wire(self.guest, lambda c: c.nv_write(
                NV_AUTH, NV_INDEX, 0, bytes([step % 256]) * 16
            ))
        index = self.next_index
        self.next_index += 1
        return _authorized_wire(self.guest, lambda c: c.nv_define(
            OWNER, index, size, NV_PER_AUTHWRITE, NV_AUTH
        ))

    def run(self, step: int, shape) -> None:
        kind = shape[0]
        frontend = self.guest.frontend
        if kind == "single":
            for name, arg in shape[1]:
                frontend.transport(_wire(name, arg))
        elif kind == "batch":
            frontend.transport_batch([_wire(n, a) for n, a in shape[1]])
        elif kind == "whole":
            _, whole, size, extend_first, extend_after = shape
            try:
                wire = self.whole_wire(whole, size, step)
            except TpmError:
                return  # an open breaker or a failed restart shed the session
            wires = [wire, _wire("extend", step % 16)]
            frontend.transport_batch(wires[::-1] if extend_first else wires)
            if extend_after:
                # The next notify's extend marks the window the whole
                # rewrite left, on the frames it left it on.
                frontend.transport(_wire("extend", 15 - step % 16))
        elif kind == "reset":
            # PCR_Reset of PCRs 16-23 needs locality 2.
            frontend.locality = 2
            frontend.transport_batch([
                _wire("extend", 16 + step % 2),
                marshal.build_command(
                    TPM_ORD_PCR_Reset, PcrSelection([16, 17]).serialize()
                ),
            ])
            frontend.locality = 0
        elif kind == "migrate":
            self.migrate()
        elif kind == "restart":
            self.restart()

    def migrate(self) -> None:
        if self.migrated:
            return
        self.migrated = True
        source = self.platform
        destination = self._platform("wb-destination")
        target_vm = destination.migration.landing_domain(self.guest.domain)
        moved = migrate_with_recovery(
            source.migration, destination.migration,
            self.guest.domain.uuid, target_vm,
        )
        source.remove_guest("g")
        self.platform = destination
        self.guest = destination.adopt_migrated("g", target_vm, moved.instance_id)
        if self.supervised:
            destination.enable_supervision()

    def restart(self) -> None:
        """Frames 1-4 of a batch of extends burn their retry budgets, so
        the supervisor restarts the instance inside its observe hook."""
        if not self.supervised:
            return
        self.platform.manager.save_all()
        storm = spec(FaultKind.WEDGE, at=tuple(range(1, 17)))
        injector = FaultInjector(
            FaultPlan(name="write-back-storm", seed=1, specs=(storm,)),
            audit=self.platform.audit,
        )
        with injector_scope(injector):
            self.guest.frontend.transport_batch(
                [_wire("extend", i) for i in range(8)]
            )

    # -- observations -------------------------------------------------------------

    def frame(self, which) -> int:
        region = self.instance.state_region
        if which == "window":
            offset = 4 + self.instance.device.state.pcr_window_offset()
            return region.frames[offset // PAGE_SIZE]
        return region.frames[which % len(region.frames)]

    def untouched(self):
        """What a refused read must not change: every image frame's bytes
        and pending writer."""
        pages = [self.memory.page(f) for f in self.instance.state_region.frames]
        return [(p.data and bytes(p.data), p.writer) for p in pages]

    def refused(self, read) -> None:
        before = self.untouched()
        with pytest.raises(XenError):
            read()
        assert self.untouched() == before

    def page_of(self, frame: int) -> bytes:
        at = self.instance.state_region.frames.index(frame) * PAGE_SIZE
        return self.expected()[at : at + PAGE_SIZE]

    def observe(self, obs) -> None:
        kind = obs[0]
        instance = self.instance
        region = instance.state_region
        manager = self.platform.manager.manager_domid
        protected = self.mode is AccessMode.IMPROVED
        if kind == "read":
            _, which, offset, size = obs
            frame = self.frame(which)
            offset %= PAGE_SIZE
            size = min(size, PAGE_SIZE - offset)
            got = self.memory.read(manager, frame, offset, size)
            assert got == self.page_of(frame)[offset : offset + size]
        elif kind == "region":
            _, offset, size = obs
            offset %= region.size
            size = min(size, region.size - offset)
            assert region.read(offset, size) == self.expected()[offset : offset + size]
        elif kind == "image":
            assert instance.memory_image() == instance.device.save_state_blob()
        elif kind in ("owner-map", "dom0-map"):
            mapper = (self.platform.hypercalls_for(manager) if kind == "owner-map"
                      else self.platform.dom0_hypercalls())
            frame = self.frame(obs[1])
            if protected:
                self.refused(lambda: mapper.foreign_map_page(frame))
            else:
                assert mapper.foreign_map_page(frame) == self.page_of(frame)
        elif kind == "dump":
            dumped = self.platform.dom0_hypercalls().dump_domain_memory(manager)
            if protected:
                assert not set(dumped) & set(region.frames)
                return
            expected = self.expected()
            for i, frame in enumerate(region.frames):
                assert dumped[frame] == expected[i * PAGE_SIZE : (i + 1) * PAGE_SIZE]
        elif kind == "guest":
            domid = self.guest.domain.domid
            frame = self.frame(obs[1])
            self.refused(lambda: self.memory.read(domid, frame, 0, 20))
            self.refused(
                lambda: self.platform.hypercalls_for(domid).foreign_map_page(frame)
            )


_FRAMES = st.lists(
    st.tuples(st.sampled_from(["extend", "read", "random"]), st.integers(0, 15)),
    min_size=1, max_size=8,
)
_STEP = st.one_of(
    st.tuples(st.sampled_from(["single", "batch"]), _FRAMES),
    st.tuples(
        st.just("whole"), st.sampled_from(["nv-write", "nv-define"]),
        # 40,000 bytes outgrow any region, so the image moves frames.
        st.sampled_from([16, 40_000]), st.booleans(), st.booleans(),
    ),
    st.tuples(st.sampled_from(["reset", "migrate", "restart"])),
)
_WHICH = st.sampled_from(["window", "window", 0, 1, -1])
_OBSERVATION = st.one_of(
    st.tuples(st.just("read"), _WHICH, st.integers(0, PAGE_SIZE - 1),
              st.integers(0, PAGE_SIZE)),
    st.tuples(st.just("region"), st.integers(0, 1 << 16),
              st.integers(0, 3 * PAGE_SIZE)),
    st.tuples(st.just("image")),
    st.tuples(st.just("dump")),
    st.tuples(st.just("owner-map"), _WHICH),
    st.tuples(st.just("dom0-map"), _WHICH),
    st.tuples(st.just("guest"), _WHICH),
)


@settings(max_examples=100, deadline=None)
@given(
    mode=st.sampled_from([AccessMode.BASELINE, AccessMode.IMPROVED]),
    stub=st.booleans(),
    supervised=st.booleans(),
    seed=st.integers(0, 2**16),
    script=st.lists(
        st.tuples(_STEP, st.lists(_OBSERVATION, max_size=3)),
        min_size=1, max_size=8,
    ),
)
def test_every_read_sees_the_eager_image(mode, stub, supervised, seed, script):
    fresh_timing_context()
    rig = Rig(mode, stub, supervised, seed)
    for step, (shape, observations) in enumerate(script):
        rig.run(step, shape)
        for obs in observations:
            rig.observe(obs)
    rig.observe(("region", 0, 1 << 20))


def test_refused_map_leaves_a_pending_write_back_pending():
    """A protected frame refuses Dom0's map without running its writer;
    the owner's next read then writes the extend back."""
    rig = Rig(AccessMode.IMPROVED, stub=False, supervised=False, seed=1)
    rig.guest.client.extend(5, b"\x05" * 20)
    window = rig.frame("window")
    page = rig.memory.page(window)
    assert page.writer is not None
    with pytest.raises(PageFault):
        rig.platform.dom0_hypercalls().foreign_map_page(window)
    assert page.writer is not None
    rig.observe(("region", 0, 1 << 20))
    assert page.writer is None


def test_grown_image_takes_a_later_extend_on_its_new_frames():
    """An NV define outgrows the region in the notify of a pending
    extend; the next extend marks the new window, not a freed one."""
    rig = Rig(AccessMode.IMPROVED, stub=False, supervised=False, seed=2)
    old = list(rig.instance.state_region.frames)
    rig.run(0, ("whole", "nv-define", 40_000, True, False))
    assert not set(rig.instance.state_region.frames) & set(old)
    rig.guest.client.extend(6, b"\x06" * 20)
    rig.observe(("region", 0, 1 << 20))


def test_dom0_maps_write_a_pending_extend_back():
    """On a baseline stub manager Dom0's foreign map and dump see the
    extend the instance has not written yet."""
    rig = Rig(AccessMode.BASELINE, stub=True, supervised=False, seed=3)
    rig.guest.client.extend(7, b"\x07" * 20)
    rig.observe(("dom0-map", "window"))
    rig.guest.client.extend(7, b"\x07" * 20)
    rig.observe(("dump",))
