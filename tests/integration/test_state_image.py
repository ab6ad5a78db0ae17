"""State-image oracle: the manager-domain frames hold the current state.

Dump tooling reads an instance's state through its frames, so after every
ring notify — and after every direct ``handle_batch`` call — the whole region must
read as exactly ``len(blob) || blob`` followed by zeros, where ``blob`` is
``device.save_state_blob()``.  A notify that needs a whole rewrite gets it
once, after the notify's last frame and before the supervisor observes
the outcomes; a notify that only extends or resets PCRs marks the PCR
window's frames, and the read below writes the dirty slots back before
it returns their bytes.  These tests pin that
for every path shape (single frame, batch, supervised batch, a migrated
guest's ring on its new platform, a direct ``handle_batch`` call), for a
batch mixing all three effects, for a batch that grows the image
mid-batch, for an image that shrinks, for a supervised restart inside the
observe hook, and for a batch that raises.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AccessMode
from repro.crypto.random_source import RandomSource
from repro.faults import FaultInjector, FaultKind, FaultPlan, injector_scope, spec
from repro.harness.builder import build_platform, fresh_timing_context
from repro.resilience import AdmissionConfig
from repro.tpm import marshal
from repro.tpm.client import TpmClient
from repro.tpm.constants import (
    TPM_KEY_SIGNING,
    TPM_KH_SRK,
    TPM_ORD_Extend,
    TPM_ORD_GetRandom,
    TPM_ORD_OIAP,
    TPM_ORD_OSAP,
    TPM_ORD_PCR_Reset,
    TPM_ORD_PcrRead,
    TPM_SUCCESS,
)
from repro.tpm.nvram import NV_PER_AUTHWRITE
from repro.tpm.pcr import PcrSelection
from repro.vtpm.migration import migrate_with_recovery
from repro.xen.memory import PAGE_SIZE

OWNER = b"o" * 20
SRK = b"s" * 20


def _wire(kind: str, arg: int) -> bytes:
    if kind == "extend":
        return marshal.build_command(
            TPM_ORD_Extend, arg.to_bytes(4, "big") + bytes([arg + 1]) * 20
        )
    if kind == "read":
        return marshal.build_command(TPM_ORD_PcrRead, arg.to_bytes(4, "big"))
    return marshal.build_command(TPM_ORD_GetRandom, (arg + 1).to_bytes(4, "big"))


def _assert_image_current(manager, instance_id: int) -> None:
    """The whole region, not just the length-prefixed image: a slot patch
    must leave the same bytes a full rewrite would, and nothing may
    survive past the image end."""
    instance = manager.instance(instance_id)
    blob = instance.device.save_state_blob()
    region = instance.state_region
    image = len(blob).to_bytes(4, "big") + blob
    assert region.read(0, region.size) == image + bytes(region.size - len(image))


def _assert_protected(platform, instance_id: int) -> None:
    frames = platform.manager.instance(instance_id).state_region.frames
    assert all(platform.xen.memory.page(f).protected for f in frames)


def _ok(response: bytes) -> bool:
    return marshal.parse_response(response).return_code == TPM_SUCCESS


# -- every path shape ---------------------------------------------------------

_FRAME = st.tuples(st.sampled_from(["extend", "read", "random"]),
                   st.integers(0, 15))
#: one notify whose frames carry every image effect, in any order
_MIXED = ("extend", "reset", "nv-write", "increment", "seal", "unseal", "evict")
_STEP = st.one_of(
    st.tuples(
        st.sampled_from(["transport", "batch", "manager"]),
        st.lists(_FRAME, min_size=1, max_size=AdmissionConfig().max_depth),
    ),
    st.tuples(st.just("mixed"), st.permutations(_MIXED)),
)

NV_AUTH = b"n" * 20
COUNTER_AUTH = b"c" * 20
DATA_AUTH = b"d" * 20
KEY_AUTH = b"k" * 20


def _provision(guest) -> dict:
    """Owner, an NV area, a counter, a sealed blob and a wrapped signing
    key, for the mixed batch."""
    client = guest.client
    client.take_ownership(OWNER, SRK, client.read_pubek())
    client.nv_define(OWNER, 0x20, 16, NV_PER_AUTHWRITE, NV_AUTH)
    counter, _ = client.create_counter(OWNER, COUNTER_AUTH, b"mix0")
    return {
        "counter": counter,
        "sealed": client.seal(TPM_KH_SRK, SRK, b"sealed", DATA_AUTH),
        "key": client.create_wrap_key(
            TPM_KH_SRK, SRK, KEY_AUTH, TPM_KEY_SIGNING, 512
        ),
    }


def _mixed_wires(guest, env: dict, order, step: int) -> list:
    """The mixed notify's frames; the key it evicts is loaded first, by
    its own notify."""
    handle = guest.client.load_key2(TPM_KH_SRK, SRK, env["key"])
    build = {
        # PCRs 16/17, so the reset clears a slot an extend filled.
        "extend": lambda: _wire("extend", 16 + step % 2),
        "reset": lambda: marshal.build_command(
            TPM_ORD_PCR_Reset, PcrSelection([16, 17]).serialize()
        ),
        "nv-write": lambda: _authorized_wire(
            guest, lambda c: c.nv_write(NV_AUTH, 0x20, 0, bytes([step]) * 16)
        ),
        "increment": lambda: _authorized_wire(
            guest, lambda c: c.increment_counter(COUNTER_AUTH, env["counter"])
        ),
        "seal": lambda: _authorized_wire(
            guest, lambda c: c.seal(TPM_KH_SRK, SRK, b"again", DATA_AUTH)
        ),
        "unseal": lambda: _authorized_wire(
            guest, lambda c: c.unseal(TPM_KH_SRK, SRK, env["sealed"], DATA_AUTH)
        ),
        "evict": lambda: _authorized_wire(guest, lambda c: c.evict_key(handle)),
    }
    return [build[kind]() for kind in order]


@settings(max_examples=20, deadline=None)
@given(
    supervised=st.booleans(),
    steps=st.lists(_STEP, min_size=1, max_size=5),
    seed=st.integers(0, 2**16),
)
def test_image_matches_blob_after_every_notify(supervised, steps, seed):
    fresh_timing_context()
    platform = build_platform(AccessMode.IMPROVED, seed=seed, name="image")
    guest = platform.add_guest("g")
    # Provisioning generates keys; under supervision that would inflate
    # the admission service estimate and shed the mixed batch's frames.
    env = _provision(guest) if any(s == "mixed" for s, _ in steps) else None
    if supervised:
        platform.enable_supervision()
    manager, domid = platform.manager, guest.domain.domid
    instance_id = guest.backend.instance_id
    _assert_image_current(manager, instance_id)
    for step, (shape, frames) in enumerate(steps):
        if shape == "mixed":
            wires = _mixed_wires(guest, env, frames, step)
            _assert_image_current(manager, instance_id)
            # PCR_Reset of PCRs 16-23 needs locality 2.
            guest.frontend.locality = 2
            responses = guest.frontend.transport_batch(wires)
            guest.frontend.locality = 0
            _assert_image_current(manager, instance_id)
            assert all(_ok(r) for r in responses)
            continue
        wires = [_wire(kind, arg) for kind, arg in frames]
        if shape == "batch":
            responses = guest.frontend.transport_batch(wires)
            _assert_image_current(manager, instance_id)
        else:
            send = {
                "transport": guest.frontend.transport,
                "manager": lambda w: manager.handle_batch(
                    domid, instance_id, [w]
                )[0],
            }[shape]
            responses = []
            for wire in wires:
                responses.append(send(wire))
                _assert_image_current(manager, instance_id)
        assert all(_ok(r) for r in responses)
    _assert_protected(platform, instance_id)


def test_migrated_guest_batch_of_one_keeps_the_image_current():
    source = build_platform(AccessMode.IMPROVED, seed=5, name="img-source")
    destination = build_platform(AccessMode.IMPROVED, seed=5, name="img-dest")
    guest = source.add_guest("mover")
    guest.client.extend(3, b"\x11" * 20)
    target_vm = destination.migration.landing_domain(guest.domain)
    instance = migrate_with_recovery(
        source.migration, destination.migration, guest.domain.uuid, target_vm
    )
    source.remove_guest("mover")
    moved = destination.adopt_migrated("mover", target_vm, instance.instance_id)
    manager, instance_id = destination.manager, instance.instance_id
    transport = moved.frontend.transport
    _assert_image_current(manager, instance_id)
    for kind, arg in (("extend", 4), ("read", 3), ("random", 7), ("extend", 3)):
        assert _ok(transport(_wire(kind, arg)))
        _assert_image_current(manager, instance_id)
    _assert_protected(destination, instance_id)


# -- a batch that grows the image ------------------------------------------------


class _Held(Exception):
    """Raised by the capturing transport once it holds the command."""


def _authorized_wire(guest, call) -> bytes:
    """The wire of one command, held back instead of sent.

    An authorized command's OIAP/OSAP session opens on the guest's real
    instance (a single frame), so the held wire is valid for a later
    batch."""
    held = []

    def send(wire: bytes) -> bytes:
        if int.from_bytes(wire[6:10], "big") in (TPM_ORD_OIAP, TPM_ORD_OSAP):
            return guest.frontend.transport(wire)
        held.append(wire)
        raise _Held

    with pytest.raises(_Held):
        call(TpmClient(send, RandomSource(b"held-wire")))
    return held[0]


@pytest.mark.parametrize("supervised", [False, True])
def test_nv_define_mid_batch_grows_protected_frames(supervised):
    platform = build_platform(AccessMode.IMPROVED, seed=3, name="grow")
    platform.manager.nv_capacity = 1 << 18
    guest = platform.add_guest("grower")
    guest.client.take_ownership(OWNER, SRK, guest.client.read_pubek())
    if supervised:
        platform.enable_supervision()
    instance_id = guest.backend.instance_id
    old_frames = list(platform.manager.instance(instance_id).state_region.frames)
    define = _authorized_wire(
        guest,
        lambda c: c.nv_define(OWNER, 0x99, 80_000, NV_PER_AUTHWRITE, b"n" * 20),
    )
    responses = guest.frontend.transport_batch(
        [_wire("extend", 1), define, _wire("extend", 2)]
    )
    assert all(_ok(r) for r in responses)
    instance = platform.manager.instance(instance_id)
    assert instance.device.state.nv.get(0x99).size == 80_000
    assert len(instance.state_region.frames) > len(old_frames)
    assert not set(instance.state_region.frames) & set(old_frames)
    _assert_image_current(platform.manager, instance_id)
    _assert_protected(platform, instance_id)


# -- flush ordering ----------------------------------------------------------------


def test_restart_inside_observe_sees_a_flushed_image():
    """Frames 1-4 of a supervised batch burn their retry budgets, the
    instance is quarantined and restarted inside the observe hook — after
    the notify's one flush, so nothing writes into torn-down frames."""
    platform = build_platform(AccessMode.IMPROVED, seed=16, name="flush")
    guest = platform.add_guest("alice")
    platform.manager.save_all()
    supervisor = platform.enable_supervision()
    old_id = guest.backend.instance_id
    old_frames = platform.manager.instance(old_id).state_region.frames
    storm = spec(FaultKind.WEDGE, at=tuple(range(1, 17)))
    injector = FaultInjector(
        FaultPlan(name="flush-storm", seed=1, specs=(storm,)),
        audit=platform.audit,
    )
    wires = [_wire("extend", i) for i in range(8)]
    with injector_scope(injector):
        responses = guest.frontend.transport_batch(wires)
    record = supervisor.record_for(guest.domain.uuid)
    assert record.failure_counts == {"retry-exhausted": 4}
    assert record.restarts == 1
    new_id = guest.backend.instance_id
    assert new_id != old_id
    owned = platform.xen.memory.frames_owned_by(platform.manager.manager_domid)
    assert not set(old_frames) & set(owned)
    _assert_image_current(platform.manager, new_id)
    _assert_protected(platform, new_id)
    restored = platform.manager.instance(new_id).device.state
    # Command 0's extend ran before the restart and survives it.
    assert restored.pcrs.read(0) != b"\x00" * 20
    assert [_ok(r) for r in responses] == [True] + [False] * 4 + [True] * 3


def test_image_flushed_when_a_frame_raises(improved_platform):
    platform = improved_platform
    guest = platform.add_guest("g")
    instance_id = guest.backend.instance_id
    instance = platform.manager.instance(instance_id)
    before = instance.memory_image()
    authorize = platform.monitor.authorize
    calls = []

    def crash_on_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("monitor crashed mid-batch")
        return authorize(*args, **kwargs)

    platform.monitor.authorize = crash_on_second
    with pytest.raises(RuntimeError, match="mid-batch"):
        platform.manager.handle_batch(
            guest.domain.domid, instance_id,
            [_wire("extend", 1), _wire("extend", 2)],
        )
    assert instance.memory_image() == instance.device.save_state_blob()
    assert instance.memory_image() != before


def test_grown_image_is_on_the_protectors_books():
    """The protector's record follows the image to its new frames: it
    lists the live frames, not the freed ones."""
    platform = build_platform(AccessMode.IMPROVED, seed=3, name="grow-books")
    platform.manager.nv_capacity = 1 << 18
    guest = platform.add_guest("grower")
    guest.client.take_ownership(OWNER, SRK, guest.client.read_pubek())
    instance_id = guest.backend.instance_id
    protector = platform.manager.protector
    old_frames = list(platform.manager.instance(instance_id).state_region.frames)
    assert set(old_frames) <= set(protector.protected_frames())
    guest.client.nv_define(OWNER, 0x99, 80_000, NV_PER_AUTHWRITE, b"n" * 20)
    frames = platform.manager.instance(instance_id).state_region.frames
    assert len(frames) > len(old_frames)
    protected = set(protector.protected_frames())
    assert set(frames) <= protected
    assert not set(old_frames) & protected
    assert all(protector.is_protected(f) for f in frames)


# -- an image that shrinks -----------------------------------------------------------


@pytest.mark.parametrize("mode", [AccessMode.BASELINE, AccessMode.IMPROVED])
@pytest.mark.parametrize("drop", ["evict", "owner-clear"])
def test_shrunk_image_leaves_no_key_material_in_the_frames(mode, drop):
    """Evicting a key shortens the blob; the key's private bytes must not
    survive past the new image end in the manager's frames."""
    platform = build_platform(mode, seed=7, name="shrink")
    guest = platform.add_guest("g")
    client = guest.client
    client.take_ownership(OWNER, SRK, client.read_pubek())
    handle = client.load_key2(
        TPM_KH_SRK, SRK,
        client.create_wrap_key(TPM_KH_SRK, SRK, KEY_AUTH, TPM_KEY_SIGNING, 512),
    )
    instance_id = guest.backend.instance_id
    instance = platform.manager.instance(instance_id)
    private = instance.device.state.keys.get(handle).keypair.serialize_private()
    memory = platform.xen.memory

    def frames() -> bytes:
        region = instance.state_region
        return b"".join(
            memory.read(region.domid, f, 0, PAGE_SIZE) for f in region.frames
        )

    assert private in frames()
    if drop == "evict":
        client.evict_key(handle)
    else:
        client.owner_clear(OWNER)
    assert private not in instance.device.save_state_blob()
    assert private not in frames()
    _assert_image_current(platform.manager, instance_id)
