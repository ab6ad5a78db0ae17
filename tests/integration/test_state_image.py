"""State-image oracle: the manager-domain frames hold the current state.

Dump tooling reads an instance's state through its frames, so after every
ring notify — and after every direct manager call — the image must be
exactly ``device.save_state_blob()``.  The manager refreshes it once per
notify, after the notify's last frame and before the supervisor observes
the outcomes; these tests pin that for every path shape (single frame,
batch, supervised batch, the chaos harness's migrated-guest batch of one,
direct ``handle_command``), for a batch that grows the image mid-batch,
for a supervised restart inside the observe hook, and for a batch that
raises.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AccessMode
from repro.crypto.random_source import RandomSource
from repro.faults import FaultInjector, FaultKind, FaultPlan, injector_scope, spec
from repro.harness.builder import build_platform, fresh_timing_context
from repro.harness.chaos import _direct_transport
from repro.resilience import AdmissionConfig
from repro.tpm import marshal
from repro.tpm.client import TpmClient
from repro.tpm.constants import (
    TPM_ORD_Extend,
    TPM_ORD_GetRandom,
    TPM_ORD_OIAP,
    TPM_ORD_PcrRead,
    TPM_SUCCESS,
)
from repro.tpm.nvram import NV_PER_AUTHWRITE
from repro.vtpm.migration import migrate_with_recovery

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
    instance = manager.instance(instance_id)
    assert instance.memory_image() == instance.device.save_state_blob()


def _assert_protected(platform, instance_id: int) -> None:
    frames = platform.manager.instance(instance_id).state_region.frames
    assert all(platform.xen.memory.page(f).protected for f in frames)


def _ok(response: bytes) -> bool:
    return marshal.parse_response(response).return_code == TPM_SUCCESS


# -- every path shape ---------------------------------------------------------

_FRAME = st.tuples(st.sampled_from(["extend", "read", "random"]),
                   st.integers(0, 15))
_STEP = st.tuples(
    st.sampled_from(["transport", "batch", "direct", "command"]),
    st.lists(_FRAME, min_size=1, max_size=AdmissionConfig().max_depth),
)


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
    if supervised:
        platform.enable_supervision()
    manager, domid = platform.manager, guest.domain.domid
    instance_id = guest.backend.instance_id
    direct = _direct_transport(manager, domid, instance_id)
    _assert_image_current(manager, instance_id)
    for shape, frames in steps:
        wires = [_wire(kind, arg) for kind, arg in frames]
        if shape == "batch":
            responses = guest.frontend.transport_batch(wires)
            _assert_image_current(manager, instance_id)
        else:
            send = {
                "transport": guest.frontend.transport,
                "direct": direct,
                "command": lambda w: manager.handle_command(domid, instance_id, w),
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
    target_vm = destination.xen.create_domain(
        guest.domain.name, kernel_image=guest.domain.kernel_image,
        config=dict(guest.domain.config),
    )
    instance = migrate_with_recovery(
        source.migration, destination.migration, guest.domain.uuid, target_vm
    )
    manager, instance_id = destination.manager, instance.instance_id
    transport = _direct_transport(manager, target_vm.domid, instance_id)
    _assert_image_current(manager, instance_id)
    for kind, arg in (("extend", 4), ("read", 3), ("random", 7), ("extend", 3)):
        assert _ok(transport(_wire(kind, arg)))
        _assert_image_current(manager, instance_id)
    _assert_protected(destination, instance_id)


# -- a batch that grows the image ------------------------------------------------


class _Held(Exception):
    """Raised by the capturing transport once it holds the command."""


def _authorized_wire(guest, call) -> bytes:
    """The wire of one authorized command, held back instead of sent.

    Its OIAP session opens on the guest's real instance (a single frame),
    so the held wire is valid for a later batch."""
    held = []

    def send(wire: bytes) -> bytes:
        if int.from_bytes(wire[6:10], "big") == TPM_ORD_OIAP:
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
