"""Serializer oracle: the memoized ``TpmState.serialize`` writes exactly
what the plain field-by-field writer it replaced wrote.

``reference_serialize`` below is that writer, kept verbatim.  Every
mutation that can touch the memoized prefix (ownership, flags, DIR, EK,
SRK) or the freshly written tail (PCRs, NV, counters, loaded keys) is
applied to one long-lived state, so a stale memo would show up as a
byte difference on the very next blob.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.random_source import RandomSource
from repro.crypto.rsa import generate_keypair
from repro.tpm.client import TpmClient
from repro.tpm.constants import TPM_KEY_SIGNING, TPM_KEY_STORAGE, TPM_KH_SRK
from repro.tpm.device import TpmDevice
from repro.tpm.keys import LoadedKey
from repro.tpm.nvram import NV_PER_AUTHREAD, NV_PER_AUTHWRITE, NV_PER_WRITEDEFINE
from repro.tpm.state import STATE_MAGIC, TpmState
from repro.util.bytesio import ByteWriter
from repro.util.errors import TpmError

OWNER = b"O" * 20
SRK_AUTH = b"S" * 20
NV_AUTH = b"N" * 20
COUNTER_AUTH = b"C" * 20
KEY_AUTH = b"K" * 20


def reference_serialize(state: TpmState, include_volatile: bool = True) -> bytes:
    """The state blob, written field by field with no memo."""
    w = ByteWriter()
    w.raw(STATE_MAGIC)
    w.u32(state.key_bits)
    w.u32(state.nv.capacity)
    w.u8(1 if state.flags.owned else 0)
    w.u8(1 if state.flags.disabled else 0)
    w.u8(1 if state.flags.deactivated else 0)
    w.u8(1 if state.flags.started else 0)
    w.raw(state.owner_auth)
    w.raw(state.tpm_proof)
    w.raw(state.dir_register)
    ek = state.keys.ek
    w.sized(ek.keypair.serialize_private() if ek else b"")
    srk = state.keys.srk
    if srk is not None:
        w.u8(1)
        w.sized(srk.keypair.serialize_private())
        w.raw(srk.usage_auth)
    else:
        w.u8(0)
    for value in state.pcrs.snapshot():
        w.raw(value)
    areas = state.nv.areas()
    w.u32(len(areas))
    for area in areas:
        w.u32(area.index)
        w.u32(area.size)
        w.u32(area.permissions)
        w.raw(area.auth)
        w.u8(1 if area.write_locked else 0)
        if area.pcr_info is not None:
            blob = area.pcr_info.serialize()
            w.u32(len(blob))
            w.raw(blob)
        else:
            w.u32(0)
        w.sized(area.data)
    counters = state.counters.counters()
    w.u32(len(counters))
    for counter in counters:
        w.u32(counter.handle)
        w.raw(counter.label)
        w.u64(counter.value)
        w.raw(counter.auth)
    w.u64(state.counters._high_water)
    if include_volatile:
        loaded = state.keys.loaded_keys()
        w.u32(len(loaded))
        for key in loaded:
            w.u32(key.handle)
            w.u16(key.usage)
            w.sized(key.keypair.serialize_private())
            w.raw(key.usage_auth)
            w.raw(key.migration_auth)
            w.u32(key.parent_handle)
            if key.pcr_info is not None:
                blob = key.pcr_info.serialize()
                w.u32(len(blob))
                w.raw(blob)
            else:
                w.u32(0)
    else:
        w.u32(0)
    return w.getvalue()


def assert_serializer_matches(state: TpmState) -> None:
    for include_volatile in (True, False):
        assert state.serialize(include_volatile=include_volatile) == (
            reference_serialize(state, include_volatile=include_volatile)
        )
    blob = state.serialize()
    assert TpmState.deserialize(blob).serialize() == blob


class _Tpm:
    """A small-key device plus a client, and every mutation the oracle
    applies to it.  Each mutation is a no-op (a caught ``TpmError``)
    when the state does not allow it, e.g. an NV define before
    TakeOwnership."""

    def __init__(self, seed: bytes) -> None:
        rng = RandomSource(seed)
        self.device = TpmDevice(rng.fork("device"), key_bits=512)
        self.device.power_on()
        self.client = TpmClient(self.device.execute, rng.fork("client"))
        self.rng = rng.fork("ops")
        self.counter = None
        self.key = None

    @property
    def state(self) -> TpmState:
        return self.device.state

    def take_ownership(self):
        if not self.state.flags.owned:
            self.client.take_ownership(OWNER, SRK_AUTH, self.client.read_pubek())

    def owner_clear(self):
        self.client.owner_clear(OWNER)
        self.key = None

    def extend(self):
        self.client.extend(self.rng.randint_below(24), self.rng.bytes(20))

    def flip_disabled(self):
        self.state.flags.disabled = not self.state.flags.disabled

    def flip_deactivated(self):
        self.state.flags.deactivated = not self.state.flags.deactivated

    def dir_write(self):
        self.client.dir_write(OWNER, self.rng.bytes(20))

    def replace_srk(self):
        if self.state.flags.owned:
            self.state.install_owner(OWNER, self.rng.bytes(20))

    def swap_srk_keypair(self):
        srk = self.state.keys.srk
        if srk is not None:
            srk.keypair = generate_keypair(512, self.rng)

    def change_srk_auth(self):
        srk = self.state.keys.srk
        if srk is not None:
            srk.usage_auth = self.rng.bytes(20)

    def replace_ek(self):
        self.state.keys.install_ek(LoadedKey(
            handle=0, usage=TPM_KEY_STORAGE,
            keypair=generate_keypair(512, self.rng),
            usage_auth=b"\x00" * 20, migration_auth=self.state.tpm_proof,
        ))

    def nv_define(self):
        self.client.nv_define(
            OWNER, 0x10, 32, NV_PER_AUTHREAD | NV_PER_AUTHWRITE, NV_AUTH
        )

    def nv_write(self):
        self.client.nv_write(NV_AUTH, 0x10, 0, self.rng.bytes(32))

    def nv_lock(self):
        self.client.nv_define(
            OWNER, 0x20, 8, NV_PER_AUTHWRITE | NV_PER_WRITEDEFINE, NV_AUTH
        )
        self.client.nv_write(NV_AUTH, 0x20, 0, b"")

    def nv_delete(self):
        for index in (0x10, 0x20):
            if index in self.state.nv.indices():
                self.client.nv_define(OWNER, index, 0, 0, NV_AUTH)

    def counter_create(self):
        self.counter, _ = self.client.create_counter(OWNER, COUNTER_AUTH, b"cnt0")

    def counter_increment(self):
        if self.counter is not None:
            self.client.increment_counter(COUNTER_AUTH, self.counter)

    def counter_release(self):
        if self.counter is not None:
            self.client.release_counter(COUNTER_AUTH, self.counter)
            self.counter = None

    def key_load(self):
        blob = self.client.create_wrap_key(
            TPM_KH_SRK, SRK_AUTH, KEY_AUTH, TPM_KEY_SIGNING, 512
        )
        self.key = self.client.load_key2(TPM_KH_SRK, SRK_AUTH, blob)

    def key_evict(self):
        if self.key is not None:
            self.client.evict_key(self.key)
            self.key = None

    def apply(self, name: str) -> None:
        try:
            getattr(self, name)()
        except TpmError:
            pass


#: every mutation, in an order where each one takes effect
MUTATIONS = (
    "extend", "take_ownership", "dir_write", "flip_disabled",
    "flip_deactivated", "nv_define", "nv_write", "nv_lock", "counter_create",
    "counter_increment", "key_load", "swap_srk_keypair", "change_srk_auth",
    "replace_srk",
    "replace_ek", "key_evict", "counter_release", "nv_delete",
    "flip_disabled", "flip_deactivated", "owner_clear", "extend",
)


def test_every_mutation_rebuilds_exactly_what_changed():
    tpm = _Tpm(b"serializer-walk")
    assert_serializer_matches(tpm.state)
    previous = tpm.state.serialize()
    for name in MUTATIONS:
        tpm.apply(name)
        assert_serializer_matches(tpm.state)
        blob = tpm.state.serialize()
        assert blob != previous, f"{name} left the state blob unchanged"
        previous = blob


@pytest.mark.parametrize("include_volatile", [True, False])
def test_restored_state_serializes_like_the_reference(include_volatile):
    tpm = _Tpm(b"serializer-restore")
    for name in ("take_ownership", "nv_define", "counter_create", "key_load"):
        tpm.apply(name)
    restored = TpmState.deserialize(tpm.state.serialize(include_volatile))
    assert restored.serialize(include_volatile) == reference_serialize(
        restored, include_volatile
    )


_SHARED = _Tpm(b"serializer-random")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(sorted(set(MUTATIONS))), min_size=1, max_size=6))
def test_random_mutation_sequences_match_the_reference(names):
    for name in names:
        _SHARED.apply(name)
        assert_serializer_matches(_SHARED.state)
