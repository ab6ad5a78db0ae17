"""Effect-table oracle: a command changes the state blob only as far as
``IMAGE_EFFECTS`` says.

The resident state image of a vTPM instance is refreshed from the table:
a NONE command writes nothing, and a PCR_SLOTS command marks the PCR
window's frames so that their first read rewrites only the PCR slots the
bank marks dirty.  A wrong entry leaves stale state in the manager's
frames, so every frame of these tests runs through a checking
transport that serializes the state before and after it and asserts:

- after a NONE command the blob is byte-identical;
- after a PCR_SLOTS command it differs only inside the PCR window, and
  every changed slot is in the bank's dirty set.

The frames are a client script exercising every classed ordinal on a
provisioned TPM (owner, keys, NV areas, a counter), plus fuzzed params.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.random_source import RandomSource
from repro.tpm import marshal
from repro.tpm.client import TpmClient
from repro.tpm.constants import (
    DIGEST_SIZE,
    NUM_PCRS,
    TPM_CAP_PROP_COUNTERS,
    TPM_CAP_PROP_KEYS,
    TPM_ET_SRK,
    TPM_KEY_BIND,
    TPM_KEY_SIGNING,
    TPM_KH_SRK,
    TPM_ORD_PCR_Reset,
    TPM_SUCCESS,
)
from repro.tpm.device import TpmDevice
from repro.tpm.dispatch import registered_ordinals
from repro.tpm.nvram import NV_PER_AUTHREAD, NV_PER_AUTHWRITE
from repro.tpm.state import IMAGE_EFFECTS, ImageEffect
from repro.util.errors import TpmError

OWNER = b"O" * 20
SRK = b"S" * 20
KEY_AUTH = b"K" * 20
NV_AUTH = b"N" * 20
COUNTER_AUTH = b"C" * 20
DATA_AUTH = b"D" * 20

CLASSED = sorted(o for o, e in IMAGE_EFFECTS.items() if e is not ImageEffect.WHOLE)


class EffectChecker:
    """A device whose every frame is checked against the effect table."""

    def __init__(self, label: bytes) -> None:
        self.device = TpmDevice(RandomSource(label), key_bits=512)
        self.device.power_on()
        #: classed ordinals that have answered TPM_SUCCESS at least once
        self.succeeded: set[int] = set()

    def execute(self, wire: bytes, locality: int = 0) -> bytes:
        state = self.device.state
        before = state.serialize()
        window = state.pcr_window_offset()
        state.pcrs.take_dirty()
        response = self.device.execute(wire, locality=locality)
        after = state.serialize()
        ordinal = int.from_bytes(wire[6:10], "big") if len(wire) >= 10 else -1
        effect = IMAGE_EFFECTS.get(ordinal, ImageEffect.WHOLE)
        if effect is ImageEffect.NONE:
            assert after == before, f"ordinal {ordinal:#x} changed the blob"
        elif effect is ImageEffect.PCR_SLOTS:
            end = window + DIGEST_SIZE * NUM_PCRS
            assert len(after) == len(before)
            assert after[:window] == before[:window], f"{ordinal:#x} moved the prefix"
            assert after[end:] == before[end:], f"{ordinal:#x} changed past the PCRs"
            def slot(blob: bytes, i: int) -> bytes:
                return blob[window + DIGEST_SIZE * i: window + DIGEST_SIZE * (i + 1)]

            changed = {
                i for i in range(NUM_PCRS) if slot(after, i) != slot(before, i)
            }
            assert changed <= state.pcrs.take_dirty()
        if (effect is not ImageEffect.WHOLE
                and marshal.parse_response(response).return_code == TPM_SUCCESS):
            self.succeeded.add(ordinal)
        return response

    def client(self, label: bytes, locality: int = 0) -> TpmClient:
        return TpmClient(
            lambda wire: self.execute(wire, locality), RandomSource(label)
        )


def provision(checker: EffectChecker) -> dict:
    """Owner, SRK, a signing and a bind key, two NV areas, a counter and
    a sealed blob; every frame is already checked."""
    client = checker.client(b"provision")
    client.take_ownership(OWNER, SRK, client.read_pubek())
    handles = {
        usage: client.load_key2(
            TPM_KH_SRK, SRK,
            client.create_wrap_key(TPM_KH_SRK, SRK, KEY_AUTH, usage, 512),
        )
        for usage in (TPM_KEY_SIGNING, TPM_KEY_BIND)
    }
    client.nv_define(OWNER, 0x10, 32, NV_PER_AUTHWRITE | NV_PER_AUTHREAD, NV_AUTH)
    client.nv_define(OWNER, 0x11, 32, NV_PER_AUTHWRITE, NV_AUTH)
    client.nv_write(NV_AUTH, 0x10, 0, b"\x5a" * 32)
    counter, _ = client.create_counter(OWNER, COUNTER_AUTH, b"ctr0")
    client.dir_write(OWNER, b"\x33" * 20)
    return {
        "sign": handles[TPM_KEY_SIGNING],
        "bind": handles[TPM_KEY_BIND],
        "counter": counter,
        "sealed": client.seal(TPM_KH_SRK, SRK, b"secret", DATA_AUTH),
        "bind_public": client.get_pub_key(handles[TPM_KEY_BIND], KEY_AUTH),
    }


def run_script(checker: EffectChecker, env: dict) -> None:
    """One valid frame (or more) of every classed ordinal, interleaved
    with WHOLE commands that move the state under them."""
    client = checker.client(b"script")
    reset = checker.client(b"reset", locality=2)
    client.pcr_read(3)
    client.get_random(16)
    client.get_capability_property(TPM_CAP_PROP_KEYS)
    client.get_capability_property(TPM_CAP_PROP_COUNTERS)
    client.dir_read()
    client.get_test_result()
    client.self_test()
    client.read_counter(env["counter"])
    client.osap(TPM_ET_SRK, TPM_KH_SRK, SRK)
    for i in (0, 16, 23):
        client.extend(i, bytes([i + 1]) * 20)
    reset.pcr_reset([16, 17])
    client.extend(17, b"\x01" * 20)
    client.increment_counter(COUNTER_AUTH, env["counter"])
    reset.pcr_reset([17])
    client.seal(TPM_KH_SRK, SRK, b"more", DATA_AUTH)
    assert client.unseal(TPM_KH_SRK, SRK, env["sealed"], DATA_AUTH) == b"secret"
    client.nv_read(0x10, 0, 8, auth=NV_AUTH)
    client.nv_read(0x11, 0, 8)
    client.nv_write(NV_AUTH, 0x11, 0, b"\x77" * 8)
    client.nv_read(0x11, 0, 8)
    client.sign(env["sign"], KEY_AUTH, b"\x42" * 20)
    client.quote(env["sign"], KEY_AUTH, b"\x24" * 20, [0, 16])
    client.certify_key(env["sign"], KEY_AUTH, env["bind"], KEY_AUTH, b"\x11" * 20)
    client.get_pub_key(env["sign"], KEY_AUTH)
    enc = env["bind_public"].encrypt(b"bound", RandomSource(b"bind"))
    assert client.unbind(env["bind"], KEY_AUTH, enc) == b"bound"
    # A command that fails part-way: PCR 16 resets before PCR 3 refuses.
    client.extend(16, b"\x02" * 20)
    with pytest.raises(TpmError):
        reset.pcr_reset([3, 16])


def test_table_names_only_registered_ordinals():
    assert set(IMAGE_EFFECTS) <= registered_ordinals()


def test_every_classed_ordinal_keeps_its_effect():
    checker = EffectChecker(b"effects-valid")
    env = provision(checker)
    run_script(checker, env)
    # ReadPubek only answers before an owner is installed.
    unowned = EffectChecker(b"effects-unowned")
    unowned.client(b"unowned").read_pubek()
    succeeded = checker.succeeded | unowned.succeeded
    assert set(CLASSED) <= succeeded, sorted(set(CLASSED) - succeeded)


@pytest.fixture(scope="module")
def provisioned():
    checker = EffectChecker(b"effects-fuzz")
    return checker, provision(checker)


@settings(max_examples=150, deadline=None)
@given(
    ordinal=st.sampled_from(CLASSED),
    params=st.binary(max_size=96),
    locality=st.sampled_from([0, 2]),
    authorized=st.booleans(),
    nonce=st.binary(min_size=20, max_size=20),
    auth_value=st.binary(min_size=20, max_size=20),
)
def test_fuzzed_params_keep_the_effect(
    provisioned, ordinal, params, locality, authorized, nonce, auth_value
):
    checker, _ = provisioned
    # Fuzzed OIAP/OSAP frames open sessions; sessions are volatile, so
    # dropping them keeps the table from filling without touching the blob.
    checker.device.state.sessions.flush_all()
    trailer = None
    if authorized:
        # A live session, so the handler reaches its auth check.
        session = checker.client(b"fuzz-oiap").oiap()
        trailer = marshal.AuthTrailer(
            handle=session.handle, nonce_odd=nonce,
            continue_session=False, auth_value=auth_value,
        )
    wire = marshal.build_command(ordinal, params, auth=trailer)
    marshal.parse_response(checker.execute(wire, locality))


@settings(max_examples=100, deadline=None)
@given(
    index=st.integers(0, NUM_PCRS - 1),
    digest=st.binary(min_size=20, max_size=20),
    reset_mask=st.integers(0, (1 << NUM_PCRS) - 1),
)
def test_fuzzed_pcr_frames_patch_only_their_slots(provisioned, index, digest, reset_mask):
    checker, _ = provisioned
    client = checker.client(b"fuzz-pcr", locality=2)
    client.extend(index, digest)
    reset_wire = marshal.build_command(
        TPM_ORD_PCR_Reset, (3).to_bytes(2, "big") + reset_mask.to_bytes(3, "little")
    )
    checker.execute(reset_wire, locality=2)
