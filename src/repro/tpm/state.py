"""Complete TPM state: flags, hierarchy, PCRs, NV, counters.

One :class:`TpmState` is the durable soul of a TPM — the hardware TPM has
exactly one; every vTPM instance owns one.  It serializes to a
self-contained blob for persistence and live migration.  The serialized
form deliberately contains the private key material in cleartext: *the
whole point of the paper* is that this blob must never live in dumpable
memory or on disk unencrypted, which is what the access-control layer's
protected placement and sealed storage enforce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from repro.crypto.random_source import RandomSource
from repro.crypto.rsa import RsaKeyPair, generate_keypair
from repro.tpm import constants as tc
from repro.tpm.constants import (
    AUTHDATA_SIZE,
    TPM_KEY_STORAGE,
    TPM_KH_SRK,
    WELL_KNOWN_SECRET,
)
from repro.tpm.counters import Counter, CounterTable
from repro.tpm.keys import KeySlots, LoadedKey
from repro.tpm.nvram import NvArea, NvStorage
from repro.tpm.pcr import PcrBank
from repro.tpm.sessions import SessionTable
from repro.tpm.structures import TpmPcrInfo
from repro.util.bytesio import ByteReader, ByteWriter
from repro.util.errors import MarshalError

STATE_MAGIC = b"VTPMST01"

#: default modulus size for EK/SRK; tests shrink this for host speed while
#: virtual-time charges stay at the declared class.
DEFAULT_KEY_BITS = 1024


class ImageEffect(IntEnum):
    """What one command can change in the serialized blob; the stronger
    of two effects covers both."""

    #: no durable change: the resident image stays current
    NONE = 0
    #: only PCR values: the changed 20-byte slots of the PCR window,
    #: written back when the window's frames are next read
    PCR_SLOTS = 1
    #: anything: re-serialize the blob at the end of the notify
    WHOLE = 2


#: The image effect of each ordinal; an ordinal not listed is WHOLE.  The
#: NONE ordinals only read durable state — auth sessions and the RNG are
#: volatile and deliberately not part of the blob (see ``serialize``).
IMAGE_EFFECTS: dict[int, ImageEffect] = {
    **dict.fromkeys(
        (
            tc.TPM_ORD_PcrRead,
            tc.TPM_ORD_GetRandom,
            tc.TPM_ORD_GetCapability,
            tc.TPM_ORD_ReadPubek,
            tc.TPM_ORD_DirRead,
            tc.TPM_ORD_GetTestResult,
            tc.TPM_ORD_ReadCounter,
            tc.TPM_ORD_OIAP,
            tc.TPM_ORD_OSAP,
            tc.TPM_ORD_Seal,
            tc.TPM_ORD_Unseal,
            tc.TPM_ORD_NV_ReadValue,
            tc.TPM_ORD_Sign,
            tc.TPM_ORD_Quote,
            tc.TPM_ORD_CertifyKey,
            tc.TPM_ORD_GetPubKey,
            tc.TPM_ORD_UnBind,
            tc.TPM_ORD_SelfTestFull,
            tc.TPM_ORD_ContinueSelfTest,
        ),
        ImageEffect.NONE,
    ),
    tc.TPM_ORD_Extend: ImageEffect.PCR_SLOTS,
    tc.TPM_ORD_PCR_Reset: ImageEffect.PCR_SLOTS,
}


@dataclass
class PermanentFlags:
    """Subset of TPM_PERMANENT_FLAGS the reproduction exercises."""

    owned: bool = False
    disabled: bool = False
    deactivated: bool = False
    started: bool = False
    post_initialized: bool = True  # between _TPM_Init and TPM_Startup


class TpmState:
    """All durable and volatile state of one TPM instance."""

    def __init__(
        self,
        rng: RandomSource,
        key_bits: int = DEFAULT_KEY_BITS,
        nv_capacity: Optional[int] = None,
    ) -> None:
        self.rng = rng
        self.key_bits = key_bits
        self.flags = PermanentFlags()
        self.owner_auth: bytes = WELL_KNOWN_SECRET
        self.tpm_proof: bytes = rng.bytes(AUTHDATA_SIZE)
        #: the single TPM 1.1-era Data Integrity Register
        self.dir_register: bytes = b"\x00" * 20
        self.pcrs = PcrBank()
        self.nv = NvStorage() if nv_capacity is None else NvStorage(capacity=nv_capacity)
        self.counters = CounterTable()
        self.keys = KeySlots()
        self.sessions = SessionTable(rng)
        # The endorsement key exists from manufacture.
        ek_pair = generate_keypair(key_bits, rng)
        self.keys.install_ek(
            LoadedKey(
                handle=0,
                usage=TPM_KEY_STORAGE,
                keypair=ek_pair,
                usage_auth=WELL_KNOWN_SECRET,
                migration_auth=self.tpm_proof,
            )
        )

    # -- ownership ------------------------------------------------------------

    def install_owner(self, owner_auth: bytes, srk_auth: bytes) -> None:
        """TakeOwnership: set owner secret, generate the SRK."""
        srk_pair = generate_keypair(self.key_bits, self.rng)
        self.owner_auth = owner_auth
        self.keys.install_srk(
            LoadedKey(
                handle=TPM_KH_SRK,
                usage=TPM_KEY_STORAGE,
                keypair=srk_pair,
                usage_auth=srk_auth,
                migration_auth=self.tpm_proof,
            )
        )
        self.flags.owned = True

    def clear_owner(self) -> None:
        """OwnerClear: drop owner auth, SRK and all owner-rooted state."""
        self.owner_auth = WELL_KNOWN_SECRET
        self.keys.clear_srk()
        self.keys.evict_all()
        self.sessions.flush_all()
        self.flags.owned = False

    # -- secret inventory -------------------------------------------------------

    def secret_material(self) -> list[bytes]:
        """Every secret byte-string this TPM holds (attack-scanner oracle).

        Used by the security experiments to check whether a memory/disk
        image leaks: the attack succeeds iff any of these appears in the
        captured image.
        """
        secrets: list[bytes] = [self.owner_auth, self.tpm_proof]
        ek = self.keys.ek
        if ek is not None:
            secrets.append(ek.keypair.serialize_private())
        srk = self.keys.srk
        if srk is not None:
            secrets.append(srk.keypair.serialize_private())
        for key in self.keys.loaded_keys():
            secrets.append(key.keypair.serialize_private())
            secrets.append(key.usage_auth)
        for area in self.nv.areas():
            if area.auth != WELL_KNOWN_SECRET:
                secrets.append(area.auth)
            secrets.append(area.data)
        return [s for s in secrets if s and s != WELL_KNOWN_SECRET]

    # -- serialization ------------------------------------------------------------

    #: ``(inputs, bytes)`` of the last serialized prefix (see ``_prefix``)
    _prefix_memo = None

    def _prefix(self) -> bytes:
        """The blob up to the PCR window: sizes, flags, owner secret,
        tpmProof, DIR, EK and SRK.

        These only change on ownership, flag, DIR and key-hierarchy
        commands, so the bytes are memoized, keyed on exactly those inputs
        and rebuilt on any difference.
        """
        flags = self.flags
        ek = self.keys.ek
        srk = self.keys.srk
        inputs = (
            self.key_bits, self.nv.capacity, flags.owned, flags.disabled,
            flags.deactivated, flags.started, self.owner_auth,
            self.tpm_proof, self.dir_register, ek and ek.keypair,
            srk and (srk.keypair, srk.usage_auth),
        )
        memo = self._prefix_memo
        if memo is None or memo[0] != inputs:
            w = ByteWriter()
            w.raw(STATE_MAGIC)
            w.u32(self.key_bits)
            w.u32(self.nv.capacity)
            w.u8(1 if flags.owned else 0)
            w.u8(1 if flags.disabled else 0)
            w.u8(1 if flags.deactivated else 0)
            w.u8(1 if flags.started else 0)
            w.raw(self.owner_auth)
            w.raw(self.tpm_proof)
            w.raw(self.dir_register)
            w.sized(ek.keypair.serialize_private() if ek else b"")
            if srk is not None:
                w.u8(1)
                w.sized(srk.keypair.serialize_private())
                w.raw(srk.usage_auth)
            else:
                w.u8(0)
            memo = self._prefix_memo = (inputs, w.getvalue())
        return memo[1]

    def pcr_window_offset(self) -> int:
        """Blob offset of PCR 0's slot; PCR ``i`` sits ``DIGEST_SIZE * i``
        past it.  Only a WHOLE-effect command can move the window."""
        return len(self._prefix())

    def serialize(self, include_volatile: bool = True) -> bytes:
        """Full state blob (cleartext!) for persistence and migration.

        The memoized prefix (see ``_prefix``) is followed by the PCR window
        and by NV, counters and loaded keys, which are written fresh.
        """
        w = ByteWriter()
        w.raw(self._prefix())
        w.raw(b"".join(self.pcrs.snapshot()))
        # NV areas
        areas = self.nv.areas()
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
        # Counters
        counters = self.counters.counters()
        w.u32(len(counters))
        for counter in counters:
            w.u32(counter.handle)
            w.raw(counter.label)
            w.u64(counter.value)
            w.raw(counter.auth)
        w.u64(self.counters._high_water)
        # Volatile loaded keys (migrated with the instance)
        if include_volatile:
            loaded = self.keys.loaded_keys()
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

    @staticmethod
    def deserialize(data: bytes, rng: Optional[RandomSource] = None) -> "TpmState":
        """Rebuild a TPM from a state blob.

        ``rng`` seeds the *future* randomness of the restored instance; the
        default derives one from the blob so restore is deterministic.
        """
        r = ByteReader(data)
        if r.raw(len(STATE_MAGIC)) != STATE_MAGIC:
            raise MarshalError("not a TPM state blob")
        key_bits = r.u32()
        nv_capacity = r.u32()
        state = TpmState.__new__(TpmState)
        state.rng = rng or RandomSource(data[:64])
        state.key_bits = key_bits
        state.flags = PermanentFlags(
            owned=bool(r.u8()),
            disabled=bool(r.u8()),
            deactivated=bool(r.u8()),
            started=bool(r.u8()),
        )
        state.owner_auth = r.raw(AUTHDATA_SIZE)
        state.tpm_proof = r.raw(AUTHDATA_SIZE)
        state.dir_register = r.raw(20)
        state.pcrs = PcrBank()
        state.nv = NvStorage(capacity=nv_capacity)
        state.counters = CounterTable()
        state.keys = KeySlots()
        state.sessions = SessionTable(state.rng)
        ek_blob = r.sized(max_size=1 << 16)
        if ek_blob:
            state.keys.install_ek(
                LoadedKey(
                    handle=0,
                    usage=TPM_KEY_STORAGE,
                    keypair=RsaKeyPair.deserialize_private(ek_blob),
                    usage_auth=WELL_KNOWN_SECRET,
                    migration_auth=state.tpm_proof,
                )
            )
        if r.u8():
            srk_pair = RsaKeyPair.deserialize_private(r.sized(max_size=1 << 16))
            srk_auth = r.raw(AUTHDATA_SIZE)
            state.keys.install_srk(
                LoadedKey(
                    handle=TPM_KH_SRK,
                    usage=TPM_KEY_STORAGE,
                    keypair=srk_pair,
                    usage_auth=srk_auth,
                    migration_auth=state.tpm_proof,
                )
            )
        from repro.tpm.constants import DIGEST_SIZE, NUM_PCRS

        state.pcrs.restore([r.raw(DIGEST_SIZE) for _ in range(NUM_PCRS)])
        for _ in range(r.u32()):
            index = r.u32()
            size = r.u32()
            permissions = r.u32()
            auth = r.raw(AUTHDATA_SIZE)
            write_locked = bool(r.u8())
            pcr_len = r.u32()
            pcr_info = None
            if pcr_len:
                sub = ByteReader(r.raw(pcr_len))
                pcr_info = TpmPcrInfo.deserialize(sub)
                sub.expect_end()
            payload = r.sized(max_size=1 << 20)
            area = NvArea(
                index=index,
                size=size,
                permissions=permissions,
                auth=auth,
                pcr_info=pcr_info,
                data=payload,
                write_locked=write_locked,
            )
            state.nv._areas[index] = area
        count = r.u32()
        for _ in range(count):
            handle = r.u32()
            label = r.raw(4)
            value = r.u64()
            auth = r.raw(AUTHDATA_SIZE)
            state.counters._counters[handle] = Counter(
                handle=handle, label=label, value=value, auth=auth
            )
            state.counters._next_handle = max(state.counters._next_handle, handle + 1)
        state.counters._high_water = r.u64()
        for _ in range(r.u32()):
            handle = r.u32()
            usage = r.u16()
            pair = RsaKeyPair.deserialize_private(r.sized(max_size=1 << 16))
            usage_auth = r.raw(AUTHDATA_SIZE)
            migration_auth = r.raw(AUTHDATA_SIZE)
            parent_handle = r.u32()
            pcr_len = r.u32()
            pcr_info = None
            if pcr_len:
                sub = ByteReader(r.raw(pcr_len))
                pcr_info = TpmPcrInfo.deserialize(sub)
                sub.expect_end()
            key = LoadedKey(
                handle=handle,
                usage=usage,
                keypair=pair,
                usage_auth=usage_auth,
                migration_auth=migration_auth,
                pcr_info=pcr_info,
                parent_handle=parent_handle,
            )
            state.keys._slots[handle] = key
            state.keys._next_handle = max(state.keys._next_handle, handle + 1)
        r.expect_end()
        return state
