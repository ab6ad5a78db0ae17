"""Guest-side TPM software stack (the TrouSerS role).

A :class:`TpmClient` speaks the full wire protocol over any transport — a
direct call into a :class:`~repro.tpm.device.TpmDevice`, or the vTPM
front-end driver of a guest domain — and exposes Pythonic methods for each
ordinal, handling session management, auth HMACs, nonce rolling and
response verification.

Raises :class:`~repro.util.errors.TpmError` with the device's result code
whenever a command fails, so tests can assert exact TPM semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.crypto.hmac_util import constant_time_equal, hmac_sha1
from repro.crypto.random_source import RandomSource
from repro.crypto.rsa import RsaPublicKey
from repro.tpm import marshal
from repro.tpm.constants import (
    AUTHDATA_SIZE,
    DIGEST_SIZE,
    NONCE_SIZE,
    TPM_AUTHFAIL,
    TPM_ET_KEYHANDLE,
    TPM_ET_OWNER,
    TPM_ET_SRK,
    TPM_KH_SRK,
    TPM_ORD_ActivateIdentity,
    TPM_ORD_ContinueSelfTest,
    TPM_ORD_CreateCounter,
    TPM_ORD_CreateWrapKey,
    TPM_ORD_Extend,
    TPM_ORD_FlushSpecific,
    TPM_ORD_GetCapability,
    TPM_ORD_GetPubKey,
    TPM_ORD_GetRandom,
    TPM_ORD_IncrementCounter,
    TPM_ORD_LoadKey2,
    TPM_ORD_MakeIdentity,
    TPM_ORD_NV_DefineSpace,
    TPM_ORD_NV_ReadValue,
    TPM_ORD_NV_WriteValue,
    TPM_ORD_OIAP,
    TPM_ORD_OSAP,
    TPM_ORD_OwnerClear,
    TPM_ORD_PCR_Reset,
    TPM_ORD_PcrRead,
    TPM_ORD_Quote,
    TPM_ORD_ReadCounter,
    TPM_ORD_ReadPubek,
    TPM_ORD_ReleaseCounter,
    TPM_ORD_Seal,
    TPM_ORD_SelfTestFull,
    TPM_ORD_Sign,
    TPM_ORD_TakeOwnership,
    TPM_ORD_UnBind,
    TPM_ORD_Unseal,
    TPM_RT_AUTH,
    TPM_RT_COUNTER,
    TPM_RT_KEY,
    TPM_SUCCESS,
    ordinal_name,
)
from repro.tpm.marshal import AuthTrailer
from repro.tpm.pcr import PcrSelection
from repro.tpm.sessions import compute_auth, osap_shared_secret
from repro.util.bytesio import ByteReader, ByteWriter
from repro.util.errors import MarshalError, TpmError

Transport = Callable[[bytes], bytes]

# The cheap ordinals every measurement loop sends build and check their
# few bytes directly, raising the same MarshalErrors a ByteWriter or
# ByteReader would.


def _u32(value: int) -> bytes:
    """A u32 parameter (``ByteWriter.u32`` without the writer)."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise MarshalError(f"u32 out of range: {value}")
    return value.to_bytes(4, "big")


def _digest_out(params: bytes) -> bytes:
    """Out-params that must be exactly one 20-byte digest; on a length
    mismatch a ByteReader re-reads them for its error."""
    if len(params) != DIGEST_SIZE:
        reader = ByteReader(params)
        reader.raw(DIGEST_SIZE)
        reader.expect_end()
    return params


def _sized_out(params: bytes) -> bytes:
    """Out-params that must be exactly one sized buffer (within
    ``ByteReader.sized``'s 1 MiB cap); on a mismatch a ByteReader re-reads
    them for its error."""
    data = params[4:]
    if params[:4] != len(data).to_bytes(4, "big") or len(data) > 1 << 20:
        reader = ByteReader(params)
        reader.sized()
        reader.expect_end()
    return data


@dataclass
class ClientSession:
    """Client-side mirror of an auth session."""

    handle: int
    kind: str
    nonce_even: bytes
    shared_secret: bytes = b""

    def hmac_key(self, entity_secret: bytes) -> bytes:
        return self.shared_secret if self.kind == "osap" else entity_secret


class TpmClient:
    """High-level, session-managing TPM 1.2 client."""

    def __init__(self, transport: Transport, rng: RandomSource) -> None:
        self._send = transport
        self._rng = rng

    # -- plumbing ---------------------------------------------------------------

    def _call(self, ordinal: int, params: bytes) -> bytes:
        """Unauthorized command; returns out-params or raises TpmError."""
        response = self._send(marshal.build_command(ordinal, params))
        parsed = marshal.parse_response(response)
        if parsed.return_code != TPM_SUCCESS:
            raise TpmError(
                parsed.return_code,
                f"{ordinal_name(ordinal)} failed with {parsed.return_code:#x}",
            )
        return parsed.params

    def _call_auth(
        self,
        ordinal: int,
        params: bytes,
        session: ClientSession,
        entity_secret: bytes,
        continue_session: bool = False,
    ) -> bytes:
        """AUTH1 command: build trailer, verify response auth, roll nonces."""
        nonce_odd = self._rng.nonce()
        param_digest = marshal.command_param_digest(ordinal, params)
        key = session.hmac_key(entity_secret)
        # Client-side HMAC cost is real work in the guest stack.
        auth_value = compute_auth(
            key, param_digest, session.nonce_even, nonce_odd, continue_session
        )
        trailer = AuthTrailer(
            handle=session.handle,
            nonce_odd=nonce_odd,
            continue_session=continue_session,
            auth_value=auth_value,
        )
        response = self._send(marshal.build_command(ordinal, params, auth=trailer))
        parsed = marshal.parse_response(response)
        if parsed.return_code != TPM_SUCCESS:
            raise TpmError(
                parsed.return_code,
                f"{ordinal_name(ordinal)} failed with {parsed.return_code:#x}",
            )
        if parsed.nonce_even is None or parsed.response_auth is None:
            raise TpmError(TPM_AUTHFAIL, "authorized command got unauthorized reply")
        out_digest = marshal.response_param_digest(
            parsed.return_code, ordinal, parsed.params
        )
        expected = compute_auth(
            key, out_digest, parsed.nonce_even, nonce_odd, parsed.continue_session
        )
        if not constant_time_equal(expected, parsed.response_auth):
            raise TpmError(TPM_AUTHFAIL, "response auth HMAC mismatch (MitM?)")
        session.nonce_even = parsed.nonce_even
        return parsed.params

    # -- sessions ----------------------------------------------------------------

    def oiap(self) -> ClientSession:
        out = ByteReader(self._call(TPM_ORD_OIAP, b""))
        handle = out.u32()
        nonce_even = out.raw(NONCE_SIZE)
        out.expect_end()
        return ClientSession(handle=handle, kind="oiap", nonce_even=nonce_even)

    def osap(
        self, entity_type: int, entity_value: int, entity_secret: bytes
    ) -> ClientSession:
        nonce_odd_osap = self._rng.nonce()
        params = (
            ByteWriter().u16(entity_type).u32(entity_value).raw(nonce_odd_osap)
        ).getvalue()
        out = ByteReader(self._call(TPM_ORD_OSAP, params))
        handle = out.u32()
        nonce_even = out.raw(NONCE_SIZE)
        nonce_even_osap = out.raw(NONCE_SIZE)
        out.expect_end()
        shared = osap_shared_secret(entity_secret, nonce_even_osap, nonce_odd_osap)
        return ClientSession(
            handle=handle, kind="osap", nonce_even=nonce_even, shared_secret=shared
        )

    def flush_session(self, session: ClientSession) -> None:
        params = ByteWriter().u32(session.handle).u32(TPM_RT_AUTH).getvalue()
        self._call(TPM_ORD_FlushSpecific, params)

    # -- admin --------------------------------------------------------------------

    def self_test(self) -> None:
        self._call(TPM_ORD_SelfTestFull, b"")
        self._call(TPM_ORD_ContinueSelfTest, b"")

    def get_random(self, count: int) -> bytes:
        return _sized_out(self._call(TPM_ORD_GetRandom, _u32(count)))

    def get_capability_property(self, prop: int) -> bytes:
        params = ByteWriter().u32(0x5).sized(prop.to_bytes(4, "big")).getvalue()
        out = ByteReader(self._call(TPM_ORD_GetCapability, params))
        value = out.sized()
        out.expect_end()
        return value

    # -- ownership -------------------------------------------------------------------

    def read_pubek(self) -> RsaPublicKey:
        out = ByteReader(self._call(TPM_ORD_ReadPubek, b""))
        modulus = out.sized()
        exponent = out.u32()
        bits = out.u32()
        out.expect_end()
        return RsaPublicKey(n=int.from_bytes(modulus, "big"), e=exponent, bits=bits)

    def take_ownership(
        self, owner_auth: bytes, srk_auth: bytes, ek_public: RsaPublicKey
    ) -> RsaPublicKey:
        """Install ownership; returns the new SRK public key."""
        if len(owner_auth) != AUTHDATA_SIZE or len(srk_auth) != AUTHDATA_SIZE:
            raise TpmError(TPM_AUTHFAIL, "auth secrets must be 20 bytes")
        enc_owner = ek_public.encrypt(owner_auth, self._rng)
        enc_srk = ek_public.encrypt(srk_auth, self._rng)
        params = ByteWriter().sized(enc_owner).sized(enc_srk).getvalue()
        session = self.oiap()
        out = ByteReader(
            self._call_auth(TPM_ORD_TakeOwnership, params, session, owner_auth)
        )
        modulus = out.sized()
        exponent = out.u32()
        bits = out.u32()
        out.expect_end()
        return RsaPublicKey(n=int.from_bytes(modulus, "big"), e=exponent, bits=bits)

    def owner_clear(self, owner_auth: bytes) -> None:
        session = self.oiap()
        self._call_auth(TPM_ORD_OwnerClear, b"", session, owner_auth)

    # -- PCRs ---------------------------------------------------------------------------

    def extend(self, index: int, measurement: bytes) -> bytes:
        return _digest_out(
            self._call(TPM_ORD_Extend, _u32(index) + measurement)
        )

    def pcr_read(self, index: int) -> bytes:
        return _digest_out(self._call(TPM_ORD_PcrRead, _u32(index)))

    def pcr_reset(self, indices: Iterable[int]) -> None:
        params = PcrSelection(indices).serialize()
        self._call(TPM_ORD_PCR_Reset, params)

    # -- storage ----------------------------------------------------------------------------

    @staticmethod
    def _pcr_info_field(
        pcr_selection: Optional[PcrSelection], digest_at_release: Optional[bytes]
    ) -> bytes:
        if pcr_selection is None or not pcr_selection:
            return ByteWriter().u32(0).getvalue()
        from repro.tpm.structures import TpmPcrInfo

        blob = TpmPcrInfo(
            selection=pcr_selection, digest_at_release=digest_at_release
        ).serialize()
        return (ByteWriter().u32(len(blob)).raw(blob)).getvalue()

    def seal(
        self,
        parent_handle: int,
        parent_secret: bytes,
        data: bytes,
        data_auth: bytes,
        pcr_selection: Optional[PcrSelection] = None,
        digest_at_release: Optional[bytes] = None,
    ) -> bytes:
        """TPM_Seal via a fresh OSAP session; returns the sealed blob."""
        entity = (
            (TPM_ET_SRK, TPM_KH_SRK)
            if parent_handle == TPM_KH_SRK
            else (TPM_ET_KEYHANDLE, parent_handle)
        )
        session = self.osap(entity[0], entity[1], parent_secret)
        params = (
            ByteWriter()
            .u32(parent_handle)
            .raw(data_auth)
            .raw(self._pcr_info_field(pcr_selection, digest_at_release))
            .sized(data)
            .getvalue()
        )
        out = ByteReader(self._call_auth(TPM_ORD_Seal, params, session, parent_secret))
        blob = out.sized(max_size=1 << 20)
        out.expect_end()
        return blob

    def unseal(
        self,
        parent_handle: int,
        parent_secret: bytes,
        blob: bytes,
        data_auth: bytes,
    ) -> bytes:
        session = self.oiap()
        params = (
            ByteWriter().u32(parent_handle).raw(data_auth).sized(blob).getvalue()
        )
        out = ByteReader(self._call_auth(TPM_ORD_Unseal, params, session, parent_secret))
        data = out.sized(max_size=1 << 20)
        out.expect_end()
        return data

    def unbind(self, key_handle: int, key_secret: bytes, enc_data: bytes) -> bytes:
        session = self.oiap()
        params = ByteWriter().u32(key_handle).sized(enc_data).getvalue()
        out = ByteReader(self._call_auth(TPM_ORD_UnBind, params, session, key_secret))
        clear = out.sized(max_size=1 << 12)
        out.expect_end()
        return clear

    def create_wrap_key(
        self,
        parent_handle: int,
        parent_secret: bytes,
        usage_auth: bytes,
        key_usage: int,
        key_bits: int,
        migration_auth: Optional[bytes] = None,
        pcr_selection: Optional[PcrSelection] = None,
        digest_at_release: Optional[bytes] = None,
    ) -> bytes:
        """TPM_CreateWrapKey; returns the wrapped key blob."""
        session = self.oiap()
        params = (
            ByteWriter()
            .u32(parent_handle)
            .raw(usage_auth)
            .raw(migration_auth or usage_auth)
            .u16(key_usage)
            .u32(key_bits)
            .raw(self._pcr_info_field(pcr_selection, digest_at_release))
            .getvalue()
        )
        out = ByteReader(
            self._call_auth(TPM_ORD_CreateWrapKey, params, session, parent_secret)
        )
        blob = out.sized(max_size=1 << 16)
        out.expect_end()
        return blob

    def load_key2(self, parent_handle: int, parent_secret: bytes, blob: bytes) -> int:
        session = self.oiap()
        params = ByteWriter().u32(parent_handle).sized(blob).getvalue()
        out = ByteReader(self._call_auth(TPM_ORD_LoadKey2, params, session, parent_secret))
        handle = out.u32()
        out.expect_end()
        return handle

    def get_pub_key(self, key_handle: int, key_secret: bytes) -> RsaPublicKey:
        session = self.oiap()
        params = ByteWriter().u32(key_handle).getvalue()
        out = ByteReader(self._call_auth(TPM_ORD_GetPubKey, params, session, key_secret))
        modulus = out.sized()
        exponent = out.u32()
        bits = out.u32()
        out.expect_end()
        return RsaPublicKey(n=int.from_bytes(modulus, "big"), e=exponent, bits=bits)

    def evict_key(self, key_handle: int) -> None:
        params = ByteWriter().u32(key_handle).u32(TPM_RT_KEY).getvalue()
        self._call(TPM_ORD_FlushSpecific, params)

    # -- attestation -------------------------------------------------------------------------

    def sign(self, key_handle: int, key_secret: bytes, digest: bytes) -> bytes:
        session = self.oiap()
        params = ByteWriter().u32(key_handle).sized(digest).getvalue()
        out = ByteReader(self._call_auth(TPM_ORD_Sign, params, session, key_secret))
        signature = out.sized(max_size=1 << 12)
        out.expect_end()
        return signature

    def quote(
        self,
        key_handle: int,
        key_secret: bytes,
        external_data: bytes,
        pcr_indices: Iterable[int],
    ) -> tuple[bytes, list[bytes], bytes]:
        """TPM_Quote; returns (composite, pcr_values, signature)."""
        selection = PcrSelection(pcr_indices)
        session = self.oiap()
        params = (
            ByteWriter().u32(key_handle).raw(external_data).raw(selection.serialize())
        ).getvalue()
        out = ByteReader(self._call_auth(TPM_ORD_Quote, params, session, key_secret))
        composite = out.raw(DIGEST_SIZE)
        values_blob = out.sized(max_size=1 << 12)
        signature = out.sized(max_size=1 << 12)
        out.expect_end()
        values = [
            values_blob[i : i + DIGEST_SIZE]
            for i in range(0, len(values_blob), DIGEST_SIZE)
        ]
        return composite, values, signature

    def certify_key(
        self,
        cert_handle: int,
        cert_secret: bytes,
        key_handle: int,
        key_secret: bytes,
        anti_replay: bytes,
    ) -> tuple[bytes, bytes]:
        """TPM_CertifyKey; returns (certifyInfo bytes, signature)."""
        from repro.tpm.constants import TPM_ORD_CertifyKey

        session = self.oiap()
        params = (
            ByteWriter()
            .u32(cert_handle)
            .u32(key_handle)
            .raw(anti_replay)
            .raw(key_secret)
            .getvalue()
        )
        out = ByteReader(
            self._call_auth(TPM_ORD_CertifyKey, params, session, cert_secret)
        )
        certify_info = out.sized(max_size=1 << 12)
        signature = out.sized(max_size=1 << 12)
        out.expect_end()
        return certify_info, signature

    def make_identity(
        self, owner_auth: bytes, identity_auth: bytes, label: bytes
    ) -> tuple[bytes, bytes]:
        """TPM_MakeIdentity; returns (aik_blob, binding_digest)."""
        session = self.oiap()
        params = ByteWriter().raw(identity_auth).sized(label).getvalue()
        out = ByteReader(
            self._call_auth(TPM_ORD_MakeIdentity, params, session, owner_auth)
        )
        blob = out.sized(max_size=1 << 16)
        binding = out.sized(max_size=64)
        out.expect_end()
        return blob, binding

    def activate_identity(
        self, owner_auth: bytes, id_key_handle: int, enc_blob: bytes
    ) -> bytes:
        session = self.oiap()
        params = ByteWriter().u32(id_key_handle).sized(enc_blob).getvalue()
        out = ByteReader(
            self._call_auth(TPM_ORD_ActivateIdentity, params, session, owner_auth)
        )
        sym_key = out.sized(max_size=1 << 12)
        out.expect_end()
        return sym_key

    # -- maintenance ----------------------------------------------------------------------------

    def change_auth(
        self,
        parent_handle: int,
        parent_secret: bytes,
        key_blob: bytes,
        old_auth: bytes,
        new_auth: bytes,
    ) -> bytes:
        """TPM_ChangeAuth; returns the re-wrapped key blob."""
        from repro.tpm.constants import TPM_ORD_ChangeAuth

        session = self.oiap()
        params = (
            ByteWriter()
            .u32(parent_handle)
            .raw(old_auth)
            .raw(new_auth)
            .sized(key_blob)
            .getvalue()
        )
        out = ByteReader(
            self._call_auth(TPM_ORD_ChangeAuth, params, session, parent_secret)
        )
        blob = out.sized(max_size=1 << 16)
        out.expect_end()
        return blob

    def create_migration_blob(
        self,
        parent_handle: int,
        parent_secret: bytes,
        key_blob: bytes,
        migration_auth: bytes,
        destination: RsaPublicKey,
    ) -> bytes:
        """TPM_CreateMigrationBlob; returns the migration package."""
        from repro.tpm.constants import TPM_ORD_CreateMigrationBlob

        session = self.oiap()
        params = (
            ByteWriter()
            .u32(parent_handle)
            .raw(migration_auth)
            .sized(destination.modulus_bytes())
            .u32(destination.e)
            .u32(destination.bits)
            .sized(key_blob)
            .getvalue()
        )
        out = ByteReader(
            self._call_auth(
                TPM_ORD_CreateMigrationBlob, params, session, parent_secret
            )
        )
        blob = out.sized(max_size=1 << 16)
        out.expect_end()
        return blob

    def convert_migration_blob(
        self, parent_handle: int, parent_secret: bytes, migration_blob: bytes
    ) -> bytes:
        """TPM_ConvertMigrationBlob; returns a loadable key blob."""
        from repro.tpm.constants import TPM_ORD_ConvertMigrationBlob

        session = self.oiap()
        params = ByteWriter().u32(parent_handle).sized(migration_blob).getvalue()
        out = ByteReader(
            self._call_auth(
                TPM_ORD_ConvertMigrationBlob, params, session, parent_secret
            )
        )
        blob = out.sized(max_size=1 << 16)
        out.expect_end()
        return blob

    def dir_write(self, owner_auth: bytes, value: bytes, index: int = 0) -> None:
        from repro.tpm.constants import TPM_ORD_DirWriteAuth

        session = self.oiap()
        params = ByteWriter().u32(index).raw(value).getvalue()
        self._call_auth(TPM_ORD_DirWriteAuth, params, session, owner_auth)

    def dir_read(self, index: int = 0) -> bytes:
        from repro.tpm.constants import TPM_ORD_DirRead

        out = ByteReader(
            self._call(TPM_ORD_DirRead, ByteWriter().u32(index).getvalue())
        )
        value = out.raw(DIGEST_SIZE)
        out.expect_end()
        return value

    def get_test_result(self) -> bytes:
        from repro.tpm.constants import TPM_ORD_GetTestResult

        out = ByteReader(self._call(TPM_ORD_GetTestResult, b""))
        result = out.sized(max_size=64)
        out.expect_end()
        return result

    # -- NV ------------------------------------------------------------------------------------

    def nv_define(
        self,
        owner_auth: bytes,
        index: int,
        size: int,
        permissions: int,
        area_auth: bytes,
        pcr_selection: Optional[PcrSelection] = None,
        digest_at_release: Optional[bytes] = None,
    ) -> None:
        session = self.oiap()
        params = (
            ByteWriter()
            .u32(index)
            .u32(size)
            .u32(permissions)
            .raw(area_auth)
            .raw(self._pcr_info_field(pcr_selection, digest_at_release))
            .getvalue()
        )
        self._call_auth(TPM_ORD_NV_DefineSpace, params, session, owner_auth)

    #: largest NV payload per command; the tpmif transport is one page, so
    #: the client chunks larger transfers exactly as TrouSerS does.
    NV_CHUNK = 2048

    def nv_write(self, auth: bytes, index: int, offset: int, data: bytes) -> None:
        for pos in range(0, len(data), self.NV_CHUNK) or [0]:
            chunk = data[pos : pos + self.NV_CHUNK]
            session = self.oiap()
            params = ByteWriter().u32(index).u32(offset + pos).sized(chunk).getvalue()
            self._call_auth(TPM_ORD_NV_WriteValue, params, session, auth)

    def nv_read(
        self, index: int, offset: int, size: int, auth: Optional[bytes] = None
    ) -> bytes:
        out_data = bytearray()
        pos = 0
        while pos < size or (size == 0 and pos == 0):
            chunk_size = min(self.NV_CHUNK, size - pos) if size else 0
            params = (
                ByteWriter().u32(index).u32(offset + pos).u32(chunk_size).getvalue()
            )
            if auth is None:
                out = ByteReader(self._call(TPM_ORD_NV_ReadValue, params))
            else:
                session = self.oiap()
                out = ByteReader(
                    self._call_auth(TPM_ORD_NV_ReadValue, params, session, auth)
                )
            data = out.sized(max_size=1 << 16)
            out.expect_end()
            out_data += data
            pos += max(chunk_size, 1)
            if size == 0:
                break
        return bytes(out_data)

    # -- counters ----------------------------------------------------------------------------------

    def create_counter(
        self, owner_auth: bytes, counter_auth: bytes, label: bytes
    ) -> tuple[int, int]:
        session = self.oiap()
        params = ByteWriter().raw(counter_auth).raw(label).getvalue()
        out = ByteReader(
            self._call_auth(TPM_ORD_CreateCounter, params, session, owner_auth)
        )
        handle = out.u32()
        value = out.u64()
        out.expect_end()
        return handle, value

    def increment_counter(self, counter_auth: bytes, handle: int) -> int:
        session = self.oiap()
        params = ByteWriter().u32(handle).getvalue()
        out = ByteReader(
            self._call_auth(TPM_ORD_IncrementCounter, params, session, counter_auth)
        )
        value = out.u64()
        out.expect_end()
        return value

    def read_counter(self, handle: int) -> int:
        out = ByteReader(
            self._call(TPM_ORD_ReadCounter, ByteWriter().u32(handle).getvalue())
        )
        value = out.u64()
        out.expect_end()
        return value

    def release_counter(self, counter_auth: bytes, handle: int) -> None:
        session = self.oiap()
        params = ByteWriter().u32(handle).getvalue()
        self._call_auth(TPM_ORD_ReleaseCounter, params, session, counter_auth)
