"""TPM 1.2 wire-format framing: headers, auth trailers, param digests.

Both the device (:mod:`repro.tpm.dispatch`) and the guest-side client stack
(:mod:`repro.tpm.client`) build on these helpers, so the two sides cannot
drift apart on digest formulas.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.tpm.constants import (
    NONCE_SIZE,
    AUTHDATA_SIZE,
    TPM_BADTAG,
    TPM_ORD_Extend,
    TPM_ORD_GetRandom,
    TPM_ORD_PcrRead,
    TPM_TAG_RQU_AUTH1_COMMAND,
    TPM_TAG_RQU_COMMAND,
    TPM_TAG_RSP_AUTH1_COMMAND,
    TPM_TAG_RSP_COMMAND,
)
from repro.util.bytesio import ByteReader, ByteWriter
from repro.util.errors import MarshalError, TpmError

HEADER_SIZE = 10  # tag(2) + paramSize(4) + ordinal/returnCode(4)


@dataclass(frozen=True, slots=True)
class AuthTrailer:
    """The AUTH1 trailer appended to an authorized command."""

    handle: int
    nonce_odd: bytes
    continue_session: bool
    auth_value: bytes

    SIZE = 4 + NONCE_SIZE + 1 + AUTHDATA_SIZE

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.u32(self.handle)
        w.raw(self.nonce_odd)
        w.u8(1 if self.continue_session else 0)
        w.raw(self.auth_value)
        return w.getvalue()

    @staticmethod
    def deserialize(reader: ByteReader) -> "AuthTrailer":
        handle = reader.u32()
        nonce_odd = reader.raw(NONCE_SIZE)
        continue_session = bool(reader.u8())
        auth_value = reader.raw(AUTHDATA_SIZE)
        return AuthTrailer(
            handle=handle,
            nonce_odd=nonce_odd,
            continue_session=continue_session,
            auth_value=auth_value,
        )


@dataclass(frozen=True, slots=True)
class ParsedCommand:
    """A TPM command pulled off the wire."""

    tag: int
    ordinal: int
    params: bytes
    auth: Optional[AuthTrailer]

    @property
    def is_authorized(self) -> bool:
        return self.auth is not None


def build_command(
    ordinal: int, params: bytes, auth: Optional[AuthTrailer] = None
) -> bytes:
    """Frame a command: header + params + optional AUTH1 trailer."""
    tag = TPM_TAG_RQU_AUTH1_COMMAND if auth else TPM_TAG_RQU_COMMAND
    trailer = auth.serialize() if auth else b""
    size = HEADER_SIZE + len(params) + len(trailer)
    w = ByteWriter()
    w.u16(tag)
    w.u32(size)
    w.u32(ordinal)
    w.raw(params)
    w.raw(trailer)
    return w.getvalue()


def pcr_read_wire(index: int) -> bytes:
    """A TPM_PCRRead frame: unauthenticated, read-only."""
    return build_command(TPM_ORD_PcrRead, index.to_bytes(4, "big"))


def extend_wire(index: int, measurement: bytes) -> bytes:
    """A TPM_Extend frame folding a 20-byte measurement into PCR ``index``."""
    return build_command(TPM_ORD_Extend, index.to_bytes(4, "big") + measurement)


def get_random_wire(count: int = 16) -> bytes:
    """A TPM_GetRandom frame asking for ``count`` bytes."""
    return build_command(TPM_ORD_GetRandom, count.to_bytes(4, "big"))


#: memoized parse results keyed by wire bytes.  ``parse_command`` is a pure,
#: charge-free function of the frame and ``ParsedCommand`` is deeply
#: immutable, so replaying a cached result is byte-identical and
#: virtual-time-neutral.  Real workloads re-issue identical frames heavily
#: (PCR reads, status polls), making this the single cheapest parse there
#: is: one dict probe.
_PARSE_CACHE: dict = {}
_PARSE_CACHE_CAP = 4096


def parse_command(wire: bytes) -> ParsedCommand:
    """Parse a framed command, validating tag and length (memoized)."""
    cached = _PARSE_CACHE.get(wire)
    if cached is not None:
        return cached
    parsed = _parse_command_uncached(wire)
    if len(_PARSE_CACHE) >= _PARSE_CACHE_CAP:
        _PARSE_CACHE.clear()
    _PARSE_CACHE[wire] = parsed
    return parsed


def _parse_command_uncached(wire: bytes) -> ParsedCommand:
    r = ByteReader(wire)
    tag = r.u16()
    size = r.u32()
    if size != len(wire):
        raise MarshalError(f"paramSize {size} != frame length {len(wire)}")
    ordinal = r.u32()
    if tag == TPM_TAG_RQU_COMMAND:
        return ParsedCommand(tag=tag, ordinal=ordinal, params=r.rest(), auth=None)
    if tag == TPM_TAG_RQU_AUTH1_COMMAND:
        body = r.rest()
        if len(body) < AuthTrailer.SIZE:
            raise MarshalError("AUTH1 command too short for auth trailer")
        params, trailer_bytes = body[: -AuthTrailer.SIZE], body[-AuthTrailer.SIZE :]
        trailer_reader = ByteReader(trailer_bytes)
        auth = AuthTrailer.deserialize(trailer_reader)
        trailer_reader.expect_end()
        return ParsedCommand(tag=tag, ordinal=ordinal, params=params, auth=auth)
    raise TpmError(TPM_BADTAG, f"unsupported command tag {tag:#06x}")


def build_response(
    return_code: int,
    out_params: bytes = b"",
    nonce_even: Optional[bytes] = None,
    continue_session: bool = False,
    response_auth: Optional[bytes] = None,
) -> bytes:
    """Frame a response; auth fields present iff the command was AUTH1."""
    authed = nonce_even is not None
    tag = TPM_TAG_RSP_AUTH1_COMMAND if authed else TPM_TAG_RSP_COMMAND
    w = ByteWriter()
    trailer = b""
    if authed:
        t = ByteWriter()
        t.raw(nonce_even)
        t.u8(1 if continue_session else 0)
        t.raw(response_auth or b"\x00" * AUTHDATA_SIZE)
        trailer = t.getvalue()
    size = HEADER_SIZE + len(out_params) + len(trailer)
    w.u16(tag)
    w.u32(size)
    w.u32(return_code)
    w.raw(out_params)
    w.raw(trailer)
    return w.getvalue()


@dataclass(frozen=True, slots=True)
class ParsedResponse:
    """A TPM response pulled off the wire."""

    tag: int
    return_code: int
    params: bytes
    nonce_even: Optional[bytes]
    continue_session: bool
    response_auth: Optional[bytes]


def parse_response(wire: bytes) -> ParsedResponse:
    r = ByteReader(wire)
    tag = r.u16()
    size = r.u32()
    if size != len(wire):
        raise MarshalError(f"paramSize {size} != frame length {len(wire)}")
    return_code = r.u32()
    if tag == TPM_TAG_RSP_COMMAND:
        return ParsedResponse(
            tag=tag,
            return_code=return_code,
            params=r.rest(),
            nonce_even=None,
            continue_session=False,
            response_auth=None,
        )
    if tag == TPM_TAG_RSP_AUTH1_COMMAND:
        body = r.rest()
        trailer_size = NONCE_SIZE + 1 + AUTHDATA_SIZE
        if len(body) < trailer_size:
            raise MarshalError("AUTH1 response too short for auth trailer")
        params, trailer = body[:-trailer_size], body[-trailer_size:]
        tr = ByteReader(trailer)
        nonce_even = tr.raw(NONCE_SIZE)
        continue_session = bool(tr.u8())
        response_auth = tr.raw(AUTHDATA_SIZE)
        tr.expect_end()
        return ParsedResponse(
            tag=tag,
            return_code=return_code,
            params=params,
            nonce_even=nonce_even,
            continue_session=continue_session,
            response_auth=response_auth,
        )
    raise TpmError(TPM_BADTAG, f"unsupported response tag {tag:#06x}")


def command_param_digest(ordinal: int, params: bytes) -> bytes:
    """1H1 inParamDigest = SHA1(ordinal || params).

    Computed with plain hashlib: both sides charge the explicit auth-HMAC
    costs separately, and the digest itself is part of those code paths.
    """
    return hashlib.sha1(ordinal.to_bytes(4, "big") + params).digest()


def response_param_digest(return_code: int, ordinal: int, out_params: bytes) -> bytes:
    """1H1 outParamDigest = SHA1(returnCode || ordinal || outParams)."""
    return hashlib.sha1(
        return_code.to_bytes(4, "big") + ordinal.to_bytes(4, "big") + out_params
    ).digest()
