"""TPM 1.2 wire-format framing: headers, auth trailers, param digests.

Both the device (:mod:`repro.tpm.dispatch`) and the guest-side client stack
(:mod:`repro.tpm.client`) build on these helpers, so the two sides cannot
drift apart on digest formulas.

The codec is three precompiled big-endian structs — the 10-byte header
shared by commands and responses, the AUTH1 command trailer and the AUTH1
response trailer — plus immutable records for what they decode to.  It
keeps no state between calls.  Every malformed frame or out-of-range field
surfaces as :class:`MarshalError` (or :class:`TpmError` for an unknown
tag), never as ``struct.error``.
"""

from __future__ import annotations

import hashlib
import struct
from typing import NamedTuple, Optional

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
from repro.util.errors import MarshalError, TpmError

#: tag(2) + paramSize(4) + ordinal/returnCode(4)
_HEADER = struct.Struct(">HII")
#: authHandle(4) + nonceOdd(20) + continueAuthSession(1) + authValue(20)
_CMD_TRAILER = struct.Struct(f">I{NONCE_SIZE}s?{AUTHDATA_SIZE}s")
#: nonceEven(20) + continueAuthSession(1) + resAuth(20)
_RSP_TRAILER = struct.Struct(f">{NONCE_SIZE}s?{AUTHDATA_SIZE}s")
HEADER_SIZE = _HEADER.size
_ZERO_AUTH = b"\x00" * AUTHDATA_SIZE


def _header(tag: int, size: int, code: int) -> bytes:
    try:
        return _HEADER.pack(tag, size, code)
    except struct.error:
        raise MarshalError(
            f"frame header out of u32 range: size {size!r}, code {code!r}"
        ) from None


class AuthTrailer(NamedTuple):
    """The AUTH1 trailer appended to an authorized command."""

    handle: int
    nonce_odd: bytes
    continue_session: bool
    auth_value: bytes

    SIZE = _CMD_TRAILER.size

    def serialize(self) -> bytes:
        if len(self.nonce_odd) != NONCE_SIZE or len(self.auth_value) != AUTHDATA_SIZE:
            raise MarshalError("AUTH1 nonce and auth value must be 20 bytes each")
        try:
            return _CMD_TRAILER.pack(*self)
        except struct.error:
            raise MarshalError(
                f"AUTH1 handle {self.handle!r} out of u32 range, or a field not bytes"
            ) from None


class ParsedCommand(NamedTuple):
    """A TPM command pulled off the wire."""

    tag: int
    ordinal: int
    params: bytes
    auth: Optional[AuthTrailer]


class ParsedResponse(NamedTuple):
    """A TPM response pulled off the wire."""

    tag: int
    return_code: int
    params: bytes
    nonce_even: Optional[bytes]
    continue_session: bool
    response_auth: Optional[bytes]


def build_command(
    ordinal: int, params: bytes, auth: Optional[AuthTrailer] = None
) -> bytes:
    """Frame a command: header + params + optional AUTH1 trailer."""
    if auth is None:
        return _header(TPM_TAG_RQU_COMMAND, HEADER_SIZE + len(params), ordinal) + params
    trailer = auth.serialize()
    size = HEADER_SIZE + len(params) + AuthTrailer.SIZE
    return _header(TPM_TAG_RQU_AUTH1_COMMAND, size, ordinal) + params + trailer


def pcr_read_wire(index: int) -> bytes:
    """A TPM_PCRRead frame: unauthenticated, read-only."""
    return build_command(TPM_ORD_PcrRead, index.to_bytes(4, "big"))


def extend_wire(index: int, measurement: bytes) -> bytes:
    """A TPM_Extend frame folding a 20-byte measurement into PCR ``index``."""
    return build_command(TPM_ORD_Extend, index.to_bytes(4, "big") + measurement)


def get_random_wire(count: int = 16) -> bytes:
    """A TPM_GetRandom frame asking for ``count`` bytes."""
    return build_command(TPM_ORD_GetRandom, count.to_bytes(4, "big"))


def _unpack_header(wire: bytes) -> tuple:
    """(tag, size, code) of a frame whose paramSize matches its length."""
    if len(wire) < HEADER_SIZE:
        raise MarshalError(f"{len(wire)}-byte frame is shorter than its header")
    header = _HEADER.unpack_from(wire)
    if header[1] != len(wire):
        raise MarshalError(f"paramSize {header[1]} != frame length {len(wire)}")
    return header


def parse_command(wire: bytes) -> ParsedCommand:
    """Parse a framed command, validating tag and length."""
    tag, size, ordinal = _unpack_header(wire)
    if tag == TPM_TAG_RQU_COMMAND:
        return ParsedCommand(tag, ordinal, wire[HEADER_SIZE:], None)
    if tag == TPM_TAG_RQU_AUTH1_COMMAND:
        split = size - AuthTrailer.SIZE
        if split < HEADER_SIZE:
            raise MarshalError("AUTH1 command too short for auth trailer")
        auth = AuthTrailer._make(_CMD_TRAILER.unpack_from(wire, split))
        return ParsedCommand(tag, ordinal, wire[HEADER_SIZE:split], auth)
    raise TpmError(TPM_BADTAG, f"unsupported command tag {tag:#06x}")


def build_response(
    return_code: int,
    out_params: bytes = b"",
    nonce_even: Optional[bytes] = None,
    continue_session: bool = False,
    response_auth: Optional[bytes] = None,
) -> bytes:
    """Frame a response; auth fields present iff the command was AUTH1."""
    if nonce_even is None:
        size = HEADER_SIZE + len(out_params)
        return _header(TPM_TAG_RSP_COMMAND, size, return_code) + out_params
    response_auth = response_auth or _ZERO_AUTH
    if len(nonce_even) != NONCE_SIZE or len(response_auth) != AUTHDATA_SIZE:
        raise MarshalError("AUTH1 nonce and response auth must be 20 bytes each")
    try:
        trailer = _RSP_TRAILER.pack(nonce_even, continue_session, response_auth)
    except struct.error:
        raise MarshalError("AUTH1 response trailer fields must be bytes") from None
    size = HEADER_SIZE + len(out_params) + _RSP_TRAILER.size
    return _header(TPM_TAG_RSP_AUTH1_COMMAND, size, return_code) + out_params + trailer


def parse_response(wire: bytes) -> ParsedResponse:
    tag, size, return_code = _unpack_header(wire)
    if tag == TPM_TAG_RSP_COMMAND:
        return ParsedResponse(tag, return_code, wire[HEADER_SIZE:], None, False, None)
    if tag == TPM_TAG_RSP_AUTH1_COMMAND:
        split = size - _RSP_TRAILER.size
        if split < HEADER_SIZE:
            raise MarshalError("AUTH1 response too short for auth trailer")
        return ParsedResponse(
            tag, return_code, wire[HEADER_SIZE:split],
            *_RSP_TRAILER.unpack_from(wire, split),
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
