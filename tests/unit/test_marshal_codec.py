"""Codec oracle: the struct-based framing in ``repro.tpm.marshal`` writes
and reads exactly what the field-by-field ``ByteWriter``/``ByteReader``
framing it replaced did.

The ``ref_*`` functions below are that framing, kept verbatim apart from
naming; ``ref_parse_command`` is the uncached parse.  Frames must be byte-identical, parsed records field-equal, and
on malformed input both sides must raise the same exception class — and
never a bare ``struct.error`` or ``OverflowError``.

The one deliberate difference is not exercised here: the reference framed
AUTH1 nonces and auth values of any length, producing frames that parse
back as something else, while the codec refuses them
(``tests/unit/test_marshal.py::TestTrailerFieldSizes``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from hypothesis import given
from hypothesis import strategies as st

from repro.tpm import client as client_mod
from repro.tpm import marshal
from repro.tpm.constants import (
    AUTHDATA_SIZE,
    NONCE_SIZE,
    TPM_BADTAG,
    TPM_TAG_RQU_AUTH1_COMMAND,
    TPM_TAG_RQU_COMMAND,
    TPM_TAG_RSP_AUTH1_COMMAND,
    TPM_TAG_RSP_COMMAND,
)
from repro.util.bytesio import ByteReader, ByteWriter
from repro.util.errors import MarshalError, TpmError

HEADER_SIZE = 10


@dataclass(frozen=True, slots=True)
class RefAuthTrailer:
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
    def deserialize(reader: ByteReader) -> "RefAuthTrailer":
        handle = reader.u32()
        nonce_odd = reader.raw(NONCE_SIZE)
        continue_session = bool(reader.u8())
        auth_value = reader.raw(AUTHDATA_SIZE)
        return RefAuthTrailer(
            handle=handle,
            nonce_odd=nonce_odd,
            continue_session=continue_session,
            auth_value=auth_value,
        )


@dataclass(frozen=True, slots=True)
class RefParsedCommand:
    tag: int
    ordinal: int
    params: bytes
    auth: Optional[RefAuthTrailer]


@dataclass(frozen=True, slots=True)
class RefParsedResponse:
    tag: int
    return_code: int
    params: bytes
    nonce_even: Optional[bytes]
    continue_session: bool
    response_auth: Optional[bytes]


def ref_build_command(
    ordinal: int, params: bytes, auth: Optional[RefAuthTrailer] = None
) -> bytes:
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


def ref_parse_command(wire: bytes) -> RefParsedCommand:
    r = ByteReader(wire)
    tag = r.u16()
    size = r.u32()
    if size != len(wire):
        raise MarshalError(f"paramSize {size} != frame length {len(wire)}")
    ordinal = r.u32()
    if tag == TPM_TAG_RQU_COMMAND:
        return RefParsedCommand(tag=tag, ordinal=ordinal, params=r.rest(), auth=None)
    if tag == TPM_TAG_RQU_AUTH1_COMMAND:
        body = r.rest()
        if len(body) < RefAuthTrailer.SIZE:
            raise MarshalError("AUTH1 command too short for auth trailer")
        params = body[: -RefAuthTrailer.SIZE]
        trailer_bytes = body[-RefAuthTrailer.SIZE :]
        trailer_reader = ByteReader(trailer_bytes)
        auth = RefAuthTrailer.deserialize(trailer_reader)
        trailer_reader.expect_end()
        return RefParsedCommand(tag=tag, ordinal=ordinal, params=params, auth=auth)
    raise TpmError(TPM_BADTAG, f"unsupported command tag {tag:#06x}")


def ref_build_response(
    return_code: int,
    out_params: bytes = b"",
    nonce_even: Optional[bytes] = None,
    continue_session: bool = False,
    response_auth: Optional[bytes] = None,
) -> bytes:
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


def ref_parse_response(wire: bytes) -> RefParsedResponse:
    r = ByteReader(wire)
    tag = r.u16()
    size = r.u32()
    if size != len(wire):
        raise MarshalError(f"paramSize {size} != frame length {len(wire)}")
    return_code = r.u32()
    if tag == TPM_TAG_RSP_COMMAND:
        return RefParsedResponse(
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
        return RefParsedResponse(
            tag=tag,
            return_code=return_code,
            params=params,
            nonce_even=nonce_even,
            continue_session=continue_session,
            response_auth=response_auth,
        )
    raise TpmError(TPM_BADTAG, f"unsupported response tag {tag:#06x}")


# -- comparison helpers --------------------------------------------------------

LIBRARY_ERRORS = (MarshalError, TpmError)


def outcome(fn, *args, **kwargs):
    """``("ok", result)`` or ``("raised", exception class)``.

    Anything but a library error escaping is a test failure in itself.
    """
    try:
        return "ok", fn(*args, **kwargs)
    except LIBRARY_ERRORS as exc:
        return "raised", type(exc)


def assert_same_parse(ref_fn, codec_fn, wire: bytes) -> None:
    ref_kind, ref_value = outcome(ref_fn, wire)
    kind, value = outcome(codec_fn, wire)
    assert kind == ref_kind, (wire, ref_value, value)
    if kind == "raised":
        assert value is ref_value, wire
        return
    assert type(value)._fields == tuple(
        f.name for f in dataclasses.fields(ref_value)
    )
    assert tuple(value) == dataclasses.astuple(ref_value)


def assert_same_build(ref_fn, codec_fn, *args, **kwargs) -> None:
    ref_kind, ref_value = outcome(ref_fn, *args, **kwargs)
    kind, value = outcome(codec_fn, *args, **kwargs)
    assert (kind, value) == (ref_kind, ref_value)


def trailers(ref_trailer: RefAuthTrailer):
    return ref_trailer, marshal.AuthTrailer(*dataclasses.astuple(ref_trailer))


# -- strategies ----------------------------------------------------------------

u32 = st.integers(0, 0xFFFFFFFF)
not_u32 = st.one_of(
    st.integers(max_value=-1), st.integers(min_value=1 << 32)
)
params = st.binary(max_size=300)
nonce = st.binary(min_size=NONCE_SIZE, max_size=NONCE_SIZE)
authdata = st.binary(min_size=AUTHDATA_SIZE, max_size=AUTHDATA_SIZE)
ref_trailers = st.builds(RefAuthTrailer, u32, nonce, st.booleans(), authdata)
all_tags = st.one_of(
    st.sampled_from([
        TPM_TAG_RQU_COMMAND, TPM_TAG_RQU_AUTH1_COMMAND,
        TPM_TAG_RSP_COMMAND, TPM_TAG_RSP_AUTH1_COMMAND,
    ]),
    st.integers(0, 0xFFFF),
)


def frame(tag: int, code: int, body: bytes, size: Optional[int] = None) -> bytes:
    """A raw frame with a chosen header; ``size`` defaults to consistent."""
    if size is None:
        size = HEADER_SIZE + len(body)
    return (
        tag.to_bytes(2, "big") + size.to_bytes(4, "big")
        + code.to_bytes(4, "big") + body
    )


# -- builders: byte identity -----------------------------------------------------


@given(u32, params)
def test_plain_command_bytes_identical(ordinal, body):
    assert_same_build(ref_build_command, marshal.build_command, ordinal, body)


@given(u32, params, ref_trailers)
def test_auth1_command_bytes_identical(ordinal, body, ref_trailer):
    ref_auth, auth = trailers(ref_trailer)
    assert auth.serialize() == ref_auth.serialize()
    assert marshal.build_command(ordinal, body, auth=auth) == ref_build_command(
        ordinal, body, auth=ref_auth
    )


@given(u32, params)
def test_plain_response_bytes_identical(code, body):
    assert_same_build(ref_build_response, marshal.build_response, code, body)


@given(u32, params, nonce, st.booleans(), st.one_of(st.none(), authdata))
def test_auth1_response_bytes_identical(code, body, nonce_even, cont, res_auth):
    assert_same_build(
        ref_build_response, marshal.build_response, code, body,
        nonce_even=nonce_even, continue_session=cont, response_auth=res_auth,
    )


@given(not_u32, params)
def test_out_of_range_ordinal_or_code_raises_like_reference(value, body):
    assert_same_build(ref_build_command, marshal.build_command, value, body)
    assert_same_build(ref_build_response, marshal.build_response, value, body)
    assert_same_build(
        ref_build_response, marshal.build_response, value, body,
        nonce_even=b"n" * NONCE_SIZE, response_auth=b"r" * AUTHDATA_SIZE,
    )


@given(not_u32, nonce, st.booleans(), authdata)
def test_out_of_range_handle_raises_like_reference(handle, nonce_odd, cont, auth):
    ref_auth, codec_auth = trailers(RefAuthTrailer(handle, nonce_odd, cont, auth))
    expected = outcome(ref_build_command, 0x17, b"", auth=ref_auth)
    assert expected == ("raised", MarshalError)
    assert outcome(codec_auth.serialize) == expected
    assert outcome(marshal.build_command, 0x17, b"", auth=codec_auth) == expected


# -- parsers: field equality and error classes -------------------------------------


@given(u32, params, st.one_of(st.none(), ref_trailers))
def test_parsed_commands_field_equal(ordinal, body, ref_trailer):
    wire = ref_build_command(ordinal, body, auth=ref_trailer)
    assert_same_parse(ref_parse_command, marshal.parse_command, wire)


@given(u32, params, st.one_of(st.none(), nonce), st.booleans(), authdata)
def test_parsed_responses_field_equal(code, body, nonce_even, cont, res_auth):
    wire = ref_build_response(
        code, body, nonce_even=nonce_even, continue_session=cont,
        response_auth=res_auth,
    )
    assert_same_parse(ref_parse_response, marshal.parse_response, wire)


@given(st.binary(max_size=HEADER_SIZE - 1))
def test_frames_under_header_size(wire):
    assert_same_parse(ref_parse_command, marshal.parse_command, wire)
    assert_same_parse(ref_parse_response, marshal.parse_response, wire)
    assert outcome(marshal.parse_command, wire) == ("raised", MarshalError)


@given(all_tags, u32, params, u32)
def test_wrong_param_size(tag, code, body, size):
    wire = frame(tag, code, body, size=size)
    assert_same_parse(ref_parse_command, marshal.parse_command, wire)
    assert_same_parse(ref_parse_response, marshal.parse_response, wire)


@given(u32, st.binary(max_size=NONCE_SIZE + AUTHDATA_SIZE + 4))
def test_short_auth1_body(code, body):
    for tag in (TPM_TAG_RQU_AUTH1_COMMAND, TPM_TAG_RSP_AUTH1_COMMAND):
        wire = frame(tag, code, body)
        assert_same_parse(ref_parse_command, marshal.parse_command, wire)
        assert_same_parse(ref_parse_response, marshal.parse_response, wire)


@given(all_tags, u32, params)
def test_any_tag_with_consistent_size(tag, code, body):
    wire = frame(tag, code, body)
    assert_same_parse(ref_parse_command, marshal.parse_command, wire)
    assert_same_parse(ref_parse_response, marshal.parse_response, wire)


@given(st.binary(max_size=120))
def test_arbitrary_garbage(wire):
    assert_same_parse(ref_parse_command, marshal.parse_command, wire)
    assert_same_parse(ref_parse_response, marshal.parse_response, wire)


# -- the client's direct field codec ------------------------------------------------
#
# ``TpmClient.pcr_read``, ``extend`` and ``get_random`` build and check
# their fields without a writer or reader; the reference is the
# ByteWriter/ByteReader code they replaced.  Same values, same errors, the
# same message text.


def ref_u32(value: int) -> bytes:
    return ByteWriter().u32(value).getvalue()


def ref_digest_out(params: bytes) -> bytes:
    out = ByteReader(params)
    value = out.raw(20)
    out.expect_end()
    return value


def ref_sized_out(params: bytes) -> bytes:
    out = ByteReader(params)
    data = out.sized()
    out.expect_end()
    return data


def same_result_and_message(ref_fn, fn, arg) -> None:
    try:
        expected = ("ok", ref_fn(arg))
    except MarshalError as exc:
        expected = ("raised", str(exc))
    try:
        got = ("ok", fn(arg))
    except MarshalError as exc:
        got = ("raised", str(exc))
    assert got == expected, arg


@given(st.one_of(u32, not_u32))
def test_client_u32_matches_the_writer(value):
    same_result_and_message(ref_u32, client_mod._u32, value)


@given(st.binary(max_size=48))
def test_client_digest_check_matches_the_reader(params):
    same_result_and_message(ref_digest_out, client_mod._digest_out, params)


sized_bodies = st.one_of(
    st.binary(max_size=48),
    st.builds(lambda n, body: n.to_bytes(4, "big") + body, u32,
              st.binary(max_size=48)),
    st.binary(max_size=40).map(lambda b: len(b).to_bytes(4, "big") + b),
)


@given(sized_bodies)
def test_client_sized_check_matches_the_reader(params):
    same_result_and_message(ref_sized_out, client_mod._sized_out, params)


def test_client_sized_check_keeps_the_cap():
    over = (1 << 20) + 1
    params = over.to_bytes(4, "big") + bytes(over)
    same_result_and_message(ref_sized_out, client_mod._sized_out, params)
    at_cap = (1 << 20).to_bytes(4, "big") + bytes(1 << 20)
    assert client_mod._sized_out(at_cap) == bytes(1 << 20)
