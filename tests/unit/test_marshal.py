"""Unit tests for TPM wire framing."""

import pytest

from repro.tpm import marshal
from repro.tpm.constants import (
    TPM_SUCCESS,
    TPM_TAG_RQU_AUTH1_COMMAND,
    TPM_TAG_RQU_COMMAND,
    TPM_TAG_RSP_AUTH1_COMMAND,
    TPM_TAG_RSP_COMMAND,
)
from repro.tpm.marshal import AuthTrailer
from repro.util.errors import MarshalError, TpmError


class TestCommandFraming:
    def test_plain_command_roundtrip(self):
        wire = marshal.build_command(0x15, b"params")
        parsed = marshal.parse_command(wire)
        assert parsed.tag == TPM_TAG_RQU_COMMAND
        assert parsed.ordinal == 0x15
        assert parsed.params == b"params"
        assert parsed.auth is None

    def test_auth_command_roundtrip(self):
        trailer = AuthTrailer(
            handle=0x02000001,
            nonce_odd=b"\x0a" * 20,
            continue_session=True,
            auth_value=b"\x0b" * 20,
        )
        wire = marshal.build_command(0x17, b"p" * 7, auth=trailer)
        parsed = marshal.parse_command(wire)
        assert parsed.tag == TPM_TAG_RQU_AUTH1_COMMAND
        assert parsed.params == b"p" * 7
        assert parsed.auth == trailer

    def test_length_field_matches_frame(self):
        wire = marshal.build_command(0x15, b"abc")
        assert int.from_bytes(wire[2:6], "big") == len(wire)

    def test_bad_length_rejected(self):
        wire = marshal.build_command(0x15, b"abc") + b"extra"
        with pytest.raises(MarshalError):
            marshal.parse_command(wire)

    def test_unknown_tag_rejected(self):
        wire = bytearray(marshal.build_command(0x15, b""))
        wire[0:2] = b"\x00\x99"
        with pytest.raises(TpmError):
            marshal.parse_command(bytes(wire))

    def test_truncated_auth_trailer_rejected(self):
        trailer = AuthTrailer(1, b"\x00" * 20, False, b"\x00" * 20)
        wire = marshal.build_command(0x17, b"", auth=trailer)
        # Rebuild the header length to make a consistent-but-short frame.
        body = wire[: 10 + 10]
        hacked = wire[0:2] + len(body).to_bytes(4, "big") + body[6:]
        with pytest.raises(MarshalError):
            marshal.parse_command(hacked)


class TestTrailerFieldSizes:
    """A nonce or auth field of the wrong size must be refused, not framed
    into a frame that parses back with shifted params and handle."""

    def test_short_command_nonce_rejected(self):
        trailer = AuthTrailer(1, b"N" * 19, True, b"A" * 20)
        with pytest.raises(MarshalError):
            marshal.build_command(0x17, b"PARAMS", auth=trailer)

    def test_long_command_auth_value_rejected(self):
        trailer = AuthTrailer(1, b"N" * 20, True, b"A" * 21)
        with pytest.raises(MarshalError):
            trailer.serialize()

    def test_long_response_nonce_rejected(self):
        with pytest.raises(MarshalError):
            marshal.build_response(
                0, b"OUT", nonce_even=b"n" * 21, continue_session=True,
                response_auth=b"r" * 20,
            )

    def test_short_response_auth_rejected(self):
        with pytest.raises(MarshalError):
            marshal.build_response(
                0, b"OUT", nonce_even=b"n" * 20, response_auth=b"r" * 19
            )


class TestRecords:
    def test_parsed_records_are_immutable(self):
        trailer = AuthTrailer(1, b"\x00" * 20, False, b"\x00" * 20)
        parsed = marshal.parse_command(
            marshal.build_command(0x17, b"p", auth=trailer)
        )
        with pytest.raises(AttributeError):
            parsed.ordinal = 0x18
        with pytest.raises(AttributeError):
            parsed.auth.handle = 2
        response = marshal.parse_response(marshal.build_response(TPM_SUCCESS))
        with pytest.raises(AttributeError):
            response.return_code = 1


class TestResponseFraming:
    def test_plain_response_roundtrip(self):
        wire = marshal.build_response(TPM_SUCCESS, b"output")
        parsed = marshal.parse_response(wire)
        assert parsed.tag == TPM_TAG_RSP_COMMAND
        assert parsed.return_code == TPM_SUCCESS
        assert parsed.params == b"output"
        assert parsed.nonce_even is None

    def test_auth_response_roundtrip(self):
        wire = marshal.build_response(
            TPM_SUCCESS,
            b"out",
            nonce_even=b"\x01" * 20,
            continue_session=True,
            response_auth=b"\x02" * 20,
        )
        parsed = marshal.parse_response(wire)
        assert parsed.tag == TPM_TAG_RSP_AUTH1_COMMAND
        assert parsed.nonce_even == b"\x01" * 20
        assert parsed.continue_session is True
        assert parsed.response_auth == b"\x02" * 20
        assert parsed.params == b"out"

    def test_error_response_carries_code(self):
        wire = marshal.build_response(0x18)
        assert marshal.parse_response(wire).return_code == 0x18


class TestParamDigests:
    def test_command_digest_binds_ordinal(self):
        assert marshal.command_param_digest(1, b"p") != marshal.command_param_digest(
            2, b"p"
        )

    def test_command_digest_binds_params(self):
        assert marshal.command_param_digest(1, b"a") != marshal.command_param_digest(
            1, b"b"
        )

    def test_response_digest_binds_code(self):
        assert marshal.response_param_digest(
            0, 1, b"out"
        ) != marshal.response_param_digest(1, 1, b"out")
