"""Command dispatch: the TPM's top half.

Parses framed commands, routes them to handlers registered by the modules
in :mod:`repro.tpm.commands`, runs the 1H1 authorization protocol, and
frames responses.  Errors surface exactly as a hardware part would surface
them: a response frame carrying the TPM result code, never a Python
exception across the wire boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.obs import trace as obs_trace
from repro.obs.trace import NULL_SPAN
from repro.sim.timing import charge
from repro.tpm import marshal
from repro.tpm.constants import (
    TPM_BAD_ORDINAL,
    TPM_BAD_PARAMETER,
    TPM_AUTHFAIL,
    TPM_FAIL,
    TPM_INVALID_POSTINIT,
    TPM_ORD_Startup,
    TPM_SUCCESS,
    ordinal_name,
)
from repro.tpm.marshal import AuthTrailer, ParsedCommand
from repro.tpm.sessions import AuthSession, compute_auth
from repro.tpm.state import TpmState
from repro.util.bytesio import ByteReader
from repro.util.errors import MarshalError, TpmError

Handler = Callable[["CommandContext"], bytes]

_HANDLERS: Dict[int, Handler] = {}


def handler(ordinal: int) -> Callable[[Handler], Handler]:
    """Register a command handler for an ordinal (module-import time)."""

    def register(fn: Handler) -> Handler:
        if ordinal in _HANDLERS:
            raise ValueError(f"duplicate handler for {ordinal_name(ordinal)}")
        _HANDLERS[ordinal] = fn
        return fn

    return register


@dataclass(slots=True)
class CommandContext:
    """Everything a command handler needs."""

    state: TpmState
    ordinal: int
    reader: ByteReader
    auth: Optional[AuthTrailer]
    locality: int = 0
    # Filled in by verify_auth(); used to build the response trailer.
    _session: Optional[AuthSession] = None
    _hmac_key: bytes = b""
    _new_nonce_even: Optional[bytes] = None
    _continue: bool = False
    _param_digest: bytes = b""

    def require_auth(self) -> AuthTrailer:
        """Handlers call this for ordinals that demand an AUTH1 trailer."""
        if self.auth is None:
            raise TpmError(TPM_AUTHFAIL, f"{ordinal_name(self.ordinal)} requires auth")
        return self.auth

    def verify_auth(self, entity_secret: bytes) -> AuthSession:
        """Run the 1H1 verification against ``entity_secret``.

        Must be called exactly once by authorized handlers, *after* the
        handler has located the entity (so it knows which secret applies)
        but *before* mutating state.
        """
        trailer = self.require_auth()
        session = self.state.sessions.get(trailer.handle)
        self._hmac_key = session.hmac_key(entity_secret)
        self._new_nonce_even = self.state.sessions.verify_and_roll(
            session=session,
            entity_secret=entity_secret,
            param_digest=self._param_digest,
            nonce_odd=trailer.nonce_odd,
            continue_session=trailer.continue_session,
            presented_auth=trailer.auth_value,
        )
        self._session = session
        self._continue = trailer.continue_session
        return session


class TpmExecutor:
    """Executes framed TPM commands against a :class:`TpmState`."""

    def __init__(self, state: TpmState) -> None:
        self.state = state

    def execute(
        self,
        wire: bytes,
        locality: int = 0,
        parsed: Optional[ParsedCommand] = None,
    ) -> bytes:
        """One command in, one response out.  Never raises for TPM errors.

        When a layer above already parsed the frame (the access-control
        monitor does, to classify the ordinal), it hands the result down via
        ``parsed`` and the frame is not re-parsed here.
        """
        charge("tpm.cmd.base")
        tracer = obs_trace._current_tracer
        if parsed is None:
            span = (
                NULL_SPAN if tracer is None else tracer.start_span("parse")
            )
            with span:
                try:
                    parsed = marshal.parse_command(wire)
                except (MarshalError, TpmError) as exc:
                    code = exc.code if isinstance(exc, TpmError) else TPM_FAIL
                    return marshal.build_response(code)
        ordinal = parsed.ordinal
        # Entered by hand, so the untraced path pays no span round trip.
        span = None if tracer is None else tracer.start_span(
            "tpm.execute", {"ordinal": ordinal_name(ordinal)}
        )
        try:
            fn = _HANDLERS.get(ordinal)
            if fn is None:
                return marshal.build_response(TPM_BAD_ORDINAL)
            if not self.state.flags.started and ordinal != TPM_ORD_Startup:
                return marshal.build_response(TPM_INVALID_POSTINIT)
            # The 1H1 param digest is consumed only by verify_auth(), which
            # is unreachable without an auth trailer — so unauthorized
            # commands (the fast-path bulk) skip the hash entirely.  The
            # digest helper charges nothing, so skipping it is
            # virtual-time-neutral.
            auth = parsed.auth
            ctx = CommandContext(
                state=self.state,
                ordinal=ordinal,
                reader=ByteReader(parsed.params),
                auth=auth,
                locality=locality,
                _param_digest=(
                    marshal.command_param_digest(ordinal, parsed.params)
                    if auth is not None else b""
                ),
            )
            try:
                out_params = fn(ctx)
            except TpmError as exc:
                return marshal.build_response(exc.code)
            except MarshalError:
                return marshal.build_response(TPM_BAD_PARAMETER)
            if ctx._session is None or ctx._new_nonce_even is None:
                return marshal.build_response(TPM_SUCCESS, out_params)
            out_digest = marshal.response_param_digest(
                TPM_SUCCESS, ordinal, out_params
            )
            response_auth = compute_auth(
                ctx._hmac_key,
                out_digest,
                ctx._new_nonce_even,
                auth.nonce_odd,
                ctx._continue,
            )
            return marshal.build_response(
                TPM_SUCCESS,
                out_params,
                nonce_even=ctx._new_nonce_even,
                continue_session=ctx._continue,
                response_auth=response_auth,
            )
        finally:
            if span is not None:
                span.__exit__(None, None, None)


def registered_ordinals() -> frozenset[int]:
    """All ordinals with handlers (import side effect of the commands pkg)."""
    return frozenset(_HANDLERS)


# Importing the command modules registers every handler.  Done at the bottom
# so the decorator and context classes above already exist.
from repro.tpm.commands import (  # noqa: E402  (import-time registration)
    admin,
    counter_cmds,
    maintenance,
    nv_cmds,
    ownership,
    pcr_cmds,
    signing,
    storage,
)

__all__ = [
    "CommandContext",
    "TpmExecutor",
    "handler",
    "registered_ordinals",
]
