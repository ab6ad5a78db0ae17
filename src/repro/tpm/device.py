"""The TPM device: state + executor + lifecycle.

One :class:`TpmDevice` models either the platform's hardware TPM or the
engine inside a vTPM instance (the vTPM manager holds one per guest).
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.random_source import RandomSource
from repro.faults import FaultKind, fire
from repro.faults import injector as _injector
from repro.sim.timing import charge
from repro.tpm.constants import TPM_ST_CLEAR, TPM_ST_STATE
from repro.tpm.dispatch import TpmExecutor
from repro.tpm.marshal import build_command
from repro.tpm.state import DEFAULT_KEY_BITS, TpmState
from repro.util.bytesio import ByteWriter
from repro.util.errors import TpmError


class TpmDevice:
    """A complete TPM 1.2 part with a bytes-in/bytes-out command interface."""

    def __init__(
        self,
        rng: RandomSource,
        key_bits: int = DEFAULT_KEY_BITS,
        name: str = "tpm0",
        nv_capacity: Optional[int] = None,
    ) -> None:
        self.name = name
        self.state = TpmState(rng, key_bits=key_bits, nv_capacity=nv_capacity)
        self.executor = TpmExecutor(self.state)
        self.powered = False

    # -- lifecycle ------------------------------------------------------------

    def power_on(self, startup_type: int = TPM_ST_CLEAR) -> None:
        """_TPM_Init followed by TPM_Startup."""
        self.powered = True
        self.state.flags.started = False
        self.state.flags.post_initialized = True
        params = ByteWriter().u16(startup_type).getvalue()
        response = self.execute(build_command(0x99, params))
        from repro.tpm.marshal import parse_response

        parsed = parse_response(response)
        if parsed.return_code != 0:
            raise TpmError(parsed.return_code, "TPM_Startup failed during power_on")

    def execute(self, wire: bytes, locality: int = 0, parsed=None) -> bytes:
        """Run one framed command; the device never raises for TPM errors.

        The fault injector can abort the command *before* it reaches the
        executor — a transient bus/LPC error.  The command has no effect
        on TPM state, so the retry layers above can safely resend the same
        wire bytes.  ``parsed`` optionally carries the frame a layer above
        already parsed, so the executor does not parse it again.
        """
        # Without an injector no fault can be due: skip the hook's kwargs.
        event = None if _injector._current_injector is None else fire(
            "tpm.device.execute", device=self.name
        )
        if event is not None and event.kind is FaultKind.DEVICE_TRANSIENT:
            charge("fault.device.transient")
            event.raise_fault()
        if event is not None and event.kind is FaultKind.WEDGE:
            # A wedged part hangs for a driver-timeout-class stall before the
            # bus transaction aborts — far costlier than a transient blip, and
            # scheduled consecutively it exhausts the caller's retry budget.
            charge("fault.device.wedge")
            event.raise_fault()
        if not self.powered:
            # An unpowered part does not answer at all; model as IO error frame.
            from repro.tpm.constants import TPM_IOERROR
            from repro.tpm.marshal import build_response

            return build_response(TPM_IOERROR)
        return self.executor.execute(wire, locality=locality, parsed=parsed)

    # -- persistence ------------------------------------------------------------

    def save_state_blob(self, include_volatile: bool = True) -> bytes:
        """Serialize the full device state (cleartext — protect it!)."""
        return self.state.serialize(include_volatile=include_volatile)

    @classmethod
    def from_state_blob(
        cls,
        blob: bytes,
        rng: Optional[RandomSource] = None,
        name: str = "tpm0",
    ) -> "TpmDevice":
        """Rebuild a device from a saved blob and resume with ST_STATE."""
        device = cls.__new__(cls)
        device.name = name
        device.state = TpmState.deserialize(blob, rng=rng)
        device.executor = TpmExecutor(device.state)
        device.powered = False
        device.power_on(startup_type=TPM_ST_STATE)
        return device
