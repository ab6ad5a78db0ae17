"""tpmfront: the guest-side half of the vTPM split driver.

Performs the XenStore handshake (publish ring gref and event-channel port
under the guest's device subtree), owns the shared-page transport, and
exposes a bytes-in/bytes-out callable for :class:`~repro.tpm.TpmClient`.
"""

from __future__ import annotations

from repro.obs import trace as obs_trace
from repro.util.errors import VtpmError
from repro.xen.domain import Domain
from repro.xen.hypervisor import Xen
from repro.xen.ring import TpmRing


class VtpmFrontend:
    """The guest's /dev/tpm0 path down to the shared ring."""

    def __init__(
        self, xen: Xen, guest: Domain, backend_domid: int, locality: int = 0
    ) -> None:
        if not 0 <= locality <= 4:
            raise VtpmError(f"TPM locality must be 0-4, got {locality}")
        self.xen = xen
        self.guest = guest
        self.backend_domid = backend_domid
        #: TPM locality this front-end's commands execute at (set by the
        #: platform configuration; guests cannot raise it themselves)
        self.locality = locality
        self.ring = TpmRing(
            xen.memory, xen.grants, xen.events, guest.domid, backend_domid
        )
        self.device_path = f"/local/domain/{guest.domid}/device/vtpm/0"
        # Publish the connection parameters, as the real driver does.
        xen.store.write(guest.domid, f"{self.device_path}/ring-ref", str(self.ring.gref))
        xen.store.write(
            guest.domid, f"{self.device_path}/event-channel", str(self.ring.port)
        )
        xen.store.write(guest.domid, f"{self.device_path}/state", "1")  # Initialising
        self.connected = False

    def mark_connected(self) -> None:
        self.xen.store.write(self.guest.domid, f"{self.device_path}/state", "4")
        self.connected = True

    def transport(self, wire: bytes) -> bytes:
        """Send one TPM command through the split driver."""
        return self._guarded(self.ring.send_command, wire)

    def transport_batch(self, wires: list) -> list:
        """Send several TPM commands in one ring submission (one kick)."""
        return self._guarded(self.ring.send_batch, wires, len(wires))

    def _guarded(self, send, payload, frames=None):
        """The guard both transports share: connected check, running
        guest, and the root span (hidden entirely when sampled out).
        ``frames`` is the batch size, None for the one-frame layout."""
        if not self.connected:
            raise VtpmError(
                f"vTPM front-end of {self.guest.name} is not connected"
            )
        self.guest.require_running()
        tracer = obs_trace._current_tracer
        if tracer is None:
            return send(payload)
        if tracer._stack or tracer.keep_root():
            domid = self.guest.domid
            with (
                tracer.start_span("frontend.command", {"domid": domid})
                if frames is None else
                tracer.start_span("frontend.batch",
                                  {"domid": domid, "frames": frames})
            ):
                return send(payload)
        # Sampled-out root: hide the tracer for the whole tree so every
        # nested guarded site takes its free tracer-is-None path.
        obs_trace._current_tracer = None
        try:
            return send(payload)
        finally:
            obs_trace._current_tracer = tracer

    def close(self) -> None:
        self.xen.store.write(self.guest.domid, f"{self.device_path}/state", "6")
        self.ring.teardown()
        self.connected = False
