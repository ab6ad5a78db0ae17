"""tpmback: the driver-domain half of the vTPM split driver.

Reads the front-end's ring parameters from XenStore, maps the grant, and
forwards each command to the manager **prefixed with an instance number**
— which in stock Xen is whatever the backend's configuration says.  That
configuration is exactly what the rogue re-binding attack edits, so the
backend exposes ``rebind`` to let the attack toolkit do what a compromised
Dom0 would do.  In the improved regime ``rebind`` fails closed: a new
instance number is accepted only if the target instance is bound to the
very identity this ring's front-end domain measures to.

A backend can additionally be placed under supervision
(:meth:`attach_supervision`): the supervisor then issues admission
verdicts at the ring, observes every forwarded command's outcome, and
drives quarantine/restart when the instance goes bad.  Unsupervised
backends keep the exact original behaviour.
"""

from __future__ import annotations

import functools

from repro.core.config import AccessMode
from repro.obs import trace as obs_trace
from repro.util.errors import IdentityError, VtpmError
from repro.vtpm.frontend import VtpmFrontend
from repro.vtpm.manager import VtpmManager
from repro.xen.hypervisor import Xen


class VtpmBackend:
    """One back-end connection: (guest ring) → (manager, instance id)."""

    #: the owning :class:`~repro.resilience.supervisor.Supervisor`, if any
    supervision = None
    #: (health record, breaker, admission controller), cached here by
    #: ``Supervisor.attach`` so the per-notify hooks skip uuid dict lookups
    _supervised = None

    def __init__(
        self,
        xen: Xen,
        manager: VtpmManager,
        frontend: VtpmFrontend,
        instance_id: int,
    ) -> None:
        self.xen = xen
        self.manager = manager
        self.frontend = frontend
        self.instance_id = instance_id
        self.front_domid = frontend.guest.domid
        # Read the handshake nodes, as the real driver does.
        ring_ref = int(xen.store.read(0, f"{frontend.device_path}/ring-ref",
                                      privileged=True))
        if ring_ref != frontend.ring.gref:
            raise VtpmError("xenstore ring-ref does not match the front-end ring")
        frontend.ring.connect_backend(self._forward)
        # Record the binding where xend kept it.
        xen.store.write(
            0,
            f"/local/domain/0/backend/vtpm/{self.front_domid}/0/instance",
            str(instance_id),
            privileged=True,
        )
        frontend.mark_connected()

    # -- supervision -------------------------------------------------------------

    def attach_supervision(self, supervisor) -> None:
        """Route this ring's frames through the supervisor's admission
        control and report every forwarded outcome back to it."""
        self.supervision = supervisor
        self.frontend.ring.set_admission(
            functools.partial(supervisor.admit, self)
        )

    # -- the forwarding path --------------------------------------------------------

    def _forward(self, wires: list) -> list:
        """Prefix the configured instance number and hand one ring
        notify's frames to the manager (a lone frame is ``[wire]``).

        ``front_domid`` comes from the ring itself (hypervisor ground
        truth); ``instance_id`` is backend configuration (attacker-editable
        in the baseline threat model).

        The manager resends a frame whose device transaction aborted with
        bounded, per-instance-jittered virtual-time backoff, and degrades
        one that outlives the budget into a ``TPM_FAIL`` frame, never a
        dead ring.  Under supervision every frame's outcome is reported to
        the supervisor once the notify's last frame has run.
        """
        supervision = self.supervision
        elapsed = None if supervision is None else []
        tracer = obs_trace._current_tracer
        if tracer is None:
            responses = self.manager.handle_batch(
                self.front_domid, self.instance_id, wires,
                self.frontend.locality, elapsed,
            )
            if elapsed is not None:
                supervision.observe(self, responses, elapsed)
            return responses
        with tracer.start_span(
            "backend.forward",
            {"instance": self.instance_id, "frames": len(wires)},
        ):
            responses = self.manager.handle_batch(
                self.front_domid, self.instance_id, wires,
                self.frontend.locality, elapsed,
            )
            if elapsed is not None:
                supervision.observe(self, responses, elapsed)
            return responses

    # -- re-binding (the attack knob, now fail-closed) -------------------------------

    def rebind(self, new_instance_id: int) -> None:
        """Point this connection at a different instance.

        This is the knob a compromised Dom0 turns in the rogue re-binding
        attack — and in the baseline regime it still works exactly that
        way.  When the target instance carries a measured-identity binding
        (improved regime), the backend re-checks it here: the ring's
        front-end domain must *currently measure* to the identity the
        target instance is bound to.  A mismatch raises — fail closed —
        and is reported to the monitor for the audit trail; the old
        binding stays in force.  The improved regime likewise refuses a
        target that does not exist: no identity is bound to it.
        """
        manager = self.manager
        target = manager._instances.get(new_instance_id)
        if target is None and manager.mode is AccessMode.IMPROVED:
            manager.monitor.on_rebind_denied(
                f"dom{self.front_domid}", new_instance_id
            )
            raise VtpmError(
                f"rebind refused: no vTPM instance {new_instance_id}"
            )
        if (
            target is not None
            and target.bound_identity_hex is not None
            and manager.identities is not None
        ):
            subject = f"dom{self.front_domid}"
            try:
                identity = manager.identities.verify_current(
                    self.frontend.guest
                )
                subject = identity.hex
            except IdentityError as exc:
                reason = (
                    f"rebind refused: instance {new_instance_id} is bound "
                    f"to identity {target.bound_identity_hex[:12]}… but the "
                    f"front-end identity is unverifiable: {exc}"
                )
                manager.monitor.on_rebind_denied(subject, new_instance_id)
                raise VtpmError(reason) from None
            if identity.hex != target.bound_identity_hex:
                reason = (
                    f"rebind refused: instance {new_instance_id} is bound "
                    f"to identity {target.bound_identity_hex[:12]}…, ring "
                    f"front-end dom{self.front_domid} measures to "
                    f"{identity.hex[:12]}…"
                )
                manager.monitor.on_rebind_denied(subject, new_instance_id)
                raise VtpmError(reason)
        self.instance_id = new_instance_id
        self.xen.store.write(
            0,
            f"/local/domain/0/backend/vtpm/{self.front_domid}/0/instance",
            str(new_instance_id),
            privileged=True,
        )
        if self.supervision is not None:
            self.supervision.on_rebind(self, new_instance_id)

    def disconnect(self) -> None:
        self.frontend.ring.disconnect_backend()

