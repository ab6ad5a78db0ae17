"""Watch-driven vTPM hotplug: the xend device-controller role.

In real Xen no guest calls ``connect_backend`` by hand: the front-end
driver writes its ring parameters under
``/local/domain/<id>/device/vtpm/0`` and xend's device controller — woken
by a XenStore watch — creates the instance, attaches the back-end and
flips the state node.  This module reproduces that control loop so guests
connect by *publishing*, exactly like the real stack, and disconnect the
same way (state 6 = Closed).
"""

from __future__ import annotations

import re
from typing import Dict, Optional

from repro.obs import counters as obs_counters
from repro.util.errors import VtpmError
from repro.vtpm.backend import VtpmBackend
from repro.vtpm.frontend import VtpmFrontend
from repro.vtpm.manager import VtpmManager
from repro.xen.hypervisor import Xen

_DEVICE_RE = re.compile(r"^/local/domain/(\d+)/device/vtpm/0/(.+)$")

#: teardown errors surfaced on the hotplug control loop's degraded path
_HOTPLUG_ERROR = obs_counters.counter("vtpm.hotplug.error", op="disconnect")


class VtpmHotplugAgent:
    """Auto-connects vTPM front-ends as they appear in XenStore."""

    def __init__(self, xen: Xen, manager: VtpmManager) -> None:
        self.xen = xen
        self.manager = manager
        #: frontends register here when constructed (the "kernel module
        #: loaded" step); the agent needs the object to hand the ring to
        #: the back-end.
        self._frontends: Dict[int, VtpmFrontend] = {}
        self._backends: Dict[int, VtpmBackend] = {}
        self.connects = 0
        self.disconnects = 0
        xen.store.watch("/local/domain", self._on_store_change)

    # -- registration -------------------------------------------------------------

    def register_frontend(self, frontend: VtpmFrontend) -> None:
        """Make a front-end's ring object reachable by the agent.

        (Models the kernel object the real backend finds through the
        grant reference; our simulation needs the Python handle.)
        """
        self._frontends[frontend.guest.domid] = frontend
        # The nodes may already be in the store; try to connect now.
        self._try_connect(frontend.guest.domid)

    def backend_for(self, domid: int) -> Optional[VtpmBackend]:
        return self._backends.get(domid)

    def release(self, domid: int) -> None:
        """Stop watching one guest whose vTPM its platform retires itself,
        so closing the front-end does not retire it a second time."""
        self._backends.pop(domid, None)
        self._frontends.pop(domid, None)

    # -- the watch ------------------------------------------------------------------

    def _on_store_change(self, path: str, value: Optional[str]) -> None:
        match = _DEVICE_RE.match(path)
        if not match:
            return
        domid = int(match.group(1))
        leaf = match.group(2)
        if leaf == "state" and value == "6":
            self._disconnect(domid)
        elif leaf in ("ring-ref", "event-channel", "state"):
            self._try_connect(domid)

    def _device_ready(self, domid: int) -> bool:
        base = f"/local/domain/{domid}/device/vtpm/0"
        for leaf in ("ring-ref", "event-channel", "state"):
            if not self.xen.store.exists(f"{base}/{leaf}"):
                return False
        state = self.xen.store.read(0, f"{base}/state", privileged=True)
        return state == "1"  # XenbusStateInitialising

    def _try_connect(self, domid: int) -> None:
        if domid in self._backends or domid not in self._frontends:
            return
        if not self._device_ready(domid):
            return
        frontend = self._frontends[domid]
        guest = self.xen.domain(domid)
        try:
            instance = self.manager.instance_for_vm(guest.uuid)
        except VtpmError:
            instance = self.manager.create_instance(guest)
        backend = VtpmBackend(self.xen, self.manager, frontend, instance.instance_id)
        self._backends[domid] = backend
        self.connects += 1

    def _disconnect(self, domid: int) -> None:
        backend = self._backends.pop(domid, None)
        self._frontends.pop(domid, None)
        if backend is None:
            return
        # The front-end already tore its ring down on close; just retire
        # the instance (persisting state, as xend's destroy path does).
        # A teardown failure must not wedge the control loop — the guest
        # is gone either way — but it is a degraded path, not a no-op:
        # the audit chain records it and the error counter ticks, so a
        # retire that silently lost state is distinguishable from a
        # clean one.
        try:
            self.manager.destroy_instance(backend.instance_id, persist=True)
        except VtpmError as exc:
            _HOTPLUG_ERROR.inc()
            self.manager.monitor.on_fault(backend.instance_id, exc)
        self.disconnects += 1
