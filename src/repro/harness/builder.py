"""Platform assembly: one call builds a whole machine, either regime.

A :class:`Platform` is a booted Xen machine with a hardware TPM, a vTPM
manager (baseline or improved), storage, and helpers to add guests with
attached vTPMs and ready-to-use TPM clients.  Every test, example and
benchmark builds platforms through here, so the two regimes differ in
exactly one switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.audit import AuditLog
from repro.core.config import AccessControlConfig, AccessMode
from repro.core.hwroot import SIM_KEY_BITS, HardwareRoot
from repro.core.identity import IdentityRegistry
from repro.core.monitor import AccessControlMonitor, BaselineMonitor, Monitor
from repro.core.policy import PolicyEngine
from repro.core.protection import MemoryProtector
from repro.core.sealing import StateSealer
from repro.crypto.random_source import RandomSource
from repro.sim.clock import VirtualClock
from repro.sim.timing import CostModel, TimingContext, set_context
from repro.tpm.client import TpmClient
from repro.util.errors import ReproError
from repro.vtpm.backend import VtpmBackend
from repro.vtpm.frontend import VtpmFrontend
from repro.vtpm.manager import VtpmManager
from repro.vtpm.migration import MigrationEndpoint
from repro.vtpm.storage import DiskStore, VtpmStorage
from repro.xen.domain import Domain
from repro.xen.hypercall import HypercallInterface
from repro.xen.hypervisor import DOM0_ID, Xen


@dataclass
class GuestHandle:
    """Everything a test needs to drive one guest."""

    domain: Domain
    frontend: VtpmFrontend
    backend: VtpmBackend
    client: TpmClient
    instance_id: int


class Platform:
    """One machine: hypervisor + hardware TPM + vTPM subsystem."""

    def __init__(
        self,
        mode: AccessMode,
        seed: int = 2010,
        ac_config: Optional[AccessControlConfig] = None,
        name: str = "platform",
        nv_capacity: Optional[int] = None,
        stub_manager: bool = False,
    ) -> None:
        self.mode = mode
        self.name = name
        self.rng = RandomSource(f"{name}-{seed}".encode())
        self.xen = Xen(self.rng.fork("xen"))
        self.stub_manager = stub_manager
        # Optionally host the manager in a dedicated unprivileged stub
        # domain (the TCB-reduction deployment) rather than Dom0.
        if stub_manager:
            self._manager_domain = self.xen.create_domain(
                "vtpm-stubdom", kernel_image=b"mini-os-vtpm-manager", pages=128
            )
            manager_domid = self._manager_domain.domid
        else:
            self._manager_domain = self.xen.dom0
            manager_domid = DOM0_ID
        self.ac_config = ac_config or (
            AccessControlConfig.all_on()
            if mode is AccessMode.IMPROVED
            else AccessControlConfig.all_off()
        )

        # -- hardware TPM, owned by the platform administrator ---------------
        self.hw = HardwareRoot(self.rng)

        # -- access-control plumbing ------------------------------------------
        self.identities = IdentityRegistry()
        self.policy = PolicyEngine()
        self.audit = AuditLog()
        self.disk = DiskStore()
        self.sealer: Optional[StateSealer] = None
        self.protector: Optional[MemoryProtector] = None
        monitor: Monitor
        if mode is AccessMode.IMPROVED:
            monitor = AccessControlMonitor(
                self.identities, self.policy, self.audit, self.ac_config
            )
            if self.ac_config.seal_storage:
                self.sealer = StateSealer(self.hw, self.rng.fork("sealer"))
                self.sealer.initialize()
            self.protector = MemoryProtector(
                self.xen.memory, enabled=self.ac_config.protect_memory
            )
        else:
            monitor = BaselineMonitor()
        self.monitor = monitor
        self.storage = VtpmStorage(self.disk, sealer=self.sealer)
        self.manager = VtpmManager(
            self.xen,
            manager_domid=manager_domid,
            storage=self.storage,
            monitor=monitor,
            mode=mode,
            identities=self.identities if mode is AccessMode.IMPROVED else None,
            protector=self.protector,
            key_bits=SIM_KEY_BITS,
            nv_capacity=nv_capacity,
            rng=self.rng.fork("manager"),
        )
        self.migration = MigrationEndpoint(
            self.manager, self.rng.fork("migration"), self.hw
        )
        # Deep-attestation certifier (improved mode): endorses vTPM keys
        # with a hardware-TPM AIK.
        self.certifier = None
        if mode is AccessMode.IMPROVED:
            from repro.core.certification import VtpmCertifier

            self.certifier = VtpmCertifier(
                self.hw, aik_auth=b"certifier-aik-auth!!"
            )
        self.guests: Dict[str, GuestHandle] = {}
        #: the resilience supervisor, installed by :meth:`enable_supervision`
        self.supervisor = None
        #: the watch-driven attach agent, created by :meth:`hotplug_agent`
        self._hotplug_agent = None

    # -- supervision ---------------------------------------------------------------

    def enable_supervision(self, **kwargs):
        """Install a resilience supervisor over this platform's backends.

        Every already-attached guest is placed under supervision, as is
        every guest added afterwards.  ``kwargs`` are forwarded to
        :class:`~repro.resilience.supervisor.Supervisor` (thresholds,
        breaker tuning, admission budgets).  Returns the supervisor.
        """
        if self.supervisor is not None:
            raise ReproError(f"{self.name} is already supervised")
        from repro.resilience.supervisor import Supervisor

        self.supervisor = Supervisor(
            self.manager, self.rng.fork("supervisor"), **kwargs
        )
        self.monitor.health_gate = self.supervisor.gate
        self.monitor.health_index = self.supervisor.unhealthy_instances
        for handle in self.guests.values():
            self.supervisor.attach(handle.backend)
        return self.supervisor

    # -- guests ---------------------------------------------------------------------

    def add_guest(
        self,
        name: str,
        kernel_image: Optional[bytes] = None,
        config: Optional[Dict[str, str]] = None,
        profile=None,
    ) -> GuestHandle:
        """Create a guest domain with an attached vTPM and a TPM client.

        ``profile`` optionally narrows the policy grant (improved mode);
        see :mod:`repro.core.profiles`.
        """
        domain = self._create_domain(name, kernel_image, config)
        instance = self.manager.create_instance(domain, profile=profile)
        return self._connect(name, domain, instance.instance_id)

    def adopt_migrated(self, name: str, domain: Domain,
                       instance_id: int) -> GuestHandle:
        """Give a guest a migration just landed here its own ring.

        ``domain`` is the landing domain and ``instance_id`` the instance
        the migration imported for it; the guest then reaches its vTPM
        through the same front-end, back-end and supervision as a guest
        that started here.
        """
        if name in self.guests:
            raise ReproError(f"guest {name!r} already exists on {self.name}")
        return self._connect(name, domain, instance_id)

    def _connect(self, name: str, domain: Domain,
                 instance_id: int) -> GuestHandle:
        """Front-end, back-end and handshake for one guest's instance."""
        frontend = VtpmFrontend(self.xen, domain, DOM0_ID)
        backend = VtpmBackend(self.xen, self.manager, frontend, instance_id)
        return self._adopt(name, domain, frontend, backend)

    def _create_domain(self, name: str, kernel_image: Optional[bytes],
                       config: Optional[Dict[str, str]] = None):
        if name in self.guests:
            raise ReproError(f"guest {name!r} already exists on {self.name}")
        domain = self.xen.create_domain(
            name,
            kernel_image=kernel_image or f"linux-2.6.18-{name}".encode(),
            config=config or {"vtpm": "1"},
        )
        if self.mode is AccessMode.IMPROVED:
            self.identities.register(domain)
        return domain

    def _adopt(self, name: str, domain, frontend, backend) -> GuestHandle:
        """Record a connected guest; supervise it if supervision is on."""
        client = TpmClient(frontend.transport, self.rng.fork(f"client-{name}"))
        handle = GuestHandle(
            domain=domain,
            frontend=frontend,
            backend=backend,
            client=client,
            instance_id=backend.instance_id,
        )
        self.guests[name] = handle
        if self.supervisor is not None:
            self.supervisor.attach(backend)
        return handle

    def remove_guest(self, name: str, persist_vtpm: bool = True) -> None:
        """Retire a guest that has left this platform: the one retire path.

        Closes its front-end and detaches its supervision, destroys its
        vTPM (persisting it only when ``persist_vtpm``) unless a committed
        migration already took it, then forgets its identity and destroys
        the domain.
        """
        handle = self.guests.pop(name, None)
        if handle is None:
            raise ReproError(f"no guest {name!r} on {self.name}")
        domain = handle.domain
        if self._hotplug_agent is not None:
            # The watch would retire (and persist) the vTPM on close; the
            # flag below decides instead.
            self._hotplug_agent.release(domain.domid)
        handle.frontend.close()
        if self.supervisor is not None:
            self.supervisor.detach(handle.backend)
        instance_id = self.manager._by_vm.get(domain.uuid)
        if instance_id is not None:
            self.manager.destroy_instance(instance_id, persist=persist_vtpm)
        if self.mode is AccessMode.IMPROVED:
            self.identities.forget(domain.domid)
        self.xen.destroy_domain(domain.domid)

    def audit_anchor(self):
        """Hardware-anchored audit checkpointing (improved mode, lazy)."""
        if self.mode is not AccessMode.IMPROVED:
            raise ReproError("audit anchoring needs the improved regime")
        if not hasattr(self, "_audit_anchor"):
            from repro.core.anchor import AuditAnchor

            self._audit_anchor = AuditAnchor(
                self.hw,
                area_auth=b"platform-anchor-a!!!",
                counter_auth=b"platform-anchor-c!!!",
            )
        return self._audit_anchor

    # -- hotplug path --------------------------------------------------------------

    def hotplug_agent(self):
        """The xend-style watch-driven device controller (created lazily)."""
        if self._hotplug_agent is None:
            from repro.vtpm.hotplug import VtpmHotplugAgent

            self._hotplug_agent = VtpmHotplugAgent(self.xen, self.manager)
        return self._hotplug_agent

    def add_guest_hotplug(self, name: str,
                          kernel_image: Optional[bytes] = None) -> GuestHandle:
        """Add a guest whose vTPM connects via the XenStore watch protocol
        instead of the explicit attach path."""
        agent = self.hotplug_agent()
        domain = self._create_domain(name, kernel_image)
        frontend = VtpmFrontend(self.xen, domain, backend_domid=DOM0_ID)
        agent.register_frontend(frontend)
        backend = agent.backend_for(domain.domid)
        if backend is None:
            raise ReproError(f"hotplug agent failed to connect {name!r}")
        return self._adopt(name, domain, frontend, backend)

    # -- crash recovery ----------------------------------------------------------

    def restart_manager(self, clean: bool = True) -> int:
        """Simulate a vTPM-manager daemon crash and restart.

        Every instance's volatile object is lost, migrated-in ones
        included; the new daemon reloads each, in instance-id order, from
        persistent storage (through the hardware-TPM-gated sealer in
        improved mode) and every guest's back-end, an adopted migrated
        guest's included, is rebound to it.  Returns how many instances
        were recovered.

        ``clean=True`` models an orderly shutdown (state flushed first);
        ``clean=False`` models a hard crash — whatever the last successful
        save committed is what the restart recovers, which is exactly what
        the generation-stamped storage guarantees exists.

        Fails closed: if the sealer cannot unlock (platform PCRs moved),
        the restore raises and no plaintext state ever materialises.
        """
        if clean:
            self.manager.save_all()
        if self.sealer is not None:
            # The daemon's in-memory root dies with the process...
            self.sealer.lock()
            # ...and the replacement must re-earn it from the hardware TPM.
            self.sealer.unlock()
        manager = self.manager
        instances = manager.instances()
        for instance in instances:
            manager.destroy_instance(instance.instance_id, persist=False)
        domains = {domain.uuid: domain for domain in self.xen.domains()}
        handles = {handle.domain.uuid: handle for handle in self.guests.values()}
        for instance in instances:
            restored = manager.restore_instance(domains[instance.vm_uuid])
            handle = handles.get(instance.vm_uuid)
            if handle is not None:
                handle.backend.rebind(restored.instance_id)
                handle.instance_id = restored.instance_id
        return len(instances)

    def dom0_hypercalls(self) -> HypercallInterface:
        return HypercallInterface(self.xen, DOM0_ID)

    def hypercalls_for(self, domid: int) -> HypercallInterface:
        return HypercallInterface(self.xen, domid)


def fresh_timing_context() -> TimingContext:
    """Install a fresh clock+model; returns the new context.

    Experiments call this first so measurements start at t=0 with no
    charges leaked from module import or previous runs.
    """
    ctx = TimingContext(model=CostModel(), clock=VirtualClock())
    set_context(ctx)
    return ctx


def build_platform(
    mode: AccessMode,
    seed: int = 2010,
    ac_config: Optional[AccessControlConfig] = None,
    name: Optional[str] = None,
    nv_capacity: Optional[int] = None,
    stub_manager: bool = False,
) -> Platform:
    """The one-liner used by tests, examples and benchmarks."""
    return Platform(
        mode=mode,
        seed=seed,
        ac_config=ac_config,
        name=name or f"{mode.value}-platform",
        nv_capacity=nv_capacity,
        stub_manager=stub_manager,
    )
