"""The vTPM manager daemon.

Runs inside the manager domain (Dom0 in the stock design), owns every
vTPM instance, and demultiplexes command packets arriving from back-end
drivers.  :meth:`handle_batch` is its one entry point and the paper's
interposition point: the installed :class:`~repro.core.monitor.Monitor`
sees every packet before an instance does.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.core.config import AccessControlConfig, AccessMode
from repro.core.identity import IdentityRegistry
from repro.core.monitor import AccessControlMonitor, BaselineMonitor, Monitor
from repro.core.protection import MemoryProtector
from repro.faults import injector as _injector
from repro.faults import with_retry
from repro.obs import counters as obs_counters
from repro.obs import trace as obs_trace
from repro.obs.trace import NULL_SPAN
from repro.sim import timing as _timing
from repro.sim.timing import charge
from repro.tpm import marshal
from repro.tpm.constants import TPM_AUTHFAIL, TPM_FAIL
from repro.tpm.device import TpmDevice
from repro.util.errors import FaultInjected, RetryExhausted, VtpmError
from repro.vtpm.instance import VtpmInstance, image_pages
from repro.vtpm.storage import VtpmStorage
from repro.xen.domain import Domain
from repro.xen.hypervisor import Xen

_VTPM_FAULT_RESPONSES = obs_counters.counter("vtpm.fault_responses")
_VTPM_UNKNOWN_INSTANCE = obs_counters.counter("vtpm.unknown_instance")
#: the manager vCPU's key-bearing registers, zeroed
_ZERO_REGISTERS = {"rax": 0, "rbx": 0, "rcx": 0, "rdx": 0}


class VtpmManager:
    """vtpm_managerd: instance lifecycle plus the command path."""

    def __init__(
        self,
        xen: Xen,
        manager_domid: int,
        storage: VtpmStorage,
        monitor: Monitor,
        *,
        mode: AccessMode,
        identities: Optional[IdentityRegistry] = None,
        protector: Optional[MemoryProtector] = None,
        key_bits: int = 1024,
        nv_capacity: Optional[int] = None,
        rng=None,
    ) -> None:
        self.xen = xen
        self.manager_domid = manager_domid
        self.storage = storage
        self.monitor = monitor
        self.mode = mode
        self.identities = identities
        self.protector = protector
        self.key_bits = key_bits
        self.nv_capacity = nv_capacity
        self._rng = rng if rng is not None else xen.rng.fork("vtpm-manager")
        self._instances: Dict[int, VtpmInstance] = {}
        self._by_vm: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self.commands_dispatched = 0
        self.commands_denied = 0
        self.faults_surfaced = 0

    # -- instance lifecycle ------------------------------------------------------

    def create_instance(self, vm: Domain, profile=None) -> VtpmInstance:
        """Create and bind a vTPM for a guest domain.

        ``profile`` optionally narrows the policy grant installed for the
        owning identity (see :mod:`repro.core.profiles`).
        """
        if vm.uuid in self._by_vm:
            raise VtpmError(f"VM {vm.name} already has vTPM instance "
                            f"{self._by_vm[vm.uuid]}")
        charge("vtpm.instance.create")
        identity_hex = self.identity_for(vm)
        instance_id = next(self._ids)
        device = TpmDevice(
            self._rng.fork(f"vtpm-{vm.uuid}"), key_bits=self.key_bits,
            name=f"vtpm{instance_id}", nv_capacity=self.nv_capacity,
        )
        device.power_on()
        instance = self._register(
            VtpmInstance(instance_id, vm.uuid, device, self.xen.memory,
                         self.manager_domid, identity_hex),
            profile,
        )
        # Publish the binding the way xend did, for tooling parity.  A
        # stub-domain manager is unprivileged and publishes under its own
        # XenStore subtree instead of the global /vtpm.
        manager_privileged = self.xen.domain(self.manager_domid).privileged
        binding_path = (
            f"/vtpm/{vm.uuid}/instance"
            if manager_privileged
            else f"/local/domain/{self.manager_domid}/vtpm/{vm.uuid}/instance"
        )
        self.xen.store.write(
            self.manager_domid,
            binding_path,
            str(instance.instance_id),
            privileged=manager_privileged,
        )
        return instance

    def identity_for(self, vm: Domain) -> Optional[str]:
        """The measured identity (hex) a new instance for ``vm`` is bound
        to; ``None`` outside the improved regime."""
        if self.mode is not AccessMode.IMPROVED or self.identities is None:
            return None
        return (self.identities.lookup(vm.domid) or self.identities.register(vm)).hex

    def instance_from_blob(
        self, vm: Domain, blob: bytes, identity_hex: Optional[str],
        rng_label: str, retry_site: Optional[str] = None,
    ) -> VtpmInstance:
        """Rebuild and register a guest's vTPM from a state blob — restore
        after reboot, or the destination leg of a migration.  With a
        ``retry_site`` the device resume survives transient faults."""
        instance_id = next(self._ids)

        def resume() -> TpmDevice:
            return TpmDevice.from_state_blob(
                blob, rng=self._rng.fork(rng_label), name=f"vtpm{instance_id}"
            )

        device = resume() if retry_site is None else with_retry(resume, site=retry_site)
        return self._register(VtpmInstance(
            instance_id, vm.uuid, device, self.xen.memory, self.manager_domid,
            identity_hex, pages=image_pages(blob),
        ))

    def _register(self, instance: VtpmInstance, profile=None) -> VtpmInstance:
        """Put a new instance on the books, protect its frames and grant
        its owning identity."""
        self._instances[instance.instance_id] = instance
        self._by_vm[instance.vm_uuid] = instance.instance_id
        if self.protector is not None:
            self.protector.protect_region(
                ("vtpm", instance.instance_id), instance.state_region
            )
        self.monitor.on_instance_created(
            instance.instance_id, instance.bound_identity_hex or "",
            profile=profile,
        )
        return instance

    def destroy_instance(self, instance_id: int, persist: bool = True) -> None:
        instance = self.instance(instance_id)
        if persist:
            self.save_instance(instance_id)
        if self.protector is not None:
            self.protector.unprotect(("vtpm", instance_id))
        instance.teardown()
        self.monitor.on_instance_destroyed(instance_id)
        del self._instances[instance_id]
        self._by_vm.pop(instance.vm_uuid, None)

    def instance(self, instance_id: int) -> VtpmInstance:
        charge("vtpm.instance.lookup")
        try:
            return self._instances[instance_id]
        except KeyError:
            raise VtpmError(f"no vTPM instance {instance_id}") from None

    def instance_for_vm(self, vm_uuid: str) -> VtpmInstance:
        instance_id = self._by_vm.get(vm_uuid)
        if instance_id is None:
            raise VtpmError(f"VM {vm_uuid} has no vTPM instance")
        return self._instances[instance_id]

    @property
    def instance_count(self) -> int:
        return len(self._instances)

    def instances(self) -> list[VtpmInstance]:
        return [self._instances[i] for i in sorted(self._instances)]

    # -- the command path (where the monitor interposes) ----------------------------

    def handle_batch(
        self,
        caller_domid: int,
        instance_id: int,
        wires: list,
        locality: int = 0,
        elapsed: Optional[list] = None,
    ) -> list:
        """The packets of one ring notify — a lone frame is a batch of one.

        ``caller_domid`` is hypervisor ground truth (the ring's front-end
        domain), not a backend claim; ``instance_id`` *is* a backend claim,
        which is exactly what the monitor's binding check validates.

        The per-notify demux cost (``vtpm.dispatch``) is charged once for
        the whole batch — that amortization is the point of batching — but
        **every** command is still individually authorized, so a policy
        change or a rogue re-bind mid-batch is caught on the very next
        frame.  Each wire gets the bounded-retry envelope; a command that
        exhausts its retries degrades to a fault response without
        poisoning the rest of the batch.

        ``elapsed``, when given, receives one entry per frame: the virtual
        microseconds of that frame's own dispatch, or ``None`` for a frame
        that exhausted its retries (the supervisor's outcome record).  A
        whole-image rewrite is applied once, after the last frame and even
        when a frame raised; PCR-slot changes are written back when the
        image's frames are read.  Either way an observer of the responses
        reads a current image.
        """
        charge("vtpm.dispatch")
        tracer = obs_trace._current_tracer
        # What stays fixed for a whole notify: the caller's domain, the
        # manager vCPU's register file and whether it is scrubbed.
        xen = self.xen
        caller = xen.domain(caller_domid)
        registers = xen.domain(self.manager_domid).vcpu.registers
        scrub = self.protector is not None and self.protector.enabled
        # Neither a tracer nor the injector can be (un)installed mid-notify
        # — the ring is serviced synchronously — so one check covers the
        # whole batch.  Without either, a frame needs no span and can never
        # raise an injected fault, so it skips the envelope.
        enveloped = tracer is not None or _injector._current_injector is not None
        clock = None if elapsed is None else _timing._current_context.clock
        responses = []
        try:
            for wire in wires:
                if clock is not None:
                    start_us = clock._now_us
                if not enveloped:
                    response = self._dispatch_frame(
                        caller, registers, scrub, instance_id, wire, locality,
                    )
                    exhausted = None
                else:
                    response, exhausted = self._dispatch_enveloped(
                        tracer, caller, registers, scrub, instance_id, wire,
                        locality,
                    )
                responses.append(response)
                if clock is not None:
                    elapsed.append(
                        None if exhausted is not None
                        else clock._now_us - start_us
                    )
        finally:
            instance = self._instances.get(instance_id)
            if instance is not None and instance.image_effect:
                self._flush_image(instance, tracer)
        return responses

    def _dispatch_enveloped(
        self, tracer, caller: Domain, registers: dict, scrub: bool,
        instance_id: int, wire: bytes, locality: int,
    ):
        """``(response, exhausted)`` of one frame inside its span and retry
        envelope; an exhausted frame degrades to a fault response."""
        with (NULL_SPAN if tracer is None else tracer.start_span(
            "manager.dispatch", {"instance": instance_id}
        )):
            if _injector._current_injector is None:
                return self._dispatch_frame(
                    caller, registers, scrub, instance_id, wire, locality,
                ), None
            try:
                return with_retry(
                    self._dispatch_frame, caller, registers, scrub,
                    instance_id, wire, locality,
                    site="vtpm.backend.forward", jitter_token=instance_id,
                ), None
            except RetryExhausted as exc:
                return self.fault_response(instance_id, exc), exc

    def _flush_image(self, instance: VtpmInstance, tracer) -> None:
        """Apply the notify's pending WHOLE image effect to the instance's
        state image once, before any observer can read the frames.

        An image that outgrew its frames moved to new ones, so the
        protector's record for the instance is pointed at them.
        """
        region = instance.state_region
        instance_id = instance.instance_id
        with (NULL_SPAN if tracer is None else tracer.start_span(
            "serialize", {"instance": instance_id}
        )):
            instance.sync_to_memory()
        if instance.state_region is not region and self.protector is not None:
            self.protector.protect_region(
                ("vtpm", instance_id), instance.state_region
            )

    def _dispatch_frame(
        self, caller: Domain, registers: dict, scrub: bool, instance_id: int,
        wire: bytes, locality: int,
    ) -> bytes:
        """The monitor-interposed command path for one already-demuxed wire.

        The instance is looked up per frame, so one destroyed mid-notify
        denies the frames after it.  Key fragments transit ``registers``
        while the command runs, and are zeroed after it when ``scrub``.
        """
        self.commands_dispatched += 1
        charge("vtpm.instance.lookup")
        instance = self._instances.get(instance_id)
        if instance is None:
            # A backend pointed at no instance: a denial like any other.
            self.commands_denied += 1
            _VTPM_UNKNOWN_INSTANCE.inc()
            return marshal.build_response(TPM_AUTHFAIL)
        verdict = self.monitor.authorize(
            caller, instance_id, instance.bound_identity_hex, wire
        )
        if not verdict.reason.allowed:
            self.commands_denied += 1
            return marshal.build_response(TPM_AUTHFAIL)
        packed = instance.working_registers
        if packed is None:
            packed = self._working_registers(instance)
        if packed is not None:
            registers.update(packed)
        try:
            return instance.execute(wire, locality=locality, parsed=verdict.parsed)
        except FaultInjected as exc:
            if exc.transient:
                raise  # the back-end's bounded retry resends the same wire
            return self.fault_response(instance_id, exc)
        finally:
            if scrub:
                # The improved manager zeroes key-bearing registers after use.
                registers.update(_ZERO_REGISTERS)

    def fault_response(self, instance_id: int, exc: Exception) -> bytes:
        """Graceful degradation: a subsystem failure becomes a ``TPM_FAIL``
        response frame plus an audit event — never a dead manager."""
        self.faults_surfaced += 1
        _VTPM_FAULT_RESPONSES.inc()
        obs_trace.span_event("fault_degraded", instance=instance_id,
                             error=str(exc))
        self.monitor.on_fault(instance_id, exc)
        return marshal.build_response(TPM_FAIL)

    # -- CPU-residency modelling ---------------------------------------------------

    @staticmethod
    def _working_registers(instance: VtpmInstance) -> Optional[dict]:
        """Model crypto in flight: key fragments transit the manager's vCPU.

        Real RSA code schedules private-key material through registers;
        this puts the first 32 bytes of the instance EK into rax..rdx so a
        vCPU dump sees what a real dump would see.  The register values are
        pure functions of the (immutable) EK, so they are computed once per
        instance and bulk-assigned on every subsequent command; ``None``
        while the instance has no EK.
        """
        ek = instance.device.state.keys.ek
        if ek is None:
            return None
        fragment = ek.keypair.serialize_private()[:32]
        packed = {
            reg: int.from_bytes(fragment[i * 8 : (i + 1) * 8], "big")
            for i, reg in enumerate(("rax", "rbx", "rcx", "rdx"))
        }
        instance.working_registers = packed
        return packed

    # -- persistence ---------------------------------------------------------------------

    def save_instance(self, instance_id: int) -> str:
        instance = self.instance(instance_id)
        return self.storage.save_instance_state(
            instance.vm_uuid,
            instance.bound_identity_hex,
            instance.device.save_state_blob(),
        )

    def save_all(self) -> int:
        for instance_id in list(self._instances):
            self.save_instance(instance_id)
        return len(self._instances)

    def restore_instance(self, vm: Domain) -> VtpmInstance:
        """Re-create a guest's vTPM from persistent state after reboot."""
        identity_hex = self.identity_for(vm)
        blob = self.storage.load_instance_state(vm.uuid, identity_hex)
        charge("vtpm.instance.create")
        # Restore is recovery code: it must itself survive transient device
        # faults (the resumed TPM runs a Startup command on power-on).
        return self.instance_from_blob(
            vm, blob, identity_hex, f"vtpm-restore-{vm.uuid}",
            retry_site="vtpm.manager.restore",
        )
