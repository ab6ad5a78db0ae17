"""CPU-dump attack: snapshot the manager's vCPU registers mid-operation.

Models the abstract's "CPU dump software": while the manager executes vTPM
crypto, private-key fragments transit its registers.  A privileged
attacker reads the vCPU context (``xc_vcpu_getcontext``) right after a
victim command and checks the registers against the victim's key material.
The improved manager scrubs key-bearing registers after every command, so
the same dump comes back zeroed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.builder import Platform
from repro.xen.hypercall import HypercallInterface


@dataclass
class CpuDumpAttack:
    """Dump manager vCPU context and compare against victim key material."""

    platform: Platform
    attacker_domid: int = 0

    name = "cpu-dump"
    description = "Dom0 reads manager vCPU registers during vTPM crypto"

    def run(self, victim_instance_id: int) -> tuple[bool, str]:
        platform = self.platform
        victim = platform.manager.instance(victim_instance_id)
        # Drive one command through the victim's path so key material is
        # "in flight" at dump time (GetRandom exercises the dispatch path).
        from repro.tpm.marshal import get_random_wire

        guest_domid = self._victim_domid(victim.vm_uuid)
        platform.manager.handle_batch(
            guest_domid, victim_instance_id, [get_random_wire(8)]
        )

        hypercalls = HypercallInterface(platform.xen, self.attacker_domid)
        registers = hypercalls.dump_vcpu(platform.manager.manager_domid)
        dumped = b"".join(
            registers[r].to_bytes(8, "big") for r in ("rax", "rbx", "rcx", "rdx")
        )
        ek = victim.device.state.keys.ek
        fragment = ek.keypair.serialize_private()[:32] if ek else b""
        if fragment and dumped == fragment:
            return True, "vCPU dump contained 32 bytes of the victim EK private key"
        if any(registers[r] for r in ("rax", "rbx", "rcx", "rdx")):
            return False, "registers held non-matching data (scrubbed or reused)"
        return False, "key-bearing registers were zeroed before the dump"

    def _victim_domid(self, vm_uuid: str) -> int:
        for domain in self.platform.xen.domains():
            if domain.uuid == vm_uuid:
                return domain.domid
        raise LookupError(f"no domain with uuid {vm_uuid}")
