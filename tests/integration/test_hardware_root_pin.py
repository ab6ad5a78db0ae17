"""The hardware-TPM command stream of one platform's life, pinned.

Every hardware-TPM user on a platform (the state sealer, the deep
attestation certifier, the audit anchor and the migration endpoint) is
driven once, on fresh improved platforms, and each step's per-operation
call counts, the digest of its ordered ``(op, cost)`` charges and the
clock after it are compared with values recorded from the code before the
hardware TPM moved behind one owner.  The sealed root blob, the AIK, the
endorsement certificate and the migration bind key are pinned by SHA-256,
so a refactor that reorders a hardware command or draws from another RNG
stream fails here.
"""

import hashlib

import pytest

from repro.core.config import AccessMode
from repro.harness.builder import build_platform, fresh_timing_context
from repro.sim.timing import CostLedger, ledger_scope

OWNER = b"pin-guest-owner-a!!!"
SRK = b"pin-guest-srk-auth!!"

EXPECTED = {
    "build": {
        "ac.seal.derive": 3, "cipher.sym": 3, "hash.sha1": 4,
        "mac.hmac": 31, "rng.bytes": 708, "rsa.keygen.2048": 3,
        "rsa.sign.1024": 2, "rsa.verify.1024": 2, "tpm.cmd.base": 18,
        "tpm.pcr.extend": 3,
    },
    "restart": {
        "ac.identity.check": 1, "ac.identity.measure": 1,
        "ac.policy.compile": 12, "ac.seal.derive": 3, "cipher.sym": 3,
        "hash.sha1": 1, "hash.sha256": 3, "mac.hmac": 13, "rng.bytes": 192,
        "rsa.keygen.2048": 1, "tpm.cmd.base": 4, "vtpm.instance.create": 2,
        "vtpm.instance.lookup": 2, "vtpm.storage.read": 1,
        "vtpm.storage.write": 1, "xen.domain.build": 1, "xen.grant.map": 1,
        "xen.hypercall": 4, "xen.xenstore.op": 10,
    },
    "endorse": {
        "ac.audit.append": 3, "ac.identity.check": 4, "ac.policy.lookup": 3,
        "mac.hmac": 8, "rng.bytes": 309, "rsa.keygen.2048": 1,
        "rsa.sign.1024": 3, "rsa.verify.1024": 2, "tpm.cmd.base": 8,
        "vtpm.dispatch": 3, "vtpm.instance.lookup": 4,
        "xen.evtchn.notify": 6, "xen.ring.transfer": 9,
    },
    "anchor": {
        "mac.hmac": 20, "rng.bytes": 15, "tpm.cmd.base": 11,
        "tpm.nv.access": 3,
    },
    "offer": {
        "ac.seal.derive": 5, "cipher.sym": 5, "hash.sha1": 4,
        "mac.hmac": 49, "rng.bytes": 1067, "rsa.keygen.2048": 4,
        "rsa.sign.1024": 2, "rsa.verify.1024": 2, "tpm.cmd.base": 24,
        "tpm.pcr.extend": 3,
    },
}
#: first 16 hex digits of SHA-256 over each step's ordered "op=cost" lines
STREAM_DIGESTS = {
    "build": "330ddc2c1329aca0", "restart": "3cf97bf298737199",
    "endorse": "149ec6d49b699cfb", "anchor": "0fe2aeba475dd8fb",
    "offer": "187fa19ec2613de9",
}
CLOCKS_US = {
    "build": 499934.6896000075, "restart": 890920.138799999,
    "endorse": 1061249.8590999853, "anchor": 1061485.7890999864,
    "offer": 1727348.0646999404,
}
#: first 16 hex digits of SHA-256 over each artefact's bytes
ARTEFACTS = {
    "sealed_root": "98f6840864b45d37", "aik_modulus": "3ba4c9864f704a16",
    "certificate": "51a0670b4462a433", "bind_modulus": "8f0d5b66201fe20a",
}


class OrderedLedger(CostLedger):
    """A ledger that also keeps the charges in the order they were made."""

    def __init__(self) -> None:
        super().__init__()
        self.stream = []

    def record(self, op: str, cost_us: float) -> None:
        super().record(op, cost_us)
        self.stream.append(f"{op}={cost_us!r}")


def _short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _drive():
    """Drive each hardware-TPM user once; returns the ledgers, clocks and
    artefact digests by step."""
    ctx = fresh_timing_context()
    steps, clocks, artefacts = {}, {}, {}

    def step(name):
        steps[name] = OrderedLedger()
        return ledger_scope(steps[name])

    with step("build"):
        platform = build_platform(AccessMode.IMPROVED, seed=77)
    clocks["build"] = ctx.clock.now_us
    with step("restart"):
        guest = platform.add_guest("vm")
        platform.restart_manager()
    clocks["restart"] = ctx.clock.now_us
    with step("endorse"):
        srk_public = guest.client.take_ownership(
            OWNER, SRK, guest.client.read_pubek()
        )
        cert = platform.certifier.endorse(
            platform.manager, guest.domain.domid, guest.instance_id, srk_public
        )
    clocks["endorse"] = ctx.clock.now_us
    with step("anchor"):
        anchors = platform.audit_anchor()
        anchors.anchor(platform.audit)
        ok, reason = anchors.verify(platform.audit)
    assert ok, reason
    clocks["anchor"] = ctx.clock.now_us
    with step("offer"):
        target = build_platform(AccessMode.IMPROVED, seed=78, name="target")
        offer = target.migration.prepare_target()
    clocks["offer"] = ctx.clock.now_us
    artefacts["sealed_root"] = _short(platform.sealer.sealed_root_blob)
    artefacts["aik_modulus"] = _short(platform.certifier.aik_public.modulus_bytes())
    artefacts["certificate"] = _short(cert.serialize())
    artefacts["bind_modulus"] = _short(offer.bind_public.modulus_bytes())
    return steps, clocks, artefacts


@pytest.fixture(scope="module")
def run():
    return _drive()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_each_step_charges_the_recorded_calls(run, name):
    assert run[0][name].calls == EXPECTED[name]


def test_each_step_charges_in_the_recorded_order(run):
    digests = {
        name: _short("\n".join(ledger.stream).encode())
        for name, ledger in run[0].items()
    }
    assert digests == STREAM_DIGESTS


def test_each_step_ends_on_the_recorded_clock(run):
    assert run[1] == CLOCKS_US


def test_hardware_artefacts_are_the_recorded_bytes(run):
    assert run[2] == ARTEFACTS
