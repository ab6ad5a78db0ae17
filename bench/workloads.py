"""The benchmark's own command mixes, set-ups and seeded step streams.

Each workload builds an improved-mode platform, attaches and provisions
its guests (the set-up the benchmark times as ``setup_s``), and turns a
seed into an endless stream of *steps*.  A step is one closed-loop call
the pass makes and checks::

    (fn, target, arg, expected, ops)

``fn(target, arg)`` runs it; its return value must equal ``expected``
(:data:`DENIED` means the call must be refused with ``TPM_AUTHFAIL``);
``ops`` is how many operations it carries: 1 for a client command, the
batch size for a ring batch, 0 for a policy write beside the traffic.

The mixes live here, not in ``repro.workloads``, so that editing the
program's own mixes cannot change what the benchmark measures.  The step
planner keeps a shadow of every guest's PCRs, NV area and counter, so each
expected value is known before the command runs.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List

from repro.core.config import AccessMode
from repro.core.policy import ANY, CommandClass
from repro.core.profiles import PROFILE_MONITOR
from repro.harness.builder import SIM_KEY_BITS, build_platform, fresh_timing_context
from repro.tpm import marshal
from repro.tpm.constants import (
    TPM_KEY_SIGNING,
    TPM_KH_SRK,
    TPM_ORD_Extend,
    TPM_ORD_PcrRead,
    TPM_SUCCESS,
)
from repro.tpm.nvram import NV_PER_AUTHREAD, NV_PER_AUTHWRITE

#: the platform seed is fixed: set-up is the same program state for every
#: workload seed, which only shapes the command stream
PLATFORM_SEED = 2010

OWNER_AUTH = b"bench-owner-auth!!!!"
SRK_AUTH = b"bench-srk-auth!!!!!!"
KEY_AUTH = b"bench-key-auth!!!!!!"
DATA_AUTH = b"bench-data-auth!!!!!"
COUNTER_AUTH = b"bench-counter-auth!!"
NV_AUTH = b"bench-nv-auth!!!!!!!"

NV_INDEX = 0x2000
NV_SIZE = 64
NV_SPAN = 32          # bytes each nv_read/nv_write touches
SEALED_PAYLOAD = b"bench-sealed-payload-0123!"
SEAL_DATA_SIZE = len(SEALED_PAYLOAD)  # same size, so every blob has one length
RANDOM_BYTES = 32
PCRS = range(8, 16)   # PCRs a guest extends and reads; all start at zero

#: policy-churn: a bystander rule is added and revoked every this many ops
CHURN_PERIOD = 64
#: policy-churn: share of ops sent by the read-only monitor guests
MONITOR_SHARE = 0.25
BYSTANDER_SUBJECT = "b7" * 32

#: the expectation of a scheduled denial
DENIED = object()

Step = tuple


@dataclass(eq=False)
class Guest:
    """One guest's live handles plus the planner's shadow of its state."""

    client: object
    frontend: object
    pcrs: Dict[int, bytes]
    sealed: bytes = b""
    sealed_len: int = 0
    key: int = 0
    counter: int = 0
    counter_value: int = 0
    nv: bytes = b""
    deny_next: bool = False


@dataclass(eq=False)
class Rig:
    """A set-up platform and its guests, ready for traffic."""

    platform: object
    guests: List[Guest] = field(default_factory=list)


# -- operations (the calls the pass times; ``tpm.client`` wraps these) ---------


def op_extend(g: Guest, arg):
    return g.client.extend(arg[0], arg[1])


def op_pcr_read(g: Guest, pcr: int):
    return g.client.pcr_read(pcr)


def op_get_random(g: Guest, count: int):
    return len(g.client.get_random(count))


def op_seal(g: Guest, data: bytes):
    return len(g.client.seal(TPM_KH_SRK, SRK_AUTH, data, DATA_AUTH))


def op_unseal(g: Guest, _arg):
    return g.client.unseal(TPM_KH_SRK, SRK_AUTH, g.sealed, DATA_AUTH)


def op_nv_write(g: Guest, data: bytes):
    return g.client.nv_write(NV_AUTH, NV_INDEX, 0, data)


def op_nv_read(g: Guest, _arg):
    return g.client.nv_read(NV_INDEX, 0, NV_SPAN, auth=NV_AUTH)


def op_sign(g: Guest, digest: bytes):
    return len(g.client.sign(g.key, KEY_AUTH, digest))


def op_increment_counter(g: Guest, _arg):
    return g.client.increment_counter(COUNTER_AUTH, g.counter)


def op_batch(g: Guest, frames: list):
    return g.frontend.transport_batch(frames)


#: every client-side operation, by name
OPS: Dict[str, Callable] = {
    "extend": op_extend,
    "pcr_read": op_pcr_read,
    "get_random": op_get_random,
    "seal": op_seal,
    "unseal": op_unseal,
    "nv_write": op_nv_write,
    "nv_read": op_nv_read,
    "sign": op_sign,
    "increment_counter": op_increment_counter,
    "batch": op_batch,
}


def bystander(policy, subject: str):
    """An administrator adds and revokes a rule nobody uses: a policy
    write that ends the monitor's decision-cache epoch."""
    rules = policy.add_rule(subject, ANY, CommandClass.READ)
    for rule in rules:
        policy.revoke_rule(rule.rule_id)
    return len(rules)


# -- set-up ------------------------------------------------------------------------


def _platform():
    fresh_timing_context()
    return build_platform(AccessMode.IMPROVED, seed=PLATFORM_SEED, name="bench")


def _attach(rig: Rig, name: str, profile=None) -> Guest:
    handle = rig.platform.add_guest(name, profile=profile)
    pcrs = {index: handle.client.pcr_read(index) for index in PCRS}
    guest = Guest(client=handle.client, frontend=handle.frontend, pcrs=pcrs)
    rig.guests.append(guest)
    return guest


def _own(g: Guest) -> None:
    g.client.take_ownership(OWNER_AUTH, SRK_AUTH, g.client.read_pubek())


def _provision_storage(g: Guest) -> None:
    """A sealed blob to unseal and an auth-protected NV area."""
    g.sealed = g.client.seal(TPM_KH_SRK, SRK_AUTH, SEALED_PAYLOAD, DATA_AUTH)
    g.sealed_len = len(g.sealed)
    g.client.nv_define(
        OWNER_AUTH, NV_INDEX, NV_SIZE, NV_PER_AUTHREAD | NV_PER_AUTHWRITE,
        NV_AUTH,
    )
    initial = bytes(range(NV_SIZE))
    g.client.nv_write(NV_AUTH, NV_INDEX, 0, initial)
    g.nv = initial[:NV_SPAN]


def _provision_signing(g: Guest) -> None:
    """A loaded signing key and a monotonic counter."""
    blob = g.client.create_wrap_key(
        TPM_KH_SRK, SRK_AUTH, KEY_AUTH, TPM_KEY_SIGNING, SIM_KEY_BITS
    )
    g.key = g.client.load_key2(TPM_KH_SRK, SRK_AUTH, blob)
    g.counter, g.counter_value = g.client.create_counter(
        OWNER_AUTH, COUNTER_AUTH, b"bnch"
    )


def setup_measurement() -> Rig:
    rig = Rig(_platform())
    for i in range(4):
        _attach(rig, f"meas{i}")
    return rig


def setup_sealed_storage() -> Rig:
    rig = Rig(_platform())
    for i in range(4):
        guest = _attach(rig, f"store{i}")
        _own(guest)
        _provision_storage(guest)
    return rig


def setup_batch_supervised() -> Rig:
    rig = Rig(_platform())
    for i in range(8):
        _attach(rig, f"batch{i}")
    rig.platform.enable_supervision()
    return rig


def setup_policy_churn() -> Rig:
    rig = Rig(_platform())
    for i in range(12):
        guest = _attach(rig, f"owner{i}")
        _own(guest)
        _provision_storage(guest)
        _provision_signing(guest)
    for i in range(4):
        _attach(rig, f"monitor{i}", profile=PROFILE_MONITOR)
    rig.platform.enable_supervision()
    return rig


# -- step planning -------------------------------------------------------------------


def _plan(kind: str, g: Guest, rnd: random.Random, ops: Dict[str, Callable]) -> Step:
    """One client op on ``g`` with its expected result; advances the shadow."""
    fn = ops[kind]
    if kind == "extend":
        pcr = rnd.choice(PCRS)
        digest = rnd.randbytes(20)
        value = hashlib.sha1(g.pcrs[pcr] + digest).digest()
        g.pcrs[pcr] = value
        return (fn, g, (pcr, digest), value, 1)
    if kind == "pcr_read":
        pcr = rnd.choice(PCRS)
        return (fn, g, pcr, g.pcrs[pcr], 1)
    if kind == "get_random":
        return (fn, g, RANDOM_BYTES, RANDOM_BYTES, 1)
    if kind == "seal":
        return (fn, g, rnd.randbytes(SEAL_DATA_SIZE), g.sealed_len, 1)
    if kind == "unseal":
        return (fn, g, None, SEALED_PAYLOAD, 1)
    if kind == "nv_write":
        data = rnd.randbytes(NV_SPAN)
        g.nv = data
        return (fn, g, data, None, 1)
    if kind == "nv_read":
        return (fn, g, None, g.nv, 1)
    if kind == "sign":
        return (fn, g, rnd.randbytes(20), SIM_KEY_BITS // 8, 1)
    if kind == "increment_counter":
        g.counter_value += 1
        return (fn, g, None, g.counter_value, 1)
    raise ValueError(f"no planner for operation {kind!r}")


def _drawn(weights: Dict[str, int], rnd: random.Random) -> Iterator[str]:
    """Op kinds drawn independently in the mix's proportions."""
    kinds = list(weights)
    cum = list(itertools.accumulate(weights[kind] for kind in kinds))
    while True:
        yield rnd.choices(kinds, cum_weights=cum)[0]


def _dealt(weights: Dict[str, int], rnd: random.Random) -> Iterator[str]:
    """Op kinds dealt from shuffled decks holding the mix's exact
    proportions: every seed runs the same share of each kind."""
    cards = [kind for kind, count in weights.items() for _ in range(count)]
    while True:
        rnd.shuffle(cards)
        yield from cards


def _mix_steps(guests, kinds: Iterator[str], rnd, ops) -> Iterator[Step]:
    """Round-robin over ``guests``, one op of each kind from ``kinds``."""
    for i, kind in enumerate(kinds):
        yield _plan(kind, guests[i % len(guests)], rnd, ops)


MIX_MEASUREMENT = {"extend": 5, "pcr_read": 4, "get_random": 1}
MIX_SEALED_STORAGE = {
    "unseal": 4, "seal": 1, "nv_read": 2, "nv_write": 1, "pcr_read": 2,
}
MIX_MIXED = {
    "extend": 3, "pcr_read": 3, "get_random": 2, "sign": 1, "unseal": 1,
    "nv_read": 1, "increment_counter": 1,
}


def steps_measurement(rig: Rig, rnd, ops) -> Iterator[Step]:
    return _mix_steps(rig.guests, _drawn(MIX_MEASUREMENT, rnd), rnd, ops)


def steps_sealed_storage(rig: Rig, rnd, ops) -> Iterator[Step]:
    return _mix_steps(rig.guests, _drawn(MIX_SEALED_STORAGE, rnd), rnd, ops)


def steps_batch_supervised(rig: Rig, rnd, ops, batch: int = 8) -> Iterator[Step]:
    """Raw Extend and PCRRead frames drawn 1:1, ``batch`` per ring kick."""
    fn = ops["batch"]
    guests = rig.guests
    i = 0
    while True:
        g = guests[i % len(guests)]
        frames, expected = [], []
        for _ in range(batch):
            pcr = rnd.choice(PCRS)
            index = pcr.to_bytes(4, "big")
            if rnd.random() < 0.5:
                digest = rnd.randbytes(20)
                g.pcrs[pcr] = hashlib.sha1(g.pcrs[pcr] + digest).digest()
                frames.append(marshal.build_command(TPM_ORD_Extend, index + digest))
            else:
                frames.append(marshal.build_command(TPM_ORD_PcrRead, index))
            expected.append(marshal.build_response(TPM_SUCCESS, g.pcrs[pcr]))
        yield (fn, g, frames, expected, batch)
        i += 1


def steps_policy_churn(rig: Rig, rnd, ops) -> Iterator[Step]:
    """Owners run the mixed mix; monitor-profile guests send about one op
    in four, alternating an allowed PCR read and a scheduled denial (an
    extend their profile does not grant); every ``CHURN_PERIOD`` ops a
    bystander rule is added and revoked.

    Owner ops are dealt, not drawn: a 1.5 ms RSA sign weighs as much
    virtual time as fifty cheap ops, so a drawn share of signs would move
    ``virtual_us_mean`` by about a percent from seed to seed.
    """
    owners, monitors = rig.guests[:12], rig.guests[12:]
    owner_ops = _mix_steps(owners, _dealt(MIX_MIXED, rnd), rnd, ops)
    policy = rig.platform.policy
    m = 0
    count = 0
    while True:
        if rnd.random() < MONITOR_SHARE:
            g = monitors[m % len(monitors)]
            m += 1
            pcr = rnd.choice(PCRS)
            if g.deny_next:
                yield (ops["extend"], g, (pcr, rnd.randbytes(20)), DENIED, 1)
            else:
                yield (ops["pcr_read"], g, pcr, g.pcrs[pcr], 1)
            g.deny_next = not g.deny_next
        else:
            yield next(owner_ops)
        count += 1
        if count % CHURN_PERIOD == 0:
            yield (bystander, policy, BYSTANDER_SUBJECT, 1, 0)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (``BENCHMARK.json`` says why it exists)."""

    name: str
    #: ops per second of ``--seconds``: the window is sized in operations
    #: (rate x seconds), so every commit measures the same work; the rates
    #: make one window last about ``--seconds`` on a 2-vCPU x86-64 VM
    ops_per_second: int
    setup: Callable[[], Rig]
    steps: Callable[..., Iterator[Step]]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("measurement", 22_000, setup_measurement, steps_measurement),
        Workload("sealed-storage", 7_500, setup_sealed_storage,
                 steps_sealed_storage),
        Workload("batch-supervised", 35_000, setup_batch_supervised,
                 steps_batch_supervised),
        Workload("policy-churn", 10_500, setup_policy_churn, steps_policy_churn),
    )
}
