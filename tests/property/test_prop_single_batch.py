"""Single-vs-batch equivalence: a lone frame is a batch of one.

Every frame the ring carries takes one forward path below the ring, so
sending a guest's frames one ``transport`` call at a time must leave the
platform exactly where one ``transport_batch`` call leaves it: the same
responses, the same audit decisions, the same monitor verdict counts,
and the same health, breaker and admission state.  Only virtual time may
differ (singles pay the per-notify costs n times), which is why the audit
comparison uses the timestamp-free decision chain.

Faults are drawn only at ``tpm.device.execute`` and always recover inside
the retry budget.  Ring-site faults are left out on purpose: n singles
kick the event channel n times where a batch kicks once, so the two
shapes would see different fault schedules.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AccessMode
from repro.core.profiles import PROFILE_MONITOR
from repro.faults import FaultInjector, FaultKind, FaultPlan, injector_scope, spec
from repro.faults.retry import DEFAULT_ATTEMPTS
from repro.harness.builder import build_platform, fresh_timing_context
from repro.resilience import AdmissionConfig
from repro.tpm import marshal
from repro.tpm.constants import (
    TPM_ORD_Extend,
    TPM_ORD_GetRandom,
    TPM_ORD_PcrRead,
)

MAX_DEPTH = AdmissionConfig().max_depth


def _wire(kind: str, arg: int) -> bytes:
    if kind == "extend":
        return marshal.build_command(
            TPM_ORD_Extend, arg.to_bytes(4, "big") + bytes([arg]) * 20
        )
    if kind == "read":
        return marshal.build_command(TPM_ORD_PcrRead, arg.to_bytes(4, "big"))
    return marshal.build_command(TPM_ORD_GetRandom, (arg + 1).to_bytes(4, "big"))


_FRAME = st.tuples(
    st.sampled_from(["extend", "read", "random"]), st.integers(0, 15)
)
_GUEST = st.tuples(
    st.booleans(),  # monitor profile: its extends are scheduled denials
    st.lists(_FRAME, min_size=1, max_size=MAX_DEPTH),
)


def _recovers(indices) -> bool:
    """No frame can see DEFAULT_ATTEMPTS consecutive transient aborts."""
    run = 0
    previous = None
    for index in sorted(indices):
        run = run + 1 if previous == index - 1 else 1
        if run >= DEFAULT_ATTEMPTS:
            return False
        previous = index
    return True


_FAULTS = st.one_of(
    st.just(()),
    st.sets(st.integers(0, 3 * MAX_DEPTH * 3), min_size=1, max_size=12)
    .filter(_recovers)
    .map(lambda at: (spec(FaultKind.DEVICE_TRANSIENT, at=sorted(at)),)),
    st.integers(0, 3 * MAX_DEPTH)
    .map(lambda at: (spec(FaultKind.WEDGE, at=(at,)),)),
)


def _run(guests, faults, seed: int, batched: bool) -> dict:
    fresh_timing_context()
    platform = build_platform(AccessMode.IMPROVED, seed=seed, name="shape")
    handles = [
        platform.add_guest(f"g{i}", profile=PROFILE_MONITOR if monitor else None)
        for i, (monitor, _frames) in enumerate(guests)
    ]
    supervisor = platform.enable_supervision()
    injector = FaultInjector(
        FaultPlan(name="shape", seed=seed, specs=faults), audit=platform.audit
    )
    responses = []
    with injector_scope(injector):
        for handle, (_monitor, frames) in zip(handles, guests):
            wires = [_wire(kind, arg) for kind, arg in frames]
            if batched:
                responses += handle.frontend.transport_batch(wires)
            else:
                responses += [handle.frontend.transport(w) for w in wires]
    state = {
        "responses": responses,
        "decisions": platform.audit.decision_chain_hash(),
        "checks": platform.monitor.checks,
        "denials": platform.monitor.denials,
        "faults": injector.event_signature(),
        "supervision": [],
        "service_estimate_us": [],
    }
    for handle in handles:
        uuid = handle.domain.uuid
        record = supervisor.record_for(uuid)
        admission = supervisor.admission_for(uuid)
        state["supervision"].append((
            record.state, record.consecutive_successes,
            record.consecutive_failures, dict(record.failure_counts),
            supervisor.breaker_for(uuid).sequence(), admission.admitted,
        ))
        state["service_estimate_us"].append(admission.service_estimate_us)
    return state


@settings(max_examples=25, deadline=None)
@given(
    guests=st.lists(_GUEST, min_size=1, max_size=3),
    faults=_FAULTS,
    seed=st.integers(0, 2**16),
)
def test_n_singles_equal_one_batch(guests, faults, seed):
    singles = _run(guests, faults, seed, batched=False)
    batch = _run(guests, faults, seed, batched=True)
    estimates = (singles.pop("service_estimate_us"),
                 batch.pop("service_estimate_us"))
    assert singles == batch
    # Each frame is timed around its own dispatch in both shapes; the
    # elapsed values are differences of clock readings taken at different
    # absolute times, so the EWMA agrees to rounding, not bit for bit.
    for single_us, batch_us in zip(*estimates):
        assert math.isclose(single_us, batch_us, rel_tol=1e-9)
