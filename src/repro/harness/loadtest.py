"""Open-loop load experiment: command latency vs offered load.

Guests submit commands at Poisson arrival times from a synthetic trace
regardless of completion (open loop); the vTPM manager serves them through
a FIFO :class:`~repro.sim.engine.Resource`, exactly like the real daemon's
single dispatch thread.  As offered load approaches the manager's service
capacity, queueing delay dominates — the classic hockey-stick — and the
question is whether the access-control layer moves the knee.

This is Figure 5 of the reconstructed evaluation (an extension beyond the
core table set, exercising the event engine's process machinery).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.config import AccessMode
from repro.crypto.random_source import RandomSource
from repro.harness.builder import build_platform, fresh_timing_context
from repro.metrics.stats import summarize
from repro.metrics.tables import Table, pivot
from repro.obs import trace as obs_trace
from repro.sim.engine import Simulator
from repro.sim.timing import get_context
from repro.workloads.mixes import MIX_MEASUREMENT, CommandMix, GuestSession
from repro.workloads.traces import SyntheticTrace


def run_latency_under_load(
    offered_rates: Sequence[float] = (5_000, 15_000, 25_000, 32_000),
    guests: int = 4,
    duration_s: float = 0.35,
    mix: CommandMix = MIX_MEASUREMENT,
    seed: int = 97,
) -> Table:
    """Sweep offered load in both regimes; measure per-command sojourn time.

    Uses the discrete-event engine: one generator process per guest walks
    the trace, queueing on the manager resource; service time is the real
    virtual-time cost of executing the command through the monitored path.
    """
    points: List[tuple] = []  # (offered cmds/s, mode, mean us, p95 us)
    for mode in (AccessMode.BASELINE, AccessMode.IMPROVED):
        for rate in offered_rates:
            fresh_timing_context()
            platform = build_platform(mode, seed=seed, name=f"load-{mode.value}-{rate}")
            sessions = [
                GuestSession(
                    platform.add_guest(f"g{i:02d}"),
                    platform.rng.fork(f"sess{i}"),
                )
                for i in range(guests)
            ]
            # Mode-independent trace so both regimes see identical arrivals.
            trace = SyntheticTrace.poisson(
                RandomSource(f"load-trace-{seed}-{rate}".encode()),
                guests=guests,
                rate_per_guest_per_sec=rate / guests,
                duration_s=duration_s,
                mix=mix,
            )
            by_guest: Dict[int, List] = {i: [] for i in range(guests)}
            for entry in trace:
                by_guest[entry.guest_index].append(entry)

            sim = Simulator(clock=get_context().clock)
            manager_thread = sim.resource("vtpm-managerd")
            latencies: List[float] = []

            def guest_proc(session: GuestSession, entries):
                clock = sim.clock
                epoch = clock.now_us
                for entry in entries:
                    target = epoch + entry.time_us
                    if target > clock.now_us:
                        yield target - clock.now_us
                    submitted = clock.now_us
                    yield manager_thread.acquire()
                    # Service: the command's real virtual-time cost accrues
                    # on the shared clock while we hold the manager.
                    with obs_trace.span(
                        "loadtest.op", op=entry.operation,
                        guest=entry.guest_index,
                    ):
                        session.run_operation(entry.operation)
                    manager_thread.release()
                    latencies.append(clock.now_us - submitted)

            for i, session in enumerate(sessions):
                sim.spawn(guest_proc(session, by_guest[i]), name=f"g{i}")
            sim.run()
            latency = summarize(latencies)
            points.append((rate, mode.value, latency.mean, latency.p95))
    return Table(
        "Figure 5 — command latency vs offered load (open loop)",
        [
            "offered (cmds/s)",
            "baseline mean (us)",
            "improved mean (us)",
            "baseline p95 (us)",
            "improved p95 (us)",
        ],
        pivot(points),
    )
