"""Wall-clock profiling of the full vTPM command pipeline.

Unlike everything else in the harness, this module measures *host* time:
it drives real command frames through the complete stack
(``frontend → ring → backend → manager → monitor → instance → executor``)
and reports how many commands per second the simulator itself sustains.
The deterministic virtual-time results are unaffected by host speed; this
rail exists so regressions in the harness's own hot path are caught (the
ROADMAP's "as fast as the hardware allows").

``benchmarks/bench_wallclock_pipeline.py`` and ``python -m repro profile``
are both thin wrappers around :func:`profile_pipeline`.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import AccessMode
from repro.harness.builder import build_platform, fresh_timing_context
from repro.harness.scenario import observed
from repro.obs import trace as obs_trace
from repro.sim.timing import get_context
from repro.tpm import marshal
from repro.tpm.constants import TPM_SUCCESS
from repro.util.errors import ReproError


@dataclass
class PipelineProfile:
    """One wall-clock measurement of the command pipeline."""

    mode: str
    commands: int
    batch_size: int
    wall_seconds: float
    virtual_us: float
    cache_hits: int
    cache_misses: int
    audit_records: int
    chain_ok: Optional[bool]

    @property
    def ops_per_sec(self) -> float:
        return self.commands / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def wall_us_per_cmd(self) -> float:
        return self.wall_seconds * 1e6 / self.commands if self.commands else 0.0

    @property
    def virtual_us_per_cmd(self) -> float:
        return self.virtual_us / self.commands if self.commands else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict:
        return {
            "mode": self.mode,
            "commands": self.commands,
            "batch_size": self.batch_size,
            "wall_seconds": round(self.wall_seconds, 6),
            "ops_per_sec": round(self.ops_per_sec, 1),
            "wall_us_per_cmd": round(self.wall_us_per_cmd, 3),
            "virtual_us_per_cmd": round(self.virtual_us_per_cmd, 3),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "audit_records": self.audit_records,
            "chain_ok": self.chain_ok,
        }

    def summary_lines(self) -> List[str]:
        return [
            f"mode={self.mode} batch={self.batch_size} commands={self.commands}",
            f"  wall-clock     : {self.wall_seconds:.3f} s "
            f"({self.ops_per_sec:,.0f} cmds/s, {self.wall_us_per_cmd:.1f} us/cmd)",
            f"  virtual time   : {self.virtual_us_per_cmd:.2f} us/cmd",
            f"  authz cache    : {self.cache_hits} hits / {self.cache_misses} "
            f"misses ({self.cache_hit_rate:.1%} hit rate)",
            f"  audit          : {self.audit_records} records, "
            f"chain_ok={self.chain_ok}",
        ]


def profile_pipeline(
    commands: int = 10_000,
    batch_size: int = 1,
    mode: AccessMode = AccessMode.IMPROVED,
    seed: int = 2010,
    verify_audit: bool = True,
    tracer: Optional["obs_trace.Tracer"] = None,
    supervised: bool = False,
) -> PipelineProfile:
    """Drive ``commands`` PCRRead frames through the full split-driver stack.

    ``batch_size`` > 1 uses the batched ring submission path (one
    event-channel kick per batch); 1 uses the classic one-frame protocol.
    ``tracer`` (if given) is installed for the timed loop only, so the
    measured ops/s includes span-collection overhead — that is how the
    pipeline benchmark records its traced-vs-untraced delta.
    ``supervised`` puts the back-end under the resilience supervisor, so
    the measured ops/s includes the health/breaker/admission hooks — the
    benchmark records that delta too (and asserts the hooks charge zero
    virtual time on the fault-free path).
    """
    if commands <= 0:
        raise ReproError(f"need a positive command count, got {commands}")
    fresh_timing_context()
    platform = build_platform(mode, seed=seed, name="profile")
    guest = platform.add_guest("bench-guest")
    if supervised:
        platform.enable_supervision()
    wire = marshal.pcr_read_wire(10)
    # Sanity: the frame must round-trip successfully before we time anything.
    first = marshal.parse_response(guest.frontend.transport(wire))
    if first.return_code != TPM_SUCCESS:
        raise ReproError(
            f"pipeline warm-up failed with TPM code {first.return_code:#x}"
        )

    clock = get_context().clock
    virtual_start = clock.now_us
    scope = observed(tracer)
    # A cycle collection landing inside one variant's timed loop but not
    # another's would skew the traced/supervised overhead ratios, so the
    # collector is paused (never triggered, still re-enabled) while the
    # clock runs.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with scope:
            if batch_size <= 1:
                transport = guest.frontend.transport
                # repro: allow[virtual-time] -- wall-clock profiler measures host time by design
                start = time.perf_counter()
                for _ in range(commands):
                    transport(wire)
                # repro: allow[virtual-time] -- wall-clock profiler measures host time by design
                wall = time.perf_counter() - start
            else:
                transport_batch = getattr(
                    guest.frontend, "transport_batch", None
                )
                if transport_batch is None:
                    raise ReproError("this build has no batched transport")
                full, rest = divmod(commands, batch_size)
                batch = [wire] * batch_size
                tail = [wire] * rest
                # repro: allow[virtual-time] -- wall-clock profiler measures host time by design
                start = time.perf_counter()
                for _ in range(full):
                    transport_batch(batch)
                if tail:
                    transport_batch(tail)
                # repro: allow[virtual-time] -- wall-clock profiler measures host time by design
                wall = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    virtual_us = clock.now_us - virtual_start

    monitor = platform.monitor
    chain_ok: Optional[bool] = None
    if mode is AccessMode.IMPROVED and verify_audit:
        chain_ok = platform.audit.verify_chain()
    return PipelineProfile(
        mode=mode.value,
        commands=commands,
        batch_size=batch_size,
        wall_seconds=wall,
        virtual_us=virtual_us,
        cache_hits=getattr(monitor, "cache_hits", 0),
        cache_misses=getattr(monitor, "cache_misses", 0),
        audit_records=len(platform.audit),
        chain_ok=chain_ok,
    )
