"""Outside-in layer timing for the traced pass.

Nothing under ``src/`` is instrumented for the benchmark.  Instead the
traced pass puts a timing wrapper on the public entry point of each
layer's *live objects* (an instance attribute shadowing the method), and
re-registers the ring's back-end and admission handlers through the
ring's own registration calls.  Each wrapper records, per layer, calls,
wall nanoseconds and virtual time, and hands its whole duration to the
enclosing wrapper, so every layer reports its *self* time: its duration
minus the part of it its callees' wrappers covered.

Virtual time is accumulated in exact integers (virtual microseconds
scaled by 2**60; every clock value the simulator produces is a multiple
of that unit), so the layers' self virtual times sum exactly to the
virtual time that elapsed over the window.

The entry-point table tolerates a program that no longer has an entry
point: the layer then reports no calls, a warning is printed, and its
time falls to the layer that calls it.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Callable, List, Optional

#: every layer the traced pass reports, outermost first
LAYERS = (
    "tpm.client",
    "xen.ring",
    "resilience.admission",
    "vtpm.backend",
    "vtpm.manager",
    "core.monitor",
    "core.identity",
    "core.policy",
    "tpm.device",
    "vtpm.serialize",
    "core.audit",
)

#: virtual microseconds -> exact integer units
VIRTUAL_SCALE = float(1 << 60)

#: (layer, the rig's live objects, entry-point method names) wrapped as
#: instance attributes on each object that has them
ENTRY_POINTS = (
    ("xen.ring",
     lambda p: [h.frontend.ring for h in p.guests.values()],
     ("send_command", "send_batch")),
    ("vtpm.manager", lambda p: [p.manager], ("handle_command", "handle_batch")),
    ("core.monitor", lambda p: [p.monitor], ("authorize",)),
    ("core.identity", lambda p: [p.identities], ("verify_current",)),
    ("core.policy", lambda p: [p.policy], ("decide", "add_rule", "revoke_rule")),
    ("tpm.device",
     lambda p: [i.device for i in p.manager.instances()], ("execute",)),
    ("vtpm.serialize", lambda p: p.manager.instances(), ("sync_to_memory",)),
)


def virtual_units(now_us: float) -> int:
    """A virtual clock reading as an exact integer."""
    return int(now_us * VIRTUAL_SCALE)


class LayerTracer:
    """Per-layer calls, self wall time and self virtual time."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self._index = {layer: i for i, layer in enumerate(LAYERS)}
        self.calls = [0] * len(LAYERS)
        self.wall_ns = [0] * len(LAYERS)
        self.virtual = [0] * len(LAYERS)
        #: one [child wall ns, child virtual units] frame per open call,
        #: above a root frame that collects the outermost calls
        self._stack = [[0, 0]]

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as one call of ``layer``."""
        i = self._index[layer]
        stack, calls = self._stack, self.calls
        wall, virtual = self.wall_ns, self.virtual
        clock = self._clock
        perf = time.perf_counter_ns
        scale = VIRTUAL_SCALE

        def timed(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            v0 = int(clock.now_us * scale)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                v1 = int(clock.now_us * scale)
                stack.pop()
                dt = t1 - t0
                dv = v1 - v0
                calls[i] += 1
                wall[i] += dt - frame[0]
                virtual[i] += dv - frame[1]
                parent = stack[-1]
                parent[0] += dt
                parent[1] += dv

        return timed

    def report(self) -> dict:
        """``{layer: [calls, self wall ns, self virtual units]}``."""
        return {
            layer: [self.calls[i], self.wall_ns[i], self.virtual[i]]
            for i, layer in enumerate(LAYERS)
        }


def calibrate_wrap_cost(clock, rounds: int = 9, calls: int = 20_000) -> float:
    """Median wall microseconds one empty wrapper adds to a call."""
    calibration = LayerTracer(clock)

    def noop():
        return None

    wrapped = calibration.wrap(LAYERS[0], noop)
    perf = time.perf_counter_ns
    samples = []
    for _ in range(rounds):
        t0 = perf()
        for _ in range(calls):
            noop()
        t1 = perf()
        for _ in range(calls):
            wrapped()
        t2 = perf()
        samples.append(((t2 - t1) - (t1 - t0)) / calls / 1000.0)
    return statistics.median(samples)


def attach(rig, tracer: Optional[LayerTracer] = None) -> List[str]:
    """Prepare ``rig`` for a pass; returns warnings about missing layers.

    Both passes re-register every ring's back-end handlers (and, under
    supervision, its admission hooks) through the ring's registration
    calls, so their set-up is identical call for call; only a traced pass
    registers wrapped callables and wraps the remaining entry points.
    """
    wrap = tracer.wrap if tracer is not None else (lambda _layer, fn: fn)
    platform = rig.platform
    supervisor = platform.supervisor
    found = {layer: 0 for layer in LAYERS}
    found["tpm.client"] = found["core.audit"] = 1  # wrapped by the pass

    for handle in platform.guests.values():
        ring, backend = handle.frontend.ring, handle.backend
        forward = getattr(backend, "_forward", None)
        connect = getattr(ring, "connect_backend", None)
        if forward is not None and connect is not None:
            batch = getattr(backend, "_forward_batch", None)
            connect(
                wrap("vtpm.backend", forward),
                None if batch is None else wrap("vtpm.backend", batch),
            )
            found["vtpm.backend"] += 1
        if supervisor is None:
            continue
        admit = getattr(supervisor, "admit", None)
        admit_one = getattr(supervisor, "admit_one", None)
        set_admission = getattr(ring, "set_admission", None)
        if admit is not None and set_admission is not None:
            set_admission(
                wrap("resilience.admission", functools.partial(admit, backend)),
                None if admit_one is None else wrap(
                    "resilience.admission",
                    functools.partial(admit_one, backend),
                ),
            )
            found["resilience.admission"] += 1

    if tracer is None:
        return []
    for layer, objects, names in ENTRY_POINTS:
        try:
            live = list(objects(platform))
        except AttributeError:
            live = []
        for obj in live:
            for name in names:
                method = getattr(obj, name, None)
                if method is None:
                    continue
                try:
                    setattr(obj, name, tracer.wrap(layer, method))
                except AttributeError:
                    continue
                found[layer] += 1
    unsupervised = {"resilience.admission"} if supervisor is None else set()
    return [
        f"layer {layer}: no entry point found; it reports 0 calls and its "
        f"time falls to its caller"
        for layer, count in found.items()
        if count == 0 and layer not in unsupervised
    ]
