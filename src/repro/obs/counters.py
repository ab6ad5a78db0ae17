"""Process-wide counter/gauge registry with a text exposition format.

Counters answer the questions the span trees are too granular for: how
many commands of each ordinal class ran, the allow/deny split, the
decision-cache hit ratio, batch sizes, injected faults and retries.
Hook sites call the module-level :func:`inc` / :func:`set_gauge`; with no
registry installed those are a single ``None`` check, so the disabled
path costs nothing and can never perturb the simulation.

Hot sites use **counter handles** instead: a :class:`CounterHandle` is
created once at module-import time with :func:`counter` and pre-resolves
its ``(name, labels)`` series key.  Its :meth:`~CounterHandle.inc` is a
global read, two identity compares and a list-cell add — no kwargs dict,
no tuple building, no hashing — yet it follows registry installation and
timing-context epochs exactly like the named path (a stale-epoch write
still raises).  Counts are stored in shared one-element list cells, so
handle writes and named writes to the same series land in one place.

A registry is **bound to the timing context it first records under**.
``fresh_timing_context()`` starts a new measurement epoch (clock back to
zero), and counts from two epochs must never mix into one total — so a
cross-context write raises :class:`~repro.util.errors.ReproError`
instead.  ``reset()`` clears the counts *and* the binding.

The exposition format is the Prometheus text convention (one
``name{label="value",…} count`` line per series), minus the type
metadata — enough for offline diffing and for tests to assert on.
Series are emitted in deterministic sorted order: ascending by metric
name, then by the sorted label tuple — so all label sets of one metric
are contiguous and two runs with the same counts produce byte-identical
exposition text.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim import timing as _timing
from repro.sim.timing import get_context
from repro.util.errors import ReproError

_LabelKey = Tuple[Tuple[str, str], ...]


def _series_key(name: str, labels: Dict[str, object]) -> Tuple[str, _LabelKey]:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_series(name: str, labels: _LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class CounterRegistry:
    """Monotonic counters plus last-value gauges, keyed by (name, labels).

    Counter values live in one-element list *cells* so pre-resolved
    handles can increment them without re-hashing the series key.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, _LabelKey], List[float]] = {}
        self._gauges: Dict[Tuple[str, _LabelKey], float] = {}
        self._ctx = None
        # Identity token handles compare to detect reset() cheaply; a new
        # object per epoch means a stale handle always misses and re-resolves.
        self._epoch_token = object()

    # -- context binding ---------------------------------------------------------

    def _check_context(self) -> None:
        ctx = get_context()
        if self._ctx is None:
            self._ctx = ctx
        elif ctx is not self._ctx:
            raise ReproError(
                "CounterRegistry is bound to an earlier timing context; "
                "counts recorded across a sim-context reset would mix "
                "measurement epochs — call reset() (or use a fresh registry) "
                "after fresh_timing_context()"
            )

    def reset(self) -> None:
        """Drop all series and the context binding (new measurement epoch).

        Cells are discarded wholesale; any handle bound to them re-resolves
        on its next increment (the handle's epoch check fails closed).
        """
        self._counters.clear()
        self._gauges.clear()
        self._ctx = None
        self._epoch_token = object()

    def _cell(self, name: str, label_key: _LabelKey) -> List[float]:
        """The (shared, mutable) cell for one counter series."""
        key = (name, label_key)
        cell = self._counters.get(key)
        if cell is None:
            cell = self._counters[key] = [0.0]
        return cell

    # -- recording ---------------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ReproError(f"counter {name!r} cannot decrease (by {amount})")
        self._check_context()
        key = _series_key(name, labels) if labels else (name, ())
        cell = self._counters.get(key)
        if cell is None:
            self._counters[key] = [amount]
        else:
            cell[0] += amount

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self._check_context()
        self._gauges[_series_key(name, labels)] = float(value)

    # -- queries -----------------------------------------------------------------

    def value(self, name: str, **labels) -> float:
        cell = self._counters.get(_series_key(name, labels))
        return cell[0] if cell is not None else 0.0

    def gauge(self, name: str, **labels) -> Optional[float]:
        return self._gauges.get(_series_key(name, labels))

    def total(self, name: str) -> float:
        """Sum of a counter across all label combinations."""
        return sum(
            cell[0] for (n, _), cell in self._counters.items() if n == name
        )

    def series(self) -> Dict[str, float]:
        """Flat {rendered series: value} view over counters and gauges."""
        out = {
            _render_series(name, labels): cell[0]
            for (name, labels), cell in self._counters.items()
        }
        out.update(
            {
                _render_series(name, labels): value
                for (name, labels), value in self._gauges.items()
            }
        )
        return out

    # -- exposition ----------------------------------------------------------------

    def exposition(self) -> str:
        """The text exposition: deterministically sorted ``series value``
        lines — ascending by metric name, then by label tuple, counters
        and gauges merged — so all series of one metric are contiguous
        and the output is stable across runs."""
        entries = [
            (name, labels, cell[0])
            for (name, labels), cell in self._counters.items()
        ]
        entries.extend(
            (name, labels, value)
            for (name, labels), value in self._gauges.items()
        )
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        lines = []
        for name, labels, value in entries:
            rendered = _render_series(name, labels)
            if value == int(value):
                lines.append(f"{rendered} {int(value)}")
            else:
                lines.append(f"{rendered} {value:.6g}")
        return "\n".join(lines) + ("\n" if lines else "")


# -- ambient installation -------------------------------------------------------------

_current_registry: Optional[CounterRegistry] = None


def install_registry(
    registry: Optional[CounterRegistry],
) -> Optional[CounterRegistry]:
    """Install (or clear, with ``None``) the ambient registry."""
    global _current_registry
    previous = _current_registry
    _current_registry = registry
    return previous


def current_registry() -> Optional[CounterRegistry]:
    return _current_registry


@contextlib.contextmanager
def registry_scope(registry: CounterRegistry) -> Iterator[CounterRegistry]:
    """``with registry_scope(reg):`` — counts land only inside the block."""
    previous = install_registry(registry)
    try:
        yield registry
    finally:
        install_registry(previous)


def inc(name: str, amount: float = 1.0, **labels) -> None:
    """Hook entry point: count one event; no-op when no registry is on."""
    registry = _current_registry
    if registry is not None:
        registry.inc(name, amount, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    """Hook entry point: record a last-value gauge; no-op when off."""
    registry = _current_registry
    if registry is not None:
        registry.set_gauge(name, value, **labels)


class CounterHandle:
    """A pre-resolved counter series: the hot-path write primitive.

    Create once at module init with :func:`counter`; call
    :meth:`inc`/:meth:`add` per event.  The handle caches the registry it
    last resolved against plus that registry's bound timing context; when
    either changes (a new ``registry_scope``, a ``reset()``, or a
    ``fresh_timing_context()``) the cached cell is re-resolved through the
    full checked path, so epoch violations still raise exactly as they do
    for :meth:`CounterRegistry.inc`.
    """

    __slots__ = (
        "name", "label_key", "_registry", "_epoch", "_registry_ctx", "_cell",
    )

    def __init__(self, name: str, label_key: _LabelKey = ()) -> None:
        self.name = name
        self.label_key = label_key
        self._registry: Optional[CounterRegistry] = None
        self._epoch = None
        self._registry_ctx = None
        self._cell: Optional[List[float]] = None

    def _rebind(self, registry: CounterRegistry,
                amount: float) -> List[float]:
        if amount < 0:
            raise ReproError(
                f"counter {self.name!r} cannot decrease (by {amount})"
            )
        registry._check_context()
        cell = registry._cell(self.name, self.label_key)
        self._registry = registry
        self._epoch = registry._epoch_token
        self._registry_ctx = registry._ctx
        self._cell = cell
        return cell

    def inc(self, amount: float = 1.0) -> None:
        """Count ``amount`` events; a ``None`` check when counting is off."""
        registry = _current_registry
        if registry is None:
            return
        if (
            registry is not self._registry
            or registry._epoch_token is not self._epoch
            or _timing._current_context is not self._registry_ctx
        ):
            cell = self._rebind(registry, amount)
        else:
            cell = self._cell
        cell[0] += amount

    #: ``add(n)`` — same operation, spelled for bulk increments
    add = inc


def counter(name: str, **labels) -> CounterHandle:
    """Build a :class:`CounterHandle` for ``name`` with fixed ``labels``.

    Intended to be called once per site at module-import time; the
    returned handle is then valid for the life of the process across any
    number of registries and timing contexts.
    """
    return CounterHandle(
        name, tuple(sorted((k, str(v)) for k, v in labels.items()))
    )
