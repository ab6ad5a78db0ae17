"""Hierarchical trace spans over the command pipeline.

A :class:`Span` covers one stage of a command's life (parse → authz →
engine → serialize → ring/audit) and carries **virtual microseconds**
only, read from the ambient :class:`~repro.sim.timing.TimingContext`
clock, so span durations add up exactly to the cost-model charges made
inside them and every trace is a pure function of the seed.  The host
clock is never read here: wall time is measured from outside the
package (``bench/run.py --trace 1`` per layer, ``benchmarks/`` end to
end), where the observer cannot inflate it.

Instrumented code calls :func:`span` at named sites.  The contract is the
same as the fault injector's :func:`~repro.faults.injector.fire`: with no
tracer installed the call is one module-global ``None`` check returning a
shared no-op span, charges nothing to the virtual clock, and touches no
simulation state — so tracing can never alter behaviour, enabled or not.
Spans only ever *read* the clock; they never advance it.

Hot call sites go one step further and use the **guarded-span pattern**::

    tracer = obs_trace._current_tracer
    if tracer is None:
        ...plain body...
    else:
        with tracer.start_span("site", {"key": value}):
            ...body...

so the disabled path never even builds the attribute dict.  Attribute
dicts handed to :meth:`Tracer.start_span` are captured **lazily** — the
span stores the reference, copies nothing, and materializes a dict only
if :meth:`Span.set` is called later.

A :class:`Tracer` keeps the open-span stack.  When a root span closes,
the finished tree is emitted to the tracer's sink (see
:mod:`repro.obs.sinks`).  Because the simulator is single-threaded and
the split driver is synchronous, the stack nesting *is* the causal
nesting: ``frontend.command`` encloses ``ring.send`` encloses
``manager.dispatch`` encloses ``authz``/``engine``/``serialize``.

Two cost features keep tracing near-free:

* **span pooling** — when the sink does not retain emitted trees (its
  ``retains`` attribute is ``False``, as for the counting and JSONL
  sinks), every span of a finished tree is recycled into a free list and
  reused — including its child list and event list objects — so the
  steady state allocates nothing per command;
* **deterministic head sampling** — ``Tracer(sink, sample_rate=N)``
  records only roots whose zero-based index ``i`` satisfies
  ``(i - sample_seed) % N == 0``.  The schedule is a pure function of
  the root count and the seed: no RNG, no clock, so two same-seed runs
  sample the identical trees (replay-identical) and virtual time is not
  perturbed.  While a root is suppressed the tracer hides itself from
  the ambient slot, so nested guarded sites take their tracer-is-None
  path — a skipped tree costs one sampling check, not one call per span.
  Counters are unaffected by sampling — they stay exact.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional

from repro.sim import timing as _timing
from repro.sim.timing import get_context
from repro.util.errors import ReproError

#: recycled spans kept per tracer; trees are ~10 spans, so this is ample
_POOL_CAP = 1024


class Span:
    """One timed stage; a context manager that closes itself on exit."""

    __slots__ = (
        "name", "attrs", "start_virtual_us", "end_virtual_us", "children",
        "events", "_tracer", "_ctx",
    )

    def __init__(self, name: str, attrs: Optional[Dict] = None,
                 tracer: Optional["Tracer"] = None) -> None:
        self.name = name
        # Lazy capture: the caller's dict is stored by reference (hot sites
        # pass a fresh literal); None means "no attributes yet".
        self.attrs: Optional[Dict] = attrs
        self._ctx = get_context()
        self.start_virtual_us = self._ctx.clock._now_us
        self.end_virtual_us: Optional[float] = None
        self.children: List["Span"] = []
        self.events: List[Dict] = []
        self._tracer = tracer

    # -- recording ---------------------------------------------------------------

    def set(self, key: str, value) -> "Span":
        """Attach an attribute discovered mid-span (e.g. cache hit/miss)."""
        if self.attrs is None:
            self.attrs = {key: value}
        else:
            self.attrs[key] = value
        return self

    def add_event(self, name: str, **attrs) -> None:
        """A point-in-time annotation (e.g. an injected fault)."""
        self.events.append(
            {"name": name, "t_us": get_context().clock.now_us, **attrs}
        )

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._tracer is not None:
            self._tracer._finish(self)

    @property
    def closed(self) -> bool:
        return self.end_virtual_us is not None

    @property
    def duration_virtual_us(self) -> float:
        if self.end_virtual_us is None:
            raise ReproError(f"span {self.name!r} is still open")
        return self.end_virtual_us - self.start_virtual_us

    # -- views -------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-friendly nested view (the JSONL sink writes these)."""
        out: Dict = {
            "name": self.name,
            "virtual_us": [self.start_virtual_us, self.end_virtual_us],
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.events:
            out["events"] = list(self.events)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every descendant (or self) with the given name."""
        return [s for s in self.walk() if s.name == name]

    def __repr__(self) -> str:
        state = (
            f"{self.duration_virtual_us:.2f}us" if self.closed else "open"
        )
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class _NullSpan:
    """The shared no-op span returned when tracing is off.

    Every method is deliberately trivial: the disabled hot path must cost
    one attribute lookup and a no-op context-manager round trip, nothing
    more — and it must never touch the clock or any simulation state.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, key: str, value) -> "_NullSpan":
        return self

    def add_event(self, name: str, **attrs) -> None:
        return None


NULL_SPAN = _NullSpan()


class _SkipScope:
    """Returned for a sampled-out root span.

    While a root is suppressed the tracer **hides itself** from the
    ambient slot (``_current_tracer`` becomes ``None`` for the root's
    dynamic extent), so every nested guarded site takes its plain
    tracer-is-None path — a skipped tree costs one sampling check at the
    root, not one call per span.  ``__exit__`` reinstalls the tracer.
    One shared instance per tracer; skipped roots cannot nest (nested
    sites never see the tracer while it is hidden).
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __enter__(self) -> "_SkipScope":
        return self

    def __exit__(self, *exc_info) -> None:
        global _current_tracer
        tracer = self._tracer
        tracer._skipping = False
        if tracer._hid:
            tracer._hid = False
            _current_tracer = tracer

    def set(self, key: str, value) -> "_SkipScope":
        return self

    def add_event(self, name: str, **attrs) -> None:
        return None


class Tracer:
    """Owns the open-span stack and emits finished root trees to a sink.

    ``sample_rate=N`` keeps 1-in-N root trees (deterministic head
    sampling; ``sample_seed`` rotates which residue class is kept).
    Suppressed roots hide the tracer for their dynamic extent, and —
    when the sink's ``retains`` attribute is false — emitted spans are
    pooled and reused, child lists and all.
    """

    def __init__(self, sink=None, sample_rate: int = 1,
                 sample_seed: int = 0) -> None:
        if sink is None:
            from repro.obs.sinks import InMemorySink

            sink = InMemorySink()
        self.sink = sink
        self.sample_rate = int(sample_rate)
        if self.sample_rate < 1:
            raise ReproError(f"sample_rate must be >= 1, got {sample_rate}")
        self.sample_seed = int(sample_seed)
        self._retains = bool(getattr(sink, "retains", True))
        self._stack: List[Span] = []
        self._pool: List[Span] = []
        self._skipping = False
        self._hid = False
        self._root_claimed = False
        self._skip_scope = _SkipScope(self)
        self.spans_started = 0
        #: roots *seen* (sampled or not) — the sampling schedule's input
        self.roots_seen = 0
        self.roots_emitted = 0
        self.roots_skipped = 0

    def keep_root(self) -> bool:
        """Consume the next root index; ``True`` if that root is recorded.

        The root-site fast path: a known-root call site asks for the
        sampling verdict *before* building its attribute dict, and on
        ``False`` runs its body with the ambient tracer hidden by hand
        (plain try/finally, no span machinery at all)::

            if tracer._stack or tracer.keep_root():
                with tracer.start_span("site", {...}): ...body...
            else:
                obs_trace._current_tracer = None
                try: ...body...
                finally: obs_trace._current_tracer = tracer

        On ``True`` the verdict is remembered, so the immediately
        following ``start_span`` does not re-sample (the root is not
        double-counted).
        """
        index = self.roots_seen
        self.roots_seen = index + 1
        rate = self.sample_rate
        if rate <= 1 or not (index - self.sample_seed) % rate:
            self._root_claimed = True
            return True
        self.roots_skipped += 1
        return False

    def start_span(self, name: str, attrs: Optional[Dict] = None) -> Span:
        if self._skipping:
            # Direct call on a captured tracer inside a suppressed root
            # (ambient sites never get here: the tracer is hidden).
            return NULL_SPAN
        stack = self._stack
        if not stack:
            if self._root_claimed:
                self._root_claimed = False  # keep_root() already sampled
            else:
                index = self.roots_seen
                self.roots_seen = index + 1
                rate = self.sample_rate
                if rate > 1 and (index - self.sample_seed) % rate:
                    global _current_tracer
                    self.roots_skipped += 1
                    self._skipping = True
                    if _current_tracer is self:
                        self._hid = True
                        _current_tracer = None
                    return self._skip_scope
        pool = self._pool
        if pool:
            span = pool.pop()
            span.name = name
            span.attrs = attrs
            ctx = _timing._current_context
            span._ctx = ctx
            span.start_virtual_us = ctx.clock._now_us
            span.end_virtual_us = None
        else:
            span = Span(name, attrs, tracer=self)
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        self.spans_started += 1
        return span

    def _finish(self, span: Span) -> None:
        stack = self._stack
        if not stack or stack[-1] is not span:
            innermost = stack[-1].name if stack else "<none>"
            raise ReproError(
                f"mismatched span nesting: closing {span.name!r} but the "
                f"innermost open span is {innermost!r}"
            )
        stack.pop()
        ctx = span._ctx
        if _timing._current_context is not ctx:
            raise ReproError(
                f"span {span.name!r} crosses a timing-context reset; its "
                "virtual interval would mix measurement epochs — close all "
                "spans before calling fresh_timing_context()"
            )
        span.end_virtual_us = ctx.clock._now_us
        if not stack:
            self.roots_emitted += 1
            self.sink.emit(span)
            if not self._retains:
                self._recycle(span)

    def _recycle(self, root: Span) -> None:
        """Return every span of a finished, emitted tree to the free list.

        Only called for non-retaining sinks, so nothing holds a reference
        to the tree anymore.  Child/event list objects are kept on their
        span and cleared, so reuse allocates nothing.
        """
        pool = self._pool
        todo = [root]
        while todo:
            span = todo.pop()
            children = span.children
            if children:
                todo.extend(children)
                children.clear()
            if span.events:
                span.events.clear()
            span.attrs = None
            span._ctx = None
            if len(pool) < _POOL_CAP:
                pool.append(span)

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None


# -- ambient installation (mirrors faults.injector) ---------------------------------

_current_tracer: Optional[Tracer] = None


def install_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or clear, with ``None``) the ambient tracer."""
    global _current_tracer
    previous = _current_tracer
    _current_tracer = tracer
    return previous


def current_tracer() -> Optional[Tracer]:
    return _current_tracer


@contextlib.contextmanager
def tracer_scope(tracer: Tracer) -> Iterator[Tracer]:
    """``with tracer_scope(t):`` — spans are collected only inside."""
    previous = install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)


def span(name: str, **attrs):
    """Open a span at a hook site; a shared no-op when tracing is off."""
    tracer = _current_tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.start_span(name, attrs or None)


def span_event(name: str, **attrs) -> None:
    """Annotate the innermost open span (no-op when tracing is off)."""
    tracer = _current_tracer
    if tracer is None:
        return
    current = tracer.current_span()
    if current is not None:
        current.add_event(name, **attrs)


def validate_span_tree(root: Span) -> None:
    """Structural oracle: raises :class:`ReproError` on a malformed tree.

    Checks, for every span in the tree: it is closed, its interval is
    non-negative, and every child's interval nests inside its parent's.
    Orphans are impossible by construction (spans attach to the stack top
    at start), but a tree handed across a serialization boundary is
    re-checked here all the same.
    """
    for parent in root.walk():
        if not parent.closed:
            raise ReproError(f"span {parent.name!r} was never closed")
        if parent.end_virtual_us < parent.start_virtual_us:
            raise ReproError(f"span {parent.name!r} ends before it starts")
        for child in parent.children:
            if not child.closed:
                raise ReproError(f"span {child.name!r} was never closed")
            if (child.start_virtual_us < parent.start_virtual_us
                    or child.end_virtual_us > parent.end_virtual_us):
                raise ReproError(
                    f"span {child.name!r} "
                    f"[{child.start_virtual_us}, {child.end_virtual_us}] is "
                    f"not nested in parent {parent.name!r} "
                    f"[{parent.start_virtual_us}, {parent.end_virtual_us}]"
                )
