"""End-to-end observability: trace spans, counters, sinks.

The pipeline (frontend → ring → backend → manager → monitor → engine) is
instrumented with :func:`span` / :func:`inc` hook sites.  Both are
ambient-installed like the fault injector: with nothing installed every
hook is a single ``None`` check, charges no virtual time, and touches no
simulation state — the integration suite asserts that traced and
untraced runs produce byte-identical state digests and audit chains.

Typical use::

    from repro import obs

    sink = obs.InMemorySink()
    with obs.tracer_scope(obs.Tracer(sink)), \\
         obs.registry_scope(obs.CounterRegistry()) as counters:
        guest.client.pcr_read(10)
    sink.validate()                     # structural oracle
    print(counters.exposition())        # text exposition format
"""

from repro.obs.counters import (
    CounterHandle,
    CounterRegistry,
    counter,
    current_registry,
    inc,
    install_registry,
    registry_scope,
    set_gauge,
)
from repro.obs.sinks import (
    CountingSink,
    InMemorySink,
    JsonlSink,
    format_span_tree,
    load_jsonl,
    validate_tree_dict,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    current_tracer,
    install_tracer,
    span,
    span_event,
    tracer_scope,
    validate_span_tree,
)

__all__ = [
    "CounterHandle",
    "CounterRegistry",
    "CountingSink",
    "InMemorySink",
    "JsonlSink",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "counter",
    "current_registry",
    "current_tracer",
    "format_span_tree",
    "inc",
    "install_registry",
    "install_tracer",
    "load_jsonl",
    "registry_scope",
    "set_gauge",
    "span",
    "span_event",
    "tracer_scope",
    "validate_span_tree",
    "validate_tree_dict",
]
