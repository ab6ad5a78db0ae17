"""Where finished span trees go.

* :class:`InMemorySink` — keeps every root tree; what tests and the CLI
  tree renderer consume.
* :class:`JsonlSink` — one JSON document per root tree, appended to a
  file-like or path; the offline-analysis format
  (``python -m repro chaos --trace out.jsonl``).  Lines are buffered and
  written in batches; call :meth:`~JsonlSink.flush` before closing the
  underlying stream.
* :class:`CountingSink` — discards trees, keeps totals; used when the
  benchmark wants tracing's *cost* without its memory footprint.

Each sink declares whether it **retains** emitted trees via its
``retains`` class attribute.  A non-retaining sink (``retains = False``)
promises to be done with the tree the moment ``emit`` returns, which lets
the :class:`~repro.obs.trace.Tracer` recycle every span of the tree into
its pool — the steady state then allocates nothing per command.
"""

from __future__ import annotations

import json
from typing import List, Optional, TextIO

from repro.obs.trace import Span, validate_span_tree
from repro.util.errors import ReproError


class InMemorySink:
    """Collects root spans in order; the default sink for tests."""

    #: emitted trees are kept — the tracer must not recycle them
    retains = True

    def __init__(self) -> None:
        self.roots: List[Span] = []

    def emit(self, root: Span) -> None:
        self.roots.append(root)

    def validate(self) -> int:
        """Structurally check every collected tree; returns span count."""
        total = 0
        for root in self.roots:
            validate_span_tree(root)
            total += sum(1 for _ in root.walk())
        return total

    def spans_named(self, name: str) -> List[Span]:
        found: List[Span] = []
        for root in self.roots:
            found.extend(root.find(name))
        return found

    def __len__(self) -> int:
        return len(self.roots)


class JsonlSink:
    """Writes each root tree as one JSON line (the offline trace format).

    Serialized lines accumulate in a buffer and are written to the stream
    every ``flush_every`` trees; :meth:`flush` drains the remainder.  The
    tree is serialized inside ``emit`` (the spans are pooled and will be
    reused), so only the encoded strings are retained.
    """

    retains = False

    def __init__(self, stream: TextIO, flush_every: int = 64) -> None:
        self._stream = stream
        self._flush_every = max(1, int(flush_every))
        self._buffer: List[str] = []
        self.roots_written = 0

    def emit(self, root: Span) -> None:
        buffer = self._buffer
        buffer.append(json.dumps(root.to_dict(), separators=(",", ":")))
        self.roots_written += 1
        if len(buffer) >= self._flush_every:
            self.flush()

    def flush(self) -> None:
        """Write all buffered lines; call before closing the stream."""
        buffer = self._buffer
        if buffer:
            self._stream.write("\n".join(buffer) + "\n")
            buffer.clear()


class CountingSink:
    """Counts emitted trees and spans without retaining them."""

    retains = False

    def __init__(self) -> None:
        self.roots = 0
        self.spans = 0

    def emit(self, root: Span) -> None:
        self.roots += 1
        count = 0
        todo = [root]
        while todo:
            span = todo.pop()
            count += 1
            if span.children:
                todo.extend(span.children)
        self.spans += count


def load_jsonl(text: str) -> List[dict]:
    """Parse a JSONL trace back into root-tree dicts."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def validate_tree_dict(node: dict, parent: Optional[dict] = None) -> int:
    """The :func:`validate_span_tree` oracle for deserialized trees."""
    start, end = node["virtual_us"]
    if end is None or end < start:
        raise ReproError(f"span {node['name']!r} has a broken interval")
    if parent is not None:
        p_start, p_end = parent["virtual_us"]
        if start < p_start or end > p_end:
            raise ReproError(
                f"span {node['name']!r} is not nested in {parent['name']!r}"
            )
    count = 1
    for child in node.get("children", ()):
        count += validate_tree_dict(child, node)
    return count


def format_span_tree(root: Span, indent: str = "") -> List[str]:
    """Human-readable tree: name, virtual duration, attrs, events."""
    attrs = ""
    if root.attrs:
        attrs = "  " + " ".join(f"{k}={v}" for k, v in sorted(root.attrs.items()))
    lines = [
        f"{indent}{root.name:<{max(1, 28 - len(indent))}} "
        f"{root.duration_virtual_us:>10.2f} us{attrs}"
    ]
    for event in root.events:
        extra = " ".join(
            f"{k}={v}" for k, v in event.items() if k not in ("name", "t_us")
        )
        lines.append(
            f"{indent}  ! {event['name']} @ {event['t_us']:.2f} us"
            + (f"  {extra}" if extra else "")
        )
    for child in root.children:
        lines.extend(format_span_tree(child, indent + "  "))
    return lines
