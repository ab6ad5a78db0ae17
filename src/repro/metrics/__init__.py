"""Measurement plumbing: summary stats and table output."""

from repro.metrics.stats import Summary, overhead_pct, summarize
from repro.metrics.tables import Table, format_table, pivot

__all__ = [
    "Summary",
    "overhead_pct",
    "summarize",
    "Table",
    "format_table",
    "pivot",
]
