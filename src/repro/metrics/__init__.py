"""Measurement plumbing: summary stats and table output."""

from repro.metrics.stats import Summary, overhead_pct, summarize
from repro.metrics.tables import format_table

__all__ = [
    "Summary",
    "overhead_pct",
    "summarize",
    "format_table",
]
