"""Fixed-width table rendering for benchmark output.

The benchmark harness prints the same rows/series the paper's tables and
figures report; this keeps the formatting in one place.  Every runner of
the reconstructed evaluation returns a :class:`Table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.util.errors import ReproError

#: the regimes every baseline-vs-improved figure compares, in column order
MODES = ("baseline", "improved")


@dataclass
class Table:
    """One table or figure of the evaluation: its title, headers and rows.

    ``appendix`` is a second table rendered below this one (Table 4's cost
    breakdown).
    """

    title: str
    headers: Sequence[str]
    rows: List[tuple]
    appendix: Optional["Table"] = None

    def render(self) -> str:
        text = format_table(self.headers, self.rows, title=self.title)
        if self.appendix is not None:
            text += "\n\n" + self.appendix.render()
        return text


def pivot(
    points: Iterable[Sequence[object]], columns: Sequence[object] = MODES
) -> List[tuple]:
    """Pivot ``(x, column, v1, v2, ...)`` points into one row per ``x``.

    Each row is ``(x, v1 per column..., v2 per column...)``, so a
    baseline-vs-improved sweep of means and p95s becomes
    ``(x, baseline mean, improved mean, baseline p95, improved p95)``.
    Rows follow the order in which each ``x`` first appears.
    """
    by_x: Dict[object, Dict[object, Sequence[object]]] = {}
    for x, column, *values in points:
        by_x.setdefault(x, {})[column] = values
    return [
        (x, *(cells[c][k] for k in range(len(cells[columns[0]])) for c in columns))
        for x, cells in by_x.items()
    ]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned text table."""
    if not headers:
        raise ReproError("table needs headers")
    str_rows = [[_cell(v) for v in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ReproError(
                f"row width {len(row)} does not match {len(headers)} headers"
            )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        return f"{value:.2f}"
    return str(value)
