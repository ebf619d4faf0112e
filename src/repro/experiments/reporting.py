"""Small reporting helpers shared by the experiment drivers and benchmarks.

The benchmarks print the same rows/series the paper reports; these helpers
keep that formatting in one place (aligned text tables, percentage changes,
and simple CSV export for post-processing).
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Mapping, Sequence
from io import StringIO
from pathlib import Path


def _union_columns(rows: Sequence[Mapping[str, object]]) -> list[str]:
    """Every key that appears in any row, in first-appearance order.

    Heterogeneous rows (e.g. mesh vs. custom evaluation records, where only
    one carries decomposition statistics) must not silently lose the columns
    absent from the first row.
    """
    columns: dict[str, None] = {}
    for row in rows:
        for key in row:
            columns.setdefault(key, None)
    return list(columns)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    float_format: str = "{:.3f}",
    title: str | None = None,
) -> str:
    """Render a list of dict rows as an aligned text table.

    Columns default to the union of all rows' keys (missing values render
    blank), so rows with different key sets tabulate cleanly.
    """
    if not rows:
        return title or "(empty table)"
    if columns is None:
        columns = _union_columns(rows)

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), max(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for line in rendered:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines)


def percentage_change(baseline: float, value: float) -> float:
    """Signed percentage change of ``value`` relative to ``baseline``.

    Positive means ``value`` is larger than the baseline (e.g. +36% throughput),
    negative means a reduction (e.g. -51% energy).
    """
    if baseline == 0:
        raise ValueError("percentage change is undefined for a zero baseline")
    return 100.0 * (value - baseline) / baseline


def rows_to_csv(rows: Sequence[Mapping[str, object]], path: str | Path | None = None) -> str:
    """Serialize rows as CSV; optionally also write them to ``path``.

    Like :func:`format_table`, the header is the union of all rows' keys so
    heterogeneous rows neither crash the writer nor drop columns.
    """
    if not rows:
        return ""
    columns = _union_columns(rows)
    buffer = StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({column: row.get(column, "") for column in columns})
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def format_series(
    points: Iterable[tuple[object, float]], x_label: str = "x", y_label: str = "y"
) -> str:
    """Render an (x, y) series as the two-column listing used for 'figures'."""
    rows = [{x_label: x, y_label: y} for x, y in points]
    return format_table(rows, columns=[x_label, y_label])
