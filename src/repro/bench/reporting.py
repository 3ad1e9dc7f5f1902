"""Rendering experiment rows as text tables.

The experiment drivers return plain lists of dictionaries; this helper
formats them the way the CLI and the benchmark console output present them,
keeping the drivers free of any formatting concerns.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table"]


def format_table(rows: Sequence[Mapping[str, object]], title: str | None = None) -> str:
    """Render ``rows`` as an aligned, pipe-separated text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_fmt(row.get(column))) for row in rows))
        for column in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(
            " | ".join(_fmt(row.get(column)).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
