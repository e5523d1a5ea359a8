"""ASCII table formatting."""

from __future__ import annotations

from typing import Sequence

from repro.metrics.series import SpikeStats


def format_spike(stats: SpikeStats) -> str:
    """Render a spike as ``min/mean/max`` to three decimals (collapses
    when constant at that precision)."""
    if stats.is_constant(1e-3):
        return f"{stats.mean:.3f}"
    return f"{stats.minimum:.3f}/{stats.mean:.3f}/{stats.maximum:.3f}"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """A fixed-width table with a rule under the header.

    >>> print(format_table(("a", "b"), [(1, "x"), (22, "yy")]))
    a  | b
    ---+---
    1  | x
    22 | yy
    """
    cells = [[str(h) for h in headers]]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row}"
            )
        cells.append([str(c) for c in row])
    widths = [
        max(len(line[col]) for line in cells) for col in range(len(headers))
    ]
    def render(line: list[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()

    rule = "-+-".join("-" * w for w in widths)
    body = [render(cells[0]), rule] + [render(line) for line in cells[1:]]
    if title:
        body.insert(0, title)
    return "\n".join(body)
