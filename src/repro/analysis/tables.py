"""Plain ASCII table rendering for benchmark output."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    header: Sequence[str],
    rows: Iterable[Sequence[str]],
    title: str = "",
) -> str:
    """Render an aligned ASCII table."""
    rows = [list(map(str, r)) for r in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out = []
    if title:
        out.append(title)
    out.append(line(header))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(r) for r in rows)
    return "\n".join(out)
