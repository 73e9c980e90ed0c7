"""Tiny fixed-width table reporter for experiment harnesses.

Keeps exhibit (``python -m repro.run``) and benchmark output greppable in
``bench_output.txt`` and diffable against the paper numbers recorded in
EXPERIMENTS.md.
"""
from __future__ import annotations

from typing import Dict, List, Sequence


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        a = abs(v)
        if a >= 1e6 or a < 1e-3:
            return f"{v:.3e}"
        if a >= 100:
            return f"{v:.1f}"
        return f"{v:.4f}"
    return str(v)


def format_table(rows: List[Dict], columns: Sequence[str] | None = None, title: str = "") -> str:
    """Render rows as an aligned text table (column order preserved)."""
    if not rows:
        return f"== {title} ==\n(no rows)\n" if title else "(no rows)\n"
    cols = list(columns) if columns else list(rows[0].keys())
    cells = [[_fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    lines = []
    if title:
        lines.append(f"== {title} ==")
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def print_table(rows: List[Dict], columns: Sequence[str] | None = None, title: str = "") -> None:
    print(format_table(rows, columns, title), flush=True)
