"""The markdown table layout shared by convergence tables and the analyzer."""

from __future__ import annotations

__all__ = ["markdown_table"]


def markdown_table(header, rows) -> str:
    """Right-aligned markdown table of str(cell), each column as wide as its widest cell."""
    widths = [max(len(str(v)) for v in col) for col in zip(header, *rows)]

    def line(vals):
        return "| " + " | ".join(str(v).rjust(w) for v, w in zip(vals, widths)) + " |"

    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([line(header), sep] + [line(row) for row in rows])
