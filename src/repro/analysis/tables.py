"""Plain-text result tables, the shape the benches print."""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.errors import SimulationError


def _format(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


class Table:
    """Column-aligned text table with a title."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        if not columns:
            raise SimulationError("table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise SimulationError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([_format(v) for v in values])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, ""]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def print(self) -> None:
        print()
        print(self.render())
        print()
