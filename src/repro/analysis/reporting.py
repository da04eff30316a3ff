"""ASCII renderers for experiment output.

The benchmark drivers print their results in the paper's shapes: Table 2
rows, Figure 5 histograms, Figure 8 time series — as plain text, so
``pytest benchmarks/ --benchmark-only -s`` reads like the paper's
evaluation section.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Fixed-width table with a rule under the header."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError("row width does not match headers")
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(headers[index]),
            max((len(row[index]) for row in cells), default=0))
        for index in range(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(
        header.ljust(widths[index])
        for index, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append("  ".join(
            value.ljust(widths[index])
            for index, value in enumerate(row)))
    return "\n".join(lines)


def render_histogram(pairs: Sequence[Tuple[object, float]],
                     width: int = 50, title: str = "") -> str:
    """Horizontal bar chart from (label, value) pairs."""
    if width <= 0:
        raise ValueError("width must be positive")
    lines = [title] if title else []
    if not pairs:
        return "\n".join(lines + ["(empty)"])
    peak = max(value for _, value in pairs)
    label_width = max(len(str(label)) for label, _ in pairs)
    for label, value in pairs:
        bar = int(round(width * value / peak)) if peak > 0 else 0
        lines.append(f"{str(label).rjust(label_width)} | "
                     f"{'#' * bar} {value:.4g}")
    return "\n".join(lines)


#: columns of a render_series plot
SERIES_WIDTH = 60


def render_series(points: Sequence[Tuple[float, float]],
                  height: int = 12, title: str = "") -> str:
    """Crude scatter-over-time plot (Figure 8 style)."""
    width = SERIES_WIDTH
    lines = [title] if title else []
    if not points:
        return "\n".join(lines + ["(empty)"])
    t_low = min(t for t, _ in points)
    t_high = max(t for t, _ in points)
    v_low = 0.0
    v_high = max(v for _, v in points) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for t, v in points:
        x = int((t - t_low) / (t_high - t_low or 1.0) * (width - 1))
        y = int((v - v_low) / (v_high - v_low or 1.0) * (height - 1))
        grid[height - 1 - y][x] = "*"
    for row_index, row in enumerate(grid):
        axis_value = v_high * (height - 1 - row_index) / (height - 1)
        lines.append(f"{axis_value:8.1f} |" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(f"{'':9}t={t_low:.0f}s ... t={t_high:.0f}s")
    return "\n".join(lines)
