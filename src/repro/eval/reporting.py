"""Formatting helpers: print experiment results the way the paper does."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Plain-text aligned table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_latency(seconds) -> str:
    """Human latency: us / ms / s as appropriate."""
    if seconds is None:
        return "n/a"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds:.2f} s"


def format_rate(value: float, unit: str = "B/s") -> str:
    for prefix, scale in (("G", 1e9), ("M", 1e6), ("K", 1e3)):
        if value >= scale:
            return f"{value / scale:.2f} {prefix}{unit}"
    return f"{value:.1f} {unit}"


def series_by(points: Iterable, key_attr: str,
              x_attr: str, y_attr: str) -> dict:
    """Group points into {key: [(x, y), ...]} sorted by x."""
    series: dict = {}
    for point in points:
        key = getattr(point, key_attr)
        series.setdefault(key, []).append(
            (getattr(point, x_attr), getattr(point, y_attr)))
    for values in series.values():
        values.sort()
    return series


def linear_slope(xy: List[tuple]) -> float:
    """Least-squares slope of a series (shape assertions on figures)."""
    n = len(xy)
    if n < 2:
        return 0.0
    mean_x = sum(x for x, _ in xy) / n
    mean_y = sum(y for _, y in xy) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in xy)
    den = sum((x - mean_x) ** 2 for x, _ in xy)
    return num / den if den else 0.0
