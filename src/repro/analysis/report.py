"""ASCII renderers that print the same rows/series the paper reports.

Every benchmark harness funnels its results through these so the output is
directly comparable with the paper's tables and figures.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def render_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """A fixed-width ASCII table."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(value) for value in row])
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]
    lines = [title, "=" * len(title)]
    for r, row in enumerate(cells):
        line = "  ".join(cell.ljust(widths[i])
                         for i, cell in enumerate(row))
        lines.append(line)
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_cdf_series(title: str,
                      series: Dict[str, Sequence[Tuple[float, float]]],
                      x_label: str = "loss %") -> str:
    """Key percentile read-outs of several CDFs (as the paper quotes)."""
    lines = [title, "=" * len(title),
             f"{'series':24s}  {'p50':>8s}  {'p75':>8s}  "
             f"{'p90':>8s}  {'p99':>8s}   ({x_label})"]
    for name, points in series.items():
        xs = [x for x, _ in points]
        fs = [f for _, f in points]
        lines.append(
            f"{name:24s}  {_quantile(xs, fs, 0.50):8.2f}  "
            f"{_quantile(xs, fs, 0.75):8.2f}  "
            f"{_quantile(xs, fs, 0.90):8.2f}  "
            f"{_quantile(xs, fs, 0.99):8.2f}")
    return "\n".join(lines)


def render_histogram(title: str, buckets: Dict[str, float]) -> str:
    """A labelled bar list of per-call packet counts (Figure 5/9
    style)."""
    lines = [title, "=" * len(title)]
    peak = max(buckets.values()) if buckets else 0.0
    for label, value in buckets.items():
        bar = "#" * int(round(30 * value / peak)) if peak > 0 else ""
        lines.append(f"{label:>6s}  {value:8.2f} {'avg packets':12s} {bar}")
    return "\n".join(lines)


def _quantile(xs: List[float], fs: List[float], q: float) -> float:
    for x, f in zip(xs, fs):
        if f >= q:
            return x
    return xs[-1] if xs else float("nan")


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
