"""Minimal, dependency-free SVG line plots for ROC and CDF figures.

Output is a deterministic function of the input data, so emitted files
are byte-stable for a fixed configuration and seed.  Title and labels
are XML-escaped: the CLI builds the title from the config file's name.
The escaper is imported inside `write_line_plot`, because
`xml.sax.saxutils` loads `urllib.request` (about 20 ms) and the CLI
imports this module for every command.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

_WIDTH, _HEIGHT = 640, 480
_MARGIN = 56
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def write_line_plot(path: str | Path, series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
                    xlabel: str, ylabel: str, title: str, comment: str) -> None:
    """Write labelled polylines with linear axes to an SVG file."""
    from xml.sax.saxutils import escape

    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * _MARGIN)

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f"<!-- {comment} -->",
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(title)}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>')
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>')
    for i in range(5):
        fx = x_lo + i * (x_hi - x_lo) / 4
        fy = y_lo + i * (y_hi - y_lo) / 4
        parts.append(
            f'<text x="{px(fx):.1f}" y="{_HEIGHT - _MARGIN + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(fx)}</text>')
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{py(fy) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(fy)}</text>')
    parts.append(
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{escape(xlabel)}</text>')
    parts.append(
        f'<text x="16" y="{_HEIGHT // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {_HEIGHT // 2})">{escape(ylabel)}</text>')

    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = _MARGIN + 16 * idx + 8
        parts.append(f'<line x1="{_WIDTH - _MARGIN - 130}" y1="{ly}" '
                     f'x2="{_WIDTH - _MARGIN - 108}" y2="{ly}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{_WIDTH - _MARGIN - 102}" y="{ly + 4}" '
                     f'font-family="sans-serif" font-size="11">{escape(label)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
