"""Tiny self-contained SVG polyline charts.

Rendering is a pure function of the inputs with all coordinates formatted
to fixed precision, so identical data produces byte-identical files --
required for reproducible run artifacts.  Deliberately minimal: axes,
ticks, legend, polylines; nothing interactive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape

from .artifacts import replacing

__all__ = ["Series", "render_chart", "write_chart"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH = 640
HEIGHT = 400
MARGIN_L = 64
MARGIN_R = 16
MARGIN_T = 36
MARGIN_B = 48


@dataclass(frozen=True)
class Series:
    label: str
    x: tuple
    y: tuple

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("series x and y lengths differ")


def _finite_points(series):
    pts = []
    for x, y in zip(series.x, series.y):
        if math.isfinite(x) and math.isfinite(y):
            pts.append((float(x), float(y)))
    return pts


def _data_range(values, pad_if_flat=1.0):
    lo, hi = min(values), max(values)
    if hi == lo:
        lo -= pad_if_flat
        hi += pad_if_flat
    return lo, hi


def _tick_values(lo, hi, count=5):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _tick_label(value, log_y=False):
    if log_y:
        return f"1e{value:+.1f}"
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.2e}"
    return f"{value:.4g}"


def render_chart(title, series, x_label="", y_label="", log_y=False):
    """Render a list of Series to an SVG document string."""
    plotted = []
    for s in series:
        pts = _finite_points(s)
        if log_y:
            pts = [(x, math.log10(y)) for x, y in pts if y > 0.0]
        if pts:
            plotted.append((s.label, pts))

    if plotted:
        xs = [x for _, pts in plotted for x, _ in pts]
        ys = [y for _, pts in plotted for _, y in pts]
        x_lo, x_hi = _data_range(xs)
        y_lo, y_hi = _data_range(ys)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0

    inner_w = WIDTH - MARGIN_L - MARGIN_R
    inner_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + inner_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return MARGIN_T + inner_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{escape(title, quote=False)}</text>'
    )
    # frame
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{inner_w}" height="{inner_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    # ticks
    for xv in _tick_values(x_lo, x_hi):
        xp = px(xv)
        out.append(
            f'<line x1="{xp:.2f}" y1="{MARGIN_T + inner_h}" x2="{xp:.2f}" '
            f'y2="{MARGIN_T + inner_h + 5}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{xp:.2f}" y="{MARGIN_T + inner_h + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{escape(_tick_label(xv), quote=False)}</text>'
        )
    for yv in _tick_values(y_lo, y_hi):
        yp = py(yv)
        out.append(
            f'<line x1="{MARGIN_L - 5}" y1="{yp:.2f}" x2="{MARGIN_L}" y2="{yp:.2f}" '
            'stroke="#333333"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 8}" y="{yp + 3:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{escape(_tick_label(yv, log_y), quote=False)}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{escape(x_label, quote=False)}</text>'
        )
    if y_label:
        label = escape(y_label + (" (log10)" if log_y else ""), quote=False)
        out.append(
            f'<text x="14" y="{HEIGHT // 2}" text-anchor="middle" font-family="monospace" '
            f'font-size="11" transform="rotate(-90 14 {HEIGHT // 2})">{label}</text>'
        )
    # polylines + legend
    for i, (label, pts) in enumerate(plotted):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN_T + 14 + 14 * i
        out.append(
            f'<line x1="{MARGIN_L + 8}" y1="{ly - 4}" x2="{MARGIN_L + 28}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{MARGIN_L + 33}" y="{ly}" font-family="monospace" '
            f'font-size="10">{escape(label, quote=False)}</text>'
        )
    if not plotted:
        out.append(
            f'<text x="{WIDTH // 2}" y="{HEIGHT // 2}" text-anchor="middle" '
            'font-family="monospace" font-size="12">no data</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_chart(path, title, series, **kwargs):
    text = render_chart(title, series, **kwargs)
    with replacing(path) as tmp, open(tmp, "w", newline="\n") as fh:
        fh.write(text)
