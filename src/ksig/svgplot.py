"""Tiny self-contained SVG polyline charts.

`write_chart` draws named columns of numbers against one shared column of
t, the continuation parameter.  Rendering is a pure function of the inputs
with all coordinates formatted to fixed precision, so identical data
produces byte-identical files -- required for reproducible run artifacts.
Deliberately minimal: axes, ticks, legend, polylines; nothing interactive.
Its one caller is monitors.write_charts.
"""

from __future__ import annotations

import math
import sys
from html import escape

from .artifacts import replacing

__all__ = ["write_chart"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH = 640
HEIGHT = 400
MARGIN_L = 64
MARGIN_R = 16
MARGIN_T = 36
MARGIN_B = 48
X_LABEL = "t"
TICKS = 5  # per axis, evenly spaced from the low to the high end
FLAT_PAD = 1.0  # half-width given to an axis whose data are all one value
# an axis reaching past BIG is worked in units of BIG_UNIT, a power of two
# above twice the plot size: its span, and that times the plot size, stay
# finite up to the float limit, and data below BIG keep unit 1
BIG = 2.0**1000
BIG_UNIT = 2.0**11


def _axis(values):
    """(lo, hi, unit): the ends of an axis over `values`, in units of `unit`."""
    lo, hi = min(values), max(values)
    if hi == lo:
        # FLAT_PAD would vanish in rounding from 2**53 on, and the span with
        # it; the padded ends stay inside the float range
        pad = max(FLAT_PAD, math.ulp(lo))
        lo, hi = max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)
    unit = 1.0 if max(-lo, hi) < BIG else BIG_UNIT
    return lo / unit, hi / unit, unit


def _tick_values(lo, hi):
    # min: lo + (hi - lo) may round one float past hi
    return [min(hi, lo + (hi - lo) * i / (TICKS - 1)) for i in range(TICKS)]


def _tick_label(value, log_y=False):
    if log_y:
        return f"1e{value:+.1f}"
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.2e}"
    return f"{value:.4g}"


def write_chart(path, title, xs, series, y_label, log_y):
    """Write to `path` an SVG document that plots each (label, ys) pair of
    `series` against the shared `xs`, values of t, skipping points that are
    not finite (and, with log_y, those at or below 0)."""
    plotted = []
    for label, ys in series:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
        if log_y:
            pts = [(x, math.log10(y)) for x, y in pts if y > 0.0]
        if pts:
            plotted.append((label, pts))

    if plotted:
        x_lo, x_hi, x_unit = _axis([x for _, pts in plotted for x, _ in pts])
        y_lo, y_hi, y_unit = _axis([y for _, pts in plotted for _, y in pts])
    else:
        x_lo, x_hi, x_unit, y_lo, y_hi, y_unit = 0.0, 1.0, 1.0, 0.0, 1.0, 1.0

    inner_w = WIDTH - MARGIN_L - MARGIN_R
    inner_h = HEIGHT - MARGIN_T - MARGIN_B

    # px and py take x and y in their axis's unit
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
            f'font-family="monospace" font-size="10">{escape(_tick_label(xv * x_unit), quote=False)}</text>'
        )
    for yv in _tick_values(y_lo, y_hi):
        yp = py(yv)
        out.append(
            f'<line x1="{MARGIN_L - 5}" y1="{yp:.2f}" x2="{MARGIN_L}" y2="{yp:.2f}" '
            'stroke="#333333"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 8}" y="{yp + 3:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{escape(_tick_label(yv * y_unit, log_y), quote=False)}</text>'
        )
    out.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">{X_LABEL}</text>'
    )
    y_text = escape(y_label + (" (log10)" if log_y else ""), quote=False)
    out.append(
        f'<text x="14" y="{HEIGHT // 2}" text-anchor="middle" font-family="monospace" '
        f'font-size="11" transform="rotate(-90 14 {HEIGHT // 2})">{y_text}</text>'
    )
    # polylines + legend
    for i, (label, pts) in enumerate(plotted):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{px(x / x_unit):.2f},{py(y / y_unit):.2f}" for x, y in pts)
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
    with replacing(path) as tmp, open(tmp, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
