"""Minimal deterministic SVG line plots (no plotting library involved).

The CLI needs reproducible figures: rerunning a preset must produce
byte-identical output.  Matplotlib embeds timestamps, library versions,
and font metrics in its SVG, so this module hand-rolls the small subset we
need: linear axes with nice tick values, a polyline per curve, a fixed
color/dash palette, and a legend.  All coordinates are formatted with %.6g
so the output is stable across runs and platforms.  Label and axis text
is XML-escaped, so it may contain &, < and >.

Curves are (label, xs, ys) triples; every curve needs at least two points
(a line plot of fewer is meaningless and almost certainly an upstream grid
mistake, so it is an error rather than a silent dot).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["render_svg"]

WIDTH = 720
HEIGHT = 480
MARGIN_L = 78
MARGIN_R = 24
MARGIN_T = 34
MARGIN_B = 56
# Tick count the nice-number scheme aims for on each axis.
TICKS = 6

PALETTE = [
    ("#000000", ""),
    ("#7b2d8b", "7,4"),
    ("#1f5bd8", ""),
    ("#1b8a3a", "7,4"),
    ("#e07b00", ""),
    ("#c42430", "7,4"),
    ("#0e7c7b", ""),
    ("#8a5a00", "7,4"),
]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _escape(text: str) -> str:
    """Text as XML character data: &, < and > replaced by their entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_ticks(lo: float, hi: float):
    """Round tick positions covering [lo, hi] (simple nice-number scheme)."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("cannot build axis from non-finite range")
    if hi <= lo:
        pad = 1.0 if lo == 0.0 else abs(lo) * 0.5
        lo, hi = lo - pad, hi + pad
    span = hi - lo
    raw = span / (TICKS - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= TICKS:
            break
    start = math.floor(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 0.5 * step:
        if abs(t) < 1e-12 * step:
            t = 0.0
        ticks.append(t)
        t += step
    return ticks


def _scale(v, lo: float, hi: float, p_lo: float, p_hi: float):
    """Pixel coordinate of the value v, a float or an array, on an axis
    from lo to hi drawn from pixel p_lo to pixel p_hi."""
    return p_lo + (v - lo) / (hi - lo) * (p_hi - p_lo)


def _points(xs, ys, x_axis: tuple, y_axis: tuple) -> str:
    """The polyline points "x,y x,y ..." of one curve, each pixel
    coordinate in %.6g; an axis is _scale's (lo, hi, p_lo, p_hi).  The
    coordinates are taken on float arrays, the same IEEE operations in the
    same order as on one float, so they keep their bits."""
    sx, sy = _scale(xs, *x_axis).tolist(), _scale(ys, *y_axis).tolist()
    return " ".join(map("%.6g,%.6g".__mod__, zip(sx, sy)))


def render_svg(curves, xlabel: str, ylabel: str) -> str:
    """Render curves [(label, xs, ys), ...] to an SVG document string."""
    if not curves:
        raise ValueError("no curves to plot")
    for label, xs, ys in curves:
        if len(xs) != len(ys):
            raise ValueError(f"curve {label!r}: x and y lengths differ")
        if len(xs) < 2:
            raise ValueError(
                f"curve {label!r} has {len(xs)} point(s); a line plot needs "
                "at least 2 (check the sweep grid)"
            )
    data = [(label, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
            for label, xs, ys in curves]
    all_x = np.concatenate([xs for _, xs, _ in data])
    all_y = np.concatenate([ys for _, _, ys in data])
    if not (np.isfinite(all_x).all() and np.isfinite(all_y).all()):
        raise ValueError("non-finite data point in plot input")
    xt = _nice_ticks(all_x.min().item(), all_x.max().item())
    y_lo = min(all_y.min().item(), 0.0)
    yt = _nice_ticks(y_lo, all_y.max().item())
    px0, px1 = MARGIN_L, WIDTH - MARGIN_R
    py0, py1 = HEIGHT - MARGIN_B, MARGIN_T
    x_axis = (xt[0], xt[-1], px0, px1)
    y_axis = (yt[0], yt[-1], py0, py1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    # axes frame
    parts.append(
        f'<rect x="{_fmt(px0)}" y="{_fmt(py1)}" width="{_fmt(px1 - px0)}" '
        f'height="{_fmt(py0 - py1)}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    # grid + ticks + tick labels
    for t in xt:
        X = _fmt(_scale(t, *x_axis))
        parts.append(
            f'<line x1="{X}" y1="{_fmt(py0)}" x2="{X}" y2="{_fmt(py1)}" '
            f'stroke="#dddddd" stroke-width="0.7"/>'
        )
        parts.append(
            f'<text x="{X}" y="{_fmt(py0 + 18)}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{_fmt(t)}</text>'
        )
    for t in yt:
        Y = _fmt(_scale(t, *y_axis))
        parts.append(
            f'<line x1="{_fmt(px0)}" y1="{Y}" x2="{_fmt(px1)}" y2="{Y}" '
            f'stroke="#dddddd" stroke-width="0.7"/>'
        )
        parts.append(
            f'<text x="{_fmt(px0 - 6)}" y="{Y}" font-size="12" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif">{_fmt(t)}</text>'
        )
    # curves
    for i, (label, xs, ys) in enumerate(data):
        color, dash = PALETTE[i % len(PALETTE)]
        pts = _points(xs, ys, x_axis, y_axis)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"{dash_attr}/>'
        )
    # legend (top-right, inside the frame)
    lx = px1 - 170
    ly = py1 + 14
    for i, (label, _, _) in enumerate(curves):
        color, dash = PALETTE[i % len(PALETTE)]
        Y = ly + 17 * i
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(Y)}" x2="{_fmt(lx + 26)}" '
            f'y2="{_fmt(Y)}" stroke="{color}" stroke-width="1.6"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{_fmt(lx + 32)}" y="{_fmt(Y + 4)}" font-size="12" '
            f'font-family="sans-serif">{_escape(label)}</text>'
        )
    # labels
    parts.append(
        f'<text x="{_fmt(0.5 * (px0 + px1))}" y="{HEIGHT - 14}" font-size="14" '
        f'text-anchor="middle" font-family="sans-serif">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="20" y="{_fmt(0.5 * (py0 + py1))}" font-size="14" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 20 {_fmt(0.5 * (py0 + py1))})">{_escape(ylabel)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
