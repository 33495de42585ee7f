"""Minimal static SVG 1.1 line charts.

Hand-rolled so chart bytes depend only on the data: no library metadata,
timestamps, or generated ids, which keeps exports byte-identical across
re-runs.
"""
from __future__ import annotations

import numpy as np

__all__ = ["line_chart"]

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 40, 50
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
           "#8c564b", "#17becf", "#7f7f7f")


def _ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks from lo to hi."""
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def line_chart(series: list[tuple[str, np.ndarray, np.ndarray]], title: str,
               x_label: str, y_label: str) -> str:
    """The SVG text of one chart; non-finite points (e.g. the SIR +inf
    sentinel) are dropped from their polyline."""
    finite_pts = []
    for _label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        ok = np.isfinite(xs) & np.isfinite(ys)
        finite_pts.append((xs[ok], ys[ok]))
    all_x = np.concatenate([p[0] for p in finite_pts if p[0].size]) if finite_pts else np.array([0.0])
    all_y = np.concatenate([p[1] for p in finite_pts if p[1].size]) if finite_pts else np.array([0.0])
    x_lo, x_hi = (float(all_x.min()), float(all_x.max())) if all_x.size else (0.0, 1.0)
    y_lo, y_hi = (float(all_y.min()), float(all_y.max())) if all_y.size else (0.0, 1.0)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" font-family="sans-serif" font-size="16" '
        f'text-anchor="middle">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        out.append(f'<line x1="{x:.2f}" y1="{MARGIN_T + plot_h}" x2="{x:.2f}" '
                   f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{MARGIN_T + plot_h + 20}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="middle">{tx:.3g}</text>')
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" '
                   f'y2="{y:.2f}" stroke="black"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="end">{ty:.3g}</text>')
    out.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" '
               f'font-family="sans-serif" font-size="13" text-anchor="middle">{x_label}</text>')
    out.append(f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" font-family="sans-serif" '
               f'font-size="13" text-anchor="middle" '
               f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{y_label}</text>')

    for i, ((label, _xs, _ys), (xs, ys)) in enumerate(zip(series, finite_pts)):
        color = PALETTE[i % len(PALETTE)]
        if xs.size:
            # decimate long series; the chart is 800px wide
            step = max(1, xs.size // 1600)
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}"
                           for x, y in zip(xs[::step], ys[::step]))
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="1.3"/>')
        ly = MARGIN_T + 14 + 18 * i
        lx = WIDTH - MARGIN_R + 10
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
