"""Minimal dependency-free SVG line plot of fig1's R0 curves."""

from __future__ import annotations

import math

__all__ = ["write_svg"]

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / target))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= target:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


def write_svg(path: str, curves) -> None:
    """Write a 640x440 SVG with axes, ticks, a log10 y axis, and one labelled polyline per (x, y, label) curve."""
    xs = [u for x, _, _ in curves for u in x]
    ty = [math.log10(v) for _, y, _ in curves for v in y if v > 0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ty), max(ty)
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x: float) -> float:
        return _ML + (x - x0) / (x1 - x0) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (math.log10(y) - y0) / (y1 - y0) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="#333"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14">Radial Bergman densities R0(r)</text>',
    ]
    for t in _ticks(x0, x1):
        X = px(t)
        parts.append(f'<line x1="{X:.1f}" y1="{_H - _MB}" x2="{X:.1f}" y2="{_H - _MB + 5}" stroke="#333"/>')
        parts.append(f'<text x="{X:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{t:.6g}</text>')
    for p in range(math.ceil(y0), math.floor(y1) + 1):
        Y = py(10.0**p)
        parts.append(f'<line x1="{_ML - 5}" y1="{Y:.1f}" x2="{_ML}" y2="{Y:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{Y + 4:.1f}" text-anchor="end">1e{p}</text>')
    parts.append(f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle">r</text>')
    parts.append(f'<text x="18" y="{_H / 2}" text-anchor="middle" transform="rotate(-90 18 {_H / 2})">R0</text>')
    for ic, (x, y, label) in enumerate(curves):
        col = _COLORS[ic % len(_COLORS)]
        pts = [f"{px(u):.2f},{py(v):.2f}" for u, v in zip(x, y) if v > 0]
        ly = _MT + 16 + 16 * ic
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="{col}" stroke-width="1.5"/>')
        parts.append(f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" x2="{_W - _MR - 125}" y2="{ly - 4}" stroke="{col}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _MR - 120}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
