"""Minimal deterministic SVG line plots: axes, ticks, one polyline per series."""

from html import escape

import numpy as np

__all__ = ["write_svg"]

_COLORS = ("#1f6fb2", "#c23b22", "#3a923a", "#8256a8", "#b8860b", "#444444")

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _fmt(v):
    return f"{v:.2f}"


def _text(v):  # element content: escapes &, < and >, leaves quotes as they are
    return escape(str(v), quote=False)


def write_svg(path, series, title="", xlabel="", ylabel=""):
    """Write a line plot; ``series`` is a list of (xs, ys, label) triples."""
    finite = []
    for xs, ys, _ in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        m = np.isfinite(xs) & np.isfinite(ys)
        finite.append((xs[m], ys[m]))
    xs_all = np.concatenate([p[0] for p in finite]) if finite else np.array([0.0])
    ys_all = np.concatenate([p[1] for p in finite]) if finite else np.array([0.0])
    if xs_all.size == 0:
        xs_all = np.array([0.0, 1.0])
    if ys_all.size == 0:
        ys_all = np.array([0.0, 1.0])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def X(v):
        return _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)

    def Y(v):
        return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        xp, yp = X(xv), Y(yv)
        parts.append(f'<line x1="{_fmt(xp)}" y1="{_H - _MB}" x2="{_fmt(xp)}" '
                     f'y2="{_H - _MB + 5}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(xp)}" y="{_H - _MB + 18}" '
                     f'font-size="11" text-anchor="middle">{xv:.4g}</text>')
        parts.append(f'<line x1="{_ML - 5}" y1="{_fmt(yp)}" x2="{_ML}" '
                     f'y2="{_fmt(yp)}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_ML - 8}" y="{_fmt(yp + 4)}" font-size="11" '
                     f'text-anchor="end">{yv:.4g}</text>')
    if title:
        parts.append(f'<text x="{_W // 2}" y="24" font-size="14" '
                     f'text-anchor="middle">{_text(title)}</text>')
    if xlabel:
        parts.append(f'<text x="{_W // 2}" y="{_H - 12}" font-size="12" '
                     f'text-anchor="middle">{_text(xlabel)}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{_H // 2}" font-size="12" '
                     f'text-anchor="middle" '
                     f'transform="rotate(-90 16 {_H // 2})">{_text(ylabel)}</text>')
    for i, ((xs, ys), (_, _, label)) in enumerate(zip(finite, series)):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{_fmt(X(a))},{_fmt(Y(b))}" for a, b in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        if label:
            yleg = _MT + 16 * i + 12
            parts.append(f'<line x1="{_W - _MR - 120}" y1="{yleg - 4}" '
                         f'x2="{_W - _MR - 100}" y2="{yleg - 4}" '
                         f'stroke="{color}" stroke-width="1.5"/>')
            parts.append(f'<text x="{_W - _MR - 95}" y="{yleg}" '
                         f'font-size="11">{_text(label)}</text>')
    parts.append("</svg>")
    data = "\n".join(parts) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)
    return data
