"""Standalone, byte-deterministic SVG emission: log-log decay ladders with a
reference slope (`svg_loglog`) and heatmaps of extension states
(`svg_heatmap`).  No plotting dependency; identical inputs produce identical
bytes."""

from __future__ import annotations

import numpy as np

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 30, 40, 55

# compact viridis-like anchors
_CMAP = [(0.267, 0.005, 0.329), (0.283, 0.141, 0.458), (0.254, 0.265, 0.530),
         (0.207, 0.372, 0.553), (0.164, 0.471, 0.558), (0.128, 0.567, 0.551),
         (0.135, 0.659, 0.518), (0.267, 0.749, 0.441), (0.478, 0.821, 0.318),
         (0.741, 0.873, 0.150), (0.993, 0.906, 0.144)]


def _fmt(v):
    return format(float(v), ".6g")


def _color(t):
    t = min(max(float(t), 0.0), 1.0)
    pos = t * (len(_CMAP) - 1)
    i = min(int(pos), len(_CMAP) - 2)
    fr = pos - i
    rgb = [(1 - fr) * a + fr * b for a, b in zip(_CMAP[i], _CMAP[i + 1])]
    return "#{:02x}{:02x}{:02x}".format(*(int(round(255 * c)) for c in rgb))


def _header(title, meta_comment):
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}">']
    if meta_comment:
        parts.append(f"<!-- {meta_comment} -->")
    parts.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    parts.append(f'<text x="{_W // 2}" y="24" text-anchor="middle" '
                 f'font-family="monospace" font-size="14">{title}</text>')
    return parts


def _axes_box(parts, xlabel, ylabel):
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>')
    parts.append(f'<text x="{_W // 2}" y="{_H - 14}" text-anchor="middle" '
                 f'font-family="monospace" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="18" y="{_H // 2}" text-anchor="middle" '
                 f'font-family="monospace" font-size="12" '
                 f'transform="rotate(-90 18 {_H // 2})">{ylabel}</text>')


def svg_loglog(path, xs, ys, ref_slope, title, meta_comment):
    """Log-log scatter+line of E against r with an optional dashed
    reference-slope line."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    parts = _header(title, meta_comment)
    _axes_box(parts, "log10 r", "log10 E")
    pts = [(np.log10(x), np.log10(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if not pts:
        parts.append(f'<text x="{_W // 2}" y="{_H // 2}" text-anchor="middle" '
                     f'font-family="monospace" font-size="16">no data</text>')
        parts.append("</svg>")
        _write(path, parts)
        return
    lx = [p[0] for p in pts]
    ly = [p[1] for p in pts]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    x0, x1 = (x0 - 0.5, x1 + 0.5) if x0 == x1 else (x0, x1)
    y0, y1 = (y0 - 0.5, y1 + 0.5) if y0 == y1 else (y0, y1)
    padx = 0.05 * (x1 - x0)
    pady = 0.08 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def sx(v):
        return _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)

    for tick in range(int(np.ceil(x0)), int(np.floor(x1)) + 1):
        parts.append(f'<line x1="{_fmt(sx(tick))}" y1="{_H - _MB}" '
                     f'x2="{_fmt(sx(tick))}" y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(sx(tick))}" y="{_H - _MB + 18}" '
                     f'text-anchor="middle" font-family="monospace" '
                     f'font-size="10">{tick}</text>')
    for tick in range(int(np.ceil(y0)), int(np.floor(y1)) + 1):
        parts.append(f'<line x1="{_ML - 5}" y1="{_fmt(sy(tick))}" x2="{_ML}" '
                     f'y2="{_fmt(sy(tick))}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 10}" y="{_fmt(sy(tick) + 3)}" '
                     f'text-anchor="end" font-family="monospace" '
                     f'font-size="10">{tick}</text>')
    if ref_slope is not None:
        xa, ya = pts[0]
        xb = pts[-1][0]
        yb = ya + ref_slope * (xb - xa)
        parts.append(f'<line x1="{_fmt(sx(xa))}" y1="{_fmt(sy(ya))}" '
                     f'x2="{_fmt(sx(xb))}" y2="{_fmt(sy(yb))}" stroke="gray" '
                     f'stroke-dasharray="6 4"/>')
        parts.append(f'<text x="{_fmt(sx(xb))}" y="{_fmt(sy(yb) - 6)}" '
                     f'text-anchor="end" font-family="monospace" font-size="10" '
                     f'fill="gray">slope {_fmt(ref_slope)}</text>')
    poly = " ".join(f"{_fmt(sx(a))},{_fmt(sy(b))}" for a, b in pts)
    parts.append(f'<polyline points="{poly}" fill="none" stroke="steelblue"/>')
    for a, b in pts:
        parts.append(f'<circle cx="{_fmt(sx(a))}" cy="{_fmt(sy(b))}" r="3" '
                     f'fill="steelblue"/>')
    parts.append("</svg>")
    _write(path, parts)


def svg_heatmap(path, x_axis, z_axis, values, meta_comment):
    """Cell raster of an extension state over its tensor grid, with colorbar."""
    x_axis = np.asarray(x_axis, dtype=float)
    z_axis = np.asarray(z_axis, dtype=float)
    values = np.asarray(values, dtype=float)  # shape (len(z_axis), len(x_axis))
    parts = _header("extension state", meta_comment)
    _axes_box(parts, "x", "z")
    vmin, vmax = float(values.min()), float(values.max())
    if vmax == vmin:
        vmax = vmin + 1.0
    xe = np.concatenate([[x_axis[0]], 0.5 * (x_axis[1:] + x_axis[:-1]), [x_axis[-1]]])
    ze = np.concatenate([[z_axis[0]], 0.5 * (z_axis[1:] + z_axis[:-1]), [z_axis[-1]]])
    W = _W - _ML - _MR - 40
    H = _H - _MT - _MB

    def sx(v):
        return _ML + (v - xe[0]) / (xe[-1] - xe[0]) * W

    def sy(v):
        return _H - _MB - (v - ze[0]) / (ze[-1] - ze[0]) * H

    for j in range(len(z_axis)):
        for i in range(len(x_axis)):
            t = (values[j, i] - vmin) / (vmax - vmin)
            x0, x1 = sx(xe[i]), sx(xe[i + 1])
            y1, y0 = sy(ze[j]), sy(ze[j + 1])
            parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" '
                         f'width="{_fmt(x1 - x0)}" height="{_fmt(y1 - y0)}" '
                         f'fill="{_color(t)}"/>')
    # colorbar
    cb_x = _W - _MR - 28
    for k in range(64):
        t0 = k / 64
        y0 = _H - _MB - (k + 1) / 64 * H
        parts.append(f'<rect x="{cb_x}" y="{_fmt(y0)}" width="14" '
                     f'height="{_fmt(H / 64 + 0.5)}" fill="{_color(t0)}"/>')
    parts.append(f'<text x="{cb_x + 18}" y="{_H - _MB}" font-family="monospace" '
                 f'font-size="10">{_fmt(vmin)}</text>')
    parts.append(f'<text x="{cb_x + 18}" y="{_MT + 10}" font-family="monospace" '
                 f'font-size="10">{_fmt(vmax)}</text>')
    parts.append("</svg>")
    _write(path, parts)


def _write(path, parts):
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
