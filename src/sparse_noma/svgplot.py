"""Minimal SVG writer for load-sweep figures; no renderer dependency.

One polyline per scheme (the envelope dashed), circle markers on the
sparse lattice points, linear axes with round-number ticks, and a legend.
Output is a deterministic utf-8 string.
"""

from __future__ import annotations

import math

from .baselines import SweepTable

_W, _H = 760, 500
_ML, _MR, _MT, _MB = 72, 24, 36, 52

_COLORS = {
    "sparse_opt": "#c0392b",
    "sparse_lmmse": "#e67e22",
    "rs_cdma_opt": "#2980b9",
    "rs_cdma_lmmse": "#16a085",
    "orthogonal": "#8e44ad",
    "cover_wyner": "#2c3e50",
    "timeshare_envelope": "#7f8c8d",
}

_MARKERS = {"sparse_opt", "sparse_lmmse"}


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((m for m in (1.0, 2.0, 2.5, 5.0, 10.0)), key=lambda m: abs(m * mag - raw)) * mag
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def sweep_svg(table: SweepTable, ebn0_db: float) -> str:
    series: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for p in table.points:
        series.setdefault((p.scheme, p.route), []).append((p.beta, p.rate))
    if not series:
        raise ValueError("empty sweep table")

    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.06 or 1.0  # every rate is 0 at Eb/N0 <= ln 2
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    title = f"rates at Eb/N0 = {_fmt(ebn0_db)} dB"
    if table.d is not None:
        title = f"d = {table.d}, " + title
    out.append(f'<text x="{_W/2:.1f}" y="22" text-anchor="middle" font-size="14">{title}</text>')

    for t in _ticks(x_lo, x_hi):
        x = px(t)
        out.append(f'<line x1="{x:.1f}" y1="{_MT}" x2="{x:.1f}" y2="{_H-_MB}" stroke="#eeeeee"/>')
        out.append(
            f'<text x="{x:.1f}" y="{_H-_MB+18}" text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        out.append(f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W-_MR}" y2="{y:.1f}" stroke="#eeeeee"/>')
        out.append(f'<text x="{_ML-8}" y="{y+4:.1f}" text-anchor="end">{_fmt(t)}</text>')
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" height="{_H-_MT-_MB}" '
        f'fill="none" stroke="#333333"/>'
    )
    out.append(
        f'<text x="{(_ML+_W-_MR)/2:.1f}" y="{_H-14}" text-anchor="middle">load beta</text>'
    )
    out.append(
        f'<text x="18" y="{(_MT+_H-_MB)/2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_MT+_H-_MB)/2:.1f})">bits/s/Hz</text>'
    )

    legend_y = _MT + 14
    for (scheme, route), pts in sorted(series.items()):
        pts = sorted(pts)
        color = _COLORS.get(scheme, "#000000")
        dash = ' stroke-dasharray="6 4"' if scheme == "timeshare_envelope" else ""
        path = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.6"{dash}/>')
        if scheme in _MARKERS:
            for x, y in pts:
                out.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}"/>')
        label = scheme if scheme != "timeshare_envelope" else f"envelope({route})"
        lx = _W - _MR - 180
        out.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx+26}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.6"{dash}/>'
        )
        out.append(f'<text x="{lx+32}" y="{legend_y+4}">{label}</text>')
        legend_y += 16

    out.append("</svg>")
    return "\n".join(out) + "\n"
