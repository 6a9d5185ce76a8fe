"""Hand-rolled SVG emission for Phi profiles: log-x polylines with a legend.

No plotting library: output bytes depend only on the profile values, so
re-rendering the same profile is byte-identical.
"""
from __future__ import annotations

import math

from .density import PhiProfile

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 30, 30, 50
STAR_COLOR = "#c0392b"
LOWER_COLOR = "#2471a3"


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".") or "0"


def render_phi_svg(profile: PhiProfile) -> str:
    ts = profile.thresholds
    lo_exp = math.log10(float(ts[0]))
    hi_exp = math.log10(float(ts[-1]))
    span = hi_exp - lo_exp
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(t: float) -> float:
        return MARGIN_L + (math.log10(t) - lo_exp) / span * plot_w

    def py(v: float) -> float:
        return MARGIN_T + (1.0 - v) * plot_h

    def polyline(values, color):
        pts = " ".join(f"{px(float(t)):.2f},{py(float(v)):.2f}" for t, v in zip(ts, values))
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>'
        )

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" font-family="monospace" '
        'font-size="14">Phi profile</text>',
        # frame
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#555" stroke-width="1"/>',
    ]
    # y ticks at 0, 0.25, ..., 1
    for i in range(5):
        v = i / 4
        y = py(v)
        parts.append(
            f'<line x1="{MARGIN_L - 4}" y1="{y:.2f}" x2="{MARGIN_L}" y2="{y:.2f}" stroke="#555"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{_fmt(v)}</text>'
        )
    # x ticks at decade boundaries
    for e in range(math.ceil(lo_exp), math.floor(hi_exp) + 1):
        x = px(10.0**e)
        parts.append(
            f'<line x1="{x:.2f}" y1="{HEIGHT - MARGIN_B}" x2="{x:.2f}" '
            f'y2="{HEIGHT - MARGIN_B + 4}" stroke="#555"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">1e{e}</text>'
        )
    parts.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        'font-family="monospace" font-size="12">threshold t (log scale)</text>'
    )
    parts.append(polyline(profile.phi_star, STAR_COLOR))
    parts.append(polyline(profile.phi_lower, LOWER_COLOR))
    # legend
    lx, ly = MARGIN_L + 10, MARGIN_T + 14
    parts.append(
        f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" stroke="{STAR_COLOR}" stroke-width="2"/>'
    )
    parts.append(
        f'<text x="{lx + 30}" y="{ly + 4}" font-family="monospace" font-size="12">upper (Phi*)</text>'
    )
    parts.append(
        f'<line x1="{lx}" y1="{ly + 18}" x2="{lx + 24}" y2="{ly + 18}" '
        f'stroke="{LOWER_COLOR}" stroke-width="2"/>'
    )
    parts.append(
        f'<text x="{lx + 30}" y="{ly + 22}" font-family="monospace" font-size="12">lower (Phi)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
