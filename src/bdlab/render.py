"""SVG rendering of piecewise functions: shaded cells, stroked jump set,
normal ticks.  Stroke width and color encode the jump magnitude on a log
scale above _JUMP_FLOOR = 1e-12."""

from __future__ import annotations

import numpy as np

from .functions import PiecewiseAffine

_CELL_COLORS = (
    "#dbeafe", "#dcfce7", "#fef9c3", "#fde2e2", "#ede9fe",
    "#cffafe", "#fce7f3", "#ecfccb", "#fef3c7", "#e2e8f0",
)
_JUMP_FLOOR = 1e-12


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_svg(u: PiecewiseAffine, width: int = 640, style: str = "default") -> str:
    """Standalone SVG drawing of the partition and the jump set of u.

    style "default" shades cells; "plain" draws outlines only.
    """
    if style not in ("default", "plain"):
        raise ValueError(f"unknown style {style!r}")
    if width < 1:
        raise ValueError(f"width must be at least 1 pixel, got {width}")
    dom = u.partition.domain
    lo, hi = dom.bbox
    span = hi - lo
    pad = 0.05 * float(max(span))
    lo = lo - pad
    hi = hi + pad
    span = hi - lo
    height = int(width * span[1] / span[0])
    scale = width / span[0]

    def pt(p):
        # svg y-axis points down
        return f"{_fmt((p[0] - lo[0]) * scale)},{_fmt((hi[1] - p[1]) * scale)}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for k, cell in enumerate(u.partition.cells):
        pts = " ".join(pt(v) for v in cell.vertices)
        fill = "none" if style == "plain" else _CELL_COLORS[k % len(_CELL_COLORS)]
        parts.append(
            f'<polygon points="{pts}" fill="{fill}" stroke="#94a3b8" stroke-width="0.5"/>'
        )

    jumps = u.jump_segments()
    # the largest |jump| of each row at five equispaced points of its piece
    t = np.linspace(0.0, jumps.t1, 5, axis=1)[..., None]
    jump = (jumps.plus_value0[:, None] + t * jumps.plus_slope[:, None]) - (
        jumps.minus_value0[:, None] + t * jumps.minus_slope[:, None])
    mags = np.max(np.linalg.norm(jump, axis=-1), axis=1).tolist()
    top = max([m for m in mags if m > _JUMP_FLOOR], default=1.0)
    for a, b, normal, m in zip(jumps.a, jumps.b, jumps.normal, mags):
        if m <= _JUMP_FLOOR:
            continue
        # log-scaled width between 1 and 4 px
        w = 1.0 + 3.0 * (np.log10(m / _JUMP_FLOOR) / np.log10(max(top / _JUMP_FLOOR, 10)))
        w = float(np.clip(w, 0.75, 4.0))
        shade = int(200 - 140 * min(m / top, 1.0))
        color = f"rgb(200,{shade // 2},{shade // 2})"
        parts.append(
            f'<line x1="{pt(a).split(",")[0]}" y1="{pt(a).split(",")[1]}" '
            f'x2="{pt(b).split(",")[0]}" y2="{pt(b).split(",")[1]}" '
            f'stroke="{color}" stroke-width="{_fmt(w)}"/>'
        )
        # normal tick at the midpoint
        mid = 0.5 * (a + b)
        tick = mid + 0.12 * normal * float(max(span)) * 0.1
        parts.append(
            f'<line x1="{pt(mid).split(",")[0]}" y1="{pt(mid).split(",")[1]}" '
            f'x2="{pt(tick).split(",")[0]}" y2="{pt(tick).split(",")[1]}" '
            f'stroke="#1d4ed8" stroke-width="0.8"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
