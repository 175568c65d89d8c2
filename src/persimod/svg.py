"""
Deterministic SVG rendering of barcodes: one horizontal segment per bar,
sorted by (degree, birth, death), with infinite ends drawn to the frame
and marked by an arrowhead.
"""

from __future__ import annotations

import math

from .barcode import Barcode

INF = math.inf
WIDTH, BAR_HEIGHT, MARGIN = 640, 14, 46    # pixels

_DEGREE_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd",
                  "#ff7f0e", "#8c564b", "#17becf"]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def barcode_to_svg(b: Barcode) -> str:
    bars = sorted(b.bars, key=lambda bar: (
        bar.degree if bar.degree is not None else -1, bar.birth, bar.death))
    finite = [e for bar in bars for e in (bar.birth, bar.death)
              if math.isfinite(e)]
    lo = min(finite, default=0.0)
    hi = max(finite, default=1.0)
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.08 * (hi - lo)
    lo -= pad
    hi += pad
    height = 2 * MARGIN + BAR_HEIGHT * max(1, len(bars))

    def sx(value: float) -> float:
        if value == -INF:
            return MARGIN
        if value == INF:
            return WIDTH - MARGIN
        return MARGIN + (value - lo) / (hi - lo) * (WIDTH - 2 * MARGIN)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}">',
        "<defs><marker id='arrow' markerWidth='8' markerHeight='8' refX='6' refY='3' "
        "orient='auto'><path d='M0,0 L6,3 L0,6 z'/></marker></defs>",
        f'<rect x="0" y="0" width="{WIDTH}" height="{height}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{height - MARGIN + 8}" x2="{WIDTH - MARGIN}" '
        f'y2="{height - MARGIN + 8}" stroke="#444" stroke-width="1"/>',
    ]
    ticks = sorted(set(finite))[:12]
    for t in ticks:
        x = sx(t)
        lines.append(f'<line x1="{_fmt(x)}" y1="{height - MARGIN + 4}" '
                     f'x2="{_fmt(x)}" y2="{height - MARGIN + 12}" stroke="#444"/>')
        lines.append(f'<text x="{_fmt(x)}" y="{height - MARGIN + 26}" '
                     f'font-size="10" text-anchor="middle">{_fmt(t)}</text>')
    for i, bar in enumerate(bars):
        y = MARGIN + (i + 0.5) * BAR_HEIGHT
        color = _DEGREE_COLORS[(bar.degree or 0) % len(_DEGREE_COLORS)] \
            if bar.degree is not None else "#444444"
        x1, x2 = sx(bar.birth), sx(bar.death)
        attrs = f'stroke="{color}" stroke-width="4"'
        markers = []
        if bar.death == INF:
            markers.append("marker-end='url(#arrow)'")
        if bar.birth == -INF:
            markers.append("marker-start='url(#arrow)'")
        lines.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y)}" x2="{_fmt(x2)}" '
                     f'y2="{_fmt(y)}" {attrs} {" ".join(markers)}/>'.replace("  ", " "))
        label = f"deg {bar.degree}" if bar.degree is not None else ""
        if label:
            lines.append(f'<text x="{MARGIN - 40}" y="{_fmt(y + 3)}" '
                         f'font-size="9" fill="{color}">{label}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
