"""Deterministic SVG arc diagrams for incomplete bipartitions.

Each diagram draws the two strings of the underlying word: left positions
top-down on the left string, right positions top-down on the right string,
24 units per step on each string.  Opaque dots are black, translucent dots
white.  Every block is drawn spine-and-ribs: a vertical spine between the
strings with a horizontal rib to each of its dots.  The translucent block
is red and carries a straight vertical chord to the top of the diagram, the
shading convention.  Monotone labels are printed at the spine tops.

The output is a pure function of the input; no timestamps, no randomness.
"""

from __future__ import annotations

from .bipartition import Bipartition, LabeledBipartition
from .biset import LEFT
from .translucent import TranslucentWord, translucent_positions

STEP = 24
TOP = 30
LEFT_X = 40
RIGHT_X = 220
DOT = 5


def _positions_geometry(t: TranslucentWord):
    """x/y coordinates per position: per-string ranks, natural order top-down."""
    coords = {}
    left_seen = right_seen = 0
    for i, side in enumerate(t.alpha, start=1):
        if side == LEFT:
            left_seen += 1
            coords[i] = (LEFT_X, TOP + STEP * left_seen)
        else:
            right_seen += 1
            coords[i] = (RIGHT_X, TOP + STEP * right_seen)
    return coords


def _block_elements(t: TranslucentWord, bp: Bipartition | LabeledBipartition):
    if isinstance(bp, LabeledBipartition):
        labelled = [(block, k) for k, block in enumerate(bp.order, start=1)]
    else:
        labelled = [(block, None) for block in bp.blocks]
    return labelled, translucent_positions(t)


def render_bipartition(bp: Bipartition | LabeledBipartition, x_offset: int = 0) -> list[str]:
    """SVG fragment (list of elements) for one diagram at a horizontal offset."""
    t = bp.base.type if isinstance(bp, LabeledBipartition) else bp.type
    coords = _positions_geometry(t)
    labelled, transl = _block_elements(t, bp)
    n = len(t.alpha)
    height = TOP + STEP * (n + 1)
    out = []
    out.append(
        f'<g transform="translate({x_offset},0)">'
    )
    out.append(f'<title>{t.encode()}</title>')
    # strings
    for x in (LEFT_X, RIGHT_X):
        out.append(
            f'<line x1="{x}" y1="{TOP}" x2="{x}" y2="{height}" '
            f'stroke="#999" stroke-width="1"/>'
        )
    # blocks: deterministic spine offsets by block index
    mid = (LEFT_X + RIGHT_X) // 2
    drawables = [(tuple(transl), "red", None)] if transl else []
    drawables += [(block, "black", label) for block, label in labelled]
    for index, (block, colour, label) in enumerate(drawables):
        spine_x = mid - 8 * (len(drawables) // 2) + 8 * index
        ys = [coords[p][1] for p in block]
        for p in block:
            x, y = coords[p]
            out.append(
                f'<line x1="{x}" y1="{y}" x2="{spine_x}" y2="{y}" '
                f'stroke="{colour}" stroke-width="1.5"/>'
            )
        if len(block) > 1:
            out.append(
                f'<line x1="{spine_x}" y1="{min(ys)}" x2="{spine_x}" y2="{max(ys)}" '
                f'stroke="{colour}" stroke-width="1.5"/>'
            )
        if colour == "red":
            # the shading chord to the top of the diagram
            out.append(
                f'<line x1="{spine_x}" y1="6" x2="{spine_x}" y2="{min(ys)}" '
                f'stroke="red" stroke-width="1.5"/>'
            )
        if label is not None:
            out.append(
                f'<text x="{spine_x + 3}" y="{min(ys) - 4}" font-size="10" '
                f'fill="black">{label}</text>'
            )
    # dots last, over the ribs
    for i in range(1, n + 1):
        x, y = coords[i]
        fill = "black" if t.mask[i - 1] == "1" else "white"
        out.append(
            f'<circle cx="{x}" cy="{y}" r="{DOT}" fill="{fill}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x + (8 if x == RIGHT_X else -16)}" y="{y + 4}" '
            f'font-size="10" fill="#555">{i}</text>'
        )
    out.append("</g>")
    return out


def render_svg(bps: list) -> str:
    """A standalone SVG document showing the diagrams side by side."""
    width_each = RIGHT_X + 60
    max_n = 0
    for bp in bps:
        t = bp.base.type if isinstance(bp, LabeledBipartition) else bp.type
        max_n = max(max_n, len(t.alpha))
    height = TOP + STEP * (max_n + 2)
    width = max(width_each * len(bps), width_each)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
    ]
    for k, bp in enumerate(bps):
        parts.extend(render_bipartition(bp, x_offset=k * width_each))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
