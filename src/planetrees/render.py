"""Deterministic SVG rendering of drawings and layouts.

Annulus layouts are drawn faithfully: side edges as sampled spiral
polylines, inner edges as chords, outer edges as arcs bulging outward.
Book layouts use semicircular arcs above and below the spine, point
drawings use straight segments.  Abstract drawings (no geometry) are
rendered schematically with the vertices on a circle, so their
crossing pattern is not meaningful in the picture.

Every picture is assembled the same way: guides, the edges in rank
order, a highlighted tree as a separate thick-stroked group, then the
vertex dots.  The output is byte-identical for identical inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Union

from .book import PAGE_TOP, BookLayout
from .core import Drawing, Edge, EdgeColoring, EdgeSet, edge, edge_table
from .cylindrical import CylindricalLayout
from .straightline import PointDrawing

MAX_RENDER_VERTICES = 50
SIZE = 520.0
CENTER = SIZE / 2
COLOR_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _pt(x: float, y: float) -> str:
    return f"{_fmt(x)},{_fmt(y)}"


def _figure(
    guides: list[str],
    positions: list[tuple[float, float]],
    path_of: Callable[[Edge], tuple[str, str]],
    coloring: Optional[EdgeColoring],
    tree: Optional[EdgeSet],
) -> str:
    """The SVG document: guides, the edges in rank order, the tree, then the vertex dots.

    ``path_of(e)`` is the element of edge e as (tag, attributes).  Edges
    are stroked by colour, or drawn grey and 1 px wide in a schematic
    drawing, which has no colouring.
    """
    elements = [(e, *path_of(e)) for e in edge_table(len(positions))]
    if coloring is None:
        group, strokes = 'stroke="#777777" stroke-width="1"', [""] * len(elements)
    else:
        group = 'stroke-width="1.4"'
        strokes = [f'stroke="{COLOR_PALETTE[c % len(COLOR_PALETTE)]}" ' for c in coloring.colors]
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" '
        f'height="{int(SIZE)}" viewBox="0 0 {int(SIZE)} {int(SIZE)}">',
        *guides,
        f'<g class="edges" fill="none" {group}>',
        *(f"<{tag} {stroke}{attrs}/>" for (_, tag, attrs), stroke in zip(elements, strokes)),
        "</g>",
    ]
    if tree:
        body.append('<g class="tree" stroke="#000000" stroke-width="4" fill="none" opacity="0.45">')
        body.extend(f"<{tag} {attrs}/>" for e, tag, attrs in elements if e in tree)
        body.append("</g>")
    body.append('<g class="vertices">')
    for v, (x, y) in enumerate(positions):
        body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="#000000"/>')
        body.append(
            f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" font-size="11" '
            f'font-family="monospace">{v}</text>'
        )
    body.extend(["</g>", "</svg>"])
    return "\n".join(body) + "\n"


def _segments(positions: list[tuple[float, float]]) -> Callable[[Edge], tuple[str, str]]:
    """``path_of`` for straight segments between the vertices."""
    return lambda e: ("path", f'd="M {_pt(*positions[e[0]])} L {_pt(*positions[e[1]])}"')


def _annulus_xy(angle_pi: float, radius: float) -> tuple[float, float]:
    th = angle_pi * math.pi
    return CENTER + radius * math.cos(th), CENTER - radius * math.sin(th)


def _render_cylindrical(layout: CylindricalLayout, tree: Optional[EdgeSet]) -> str:
    p, n = layout.n_inner, layout.n
    r_in, r_out = 95.0, 205.0
    guides = [
        f'<circle cx="{_fmt(CENTER)}" cy="{_fmt(CENTER)}" r="{_fmt(r)}" '
        'fill="none" stroke="#cccccc" stroke-dasharray="4 3"/>'
        for r in (r_in, r_out)
    ]
    positions = [_annulus_xy(float(a), r_in) for a in layout.inner_angles]
    positions += [_annulus_xy(float(a), r_out) for a in layout.outer_angles]
    chord = _segments(positions)

    def path_of(e) -> tuple[str, str]:
        u, w = e
        if layout.is_side_edge(e):
            a = float(layout.inner_angles[u])
            d = float(layout.windings[u][w - p])
            pts = (_pt(*_annulus_xy(a + s / 64 * d, r_in + s / 64 * (r_out - r_in))) for s in range(65))
            return "polyline", f'points="{" ".join(pts)}"'
        if w < p:
            return chord(e)
        a1 = float(layout.outer_angles[u - p])
        a2 = float(layout.outer_angles[w - p])
        lo, hi = min(a1, a2), max(a1, a2)
        span = hi - lo
        if span > 1.0:  # use the short way around
            lo, hi = hi, lo + 2.0
            span = hi - lo
        cx, cy = _annulus_xy((lo + hi) / 2, r_out + 18.0 + 30.0 * span)
        return "path", f'd="M {_pt(*positions[u])} Q {_pt(cx, cy)} {_pt(*positions[w])}" fill="none"'

    return _figure(guides, positions, path_of, layout.color, tree)


def _render_book(layout: BookLayout, tree: Optional[EdgeSet]) -> str:
    margin = 40.0
    step = (SIZE - 2 * margin) / max(1, layout.n - 1)
    y = CENTER
    x_of = {v: margin + i * step for i, v in enumerate(layout.spine)}
    guides = [
        f'<line x1="{_fmt(margin - 15)}" y1="{_fmt(y)}" x2="{_fmt(SIZE - margin + 15)}" '
        f'y2="{_fmt(y)}" stroke="#cccccc"/>'
    ]

    def path_of(e) -> tuple[str, str]:
        lo, hi = sorted((x_of[e[0]], x_of[e[1]]))
        rx = (hi - lo) / 2
        ry = min(rx * 0.8, SIZE / 2 - 20)
        sweep = 1 if layout.page_of(e) == PAGE_TOP else 0
        return "path", f'd="M {_pt(lo, y)} A {_fmt(rx)} {_fmt(ry)} 0 0 {sweep} {_pt(hi, y)}" fill="none"'

    positions = [(x_of[v], y) for v in range(layout.n)]
    return _figure(guides, positions, path_of, layout.color, tree)


def _render_points(p: PointDrawing, tree: Optional[EdgeSet]) -> str:
    xs = [float(Fraction(q[0])) for q in p.points]
    ys = [float(Fraction(q[1])) for q in p.points]
    lo_x, lo_y = min(xs), min(ys)
    span = max(max(xs) - lo_x, max(ys) - lo_y, 1e-9)
    margin = 40.0
    scale = (SIZE - 2 * margin) / span
    positions = [(margin + (x - lo_x) * scale, SIZE - margin - (y - lo_y) * scale) for x, y in zip(xs, ys)]
    return _figure([], positions, _segments(positions), p.color, tree)


def _render_schematic(d: Drawing, tree: Optional[EdgeSet]) -> str:
    n, r = d.n, 210.0
    positions = [
        (CENTER + r * math.cos(2 * math.pi * v / n), CENTER - r * math.sin(2 * math.pi * v / n)) for v in range(n)
    ]
    return _figure([], positions, _segments(positions), None, tree)


def render_svg(
    obj: Union[Drawing, CylindricalLayout, BookLayout, PointDrawing], tree: Optional[EdgeSet] = None
) -> str:
    """Vector image of a drawing or layout, optionally with a thick tree."""
    n = obj.n
    if n > MAX_RENDER_VERTICES:
        raise ValueError(f"refusing to render {n} > {MAX_RENDER_VERTICES} vertices")
    if tree is not None:
        tree = frozenset(edge(*e) for e in tree)
    if isinstance(obj, CylindricalLayout):
        return _render_cylindrical(obj, tree)
    if isinstance(obj, BookLayout):
        return _render_book(obj, tree)
    if isinstance(obj, PointDrawing):
        return _render_points(obj, tree)
    if isinstance(obj, Drawing):
        return _render_schematic(obj, tree)
    raise TypeError(f"cannot render {type(obj).__name__}")
