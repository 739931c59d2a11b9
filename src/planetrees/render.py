"""Deterministic SVG rendering of drawings and layouts.

Annulus layouts are drawn faithfully: side edges as sampled spiral
polylines, inner edges as chords, outer edges as arcs bulging outward.
Book layouts use semicircular arcs above and below the spine, point
drawings use straight segments.  Abstract drawings (no geometry) are
rendered schematically with the vertices on a circle, so their
crossing pattern is not meaningful in the picture.

A highlighted tree is emitted as a separate thick-stroked group.  The
output is byte-identical for identical inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from .book import PAGE_TOP, BookLayout
from .core import Drawing, EdgeSet, all_edges, edge
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


def _edge_color(coloring, e) -> str:
    if coloring is None:
        return "#555555"
    return COLOR_PALETTE[coloring.color_of_edge(e) % len(COLOR_PALETTE)]


def _svg(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" '
        f'height="{int(SIZE)}" viewBox="0 0 {int(SIZE)} {int(SIZE)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _vertex_dots(positions: dict[int, tuple[float, float]]) -> list[str]:
    out = ['<g class="vertices">']
    for v in sorted(positions):
        x, y = positions[v]
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="#000000"/>')
        out.append(
            f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" font-size="11" '
            f'font-family="monospace">{v}</text>'
        )
    out.append("</g>")
    return out


def _tree_group(tree: EdgeSet, path_of: dict) -> list[str]:
    out = ['<g class="tree" stroke="#000000" stroke-width="4" fill="none" opacity="0.45">']
    for e in sorted(tree):
        if e in path_of:
            out.append(path_of[e])
    out.append("</g>")
    return out


def _annulus_xy(angle_pi: float, radius: float) -> tuple[float, float]:
    th = angle_pi * math.pi
    return CENTER + radius * math.cos(th), CENTER - radius * math.sin(th)


def _render_cylindrical(layout: CylindricalLayout, tree: Optional[EdgeSet]) -> str:
    p, n = layout.n_inner, layout.n
    r_in, r_out = 95.0, 205.0
    body = [
        f'<circle cx="{_fmt(CENTER)}" cy="{_fmt(CENTER)}" r="{_fmt(r_in)}" '
        'fill="none" stroke="#cccccc" stroke-dasharray="4 3"/>',
        f'<circle cx="{_fmt(CENTER)}" cy="{_fmt(CENTER)}" r="{_fmt(r_out)}" '
        'fill="none" stroke="#cccccc" stroke-dasharray="4 3"/>',
    ]
    positions = {}
    for v in range(n):
        if v < p:
            positions[v] = _annulus_xy(float(layout.inner_angles[v]), r_in)
        else:
            positions[v] = _annulus_xy(float(layout.outer_angles[v - p]), r_out)

    def side_path(e) -> str:
        u, w = e
        a = float(layout.inner_angles[u])
        d = float(layout.windings[u][w - p])
        pts = []
        for s in range(65):
            t = s / 64
            pts.append(_pt(*_annulus_xy(a + t * d, r_in + t * (r_out - r_in))))
        return f'<polyline points="{" ".join(pts)}"/>'

    def chord_path(e) -> str:
        (x1, y1), (x2, y2) = positions[e[0]], positions[e[1]]
        return f'<path d="M {_pt(x1, y1)} L {_pt(x2, y2)}"/>'

    def outer_arc_path(e) -> str:
        a1 = float(layout.outer_angles[e[0] - p])
        a2 = float(layout.outer_angles[e[1] - p])
        lo, hi = min(a1, a2), max(a1, a2)
        span = hi - lo
        if span > 1.0:  # use the short way around
            lo, hi = hi, lo + 2.0
            span = hi - lo
        mid = (lo + hi) / 2
        bulge = r_out + 18.0 + 30.0 * span
        (x1, y1), (x2, y2) = positions[e[0]], positions[e[1]]
        cx, cy = _annulus_xy(mid, bulge)
        return f'<path d="M {_pt(x1, y1)} Q {_pt(cx, cy)} {_pt(x2, y2)}" fill="none"/>'

    path_of = {}
    for e in all_edges(n):
        if layout.is_side_edge(e):
            path_of[e] = side_path(e)
        elif e[1] < p:
            path_of[e] = chord_path(e)
        else:
            path_of[e] = outer_arc_path(e)
    edge_group = ['<g class="edges" fill="none" stroke-width="1.4">']
    for e in all_edges(n):
        color = _edge_color(layout.color, e)
        edge_group.append(path_of[e].replace("<path ", f'<path stroke="{color}" ').replace("<polyline ", f'<polyline stroke="{color}" '))
    edge_group.append("</g>")
    body.extend(edge_group)
    if tree:
        body.extend(_tree_group(tree, path_of))
    body.extend(_vertex_dots(positions))
    return _svg(body)


def _render_book(layout: BookLayout, tree: Optional[EdgeSet]) -> str:
    n = layout.n
    pos = {v: i for i, v in enumerate(layout.spine)}
    margin = 40.0
    step = (SIZE - 2 * margin) / max(1, n - 1)
    y = CENTER
    positions = {v: (margin + pos[v] * step, y) for v in range(n)}
    body = [
        f'<line x1="{_fmt(margin - 15)}" y1="{_fmt(y)}" x2="{_fmt(SIZE - margin + 15)}" '
        f'y2="{_fmt(y)}" stroke="#cccccc"/>'
    ]

    def arc_path(e) -> str:
        x1 = positions[e[0]][0]
        x2 = positions[e[1]][0]
        lo, hi = min(x1, x2), max(x1, x2)
        rx = (hi - lo) / 2
        ry = min(rx * 0.8, SIZE / 2 - 20)
        sweep = 1 if layout.page_of(e) == PAGE_TOP else 0
        return (
            f'<path d="M {_pt(lo, y)} A {_fmt(rx)} {_fmt(ry)} 0 0 {sweep} '
            f'{_pt(hi, y)}" fill="none"/>'
        )

    path_of = {e: arc_path(e) for e in all_edges(n)}
    edge_group = ['<g class="edges" fill="none" stroke-width="1.4">']
    for e in all_edges(n):
        edge_group.append(path_of[e].replace("<path ", f'<path stroke="{_edge_color(layout.color, e)}" '))
    edge_group.append("</g>")
    body.extend(edge_group)
    if tree:
        body.extend(_tree_group(tree, path_of))
    body.extend(_vertex_dots(positions))
    return _svg(body)


def _render_points(p: PointDrawing, tree: Optional[EdgeSet]) -> str:
    xs = [float(Fraction(q[0])) for q in p.points]
    ys = [float(Fraction(q[1])) for q in p.points]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    margin = 40.0
    scale = (SIZE - 2 * margin) / span

    def xy(v: int) -> tuple[float, float]:
        return (
            margin + (xs[v] - lo_x) * scale,
            SIZE - margin - (ys[v] - lo_y) * scale,
        )

    positions = {v: xy(v) for v in range(p.n)}
    path_of = {
        e: f'<path d="M {_pt(*positions[e[0]])} L {_pt(*positions[e[1]])}"/>'
        for e in all_edges(p.n)
    }
    body = ['<g class="edges" fill="none" stroke-width="1.4">']
    for e in all_edges(p.n):
        body.append(path_of[e].replace("<path ", f'<path stroke="{_edge_color(p.color, e)}" '))
    body.append("</g>")
    if tree:
        body.extend(_tree_group(tree, path_of))
    body.extend(_vertex_dots(positions))
    return _svg(body)


def _render_schematic(d: Drawing, tree: Optional[EdgeSet]) -> str:
    n = d.n
    r = 210.0
    positions = {
        v: (CENTER + r * math.cos(2 * math.pi * v / n), CENTER - r * math.sin(2 * math.pi * v / n))
        for v in range(n)
    }
    path_of = {
        e: f'<path d="M {_pt(*positions[e[0]])} L {_pt(*positions[e[1]])}"/>'
        for e in all_edges(n)
    }
    body = ['<g class="edges" fill="none" stroke="#777777" stroke-width="1">']
    body.extend(path_of[e] for e in all_edges(n))
    body.append("</g>")
    if tree:
        body.extend(_tree_group(tree, path_of))
    body.extend(_vertex_dots(positions))
    return _svg(body)


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
