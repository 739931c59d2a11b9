"""Shared builders for small reference drawings."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from planetrees.core import Drawing, EdgeColoring, all_edges, edge
from planetrees.cylindrical import TURN, CylindricalLayout


def one_crossing_k4() -> Drawing:
    """K_4 drawn with the single crossing (0,2) x (1,3)."""
    return Drawing(4, frozenset({((0, 2), (1, 3))}))


def plain_drawing(n: int, crossings=()) -> Drawing:
    return Drawing(n, frozenset(crossings))


def uniform_coloring(n: int, color: int = 0, k: int = 2) -> EdgeColoring:
    m = n * (n - 1) // 2
    return EdgeColoring(n, k, tuple(color for _ in range(m)))


def coloring_from(n: int, k: int, mapping: dict) -> EdgeColoring:
    full = {edge(u, v): mapping[edge(u, v)] for u, v in all_edges(n)}
    return EdgeColoring.from_map(n, k, full)


def convex_interleaving_crossings(order: list[int]) -> frozenset:
    """Independent oracle for convex-position crossings.

    In convex position, two independent edges cross exactly when their
    endpoints alternate around the hull, so every 4-subset contributes
    the pair of diagonals of its quadrilateral.
    """
    pos = {v: i for i, v in enumerate(order)}
    crossings = set()
    for quad in itertools.combinations(sorted(order, key=lambda v: pos[v]), 4):
        a, b, c, d = quad  # in hull order
        e, f = edge(a, c), edge(b, d)
        crossings.add((e, f) if e <= f else (f, e))
    return frozenset(crossings)


def fan_layout(p: int, q: int, color: EdgeColoring) -> CylindricalLayout:
    """Evenly spaced circles with minimal windings (always simple)."""
    inner = tuple(Fraction(2 * i, p) for i in range(p))
    outer = tuple(Fraction(2 * j, q) + Fraction(1, 2 * q) for j in range(q))
    windings = tuple(
        tuple((outer[j] - inner[i]) % 2 for j in range(q)) for i in range(p)
    )
    return CylindricalLayout(inner, outer, windings, color)


def winding_of(layout: CylindricalLayout, e) -> Fraction:
    u, w = e
    return layout.windings[u][w - layout.n_inner]


def side_start(layout: CylindricalLayout, e) -> Fraction:
    return layout.inner_angles[e[0]]


def _integers_strictly_between(x: Fraction, y: Fraction) -> int:
    lo, hi = (x, y) if x <= y else (y, x)
    return max(0, math.ceil(hi) - math.floor(lo) - 1)


def side_crossing_count(layout: CylindricalLayout, e, f) -> int:
    """Number of interior meetings of two side-edge spirals.

    The per-pair rational reference for the count; compile_layout
    evaluates the same formula in integer ticks over a common
    denominator.
    """
    a0 = side_start(layout, e) - side_start(layout, f)
    a1 = (side_start(layout, e) + winding_of(layout, e)) - (
        side_start(layout, f) + winding_of(layout, f)
    )
    return _integers_strictly_between(a0 / TURN, a1 / TURN)
