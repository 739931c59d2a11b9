"""Straight-line point drawings and the prefix/suffix tree solver.

Points are kept on an integer (or rational) grid and every geometric
decision runs through exact sign-of-determinant orientation tests, so
the compiled crossing set is free of floating-point artifacts.  The
inputs must be in general position: no three collinear points and
pairwise distinct x-coordinates.  Compilation takes one orientation
sign per triple into a half-plane table (``half_planes``: for each
ordered pair, the bitmask of the points left of it), the only step that
reads coordinates besides the x-order labels, and reads the drawing off
it: each vertex's rotation from popcounts, and the conflict rows from
per-vertex side masks and incident-mask XORs kept up to date while
turning around each vertex (``table_rows``).

The solver (Károlyi, Pach and Tóth) works by induction on the vertex
set: it peels a vertex, or combines trees of the x-order prefixes and
suffixes that share a vertex or are joined by the one hull edge whose
x-range spans the split (``_spanning_hull_edge``).  The proof that one
of them always succeeds is in ``_Solver._solve_uncached``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import (
    Drawing,
    Edge,
    EdgeColoring,
    EdgeSet,
    SolveReport,
    STATUS_COUNTEREXAMPLE,
    certify,
    edge,
    edge_index,
    edge_mask,
    incident_masks,
    induced_mask,
    mask_is_plane,
    peel_candidate,
)

Coord = Union[int, Fraction]
Point = tuple[Coord, Coord]


class ProofContradiction(Exception):
    """An assertion backed by the correctness argument failed."""


@dataclass(frozen=True)
class PointDrawing:
    """Points in general position with an edge coloring."""

    points: tuple[Point, ...]
    color: EdgeColoring

    def __post_init__(self) -> None:
        if len(self.points) != self.color.n:
            raise ValueError("coloring size does not match point count")

    @property
    def n(self) -> int:
        return len(self.points)


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the determinant |b-a, c-a|: +1 ccw, -1 cw, 0 collinear."""
    val = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (val > 0) - (val < 0)


def half_planes(points: Sequence[Point]) -> list[list[int]]:
    """``L[i][j]``: bitmask of the points strictly left of the line i->j,
    three entries per exact orientation sign of a triple i<j<k.  Raises
    ValueError unless the points are in general position: a repeated
    x-coordinate, else the first collinear triple i<j<k."""
    n = len(points)
    if len({x for x, _ in points}) != n:
        raise ValueError("duplicate x-coordinate among points")
    left, bits = [[0] * n for _ in range(n)], [1 << k for k in range(n)]
    for i, (ax, ay) in enumerate(points):
        rel = [(x - ax, y - ay) for x, y in points]
        at_i, bit_i = left[i], bits[i]
        for j in range(i + 1, n):
            (dx, dy), at_j, bit_j = rel[j], left[j], bits[j]
            ccw = cw = 0  # the k > j left of i->j, and left of j->i
            for k in range(j + 1, n):
                ex, ey = rel[k]
                up, down = dx * ey, dy * ex
                if up > down:  # i is left of j->k, j of k->i
                    ccw |= bits[k]
                    at_j[k] |= bit_i
                    left[k][i] |= bit_j
                elif up < down:  # j is left of i->k, i of k->j
                    cw |= bits[k]
                    at_i[k] |= bit_j
                    left[k][j] |= bit_i
                else:
                    raise ValueError(f"collinear points {i}, {j}, {k}")
            at_i[j] |= ccw
            at_j[i] |= cw
    return left


def check_general_position(points: Sequence[Point]) -> None:
    """Raise half_planes's ValueError unless in general position."""
    half_planes(points)


def _rotation(left: list[list[int]], v: int) -> tuple[int, ...]:
    """Counterclockwise order of the other points around point v, read off
    the half-plane table from v's smallest neighbour r.

    r and the points left of v->r fill the half-turn from r, the points
    right of it the other; inside a half, w1 precedes w2 iff w2 is left
    of v->w1, so the rank of w is the number of its half left of w->v.
    A single point has no neighbour and an empty rotation.
    """
    if len(left) == 1:
        return ()
    r = 1 if v == 0 else 0
    rot: list[int] = []
    for half in (left[v][r] | 1 << r, left[r][v]):
        ranked = [0] * half.bit_count()
        for w in range(len(left)):
            if half >> w & 1:
                ranked[(half & left[w][v]).bit_count()] = w
        rot += ranked
    return tuple(rot)


def table_rows(left: list[list[int]], rotations: Sequence[Sequence[int]]) -> list[int]:
    """Conflict rows of the straight-line drawing with half-plane table
    ``left`` and the rotations ``_rotation`` reads off it, in O(n^2)
    big-integer steps and no table kept past the call.

    Segments ab and cd cross iff each line separates the other's ends.
    The per-vertex side mask W[x] has the bit of edge (c, d) set iff x
    lies right of c->d: block c of the ranks is L[c][x] shifted down past
    c.  So W[a] ^ W[b] holds the edges whose line separates a and b.  The
    edges with one end in S = L[a][b] and the other off it are the XOR of
    the incident masks of S; as b turns counterclockwise around a, S
    gains and loses each point once, so a keeps that XOR up to date in
    O(n) steps.  The edges at a or b are masked off.
    """
    n = len(left)
    incident = incident_masks(n)
    base = [edge_index(n, (c, c + 1)) for c in range(n)]
    side = [0] * n
    for c in range(n):
        for x in range(n):
            side[x] |= (left[c][x] >> (c + 1)) << base[c]
    rows = [0] * (n * (n - 1) // 2)
    for a in range(n - 1):
        around, split, prev = left[a], 0, 0  # split: XOR of the incident masks of prev = L[a][b]
        for b in rotations[a]:
            changed, prev = prev ^ around[b], around[b]
            while changed:
                low = changed & -changed
                split ^= incident[low.bit_length() - 1]
                changed ^= low
            if b > a:
                rows[base[a] + b - a - 1] = (side[a] ^ side[b]) & split & ~(incident[a] | incident[b])
    return rows


def compile_points(p: PointDrawing) -> Drawing:
    """Conflict rows and rotations read off the half-plane table L: each
    rotation by ``_rotation``, the rows from per-vertex side masks W and
    the incident-mask XOR of each L[a][b] by ``table_rows``.  Apart from
    the labels, the x-order ranks, only ``half_planes`` reads
    coordinates."""
    left, n = half_planes(p.points), p.n
    rotations = [_rotation(left, v) for v in range(n)]
    rank = {v: r for r, v in enumerate(x_order(p.points))}
    labels = tuple(f"x:{rank[v]}" for v in range(n))
    return Drawing.from_rows(n, table_rows(left, rotations), rotations, labels)


def x_order(points: Sequence[Point]) -> list[int]:
    return sorted(range(len(points)), key=lambda v: points[v][0])


def convex_hull(points: Sequence[Point], subset: Sequence[int]) -> list[int]:
    """Hull of a subset in counterclockwise order (monotone chain)."""
    idx = sorted(subset, key=lambda v: points[v])
    if len(idx) <= 2:
        return list(idx)
    lower: list[int] = []
    for v in idx:
        while len(lower) >= 2 and orient(points[lower[-2]], points[lower[-1]], points[v]) <= 0:
            lower.pop()
        lower.append(v)
    upper: list[int] = []
    for v in reversed(idx):
        while len(upper) >= 2 and orient(points[upper[-2]], points[upper[-1]], points[v]) <= 0:
            upper.pop()
        upper.append(v)
    return lower[:-1] + upper[:-1]


def _spanning_hull_edge(points: Sequence[Point], hull_edges: Sequence[Edge], x: Coord) -> Edge:
    """The first hull edge, in hull order, with left end x <= x < right
    end x: one on the lower chain, for x from the leftmost point's up to
    but not including the rightmost point's."""
    for u, w in hull_edges:
        if min(points[u][0], points[w][0]) <= x < max(points[u][0], points[w][0]):
            return (u, w)
    raise ProofContradiction(f"no hull edge spans x={x}")


class _Solver:
    def __init__(self, points: tuple[Point, ...], d: Drawing, color: EdgeColoring):
        self.points = points
        self.d = d
        self.color = color
        self.memo: dict[frozenset[int], tuple[EdgeSet, Optional[int]]] = {}

    def solve(self, subset: frozenset[int]) -> tuple[EdgeSet, Optional[int]]:
        """Monochromatic plane spanning tree of the induced subdrawing.

        Returns (tree edges in original labels, tree color); the color
        is None only for a single-vertex subset.
        """
        if subset in self.memo:
            return self.memo[subset]
        result = self._solve_uncached(subset)
        if not mask_is_plane(edge_mask(self.d.n, result[0]), self.d.conflicts):
            raise ProofContradiction(f"tree on subset {sorted(subset)} is not plane")
        self.memo[subset] = result
        return result

    def _solve_uncached(self, subset: frozenset[int]) -> tuple[EdgeSet, Optional[int]]:
        """A plane spanning tree of one color on ``subset``, and the color.

        Two points give their edge.  A vertex with uncrossed edges of
        both colors is peeled; its uncrossed edge of the color of the
        rest's tree re-attaches it as a leaf.  Otherwise no segment
        between points of the subset crosses a hull edge, so both hull
        edges at a hull vertex have one color: the hull is monochromatic,
        say red.  In convex position the hull path is the tree.  Else,
        with o_0..o_{m-1} the x-order and each part's color that of its
        own tree (every part of 2 or more points has one):

        1. Each union is a plane spanning tree of one color.  The prefix
           o_0..o_i and the suffix o_i..o_{m-1} lie in the x-slabs left
           and right of o_i, which meet only at o_i: trees on them share
           o_i and cross nowhere.  A red prefix o_0..o_i and a red suffix
           o_{i+1}..o_{m-1} lie in disjoint slabs.  The hull edge whose
           x-range spans x(o_i) has one end in each; it is red, and no
           segment between points of the subset crosses it.
        2. Some split succeeds.  Suppose the disjoint loop fails at every
           i, a single vertex counting as red.  Then the suffix at i=0 and
           the prefix at i=m-2 are not red.  Let i >= 1 be the least index
           whose prefix o_0..o_i is not red.  The prefix o_0..o_{i-1} is
           red and the disjoint loop failed at i-1, so the suffix
           o_i..o_{m-1} is not red either.  Both have 2 or more points
           (i <= m-2), so both are blue: the shared-vertex loop returned.

        So the final ``ProofContradiction`` is reached only if this
        argument is wrong; ``certify`` still checks the answer.
        """
        m = len(subset)
        if m == 1:
            return frozenset(), None
        if m == 2:
            e = edge(*subset)
            return frozenset({e}), self.color.color_of_edge(e)

        x = self.points
        peeled = peel_candidate(self.d, self.color, sorted(subset), lambda v, w: abs(x[w][0] - x[v][0]))
        if peeled is not None:
            v, byc = peeled
            tree, col = self.solve(subset - {v})
            attach = byc.get(col)
            if attach is None:
                raise ProofContradiction(f"no uncrossed edge of color {col} at vertex {v}")
            return frozenset(tree | {attach}), col

        hull = convex_hull(self.points, sorted(subset))
        hull_edges = [edge(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
        alive = induced_mask(self.d.n, subset)
        for e in hull_edges:
            if self.d.conflicts[edge_index(self.d.n, e)] & alive:
                raise ProofContradiction(f"hull edge {e} is crossed within the subset")
        hull_colors = {self.color.color_of_edge(e) for e in hull_edges}
        if len(hull_colors) != 1:
            raise ProofContradiction(f"hull cycle of subset {sorted(subset)} is bichromatic "
                                     f"although no vertex has uncrossed edges of both colors")
        (red,) = hull_colors
        if len(hull) == m:  # the hull path from the smallest vertex
            return frozenset(hull_edges) - {hull_edges[hull.index(min(hull)) - 1]}, red

        order = sorted(subset, key=lambda v: x[v][0])
        for i in range(1, m - 1):  # the shared-vertex loop
            left, col_l = self.solve(frozenset(order[: i + 1]))
            right, col_r = self.solve(frozenset(order[i:]))
            if col_l == col_r:
                return frozenset(left | right), col_l
        for i in range(m - 1):  # the disjoint loop
            left, col_l = self.solve(frozenset(order[: i + 1]))
            right, col_r = self.solve(frozenset(order[i + 1 :]))
            if {col_l, col_r} <= {red, None}:
                return frozenset(left | right | {_spanning_hull_edge(x, hull_edges, x[order[i]][0])}), red
        raise ProofContradiction(f"no prefix/suffix combination found for subset {sorted(subset)}")


def solve_points(p: PointDrawing) -> SolveReport:
    """Monochromatic plane spanning tree of a 2-colored point drawing."""
    color = p.color
    if color.k != 2:
        raise ValueError(f"point solver handles exactly 2 colors, got k={color.k}")
    if color.n < 2:
        raise ValueError(f"need n >= 2, got n={color.n}")
    d = compile_points(p)
    solver = _Solver(p.points, d, color)
    try:
        tree, _ = solver.solve(frozenset(range(p.n)))
    except ProofContradiction as exc:
        return SolveReport(status=STATUS_COUNTEREXAMPLE, witness={"reason": str(exc), "n": p.n})
    return certify(d, color, tree)
