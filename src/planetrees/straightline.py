"""Straight-line point drawings and the prefix/suffix tree solver.

Points are kept on an integer (or rational) grid and every geometric
decision runs through exact sign-of-determinant orientation tests, so
the compiled crossing set is free of floating-point artifacts.  The
inputs must be in general position: no three collinear points and
pairwise distinct x-coordinates.  Compilation computes one orientation
table over all triples (the order type of the point set) and reads
everything off it: each 4-subset's single crossing pairing, if any,
from the orientations of its four triples, and each vertex's rotation
from the orientations of the triples through it.

The solver works by induction on the vertex set.  If some vertex has
uncrossed edges of both colors it is peeled off and re-attached later.
Otherwise the convex hull cycle is monochromatic, say red; if an
interior point exists, monochromatic spanning trees of the x-order
prefixes and suffixes are combined: either a prefix tree and suffix
tree of equal color share a vertex, or a red prefix/suffix pair is
joined by the edge between consecutive x-neighbors or by the hull edge
bridging them.
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


def orientation_table(points: Sequence[Point]) -> list[list[list[int]]]:
    """``o[i][j][k] = orient(points[i], points[j], points[k])`` for all triples.

    Raises ValueError unless the points are in general position: a
    repeated x-coordinate, else the first collinear triple i<j<k.
    """
    n = len(points)
    if len({x for x, _ in points}) != n:
        raise ValueError("duplicate x-coordinate among points")
    o = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = orient(points[i], points[j], points[k])
                if s == 0:
                    raise ValueError(f"collinear points {i}, {j}, {k}")
                o[i][j][k] = o[j][k][i] = o[k][i][j] = s
                o[i][k][j] = o[k][j][i] = o[j][i][k] = -s
    return o


def check_general_position(points: Sequence[Point]) -> None:
    """Raise orientation_table's ValueError unless in general position."""
    orientation_table(points)


def _rotation(points: Sequence[Point], o: list[list[list[int]]], v: int) -> tuple[int, ...]:
    """Counterclockwise order of the other points around point v.

    The half-plane from angle 0 (inclusive) to pi comes first, then the
    other; inside a half, w1 precedes w2 iff orient(v, w1, w2) > 0, so
    the rank of w is the number of its half with orient(v, w, .) < 0.
    """
    x, y = points[v]
    halves: tuple[list[int], list[int]] = ([], [])
    for w, (wx, wy) in enumerate(points):
        if w != v:
            halves[0 if wy > y or (wy == y and wx > x) else 1].append(w)
    rot: list[int] = []
    for half in halves:
        ranked = [0] * len(half)
        for w in half:
            ranked[(len(half) - 1 - sum(map(o[v][w].__getitem__, half))) // 2] = w
        rot += ranked
    return tuple(rot)


def compile_points(p: PointDrawing) -> Drawing:
    """Crossing set and rotations from the orientation table.

    Of the pairings ab|cd, ac|bd, ad|bc of a 4-subset a<b<c<d at most
    one crosses.  Two segments cross iff each separates the other's
    ends; written with the signs of the sorted triples abc, abd, acd and
    bcd, that gives the three tests below.
    """
    o, n = orientation_table(p.points), p.n
    edges = [[(u, w) for w in range(n)] for u in range(n)]  # edges[u][w] for u < w
    crossings = []
    for a in range(n):
        for b in range(a + 1, n):
            oab, ob, ea, eb = o[a][b], o[b], edges[a], edges[b]
            for c in range(b + 1, n):
                abc, oac, obc, ec = oab[c], o[a][c], ob[c], edges[c]
                for d in range(c + 1, n):
                    abd, acd, bcd = oab[d], oac[d], obc[d]
                    if abc != abd and acd != bcd:
                        crossings.append((ea[b], ec[d]))
                    elif abc == acd and abd == bcd:
                        crossings.append((ea[c], eb[d]))
                    elif abd != acd and abc != bcd:
                        crossings.append((ea[d], eb[c]))
    rotations = tuple(_rotation(p.points, o, v) for v in range(n))
    rank = {v: r for r, v in enumerate(x_order(p.points))}
    labels = tuple(f"x:{rank[v]}" for v in range(n))
    return Drawing.compiled(n, frozenset(crossings), rotations, labels)


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


def _upper_lower_chains(points: Sequence[Point], hull: list[int]) -> tuple[list[int], list[int]]:
    """Split a ccw hull cycle into x-increasing lower and upper chains."""
    left = min(hull, key=lambda v: points[v][0])
    right = max(hull, key=lambda v: points[v][0])
    i = hull.index(left)
    cyc = hull[i:] + hull[:i]
    j = cyc.index(right)
    lower = cyc[: j + 1]
    upper = [left] + list(reversed(cyc[j + 1 :])) + [right]
    return upper, lower


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
        m = len(subset)
        if m == 1:
            return frozenset(), None
        if m == 2:
            a, b = sorted(subset)
            e = edge(a, b)
            return frozenset({e}), self.color.color_of_edge(e)

        # Peel a vertex with uncrossed edges of both colors.
        x = self.points
        peeled = peel_candidate(self.d, self.color, sorted(subset), lambda v, w: abs(x[w][0] - x[v][0]))
        if peeled is not None:
            v, byc = peeled
            tree, col = self.solve(subset - {v})
            if col is None:
                col = min(byc)
            attach = byc.get(col)
            if attach is None:
                raise ProofContradiction(f"no uncrossed edge of color {col} at vertex {v}")
            return frozenset(tree | {attach}), col

        # No such vertex: the hull cycle must be monochromatic.
        hull = convex_hull(self.points, sorted(subset))
        hull_edges = [edge(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
        if len(hull) == 2:
            hull_edges = hull_edges[:1]
        alive = induced_mask(self.d.n, subset)
        for e in hull_edges:
            if self.d.conflicts[edge_index(self.d.n, e)] & alive:
                raise ProofContradiction(f"hull edge {e} is crossed within the subset")
        hull_colors = {self.color.color_of_edge(e) for e in hull_edges}
        if len(hull_colors) != 1:
            raise ProofContradiction(
                f"hull cycle of subset {sorted(subset)} is bichromatic "
                f"although no vertex has uncrossed edges of both colors"
            )
        red = next(iter(hull_colors))

        if len(hull) == m:
            # All points on the hull: the boundary path is the tree.
            start = hull.index(min(hull))
            cyc = hull[start:] + hull[:start]
            tree = frozenset(edge(cyc[i], cyc[i + 1]) for i in range(m - 1))
            return tree, red

        order = sorted(subset, key=lambda v: self.points[v][0])

        # Shared-vertex combination: prefix and suffix trees of equal color.
        for i in range(1, m - 1):
            left, col_l = self.solve(frozenset(order[: i + 1]))
            right, col_r = self.solve(frozenset(order[i:]))
            if col_l is not None and col_l == col_r:
                return frozenset(left | right), col_l

        # Disjoint combination: hull-colored prefix and suffix joined by
        # the consecutive edge or the hull edge bridging it.
        for i in range(0, m - 1):
            left, col_l = self.solve(frozenset(order[: i + 1]))
            right, col_r = self.solve(frozenset(order[i + 1 :]))
            if (col_l is not None and col_l != red) or (col_r is not None and col_r != red):
                continue
            join = self._join_edge(order, i, red, subset)
            if join is None:
                continue
            return frozenset(left | right | {join}), red

        raise ProofContradiction(
            f"no prefix/suffix combination found for subset {sorted(subset)}"
        )

    def _join_edge(self, order: list[int], i: int, red: int, subset: frozenset[int]) -> Optional[Edge]:
        # The direct edge between the consecutive x-neighbors cannot
        # cross either side's tree (disjoint x-ranges), so its color is
        # the only requirement; otherwise a hull edge bridges the gap.
        a, b = order[i], order[i + 1]
        direct = edge(a, b)
        if self.color.color_of_edge(direct) == red:
            return direct
        hull = convex_hull(self.points, sorted(subset))
        upper, lower = _upper_lower_chains(self.points, hull)
        xa = self.points[a][0]
        for chain in (upper, lower):
            for j in range(len(chain) - 1):
                u, w = chain[j], chain[j + 1]
                if self.points[u][0] > self.points[w][0]:
                    u, w = w, u
                if self.points[u][0] <= xa < self.points[w][0]:
                    e = edge(u, w)
                    if self.color.color_of_edge(e) == red:
                        return e
        return None


def solve_points(p: PointDrawing) -> SolveReport:
    """Monochromatic plane spanning tree of a 2-colored point drawing."""
    color = p.color
    if color.k != 2:
        raise ValueError(f"point solver handles exactly 2 colors, got k={color.k}")
    d = compile_points(p)
    solver = _Solver(p.points, d, color)
    try:
        tree, _ = solver.solve(frozenset(range(p.n)))
    except ProofContradiction as exc:
        return SolveReport(
            status=STATUS_COUNTEREXAMPLE,
            witness={"reason": str(exc), "n": p.n},
        )
    return certify(d, color, tree)
