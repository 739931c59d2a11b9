"""Shared builders for small reference drawings."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from planetrees.book import PAGE_BOTTOM, PAGE_TOP
from planetrees.core import Drawing, EdgeColoring, SolveReport, all_edges, edge, edge_index, is_spanning_tree
from planetrees.cylindrical import TURN, CylindricalLayout, NotSimpleError, side_crossings
from planetrees.generators import GenerationError, gen_coloring
from planetrees.search import enumerate_spanning_trees, find_plane_tree
from planetrees.straightline import PointDrawing, orient


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


def canonical_pairs(crossings) -> bool:
    """True when ``crossings`` is a frozenset that rebuilding with
    ``crossing_pair(edge(...), edge(...))`` would leave unchanged (the
    pair check the ``Drawing`` constructor skipped for compiled input
    while it stored pairs)."""
    if type(crossings) is not frozenset:
        return False
    try:
        for p in crossings:
            e, f = p
            u, v = e
            x, y = f
            if not (u < v and x < y and (u < x or u == x and v <= y)):
                return False
            if type(p) is not tuple or type(e) is not tuple or type(f) is not tuple:
                return False
    except (TypeError, ValueError):
        return False
    return True


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


def reference_layout_errors(inner_angles, outer_angles, windings, color) -> None:
    """The rational checks of ``CylindricalLayout`` before they moved to
    integer ticks: raise the ValueError that a layout of these fields
    raises, or nothing."""
    p, q = len(inner_angles), len(outer_angles)
    if p + q < 2:
        raise ValueError("layout needs at least 2 vertices")
    for angles, side in ((inner_angles, "inner"), (outer_angles, "outer")):
        for a in angles:
            if not 0 <= a < TURN:
                raise ValueError(f"{side} angle {a} outside [0, 2) pi")
        if any(angles[i] >= angles[i + 1] for i in range(len(angles) - 1)):
            raise ValueError(f"{side} angles must be strictly increasing")
    if len(windings) != p or any(len(row) != q for row in windings):
        raise ValueError(f"windings must have shape {p}x{q}")
    for i in range(p):
        for j in range(q):
            diff = outer_angles[j] - inner_angles[i]
            if (windings[i][j] - diff) % TURN != 0:
                raise ValueError(
                    f"winding of side edge {i}-{p + j} is not congruent to the "
                    f"angle difference modulo a full turn"
                )
    if color.n != p + q:
        raise ValueError("coloring size does not match vertex count")


def reference_gen_cylindrical(n_inner: int, n_outer: int, seed: int, k: int = 2) -> CylindricalLayout:
    """The annulus generator as it was with rational candidates: each
    candidate is a layout of ``Fraction`` angles and windings, kept when
    compiling it would find no side pair that breaks simplicity."""
    n = n_inner + n_outer
    if n < 2:
        raise ValueError("need at least 2 vertices in total")
    rng = random.Random(f"cylindrical:{n_inner}:{n_outer}:{seed}")
    resolution = max(8 * n * n, 64)
    color = gen_coloring(n, k, seed)
    max_resamples, wrap_prob = 64, 0.15
    for attempt in range(max_resamples):
        inner = tuple(Fraction(2 * t, resolution) for t in sorted(rng.sample(range(resolution), n_inner)))
        outer = tuple(Fraction(2 * t, resolution) for t in sorted(rng.sample(range(resolution), n_outer)))
        p_wrap = wrap_prob * max(0.0, 1.0 - attempt / max(1, max_resamples // 2))
        windings = []
        for i in range(n_inner):
            row = []
            for j in range(n_outer):
                base = (outer[j] - inner[i]) % TURN
                if rng.random() < p_wrap:
                    base += TURN if rng.random() < 0.5 else -TURN
                row.append(base)
            windings.append(tuple(row))
        layout = CylindricalLayout(inner, outer, tuple(windings), color)
        den, starts, _, ticks = layout.ticks  # the side-pair scan of compile_layout
        sides = [((u, w), a, a + t) for u, a in enumerate(starts) for w, t in enumerate(ticks[u], n_inner)]
        try:
            side_crossings(sides, 2 * den)
        except NotSimpleError:
            continue
        reference_layout_errors(inner, outer, windings, color)
        return layout
    raise AssertionError(f"no simple layout within {max_resamples} attempts")


# The writers and the point generator as they were before the per-n
# edge-label tables and the direction test; tests/test_writer_tables.py
# compares the package's output with these byte for byte.


def reference_color_lines(c: EdgeColoring) -> list[str]:
    return [f"e {u} {v} : {c.color_of(u, v)}" for u, v in all_edges(c.n)]


def reference_serialize_drawing(d: Drawing, coloring=None, x_order=None) -> str:
    out = [f"drawing n={d.n}", "crossings:"]
    for e, f in sorted(d.crossings):
        out.append(f"{e[0]}-{e[1]} {f[0]}-{f[1]}")
    if d.rotations is not None:
        out.append("rotations:")
        for v, rot in enumerate(d.rotations):
            out.append(f"{v}: " + " ".join(str(w) for w in rot))
    if d.vertex_labels is not None:
        out.append("labels:")
        for v, tag in enumerate(d.vertex_labels):
            out.append(f"{v}: {tag}")
    if x_order is not None:
        out.append("xorder: " + " ".join(str(v) for v in x_order))
    if coloring is not None:
        out.append(f"colors: k={coloring.k}")
        out.extend(reference_color_lines(coloring))
    return "\n".join(out) + "\n"


def reference_book_page_lines(layout) -> list[str]:
    """The ``top:`` and ``bottom:`` lines of a book file."""
    n = layout.n
    top = [e for e in all_edges(n) if layout.page_of(e) == PAGE_TOP]
    bottom = [e for e in all_edges(n) if layout.page_of(e) == PAGE_BOTTOM]
    return ["top: " + " ".join(f"{u}-{v}" for u, v in top), "bottom: " + " ".join(f"{u}-{v}" for u, v in bottom)]


def reference_serialize_class_file(drawings) -> str:
    out = []
    for d in drawings:
        pairs = ",".join(f"{e[0]}-{e[1]} {f[0]}-{f[1]}" for e, f in sorted(d.crossings))
        out.append(f"{d.n};{pairs}")
    return "\n".join(out) + "\n"


def reference_gen_points(n: int, seed: int, k: int = 2, max_resamples: int = 2000):
    """The point generator with one orientation test per pair of placed points."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    rng = random.Random(f"points:{n}:{seed}")
    grid = max(4 * n * n, 64)
    points: list[tuple[int, int]] = []
    attempts = 0
    while len(points) < n:
        attempts += 1
        if attempts > max_resamples:
            raise GenerationError(
                f"no general-position point set within {max_resamples} attempts "
                f"(n={n}, seed={seed})"
            )
        cand = (rng.randrange(grid), rng.randrange(grid))
        if any(cand[0] == p[0] for p in points):
            continue
        if any(
            orient(points[i], points[j], cand) == 0
            for i in range(len(points))
            for j in range(i + 1, len(points))
        ):
            continue
        points.append(cand)
    return PointDrawing(tuple(points), gen_coloring(n, k, seed))


# The disconnected-class fallback as it was before the annulus solver
# built its side-edge tree directly, with the helpers only it used.


def connected_components(n: int, s) -> list[frozenset[int]]:
    """Connected components of (V=0..n-1, s), sorted by smallest member."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in s:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, set[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def color_class_components(n: int, c: EdgeColoring, color: int) -> list[frozenset[int]]:
    """Components of the subgraph formed by one color class."""
    if not 0 <= color < c.k:
        raise ValueError(f"color {color} out of range 0..{c.k - 1}")
    return connected_components(n, c.class_edges(color))


def merge_colors(c: EdgeColoring, keep: int) -> EdgeColoring:
    """Collapse to two colors: class 0 is the kept class, 1 the rest."""
    if not 0 <= keep < c.k:
        raise ValueError(f"color {keep} out of range 0..{c.k - 1}")
    return EdgeColoring(c.n, 2, tuple(0 if col == keep else 1 for col in c.colors))


def nonspanning_fallback(d: Drawing, c: EdgeColoring) -> SolveReport:
    """Plane spanning tree avoiding a disconnected color class, by search;
    not-applicable when every class is spanning."""
    bad = next((col for col in range(c.k) if len(color_class_components(d.n, c, col)) > 1), None)
    if bad is None:
        return SolveReport(status="not-applicable", witness={"reason": "every color class is spanning"})
    report = find_plane_tree(d, c, mode="avoid", color=bad)
    if report.status != "tree-found":
        return SolveReport(
            status="counterexample",
            witness={"reason": "no plane spanning tree avoids a non-spanning color class", "color": bad, "n": d.n},
        )
    return report


# The crossing index as it was before the conflict rows became a
# drawing's one stored index: rows built from the pair set, the
# orientation-table point compiler, the pair-sorting crossing writer and
# the plane-tree scan without the colour-region prefilter.
# tests/test_conflict_rows.py and tests/test_search_prefilter.py compare
# the package with these.


def reference_rows(n: int, pairs) -> tuple[int, ...]:
    """One crossing bitmask per edge rank, built from crossing pairs."""
    rank = {e: i for i, e in enumerate(all_edges(n))}
    rows = [0] * len(rank)
    for e, f in pairs:
        rows[rank[e]] |= 1 << rank[f]
        rows[rank[f]] |= 1 << rank[e]
    return tuple(rows)


def reference_orientation_compile(p: PointDrawing) -> Drawing:
    """compile_points over the orientation table of all triples: each
    4-subset a<b<c<d crosses as ab|cd, ac|bd or ad|bc by the signs of
    its four triples, and each rotation ranks a point by the signs of
    the triples through the vertex."""
    points, n = p.points, p.n
    if len({x for x, _ in points}) != n:
        raise ValueError("duplicate x-coordinate among points")
    o = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in itertools.combinations(range(n), 3):
        s = orient(points[i], points[j], points[k])
        if s == 0:
            raise ValueError(f"collinear points {i}, {j}, {k}")
        o[i][j][k] = o[j][k][i] = o[k][i][j] = s
        o[i][k][j] = o[k][j][i] = o[j][i][k] = -s
    crossings = []
    for a, b, c, d in itertools.combinations(range(n), 4):
        abc, abd, acd, bcd = o[a][b][c], o[a][b][d], o[a][c][d], o[b][c][d]
        if abc != abd and acd != bcd:
            crossings.append(((a, b), (c, d)))
        elif abc == acd and abd == bcd:
            crossings.append(((a, c), (b, d)))
        elif abd != acd and abc != bcd:
            crossings.append(((a, d), (b, c)))
    rotations = []
    for v in range(n):
        x, y = points[v]
        halves = ([], [])
        for w, (wx, wy) in enumerate(points):
            if w != v:
                halves[0 if wy > y or (wy == y and wx > x) else 1].append(w)
        rot = []
        for half in halves:
            ranked = [0] * len(half)
            for w in half:
                ranked[(len(half) - 1 - sum(o[v][w][u] for u in half)) // 2] = w
            rot += ranked
        rotations.append(tuple(rot))
    rank = {v: r for r, v in enumerate(sorted(range(n), key=lambda v: points[v][0]))}
    return Drawing(n, frozenset(crossings), tuple(rotations), tuple(f"x:{rank[v]}" for v in range(n)))


def reference_crossing_lines(d: Drawing) -> list[str]:
    """``u-v w-x`` per crossing pair, sorted by the key rank(e)*m + rank(f)."""
    table = all_edges(d.n)
    rank, m = {e: i for i, e in enumerate(table)}, len(table)
    keys = sorted(rank[e] * m + rank[f] for e, f in d.crossings)
    return [f"{table[k // m][0]}-{table[k // m][1]} {table[k % m][0]}-{table[k % m][1]}" for k in keys]


def reference_find_plane_tree(d: Drawing, c: EdgeColoring, mode: str = "monochromatic", color=None) -> SolveReport:
    """find_plane_tree with its per-tree predicate over every tree in
    Prüfer order, and no colour-region prefilter (n <= 10)."""
    n, k = d.n, c.k
    rows = reference_rows(n, d.crossings)
    class_masks = [0] * k
    for i, col in enumerate(c.colors):
        class_masks[col] |= 1 << i

    def satisfies(mask):
        if mode == "monochromatic":
            for col in [color] if color is not None else range(k):
                if mask & ~class_masks[col] == 0:
                    return frozenset(range(k)) - {col}
            return None
        if mode == "avoid":
            return frozenset({color}) if mask & class_masks[color] == 0 else None
        used = {col for col, cm in enumerate(class_masks) if mask & cm}
        return frozenset(range(k)) - used if len(used) < k else None

    for tree in enumerate_spanning_trees(n):
        mask = sum(1 << edge_index(n, e) for e in tree)
        avoided = satisfies(mask)
        if avoided is None or any(rows[i] & mask for i in range(len(rows)) if mask >> i & 1):
            continue
        plane = not any(e in tree and f in tree for e, f in d.crossings)
        checks = (("plane", plane), ("spanning-tree", is_spanning_tree(n, tree)))
        return SolveReport("tree-found", frozenset(tree), avoided, checks, {"mode": mode, "color": color})
    witness = {"reason": "exhaustive scan found no plane spanning tree for the predicate",
               "mode": mode, "color": color, "n": n}
    return SolveReport("counterexample", witness=witness)
