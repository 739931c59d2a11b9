"""Annulus layouts of K_n and the two-cycle sweep solver.

A layout places p vertices on an inner circle and q on an outer circle
(vertices 0..p-1 are inner, p..p+q-1 outer, each circle sorted by
angle).  A side edge (u, w) is the spiral whose angular position grows
linearly with the radius, from the inner angle of u through a winding
displacement to the outer angle of w; the displacement may include
extra full turns.  Angles and windings are exact rationals in units of
pi, so crossing counts are closed-form integer computations:

* same-circle edges cross iff their endpoints interleave on the circle
  (chords inside the inner circle, arcs outside the outer one); a circle
  cut open is a one-page book, so these come from the book compiler's
  interleaving rows;
* two side edges cross once per integer multiple of a full turn lying
  strictly between their angular differences at the two circles, so
  each side pair costs two integer floor divisions;
* circle-consecutive (cycle) edges are uncrossed, and cross-kind pairs
  never meet.

Layouts whose side edges would meet twice, or whose adjacent side
edges would meet at all, are rejected as not simple.

Validation and compilation put all angles and windings over one common
denominator once (``CylindricalLayout.ticks``) and work in those integer
ticks; ``Fraction`` values appear only as the layout's fields and in files.

``solve_cylindrical`` compiles a layout once and hands it to
``reduce_and_solve``, the one solver.  It removes bichromatic-cornered
vertices until both cycles are monochromatic, solves the rest, and
re-attaches them by their uncrossed cycle edges; a layout with an empty
circle is a one-page book instead.  The reduced cycles branch two ways.
Cycles of different colors go to the sweep, which grows an active
caterpillar subgraph H back and forth over the side edges by walking
the rotation of a current vertex, switching circles (and direction)
whenever the walked edge's color differs from the current cycle.  Three
runtime invariants are asserted: H plus both cycles stays plane; every
vertex of H other than the current one touches an opposite-colored H
edge; and each round strictly extends the previous round's vertex set
unless the opposite cycle is already covered.  Cycles of one color are
joined by a side edge of that color; when no side edge has it, the tree
is built from side edges alone: a star from inner vertex 0 plus one
edge per other inner vertex, read off the integer ticks with no search.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core import (
    Drawing,
    Edge,
    EdgeColoring,
    EdgeSet,
    SolveReport,
    STATUS_COUNTEREXAMPLE,
    STATUS_TREE_FOUND,
    certify,
    edge,
    edge_index,
    edge_mask,
    extract_spanning_tree,
    induced_mask,
    induced_ranks,
    induced_subdrawing,
    mask_is_plane,
    reattach,
)
from .book import PAGE_TOP, BookLayout, interleaving_rows, solve_book

TURN = Fraction(2)  # full turn in units of pi

CLOCKWISE = "clockwise"
COUNTERCLOCKWISE = "counterclockwise"
FLIP = {CLOCKWISE: COUNTERCLOCKWISE, COUNTERCLOCKWISE: CLOCKWISE}


class NotSimpleError(ValueError):
    """The layout does not describe a simple drawing."""


class NotApplicableError(ValueError):
    """The sweep preconditions (both circles present, monochromatic
    cycles of different colors) do not hold."""


@dataclass(frozen=True)
class CylindricalLayout:
    """Exact annulus layout: angles, winding displacements, coloring.

    Angles are rationals in units of pi, strictly increasing within
    each circle and inside [0, 2).  ``windings[i][j]`` is the angular
    displacement of the side edge from inner vertex i to outer vertex
    p+j; it must be congruent to the angle difference modulo a full
    turn.
    """

    inner_angles: tuple[Fraction, ...]
    outer_angles: tuple[Fraction, ...]
    windings: tuple[tuple[Fraction, ...], ...]
    color: EdgeColoring

    def __post_init__(self) -> None:
        p, q = len(self.inner_angles), len(self.outer_angles)
        if p + q < 2:
            raise ValueError("layout needs at least 2 vertices")
        den, inner, outer, windings = self.ticks
        for angles, ticks, side in ((self.inner_angles, inner, "inner"), (self.outer_angles, outer, "outer")):
            for a, t in zip(angles, ticks):
                if not 0 <= t < 2 * den:
                    raise ValueError(f"{side} angle {a} outside [0, 2) pi")
            if any(ticks[i] >= ticks[i + 1] for i in range(len(ticks) - 1)):
                raise ValueError(f"{side} angles must be strictly increasing")
        if len(windings) != p or any(len(row) != q for row in windings):
            raise ValueError(f"windings must have shape {p}x{q}")
        for i, a in enumerate(inner):
            for j, b in enumerate(outer):
                if (windings[i][j] - (b - a)) % (2 * den):
                    raise ValueError(
                        f"winding of side edge {i}-{p + j} is not congruent to the "
                        f"angle difference modulo a full turn"
                    )
        if self.color.n != p + q:
            raise ValueError("coloring size does not match vertex count")

    @functools.cached_property
    def ticks(self) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """``(den, inner, outer, windings)``: every angle and winding as an
        integer count of ticks over their common denominator ``den``, so
        a full turn is ``2 * den`` ticks."""
        rows = (self.inner_angles, self.outer_angles, *self.windings)
        den = math.lcm(*(x.denominator for row in rows for x in row))
        inner, outer, *windings = (tuple(x.numerator * (den // x.denominator) for x in row) for row in rows)
        return den, inner, outer, tuple(windings)

    @property
    def n_inner(self) -> int:
        return len(self.inner_angles)

    @property
    def n_outer(self) -> int:
        return len(self.outer_angles)

    @property
    def n(self) -> int:
        return self.n_inner + self.n_outer

    def inner_ids(self) -> list[int]:
        return list(range(self.n_inner))

    def outer_ids(self) -> list[int]:
        return list(range(self.n_inner, self.n))

    def is_side_edge(self, e: Edge) -> bool:
        return (e[0] < self.n_inner) != (e[1] < self.n_inner)


def side_crossings(sides: list[tuple[Edge, int, int]], turn: int) -> list[tuple[Edge, Edge]]:
    """Crossing pairs among side edges ``(edge, start, end)``, whose angular
    positions at the inner and outer circle are integer ticks, ``turn`` to
    a full turn.  Pairs are checked in list order; raises NotSimpleError at
    the first adjacent pair that meets at all or independent pair that
    meets more than once."""
    crossings = []
    for i, (e, s0, s1) in enumerate(sides):
        for f, t0, t1 in sides[i + 1 :]:
            lo, hi = s0 - t0, s1 - t1
            if lo > hi:
                lo, hi = hi, lo
            m = (hi - 1) // turn - lo // turn  # full turns strictly inside (lo, hi)
            if m <= 0:
                continue
            if e[0] == f[0] or e[1] == f[1]:
                raise NotSimpleError(f"adjacent side edges {e} and {f} meet {m} time(s)")
            if m >= 2:
                raise NotSimpleError(f"independent side edges {e} and {f} meet {m} times")
            crossings.append((e, f))
    return crossings


def side_rows(n: int, rows: list[int], sides: list[tuple[Edge, int, int]], turn: int) -> None:
    """Add to the conflict rows of K_n the crossings among the side edges
    ``(edge, start, end)`` of ``side_crossings``, listed by inner vertex.
    With T = ``turn`` and s, t the ends of (u, w) and (u', w'), these
    cross once when t is in [s-2T, s-T) or (s, s+T] for u' < u, and in
    [s-T, s) or (s+T, s+2T] for u' > u: masks over the sorted ends.  A
    pair meeting more, or adjacent edges meeting, go to ``side_crossings``
    for its error."""
    ranks = [edge_index(n, e) for e, _, _ in sides]
    ends = sorted((s, 1 << r) for (_, _, s), r in zip(sides, ranks))
    keys, prefix, at = [s for s, _ in ends], [0], [0] * n
    for _, bit in ends:
        prefix.append(prefix[-1] | bit)
    for ((u, w), _, _), r in zip(sides, ranks):
        at[u] |= 1 << r
        at[w] |= 1 << r
    below = list(itertools.accumulate(at, operator.or_, initial=0))  # side edges of inner vertices < u

    bad, T = 0, turn
    for ((u, w), _, s), r in zip(sides, ranks):
        # e0..e5: the side edges whose end is below s-2T, s-T, s, s+1, s+T+1, s+2T+1
        e0, e1, e2, e3, e4, e5 = (prefix[bisect.bisect_left(keys, t)]
                                  for t in (s - 2 * T, s - T, s, s + 1, s + T + 1, s + 2 * T + 1))
        before, after = below[u], prefix[-1] ^ below[u + 1]
        row = before & (e1 ^ e0 | e4 ^ e3) | after & (e2 ^ e1 | e5 ^ e4)
        # Each pair is seen from both ends, so the earlier inner vertex's side suffices.
        bad |= before & ~(e4 ^ e0) | at[u] & ~(e4 ^ e1) | row & at[w]
        rows[r] |= row
    if bad:
        side_crossings(sides, turn)
        raise AssertionError("side_crossings accepted a layout that side_rows refused")


def compile_layout(layout: CylindricalLayout) -> Drawing:
    """Crossing set and rotation system of an annulus layout.

    Raises NotSimpleError when any independent side pair meets more
    than once or any adjacent side pair meets at all.
    """
    p, q, n = layout.n_inner, layout.n_outer, layout.n
    den, inner, _, ticks = layout.ticks
    sides = [((u, w), a, a + t) for u, a in enumerate(inner) for w, t in enumerate(ticks[u], p)]
    rows = [0] * (n * (n - 1) // 2)
    for circle in (range(p), range(p, n)):
        interleaving_rows(n, rows, circle, [induced_mask(n, circle)] * len(rows))
    side_rows(n, rows, sides, 2 * den)

    # Counterclockwise rotations.  At either circle the side edges take
    # off tilted by the arctangent of their winding, so they appear by
    # increasing winding; the chord block runs from the ccw cycle
    # neighbor around to the cw one at an inner vertex and reversed at
    # an outer vertex (the disk looks mirrored from outside).
    rotations: list[tuple[int, ...]] = []
    for v in range(p):
        sides_v = sorted(range(p, n), key=lambda w: ticks[v][w - p])
        rotations.append(tuple(sides_v + [(v + s) % p for s in range(1, p)]))
    for j in range(q):
        sides_v = sorted(range(p), key=lambda u: ticks[u][j])
        rotations.append(tuple(sides_v + [p + (j - s) % q for s in range(1, q)]))
    labels = tuple("inner" if v < p else "outer" for v in range(n))
    return Drawing.from_rows(n, rows, tuple(rotations), labels)


def cycle_edges_of(ids: list[int]) -> list[Edge]:
    """Edges between circle-consecutive vertices (circular order given)."""
    if len(ids) >= 3:
        return [edge(ids[i], ids[(i + 1) % len(ids)]) for i in range(len(ids))]
    if len(ids) == 2:
        return [edge(ids[0], ids[1])]
    return []


def _uniform_color(color: EdgeColoring, edges: list[Edge]) -> Optional[int]:
    cols = {color.color_of_edge(e) for e in edges}
    return cols.pop() if len(cols) == 1 else None


def cycle_colors(layout: CylindricalLayout) -> tuple[Optional[int], Optional[int]]:
    """Colors of the two cycles, with single-vertex conventions.

    A circle with one vertex has no cycle edges and may be assigned any
    color; we pick the opposite of the other cycle's color (and for the
    two-vertex drawing, the inner circle takes the color of the lone
    side edge).  None marks a bichromatic cycle.
    """
    p, q = layout.n_inner, layout.n_outer
    inner = _uniform_color(layout.color, cycle_edges_of(layout.inner_ids())) if p >= 2 else None
    outer = _uniform_color(layout.color, cycle_edges_of(layout.outer_ids())) if q >= 2 else None
    if p == 1 and q == 1:
        c = layout.color.color_of(0, 1)
        return c, 1 - c
    if p == 1 and q >= 2:
        inner = 1 - outer if outer is not None else None
    if q == 1 and p >= 2:
        outer = 1 - inner if inner is not None else None
    return inner, outer


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


@dataclass
class _Context:
    """What the sweep reads and records.  ``circles``, ``colors`` (the
    cycle colors) and ``cycles`` (the cycle edges) are indexed by circle,
    0 inner and 1 outer: vertex v's own circle is ``v >= n_inner`` and
    the opposite one ``v < n_inner``."""

    layout: CylindricalLayout
    circles: tuple[list[int], list[int]]
    colors: tuple[int, int]
    cycles: tuple[list[Edge], list[Edge]]
    assert_invariants: bool
    invariants: dict[str, bool] = field(default_factory=dict)
    trace: list[dict] = field(default_factory=list)


@dataclass
class SweepState:
    """State of the zig-zag sweep between rounds and steps."""

    H: set[Edge]
    v_cur: int
    direction: str
    e_cur: Edge
    H_prev: set[Edge]
    ctx: _Context
    round_no: int = 1

    def vertices(self) -> set[int]:
        return {v for e in self.H for v in e}


def first_side_edge(layout: CylindricalLayout, v: int, direction: str) -> Edge:
    """Side edge at the start of v's side block in the given direction.

    In the stored counterclockwise rotation the side edges of an inner
    vertex appear by increasing winding and those of an outer vertex by
    decreasing winding; the cycle edges bound the block, so the first
    side edge clockwise is the block's other end.  Callers keep both
    circles non-empty: the sweep runs after ``sweep_start`` refused an
    empty one, and ``side_edge_tree`` needs 2 vertices on each.
    """
    p = layout.n_inner
    windings = layout.ticks[3]
    pick = max if direction == CLOCKWISE else min
    if v < p:
        j = pick(range(layout.n_outer), key=lambda j: windings[v][j])
        return edge(v, p + j)
    j = v - p
    u = pick(range(p), key=lambda u: windings[u][j])
    return edge(u, v)


def sweep_start(
    d: Drawing, layout: CylindricalLayout, assert_invariants: bool = True
) -> SweepState:
    """Initial sweep state: lowest-index inner vertex, clockwise.

    Raises NotApplicableError when a circle is empty or the cycles are
    not monochromatic of different colors; ``reduce_and_solve`` solves
    such inputs without the sweep.
    """
    if layout.color.k != 2:
        raise ValueError(f"sweep needs exactly 2 colors, got k={layout.color.k}")
    if layout.n_inner == 0 or layout.n_outer == 0:
        raise NotApplicableError("a circle is empty")
    inner_c, outer_c = cycle_colors(layout)
    if inner_c is None or outer_c is None or inner_c == outer_c:
        raise NotApplicableError("cycles are not monochromatic of different colors")
    circles = (layout.inner_ids(), layout.outer_ids())
    cycles = (cycle_edges_of(circles[0]), cycle_edges_of(circles[1]))
    ctx = _Context(layout, circles, (inner_c, outer_c), cycles, assert_invariants)
    e0 = first_side_edge(layout, 0, CLOCKWISE)
    return SweepState(H=set(), v_cur=0, direction=CLOCKWISE, e_cur=e0, H_prev=set(), ctx=ctx)


class SweepViolation(Exception):
    """A sweep invariant failed; carries the offending check name."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"{name}: {detail}")
        self.name = name


def _check(ctx: _Context, name: str, ok: bool, detail: str) -> None:
    """Record invariant ``name`` as checked, and raise SweepViolation
    with ``detail`` when it fails."""
    ctx.invariants[name] = ctx.invariants.get(name, True) and ok
    if not ok:
        raise SweepViolation(name, detail)


def sweep_round(state: SweepState, d: Drawing) -> SweepState:
    """One sweep round: walk and grow H until the current edge leaves
    the side block or the opposite cycle is covered."""
    ctx = state.ctx
    layout = ctx.layout
    p = layout.n_inner
    guard = 2 * d.n * d.n + 8
    steps = 0
    while True:
        v = state.v_cur
        covered = state.vertices().issuperset(ctx.circles[v < p])
        if covered or not layout.is_side_edge(state.e_cur):
            return state
        steps += 1
        if steps > guard:
            raise SweepViolation("round-termination", "rotation walk did not terminate")
        e = state.e_cur
        other = e[0] if e[1] == v else e[1]
        if ctx.assert_invariants:
            fresh = other not in state.vertices() or not state.H
            _check(ctx, "caterpillar", fresh, f"edge {e} revisits vertex {other}")
        state.H.add(e)
        ctx.trace.append(
            {"round": state.round_no, "edge": list(e), "v_cur": v, "direction": state.direction}
        )
        if ctx.assert_invariants:
            plane = mask_is_plane(edge_mask(d.n, state.H.union(*ctx.cycles)), d.conflicts)
            _check(ctx, "planarity-with-cycles", plane, f"after adding {e}")
        if layout.color.color_of_edge(e) != ctx.colors[v >= p]:
            v, other = other, v
            state.v_cur = v
            state.direction = FLIP[state.direction]
            ctx.trace[-1]["switched"] = True
        if ctx.assert_invariants:
            # Checked after the rotation vertex moved: only the current one is exempt.
            for x in state.vertices():
                if x == state.v_cur:
                    continue
                want = ctx.colors[x < p]
                ok = any(x in f and layout.color.color_of_edge(f) == want for f in state.H)
                _check(ctx, "opposite-color-incidence", ok, f"vertex {x} lacks a color-{want} edge")
        # The next edge around v in the full rotation, walked in the current direction.
        rot = d.rotations[v]
        step = -1 if state.direction == CLOCKWISE else 1
        state.e_cur = edge(v, rot[(rot.index(other) + step) % len(rot)])


def _aborted(ctx: _Context, name: str, reason: str, **extra) -> SolveReport:
    """Counterexample of a sweep that failed check ``name``: the checks
    so far with ``name`` failed, and a witness of ``reason``, ``extra``
    and the step trace."""
    ctx.invariants[name] = False
    witness = {"reason": reason, **extra, "trace": ctx.trace}
    return SolveReport(STATUS_COUNTEREXAMPLE, checked_invariants=tuple(ctx.invariants.items()), witness=witness)


def sweep_run(
    d: Drawing, layout: CylindricalLayout, assert_invariants: bool = True
) -> SolveReport:
    """Full sweep: rounds alternate direction until the opposite cycle
    is covered, then the current vertex's cycle plus the H edges of its
    color span.  This is the whole solve when the cycles are
    monochromatic in different colors; ``reduce_and_solve`` returns the
    report unchanged then, and otherwise calls this on the reduced
    layout.  Raises NotApplicableError where ``sweep_start`` does.

    Any invariant violation aborts with a counterexample report that
    carries the full step trace.
    """
    state = sweep_start(d, layout, assert_invariants)
    ctx = state.ctx
    p = layout.n_inner
    max_rounds = 2 * d.n + 4
    try:
        while True:
            state = sweep_round(state, d)
            if state.vertices().issuperset(ctx.circles[state.v_cur < p]):
                break
            if state.round_no >= 2:
                progress = state.vertices() > {v for e in state.H_prev for v in e}
                detail = f"round {state.round_no} did not strictly extend the previous vertex set"
                _check(ctx, "round-progress", progress, detail)
            if state.round_no > max_rounds:
                raise SweepViolation("round-termination", "too many sweep rounds")
            state.H_prev, state.H = state.H, set()
            state.round_no += 1
            state.direction = FLIP[state.direction]
            state.e_cur = first_side_edge(layout, state.v_cur, state.direction)
    except SweepViolation as exc:
        return _aborted(ctx, exc.name, f"sweep invariant failed: {exc}", invariant=exc.name, round=state.round_no)

    own = state.v_cur >= p
    keep_color = ctx.colors[own]
    sub = frozenset(ctx.cycles[own]) | {
        e for e in state.H if layout.color.color_of_edge(e) == keep_color
    }
    try:
        tree = extract_spanning_tree(d.n, sub)
    except ValueError:
        reason = "kept cycle plus same-colored sweep edges do not span"
        return _aborted(ctx, "output-spanning-tree", reason, subgraph=sorted(sub))
    witness = {"tree_color": keep_color, "rounds": state.round_no}
    checked = tuple(ctx.invariants.items())
    return certify(d, layout.color, tree, checked, color=keep_color, witness=witness, failure=witness)


# ---------------------------------------------------------------------------
# Reduction path
# ---------------------------------------------------------------------------


def restrict_layout(
    layout: CylindricalLayout, keep: list[int]
) -> tuple[CylindricalLayout, dict[int, int]]:
    """Sub-layout induced by a vertex subset; returns (layout, old->new)."""
    p = layout.n_inner
    keep_inner = [v for v in sorted(keep) if v < p]
    keep_outer = [v for v in sorted(keep) if v >= p]
    kept = keep_inner + keep_outer  # increasing, so pairs of kept come in new rank order
    mapping = {v: i for i, v in enumerate(kept)}
    inner_angles = tuple(layout.inner_angles[v] for v in keep_inner)
    outer_angles = tuple(layout.outer_angles[v - p] for v in keep_outer)
    windings = tuple(tuple(layout.windings[u][w - p] for w in keep_outer) for u in keep_inner)
    colors = tuple(layout.color.colors[r] for r in induced_ranks(layout.n, kept))
    coloring = EdgeColoring(len(kept), layout.color.k, colors)
    return CylindricalLayout(inner_angles, outer_angles, windings, coloring), mapping


def _as_book_layout(layout: CylindricalLayout):
    """One-circle layout viewed as a single-page book drawing.

    Cutting the circle turns the circular order into a spine; all
    edges land on one page, and circular interleaving equals linear
    interleaving, so the crossing sets agree.
    """
    n = layout.n
    pages = tuple(PAGE_TOP for _ in range(n * (n - 1) // 2))
    return BookLayout(tuple(range(n)), pages, layout.color)


def reduce_and_solve(
    d: Drawing, layout: CylindricalLayout, assert_invariants: bool = True
) -> SolveReport:
    """Monochromatic plane spanning tree of a 2-colored annulus layout
    compiled to ``d``: the one annulus solver, which ``solve_cylindrical``
    calls after compiling.

    An empty circle reduces to a one-page book drawing, whose
    ``solve_book`` report always carries a tree to certify on ``d``: a
    peeled vertex has edges of both colors to re-attach by.  Otherwise
    vertices whose two incident cycle edges differ in color are removed
    (lowest index first) until both cycles are monochromatic.  Removal
    keeps at least 2 vertices on a circle that had them, and after it
    ``cycle_colors`` names a color for each circle, by its size:

    * 3 or more vertices: no corner is bichromatic, so every cycle edge
      has the color of its neighbor, all around the circle;
    * 2 vertices: the cycle is one edge;
    * 1 vertex: the circle takes the color opposite the other cycle's
      (opposite the lone edge's for the inner one of a 2-vertex layout).

    So the branch is two-way.  Cycles of different colors go to
    ``sweep_run``: with nothing removed its report is the answer,
    unchanged, and a reduced drawing is restricted from ``d``, not
    compiled again.  Cycles of one color c are solved by both cycles
    plus one side edge of color c, or by ``side_edge_tree``, whose edges
    all have color 1 - c.  The removed vertices are then re-attached in
    inverse order by their recorded cycle edge of the tree's color: the
    sweep's ``tree_color``, c, or 1 - c.

    ``side_edge_tree`` serves the branch where both cycles have a color
    c that no side edge has, so every side edge has color 1 - c.  Both
    circles then have at least 2 vertices (a 1-vertex circle takes the
    color opposite the other cycle).  In ticks, with T a full turn, let
    a_i be the angle of inner vertex i, W[i][w] the winding of (i, w),
    and t_w = a_0 + W[0][w] the outer end of the star edge (0, w).
    Why the star {(0, w)} plus one edge per inner vertex i >= 1 is a
    plane spanning tree:

    1. Lift the annulus to its universal cover, a strip.  Side edges
       lift to segments, and two side edges cross once for each pair
       of lifts whose order differs at the two circles.
    2. a_0 < a_i < a_0 + T, and (i, w) may not cross (0, w), which
       shares w; so a_i + W[i][w] is t_w or t_w + T.  The star edges
       share vertex 0, so every t_w lies within less than T of the
       others.
    3. Hence (i, w) is free, crossing no star edge, only as (i, w+)
       ending at t_{w+} or as (i, w-) ending at t_{w-} + T, where w+
       and w- have the largest and the smallest t_w.
    4. One of the two holds for each i: otherwise the adjacent edges
       (i, w+) and (i, w-) would cross.
    5. If (i, w+) is not free, no (j, w+) with j > i is: the two would
       cross although they share w+.
    6. So the inner vertices that take w+ come first in angular order,
       and an edge (i, w+) never crosses a later edge (j, w-).

    ``certify`` still checks the answer; a miss is a counterexample.
    """
    if layout.color.k != 2:
        raise ValueError(f"sweep needs exactly 2 colors, got k={layout.color.k}")
    p, q = layout.n_inner, layout.n_outer
    if p == 0 or q == 0:
        report = solve_book(_as_book_layout(layout))
        witness = {"branch": "book", "removed_vertices": []}
        return certify(d, layout.color, report.tree, report.checked_invariants, witness=witness, failure=witness)

    alive_inner = layout.inner_ids()
    alive_outer = layout.outer_ids()
    removed: list[tuple[int, dict[int, Edge]]] = []
    while True:
        # The first bichromatic corner found is the smallest vertex: inner
        # ids precede outer ids and both alive lists stay ascending.
        cycles = [ids for ids in (alive_inner, alive_outer) if len(ids) >= 3]
        for ids, pos in ((ids, pos) for ids in cycles for pos in range(len(ids))):
            v = ids[pos]
            prev_e = edge(ids[pos - 1], v)
            next_e = edge(v, ids[(pos + 1) % len(ids)])
            c_prev = layout.color.color_of_edge(prev_e)
            c_next = layout.color.color_of_edge(next_e)
            if c_prev != c_next:
                removed.append((v, {c_prev: prev_e, c_next: next_e}))
                ids.remove(v)
                break
        else:
            break

    kept = alive_inner + alive_outer  # ascending: reduced vertex i is vertex kept[i]
    sub_layout = restrict_layout(layout, kept)[0] if removed else layout
    inner_c, outer_c = cycle_colors(sub_layout)

    if inner_c != outer_c:
        sub_d = induced_subdrawing(d, None, kept)[0] if removed else d
        sub_report = sweep_run(sub_d, sub_layout, assert_invariants)
        if not removed or sub_report.status != STATUS_TREE_FOUND:
            return sub_report
        sub_tree, color = sub_report.tree, sub_report.witness["tree_color"]
        checked = list(sub_report.checked_invariants)
        branch = "sweep"
    else:
        c = inner_c
        side = next((edge(u, w) for u in sub_layout.inner_ids() for w in sub_layout.outer_ids()
                     if sub_layout.color.color_of(u, w) == c), None)
        if side is not None:
            sub = frozenset(cycle_edges_of(sub_layout.inner_ids()) + cycle_edges_of(sub_layout.outer_ids()) + [side])
            sub_tree, color = extract_spanning_tree(sub_layout.n, sub), c
            branch = "same-color-side-edge"
        else:
            sub_tree, color = side_edge_tree(sub_layout), 1 - c
            branch = "same-color-fallback"
        checked = [("reduced-cycles-same-color", True)]

    tree = {edge(kept[a], kept[b]) for a, b in sub_tree}
    witness = {"branch": branch, "removed_vertices": [v for v, _ in removed]}
    return reattach(d, layout.color, tree, color, removed, checked, witness=witness, failure=witness)


def side_edge_tree(layout: CylindricalLayout) -> EdgeSet:
    """Plane spanning tree of the side edges of a layout whose circles
    both have at least 2 vertices: the star from inner vertex 0 to every
    outer vertex, plus (i, w+) for each other inner vertex i whose edge
    to w+ ends where the star's does, and (i, w-) for the rest.  The
    ``reduce_and_solve`` docstring says why it is plane."""
    p = layout.n_inner
    _, inner, _, windings = layout.ticks
    plus = first_side_edge(layout, 0, CLOCKWISE)[1]
    minus = first_side_edge(layout, 0, COUNTERCLOCKWISE)[1]
    end = inner[0] + windings[0][plus - p]
    tree = [(0, w) for w in layout.outer_ids()]
    tree += [(i, plus if a + windings[i][plus - p] == end else minus) for i, a in enumerate(inner) if i]
    return frozenset(tree)


def solve_cylindrical(
    layout: CylindricalLayout, assert_invariants: bool = True
) -> SolveReport:
    """Monochromatic plane spanning tree of a 2-colored annulus layout:
    ``reduce_and_solve`` on the layout compiled once."""
    return reduce_and_solve(compile_layout(layout), layout, assert_invariants)


def rotation_order_check(d: Drawing, v: int) -> list[int]:
    """Opposite-circle vertices in the rotation order of v.

    Asserts the sequence is a circular shift of that circle's own
    order as seen from v: an inner vertex lists the outer circle
    counterclockwise, an outer vertex lists the inner circle clockwise
    (the inner disk appears mirrored from outside).  A failure flags a
    layout-compilation bug.
    """
    if d.rotations is None or d.vertex_labels is None:
        raise ValueError("drawing lacks rotations or circle labels")
    mine = d.vertex_labels[v]
    opposite = "outer" if mine == "inner" else "inner"
    circle = [w for w in range(d.n) if d.vertex_labels[w] == opposite]
    if not circle:
        raise ValueError(f"vertex {v} has no side edges: opposite circle is empty")
    if mine == "outer":
        circle = list(reversed(circle))
    seq = [w for w in d.rotations[v] if d.vertex_labels[w] == opposite]
    if len(seq) >= 3:
        start = circle.index(seq[0])
        expect = circle[start:] + circle[:start]
        if seq != expect:
            raise AssertionError(
                f"rotation of vertex {v} lists the {opposite} circle as {seq}, "
                f"not a circular shift of {circle}"
            )
    return seq
