"""Hypochromatic spanning trees in many-colored monotone drawings.

With every edge x-monotone, an x-contiguous group of vertices spans an
x-slab, and edges inside disjoint slabs cannot cross.  The solver
partitions the x-order into overlapping groups of at most d+1 vertices
(consecutive groups share one vertex), so trees found per group union
into a spanning tree of the whole drawing.

Two passes: first each group is searched for a monochromatic plane
spanning tree and the colors found are kept; since there are fewer
groups than colors, some color r remains removable.  Then each group
reuses its monochromatic tree or finds a plane spanning tree avoiding
r, which exists whenever the group is small enough for the exhaustive
small-drawing guarantee (groups of at most 7 vertices, hence d <= 6).
The slab disjointness of every answer is checked, whatever the input:
no crossing pair may join tree edges of two different groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Drawing,
    EdgeColoring,
    SolveReport,
    STATUS_COUNTEREXAMPLE,
    STATUS_TREE_FOUND,
    certify,
    edge,
    edge_index,
    edge_mask,
    edge_table,
    induced_subdrawing,
    tree_colors,
)
from .search import find_plane_tree
from .straightline import PointDrawing, compile_points, x_order

MAX_GROUP_SPAN = 6  # groups of d+1 <= 7 vertices keep the exhaustive guarantee


@dataclass(frozen=True)
class MonotoneDrawing:
    """A drawing with a designated x-order of its vertices.

    The solver relies on the slab property (edges of x-disjoint vertex
    ranges never cross) and checks it on the tree it returns.
    """

    drawing: Drawing
    x_order: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.x_order) != list(range(self.drawing.n)):
            raise ValueError("x_order must be a permutation of the vertices")

    @classmethod
    def from_points(cls, p: PointDrawing) -> "MonotoneDrawing":
        return cls(compile_points(p), tuple(x_order(p.points)))

    @property
    def n(self) -> int:
        return self.drawing.n


def colors_needed(n: int) -> int:
    """Colors for which the group argument applies at span 6: ceil((n+5)/6).

    One more than the number of groups, so some color is kept by no group.
    """
    return len(group_partition(n)) + 1


def group_partition(n: int, d: int = MAX_GROUP_SPAN) -> list[tuple[int, ...]]:
    """x-rank groups of span d: ranks (d*i .. d*i+d), overlapping by one.

    Returns k-1 groups where k = ceil((n-1)/d) + 1; the last group may
    be shorter, and consecutive groups share exactly the rank d*(i+1).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")
    k = -(-(n - 1) // d) + 1
    groups = []
    for i in range(k - 1):
        lo = d * i
        hi = min(d * i + d, n - 1)
        groups.append(tuple(range(lo, hi + 1)))
    return groups


def solve_monotone(
    dr: MonotoneDrawing,
    c: EdgeColoring,
    d: int = MAX_GROUP_SPAN,
) -> SolveReport:
    """Plane spanning tree avoiding at least one color.

    Requires c.k >= ceil((n-1)/d) + 1 colors (one more than the groups)
    and a group span d <= 6 so that every group admits the exhaustive
    small-drawing search.  The answer is certified plane, spanning,
    avoiding the removed color and slab-disjoint on every input.
    """
    n = dr.n
    if c.n != n:
        raise ValueError("coloring size does not match drawing")
    if not 2 <= d <= MAX_GROUP_SPAN:
        raise ValueError(
            f"group span d={d} unsupported: the span must lie in 2..{MAX_GROUP_SPAN} (groups of "
            f"3..{MAX_GROUP_SPAN + 1} vertices; larger groups have no verified small-instance guarantee)"
        )
    groups = group_partition(n, d)
    k = len(groups) + 1
    if c.k < k:
        raise ValueError(f"need at least {k} colors for n={n}, d={d}; got k={c.k}")

    group_vertices = [tuple(dr.x_order[r] for r in g) for g in groups]
    induced = [induced_subdrawing(dr.drawing, c, gv) for gv in group_vertices]

    # First pass: note which colors own a monochromatic tree somewhere.
    # A group keeps at most one color and there are fewer groups than
    # colors, so some color is kept by none.
    cached = [find_plane_tree(sub_d, sub_c, mode="monochromatic") for sub_d, sub_c in induced]
    keep = {tree_colors(sub_c, rep.tree).pop()
            for (_, sub_c), rep in zip(induced, cached) if rep.status == STATUS_TREE_FOUND}
    removed = min(set(range(c.k)) - keep)

    # Second pass: a tree avoiding the removed color for every group.
    table = edge_table(n)
    union = set()
    group_trees = []
    for gi, ((sub_d, sub_c), rep) in enumerate(zip(induced, cached)):
        assert sub_c is not None
        if rep.status != STATUS_TREE_FOUND:
            rep = find_plane_tree(sub_d, sub_c, mode="avoid", color=removed)
            if rep.status != STATUS_TREE_FOUND:
                return SolveReport(
                    status=STATUS_COUNTEREXAMPLE,
                    witness={
                        "reason": "a small group has neither a monochromatic plane "
                        "spanning tree nor one avoiding the removed color",
                        "group_index": gi,
                        "group_vertices": list(group_vertices[gi]),
                        "removed_color": removed,
                        "group_coloring": {f"{u}-{v}": col for (u, v), col in sub_c.as_map().items()},
                    },
                )
        assert rep.tree is not None
        gv = group_vertices[gi]
        mapped = frozenset(table[edge_index(n, edge(gv[a], gv[b]))] for a, b in rep.tree)
        group_trees.append(sorted(mapped))
        union |= mapped

    # Edges of distinct groups never cross: x-slab disjointness.  Groups share no edge.
    masks = [edge_mask(n, t) for t in group_trees]
    conflicts, total = dr.drawing.conflicts, sum(masks)
    slab_ok = not any(conflicts[edge_index(n, e)] & (total ^ mask) for t, mask in zip(group_trees, masks) for e in t)
    return certify(
        dr.drawing,
        c,
        frozenset(union),
        avoid=removed,
        extra=(("slab-disjointness", slab_ok),),
        witness={
            "removed_color": removed,
            "kept_colors": sorted(keep),
            "groups": [list(gv) for gv in group_vertices],
            "group_trees": [[list(e) for e in t] for t in group_trees],
        },
        failure={"reason": "union predicates failed", "removed_color": removed},
    )
