import itertools
import math
import random

import pytest

from planetrees import straightline
from planetrees.core import (
    EdgeColoring,
    edge,
    is_plane,
    is_spanning_tree,
    peel_candidate,
    tree_colors,
    validate_drawing,
)
from planetrees.generators import gen_coloring, gen_points
from planetrees.search import find_plane_tree
from planetrees.straightline import (
    PointDrawing,
    ProofContradiction,
    _Solver,
    _spanning_hull_edge,
    compile_points,
    convex_hull,
    orient,
    solve_points,
    x_order,
)

from conftest import convex_interleaving_crossings, coloring_from, uniform_coloring

CONVEX5 = ((0, 0), (3, -2), (6, 0), (5, 4), (1, 3))


def convex_points(n):
    """n integer points in convex position with distinct x (parabola)."""
    return tuple((i, i * i) for i in range(n))


def hull_coloring(points, hull_color=0, other_color=1):
    n = len(points)
    hull = convex_hull(points, range(n))
    hull_edges = {edge(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))}
    mapping = {
        (u, v): hull_color if (u, v) in hull_edges else other_color
        for u in range(n)
        for v in range(u + 1, n)
    }
    return coloring_from(n, 2, mapping), hull_edges


# ----------------------------------------------------------------------
# exact predicates and compile
# ----------------------------------------------------------------------

def test_orientation_signs():
    assert orient((0, 0), (1, 0), (0, 1)) == 1
    assert orient((0, 0), (0, 1), (1, 0)) == -1
    assert orient((0, 0), (1, 1), (2, 2)) == 0


def test_convex_quad_has_one_crossing():
    p = PointDrawing(((0, 0), (4, -1), (5, 3), (1, 2)), uniform_coloring(4))
    d = compile_points(p)
    assert d.crossings == frozenset({((0, 2), (1, 3))})


def test_triangle_has_no_crossings():
    p = PointDrawing(((0, 0), (3, 1), (1, 4)), uniform_coloring(3))
    assert compile_points(p).crossings == frozenset()


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_convex_position_crossing_count(n):
    p = PointDrawing(convex_points(n), uniform_coloring(n))
    d = compile_points(p)
    assert len(d.crossings) == math.comb(n, 4)
    hull = convex_hull(p.points, range(n))
    assert d.crossings == convex_interleaving_crossings(hull)


def test_rejects_collinear_and_duplicate_x():
    with pytest.raises(ValueError, match="collinear"):
        compile_points(PointDrawing(((0, 0), (1, 1), (2, 2)), uniform_coloring(3)))
    with pytest.raises(ValueError, match="x-coordinate"):
        compile_points(PointDrawing(((0, 0), (0, 3), (2, 1)), uniform_coloring(3)))


def test_compiled_rotations_valid():
    for seed in range(10):
        d = compile_points(gen_points(7, seed))
        assert validate_drawing(d) == []


def test_x_order():
    assert x_order([(5, 0), (1, 2), (3, 9)]) == [1, 2, 0]


# ----------------------------------------------------------------------
# solver
# ----------------------------------------------------------------------

def test_all_edges_one_color():
    p = PointDrawing(convex_points(5), uniform_coloring(5, color=1))
    rep = solve_points(p)
    assert rep.status == "tree-found"
    assert tree_colors(p.color, rep.tree) == {1}


def test_convex_red_hull_blue_diagonals_gives_hull_path():
    coloring, hull_edges = hull_coloring(CONVEX5)
    p = PointDrawing(CONVEX5, coloring)
    d = compile_points(p)
    rep = solve_points(p)
    assert rep.status == "tree-found"
    assert tree_colors(coloring, rep.tree) == {0}
    assert rep.tree <= hull_edges
    assert is_spanning_tree(5, rep.tree)
    # Oracle: the diagonal class has no plane spanning tree at all.
    assert find_plane_tree(d, coloring, mode="monochromatic", color=1).status == "counterexample"


def test_two_points():
    p = PointDrawing(((0, 0), (2, 1)), uniform_coloring(2))
    rep = solve_points(p)
    assert rep.tree == frozenset({(0, 1)})


def test_rejects_more_colors():
    with pytest.raises(ValueError):
        solve_points(gen_points(5, 0, k=3))


def test_interior_point_instances_match_oracle():
    # Square plus center: the center vertex is interior, exercising the
    # prefix/suffix combination branch for some colorings.
    pts = ((0, 0), (4, -1), (8, 1), (5, 6), (3, 2))
    for seed in range(80):
        coloring = gen_coloring(5, 2, seed)
        p = PointDrawing(pts, coloring)
        d = compile_points(p)
        rep = solve_points(p)
        assert rep.status == "tree-found", (seed, rep.witness)
        assert is_plane(d, rep.tree)
        assert is_spanning_tree(5, rep.tree)
        assert len(tree_colors(coloring, rep.tree)) == 1
        assert find_plane_tree(d, coloring, mode="monochromatic").status == "tree-found"


@pytest.mark.parametrize("seed", range(40))
def test_solver_matches_oracle_random(seed):
    import random

    n = random.Random(f"pt:{seed}").randint(2, 7)
    p = gen_points(n, seed)
    d = compile_points(p)
    rep = solve_points(p)
    assert rep.status == "tree-found", rep.witness
    assert is_plane(d, rep.tree)
    assert is_spanning_tree(n, rep.tree)
    assert len(tree_colors(p.color, rep.tree)) == 1
    assert find_plane_tree(d, p.color, mode="monochromatic").status == "tree-found"


def test_hull_edges_uncrossed():
    for seed in range(15):
        p = gen_points(7, seed)
        d = compile_points(p)
        hull = convex_hull(p.points, range(7))
        hull_edges = {edge(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))}
        for e, f in d.crossings:
            assert e not in hull_edges
            assert f not in hull_edges


# ----------------------------------------------------------------------
# the hull-edge join of a disjoint prefix and suffix
# ----------------------------------------------------------------------

def test_spanning_hull_edge_is_the_first_in_hull_order():
    hull = convex_hull(CONVEX5, range(5))
    assert hull == [0, 1, 2, 3, 4]
    hull_edges = [edge(hull[i], hull[(i + 1) % 5]) for i in range(5)]
    # x=5 is spanned by (1, 2) on the lower chain and (2, 3) on the upper.
    picks = {x: _spanning_hull_edge(CONVEX5, hull_edges, x) for x in range(6)}
    assert picks == {0: (0, 1), 1: (0, 1), 2: (0, 1), 3: (1, 2), 4: (1, 2), 5: (1, 2)}
    with pytest.raises(ProofContradiction, match="no hull edge spans x=6"):
        _spanning_hull_edge(CONVEX5, hull_edges, 6)


def hull_coloured_splits(p):
    """(subset, joined tree, hull colour) for every disjoint split of every
    hull-branch subset a solve visits, when both sides come back in the
    hull colour: the prefix tree, the suffix tree and the hull edge."""
    d = compile_points(p)
    solver = _Solver(p.points, d, p.color)
    solver.solve(frozenset(range(p.n)))
    for subset in list(solver.memo):
        hull = convex_hull(p.points, sorted(subset))
        if len(hull) == len(subset) or peel_candidate(d, p.color, sorted(subset), lambda v, w: 0):
            continue
        hull_edges = [edge(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
        (red,) = {p.color.color_of_edge(e) for e in hull_edges}
        order = sorted(subset, key=lambda v: p.points[v][0])
        for i in range(len(order) - 1):
            left, col_l = solver.solve(frozenset(order[: i + 1]))
            right, col_r = solver.solve(frozenset(order[i + 1 :]))
            if {col_l, col_r} <= {red, None}:
                join = _spanning_hull_edge(p.points, hull_edges, p.points[order[i]][0])
                yield subset, left | right | {join}, red


@pytest.mark.parametrize("n", range(4, 14))
def test_every_hull_coloured_split_joins_into_a_plane_spanning_tree(n):
    checked = 0
    for seed in range(150):
        share = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)[seed % 6]
        rng = random.Random(f"join:{n}:{seed}")
        coloring = EdgeColoring(n, 2, tuple(int(rng.random() < share) for _ in range(n * (n - 1) // 2)))
        p = PointDrawing(gen_points(n, seed).points, coloring)
        d = compile_points(p)
        for subset, tree, red in hull_coloured_splits(p):
            rank = {v: r for r, v in enumerate(sorted(subset))}
            assert is_plane(d, tree), (seed, sorted(subset))
            assert is_spanning_tree(len(subset), frozenset(edge(rank[u], rank[v]) for u, v in tree))
            assert tree_colors(coloring, tree) == {red}
            checked += 1
    assert checked >= 5 * (n - 3) ** 2


def test_disjoint_loop_joins_the_whole_set_through_one_hull_edge(monkeypatch):
    # Six points on which no split at a shared vertex gives two trees of
    # one color; edges 0-4, 1-3, 2-3, 3-4 and 3-5 have color 1.
    points = ((-571, 475), (-554, -984), (-151, -608), (104, 211), (203, 224), (443, 731))
    ones = {(0, 4), (1, 3), (2, 3), (3, 4), (3, 5)}
    coloring = EdgeColoring(6, 2, tuple(int(e in ones) for e in itertools.combinations(range(6), 2)))
    calls = []

    def counting(points, hull_edges, x):
        calls.append(x)
        return _spanning_hull_edge(points, hull_edges, x)

    monkeypatch.setattr(straightline, "_spanning_hull_edge", counting)
    report = solve_points(PointDrawing(points, coloring))
    assert report.ok
    assert sorted(report.tree) == [(0, 1), (0, 3), (1, 2), (2, 5), (4, 5)]
    assert len(calls) == 1
