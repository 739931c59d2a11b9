import random

import pytest

from planetrees.core import (
    EdgeColoring,
    induced_subdrawing,
    is_plane,
    is_spanning_tree,
    tree_colors,
)
from planetrees.generators import gen_coloring, gen_points
from planetrees.monotone import (
    MonotoneDrawing,
    colors_needed,
    group_partition,
    solve_monotone,
)
from planetrees.search import find_plane_tree
from planetrees.straightline import PointDrawing, compile_points

from conftest import coloring_from


def parabola_points(n):
    return tuple((i, i * i) for i in range(n))


# ----------------------------------------------------------------------
# formulas
# ----------------------------------------------------------------------

def test_colors_needed_values():
    assert colors_needed(7) == 2
    assert colors_needed(13) == 3
    assert colors_needed(2) == 2


def test_colors_needed_formula_range():
    for n in range(2, 101):
        assert colors_needed(n) == -(-(n + 5) // 6)


def test_group_partition_examples():
    assert group_partition(13, 6) == [tuple(range(0, 7)), tuple(range(6, 13))]
    assert group_partition(7, 6) == [tuple(range(7))]
    assert group_partition(8, 6) == [tuple(range(7)), (6, 7)]
    assert group_partition(2, 6) == [(0, 1)]


def test_group_partition_overlap_structure():
    for n in range(2, 101):
        for d in (2, 3, 6):
            groups = group_partition(n, d)
            k = -(-(n - 1) // d) + 1
            assert len(groups) == k - 1
            assert groups[0][0] == 0
            assert groups[-1][-1] == n - 1
            for a, b in zip(groups, groups[1:]):
                assert set(a) & set(b) == {b[0]}
                assert a[-1] == b[0]
            assert all(len(g) <= d + 1 for g in groups)


def test_group_count_matches_colors_needed():
    for n in range(2, 101):
        assert len(group_partition(n, 6)) == colors_needed(n) - 1


# ----------------------------------------------------------------------
# solver
# ----------------------------------------------------------------------

def test_single_group_instance():
    pts = parabola_points(7)
    coloring = gen_coloring(7, 2, 5)
    dr = MonotoneDrawing.from_points(PointDrawing(pts, coloring))
    rep = solve_monotone(dr, coloring)
    assert rep.status == "tree-found"
    assert len(rep.witness["groups"]) == 1
    assert rep.avoided_colors


def test_convex_13_three_distance_classes():
    pts = parabola_points(13)
    mapping = {}
    for u in range(13):
        for v in range(u + 1, 13):
            dist = min(v - u, 13 - (v - u))
            mapping[(u, v)] = 0 if dist == 1 else (1 if dist <= 3 else 2)
    coloring = coloring_from(13, 3, mapping)
    dr = MonotoneDrawing.from_points(PointDrawing(pts, coloring))
    rep = solve_monotone(dr, coloring)
    assert rep.status == "tree-found"
    assert rep.avoided_colors
    assert is_plane(dr.drawing, rep.tree)
    assert is_spanning_tree(13, rep.tree)
    # Per-group brute-force oracle.
    for gv in rep.witness["groups"]:
        sd, sc = induced_subdrawing(dr.drawing, coloring, gv)
        assert find_plane_tree(sd, sc, mode="hypochromatic").status == "tree-found"


def test_all_edges_one_color_avoids_everything_else():
    n = 10
    k = colors_needed(n)
    coloring = EdgeColoring(n, k, (0,) * (n * (n - 1) // 2))
    dr = MonotoneDrawing.from_points(PointDrawing(parabola_points(n), coloring))
    rep = solve_monotone(dr, coloring)
    assert rep.status == "tree-found"
    assert rep.avoided_colors == frozenset(range(1, k))


def test_rejects_too_few_colors():
    pts = parabola_points(14)
    coloring = gen_coloring(14, 2, 0)  # needs ceil(19/6) = 4... at least 3 groups
    dr = MonotoneDrawing.from_points(PointDrawing(pts, coloring))
    with pytest.raises(ValueError, match="colors"):
        solve_monotone(dr, coloring)


def test_rejects_unverified_group_span():
    pts = parabola_points(8)
    coloring = gen_coloring(8, colors_needed(8), 1)
    dr = MonotoneDrawing.from_points(PointDrawing(pts, coloring))
    with pytest.raises(ValueError, match="span"):
        solve_monotone(dr, coloring, d=7)


@pytest.mark.parametrize("d", [-1, 0, 1, 7])
def test_group_span_refusal_names_the_allowed_range(d):
    pts = parabola_points(8)
    coloring = gen_coloring(8, 8, 1)
    dr = MonotoneDrawing.from_points(PointDrawing(pts, coloring))
    with pytest.raises(ValueError, match=rf"^group span d={d} unsupported: the span must lie in 2\.\.6 "):
        solve_monotone(dr, coloring, d=d)


def test_smaller_group_span_works():
    pts = parabola_points(9)
    coloring = gen_coloring(9, 4, 2)  # d=3 needs ceil(8/3)+1 = 4 colors
    dr = MonotoneDrawing.from_points(PointDrawing(pts, coloring))
    rep = solve_monotone(dr, coloring, d=3)
    assert rep.status == "tree-found"
    assert len(rep.witness["groups"]) == 3


def test_trusted_crossing_set_input():
    pts = gen_points(9, 4, k=colors_needed(9))
    compiled = compile_points(pts)
    from planetrees.straightline import x_order

    dr = MonotoneDrawing(compiled, tuple(x_order(pts.points)))
    rep = solve_monotone(dr, pts.color)
    assert rep.status == "tree-found"
    assert is_plane(compiled, rep.tree)


def test_x_order_validation():
    pts = gen_points(5, 1)
    with pytest.raises(ValueError):
        MonotoneDrawing(compile_points(pts), (0, 1, 2, 3, 3))


@pytest.mark.parametrize("seed", range(25))
def test_random_instances_with_group_oracle(seed):
    n = random.Random(f"mono:{seed}").randint(8, 20)
    p = gen_points(n, seed, k=colors_needed(n))
    dr = MonotoneDrawing.from_points(p)
    rep = solve_monotone(dr, p.color)
    assert rep.status == "tree-found", rep.witness
    assert rep.all_invariants_passed
    assert is_plane(dr.drawing, rep.tree)
    assert is_spanning_tree(n, rep.tree)
    assert rep.avoided_colors
    used = tree_colors(p.color, rep.tree)
    assert rep.witness["removed_color"] not in used
    for gv in rep.witness["groups"]:
        sd, sc = induced_subdrawing(dr.drawing, p.color, gv)
        assert find_plane_tree(sd, sc, mode="hypochromatic").status == "tree-found"


def test_slab_disjointness_is_checked_on_trusted_drawings():
    # Span 2 on K_5 groups x-ranks {0,1,2} and {2,3,4}.  With one color
    # everywhere each group takes the star at its first vertex, 0-1 0-2
    # and 2-3 2-4, and the one crossing joins 0-1 with 2-3: tree edges of
    # two groups cross, which x-monotone edges never do.
    from conftest import plain_drawing, uniform_coloring

    d = plain_drawing(5, [((0, 1), (2, 3))])
    dr = MonotoneDrawing(d, tuple(range(5)))
    rep = solve_monotone(dr, uniform_coloring(5, 0, k=3), d=2)
    assert rep.tree == frozenset({(0, 1), (0, 2), (2, 3), (2, 4)})
    assert ("slab-disjointness", False) in rep.checked_invariants
    assert ("output-plane", False) in rep.checked_invariants
    assert rep.status == "counterexample"


def test_colors_needed_needs_two_vertices():
    with pytest.raises(ValueError, match="need n >= 2"):
        colors_needed(1)


def test_removed_color_is_the_least_color_no_group_keeps():
    removed_above_zero = 0
    for n in range(3, 20):
        for d in (2, 3, 6):
            for seed in range(2):
                k = len(group_partition(n, d)) + 1 + seed  # seed 1 leaves a spare color
                p = gen_points(n, 100 * n + 10 * d + seed, k=k)
                rep = solve_monotone(MonotoneDrawing.from_points(p), p.color, d=d)
                assert rep.status == "tree-found", (n, d, seed)
                free = set(range(k)) - set(rep.witness["kept_colors"])
                assert rep.witness["removed_color"] == min(free), (n, d, seed)
                removed_above_zero += rep.witness["removed_color"] > 0
    assert removed_above_zero  # some group kept color 0, so the rule is not just "color 0"
