import random

import pytest

from planetrees.core import (
    Drawing,
    EdgeColoring,
    edge,
    extract_spanning_tree,
    induced_subdrawing,
    is_plane,
    is_spanning_tree,
    reattach,
    validate_drawing,
)
from planetrees.generators import gen_coloring, gen_points
from planetrees.straightline import compile_points

from conftest import (
    color_class_components,
    convex_interleaving_crossings,
    merge_colors,
    one_crossing_k4,
    uniform_coloring,
)


# ----------------------------------------------------------------------
# validate_drawing
# ----------------------------------------------------------------------

def test_validate_k3_ok():
    d = Drawing(3, frozenset(), rotations=((1, 2), (0, 2), (0, 1)))
    assert validate_drawing(d) == []


def test_validate_adjacent_crossing_flagged():
    d = Drawing(4, frozenset({((0, 1), (1, 2))}))
    violations = validate_drawing(d)
    assert any("adjacent" in v for v in violations)


def test_validate_one_crossing_k4_ok():
    d = Drawing(
        4,
        frozenset({((0, 2), (1, 3))}),
        rotations=((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)),
    )
    assert validate_drawing(d) == []


def test_validate_bad_rotation():
    d = Drawing(3, frozenset(), rotations=((1, 2), (0, 0), (0, 1)))
    assert any("permutation" in v for v in validate_drawing(d))


def test_out_of_range_edge_is_refused_at_construction():
    with pytest.raises(ValueError, match="^crossing edge 1-5 out of range for n=3$"):
        Drawing(3, frozenset({((0, 2), (1, 5))}))
    with pytest.raises(ValueError, match="^loop edge at vertex 1$"):
        Drawing(3, frozenset({((0, 2), (1, 1))}))


# ----------------------------------------------------------------------
# is_plane / is_spanning_tree
# ----------------------------------------------------------------------

def test_is_plane_k4_cases():
    d = one_crossing_k4()
    assert is_plane(d, frozenset({(0, 1), (1, 2), (2, 3)}))
    assert not is_plane(d, frozenset({(0, 2), (1, 3)}))
    assert is_plane(d, frozenset())


def test_is_spanning_tree_cases():
    assert is_spanning_tree(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    assert not is_spanning_tree(4, frozenset({(0, 1), (1, 2), (0, 2)}))
    assert is_spanning_tree(2, frozenset({(0, 1)}))
    assert not is_spanning_tree(3, frozenset({(0, 1)}))


def test_is_plane_monotone_under_subsets():
    rng = random.Random(11)
    for seed in range(30):
        p = gen_points(6, seed)
        d = compile_points(p)
        edges = [edge(u, v) for u in range(6) for v in range(u + 1, 6)]
        s_prime = frozenset(rng.sample(edges, 8))
        s = frozenset(rng.sample(sorted(s_prime), 4))
        if is_plane(d, s_prime):
            assert is_plane(d, s)


# ----------------------------------------------------------------------
# induced_subdrawing
# ----------------------------------------------------------------------

def test_induced_k4_to_k3_drops_crossing():
    d = one_crossing_k4()
    sub, _ = induced_subdrawing(d, None, [0, 1, 2])
    assert sub.n == 3
    assert sub.crossings == frozenset()


def test_induced_identity():
    d = one_crossing_k4()
    sub, _ = induced_subdrawing(d, None, [0, 1, 2, 3])
    assert sub == d


def test_induced_convex_k5_alternate_vertices():
    # Convex K_5 on integer points; the crossing set must agree with the
    # interleaving oracle, and restricting to {0, 2, 4} kills every
    # crossing (any 4-subset needs two of the three chosen vertices to
    # be hull-consecutive).
    pts = ((0, 0), (3, -2), (6, 0), (5, 4), (1, 3))
    coloring = uniform_coloring(5)
    from planetrees.straightline import PointDrawing, convex_hull

    p = PointDrawing(pts, coloring)
    hull = convex_hull(pts, range(5))
    assert sorted(hull) == [0, 1, 2, 3, 4]
    d = compile_points(p)
    assert d.crossings == convex_interleaving_crossings(hull)
    sub, _ = induced_subdrawing(d, coloring, [0, 2, 4])
    assert sub.crossings == frozenset()


def test_induced_rejects_bad_subsets():
    d = one_crossing_k4()
    with pytest.raises(ValueError):
        induced_subdrawing(d, None, [0, 0, 1])
    with pytest.raises(ValueError):
        induced_subdrawing(d, None, [0, 9])
    with pytest.raises(ValueError):
        induced_subdrawing(d, None, [0])


def test_induced_composes():
    pts = gen_points(7, 3)
    d = compile_points(pts)
    once, _ = induced_subdrawing(d, pts.color, [0, 2, 3, 5, 6])
    twice, _ = induced_subdrawing(once, None, [0, 1, 3, 4])
    direct, _ = induced_subdrawing(d, pts.color, [0, 2, 5, 6])
    assert twice.crossings == direct.crossings
    assert twice.rotations == direct.rotations


# ----------------------------------------------------------------------
# color classes and merging
# ----------------------------------------------------------------------

def test_color_class_components_examples():
    all0 = uniform_coloring(3, 0)
    assert color_class_components(3, all0, 1) == [
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    ]
    assert color_class_components(3, all0, 0) == [frozenset({0, 1, 2})]

    c = EdgeColoring.from_map(
        4,
        2,
        {(0, 1): 0, (2, 3): 0, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1},
    )
    assert color_class_components(4, c, 0) == [frozenset({0, 1}), frozenset({2, 3})]


def test_merge_colors_examples():
    c3 = gen_coloring(5, 3, 1)
    merged = merge_colors(c3, keep=2)
    assert merged.k == 2
    assert merged.class_edges(0) == c3.class_edges(2)

    c2 = gen_coloring(5, 2, 4)
    assert merge_colors(c2, keep=0) == c2

    c4 = EdgeColoring.from_map(
        4,
        4,
        {(0, 1): 0, (0, 2): 1, (0, 3): 1, (1, 2): 2, (1, 3): 2, (2, 3): 3},
    )
    merged = merge_colors(c4, keep=0)
    assert len(merged.class_edges(0)) == 1
    assert len(merged.class_edges(1)) == 5


def test_merge_then_avoid_equals_monochromatic():
    # A tree avoids the merged "rest" class exactly when it was
    # monochromatic in the kept color.
    for seed in range(20):
        c = gen_coloring(5, 3, seed)
        keep = seed % 3
        merged = merge_colors(c, keep)
        rng = random.Random(seed)
        tree = frozenset(
            edge(*pair) for pair in rng.sample([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)], 4)
        )
        mono_kept = all(c.color_of_edge(e) == keep for e in tree)
        avoids_rest = all(merged.color_of_edge(e) == 0 for e in tree)
        assert mono_kept == avoids_rest


def test_edge_canonicalization_and_errors():
    assert edge(3, 1) == (1, 3)
    with pytest.raises(ValueError):
        edge(2, 2)
    with pytest.raises(ValueError):
        EdgeColoring(3, 1, (0, 0, 0))
    with pytest.raises(ValueError):
        EdgeColoring(3, 2, (0, 0))


def test_extract_spanning_tree_deterministic():
    sub = frozenset({(0, 1), (1, 2), (0, 2), (2, 3)})
    t1 = extract_spanning_tree(4, sub)
    t2 = extract_spanning_tree(4, sub)
    assert t1 == t2
    assert is_spanning_tree(4, t1)
    with pytest.raises(ValueError):
        extract_spanning_tree(4, frozenset({(0, 1)}))


# ----------------------------------------------------------------------
# reattach
# ----------------------------------------------------------------------


def test_reattach_takes_the_smallest_colour_for_a_colourless_tree():
    # K_3 without crossings; vertex 0 is the residual, 2 and then 1 were removed.
    d = Drawing(3, ())
    c = EdgeColoring(3, 2, (1, 0, 1))  # 0-1, 0-2, 1-2
    removed = [(2, {0: (0, 2), 1: (1, 2)}), (1, {1: (0, 1)})]
    rep = reattach(d, c, (), None, removed, [("peel", True)], witness={"removed_vertices": [2, 1]})
    assert rep.ok and rep.tree == {(0, 1), (1, 2)}
    assert rep.witness == {"removed_vertices": [2, 1], "tree_color": 1}
    assert rep.checked_invariants[0] == ("peel", True)


def test_reattach_without_an_edge_of_the_tree_colour_names_the_vertex():
    d = Drawing(3, ())
    c = EdgeColoring(3, 2, (1, 0, 1))
    rep = reattach(d, c, [(0, 1)], 1, [(2, {0: (0, 2)})], [("peel", True)])
    assert rep.status == "counterexample" and rep.tree is None
    assert rep.witness == {"reason": "re-attachment impossible", "vertex": 2}
    assert rep.checked_invariants == (("peel", True),)
