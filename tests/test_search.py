import os

import pytest

from planetrees.core import EdgeColoring, edge, is_plane, is_spanning_tree
from planetrees.generators import gen_book, gen_coloring, gen_points
from planetrees.book import compile_book
from planetrees.search import (
    enumerate_spanning_trees,
    find_plane_tree,
    pool_size,
    verify_class_file,
    verify_all_colorings,
)
from planetrees.straightline import PointDrawing, compile_points, convex_hull

from conftest import (
    coloring_from,
    nonspanning_fallback,
    one_crossing_k4,
    plain_drawing,
    uniform_coloring,
)

CONVEX5 = ((0, 0), (3, -2), (6, 0), (5, 4), (1, 3))


def hull_diagonal_coloring(points, hull_color=0, diagonal_color=1):
    hull = convex_hull(points, range(len(points)))
    hull_edges = {edge(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))}
    n = len(points)
    mapping = {}
    for u in range(n):
        for v in range(u + 1, n):
            mapping[(u, v)] = hull_color if (u, v) in hull_edges else diagonal_color
    return EdgeColoring.from_map(n, 2, mapping), hull_edges


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def test_cayley_counts():
    for n in range(2, 8):
        assert sum(1 for _ in enumerate_spanning_trees(n)) == n ** (n - 2)


def test_enumeration_yields_distinct_trees():
    trees = list(enumerate_spanning_trees(5))
    assert len(set(trees)) == 125
    for t in trees:
        assert is_spanning_tree(5, t)


def test_enumeration_guard():
    with pytest.raises(ValueError):
        next(enumerate_spanning_trees(11))
    gen = enumerate_spanning_trees(11, allow_large=True)
    assert is_spanning_tree(11, next(gen))
    with pytest.raises(ValueError):
        next(enumerate_spanning_trees(1))


# ----------------------------------------------------------------------
# find_plane_tree
# ----------------------------------------------------------------------

def test_find_plane_tree_k4_any_color():
    rep = find_plane_tree(one_crossing_k4(), uniform_coloring(4, 0), mode="monochromatic")
    assert rep.status == "tree-found"
    assert is_plane(one_crossing_k4(), rep.tree)
    assert is_spanning_tree(4, rep.tree)


def test_find_plane_tree_specific_color_k3():
    c = coloring_from(3, 2, {(0, 1): 0, (1, 2): 1, (0, 2): 0})
    rep = find_plane_tree(plain_drawing(3), c, mode="monochromatic", color=0)
    assert rep.tree == frozenset({(0, 1), (0, 2)})
    assert rep.avoided_colors == frozenset({1})


def test_convex_k5_negative_control():
    # Brute-force oracle: enumerate all 125 spanning trees of K_5 and
    # count, per color class, how many are plane and monochromatic.
    p = PointDrawing(CONVEX5, uniform_coloring(5))
    d = compile_points(p)
    coloring, hull_edges = hull_diagonal_coloring(CONVEX5)
    blue_plane = []
    red_plane = []
    for tree in enumerate_spanning_trees(5):
        colors = {coloring.color_of_edge(e) for e in tree}
        if len(colors) != 1 or not is_plane(d, tree):
            continue
        (blue_plane if colors == {1} else red_plane).append(tree)
    assert blue_plane == []  # every all-diagonal tree contains a crossing
    assert red_plane  # hull paths exist

    rep_blue = find_plane_tree(d, coloring, mode="monochromatic", color=1)
    assert rep_blue.status == "counterexample"
    rep_red = find_plane_tree(d, coloring, mode="monochromatic", color=0)
    assert rep_red.status == "tree-found"
    assert rep_red.tree <= hull_edges  # a hull path
    assert rep_red.tree in red_plane


def test_find_plane_tree_modes():
    c = coloring_from(4, 3, {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 2, (1, 3): 1, (2, 3): 0})
    d = one_crossing_k4()
    rep = find_plane_tree(d, c, mode="avoid", color=0)
    assert rep.status == "tree-found"
    assert all(c.color_of_edge(e) != 0 for e in rep.tree)
    rep = find_plane_tree(d, c, mode="hypochromatic")
    assert rep.status == "tree-found"
    assert len({c.color_of_edge(e) for e in rep.tree}) < 3
    with pytest.raises(ValueError):
        find_plane_tree(d, c, mode="avoid")
    with pytest.raises(ValueError):
        find_plane_tree(d, c, mode="nonsense")


def test_find_plane_tree_first_in_enumeration_order():
    d = plain_drawing(4)
    c = uniform_coloring(4, 0)
    rep = find_plane_tree(d, c, mode="monochromatic")
    first = next(iter(enumerate_spanning_trees(4)))
    assert rep.tree == first


# ----------------------------------------------------------------------
# nonspanning fallback
# ----------------------------------------------------------------------

def test_fallback_small_class():
    c = coloring_from(4, 2, {(0, 1): 0, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1})
    rep = nonspanning_fallback(one_crossing_k4(), c)
    assert rep.status == "tree-found"
    assert all(c.color_of_edge(e) == 1 for e in rep.tree)


def test_fallback_not_applicable_when_all_spanning():
    c = coloring_from(4, 2, {(0, 1): 0, (1, 2): 0, (2, 3): 0, (0, 2): 1, (0, 3): 1, (1, 3): 1})
    rep = nonspanning_fallback(one_crossing_k4(), c)
    assert rep.status == "not-applicable"


def test_fallback_empty_class():
    rep = nonspanning_fallback(plain_drawing(4), uniform_coloring(4, 0, k=2))
    assert rep.status == "tree-found"
    assert rep.avoided_colors == frozenset({1})


# ----------------------------------------------------------------------
# exhaustive verification
# ----------------------------------------------------------------------

def test_verify_k3():
    report = verify_all_colorings(plain_drawing(3))
    assert report.colorings_checked == 4
    assert report.passed


def test_verify_one_crossing_k4():
    report = verify_all_colorings(one_crossing_k4())
    assert report.colorings_checked == 32
    assert report.passed


def test_verify_refuses_large_n():
    with pytest.raises(ValueError, match="long-run"):
        verify_all_colorings(plain_drawing(7))
    with pytest.raises(ValueError, match="long-run"):
        verify_all_colorings(plain_drawing(8))


def test_verify_env_flag(monkeypatch):
    monkeypatch.setenv("PLANETREES_LONG_RUN", "0")
    with pytest.raises(ValueError):
        verify_all_colorings(plain_drawing(7))


def test_verify_parallel_matches_serial():
    d = compile_book(gen_book(5, 13))
    serial = verify_all_colorings(d, jobs=1)
    parallel = verify_all_colorings(d, jobs=3)
    assert serial.colorings_checked == parallel.colorings_checked == 512
    assert serial.failures == parallel.failures == ()


def test_color_swap_soundness():
    # A monochromatic plane tree exists for a coloring exactly when one
    # exists for its complement coloring.
    d = compile_points(gen_points(5, 21))
    for seed in range(25):
        c = gen_coloring(5, 2, seed)
        comp = EdgeColoring(5, 2, tuple(1 - x for x in c.colors))
        a = find_plane_tree(d, c, mode="monochromatic").status
        b = find_plane_tree(d, comp, mode="monochromatic").status
        assert a == b


def test_every_star_is_plane():
    # Stars have pairwise adjacent edges, so they are plane in any
    # simple drawing; the verifier's tree pool is never empty.
    d = compile_points(gen_points(6, 2))
    for center in range(6):
        star = frozenset(edge(center, v) for v in range(6) if v != center)
        assert is_plane(d, star)


# ----------------------------------------------------------------------
# class files
# ----------------------------------------------------------------------

def test_verify_class_file_single_record(tmp_path):
    path = tmp_path / "k4.classes"
    path.write_text("4;\n")  # crossing-free K_4
    report = verify_class_file(str(path))
    assert report.records_verified == 1
    assert report.colorings_checked == 32
    assert report.passed


def test_verify_class_file(tmp_path):
    path = tmp_path / "k4.classes"
    path.write_text("4;\n4;0-2 1-3\n")
    report = verify_class_file(str(path))
    assert report.records_verified == 2
    assert report.colorings_checked == 64
    assert report.passed


def test_verify_class_file_resume(tmp_path):
    path = tmp_path / "k4.classes"
    path.write_text("4;\n4;0-2 1-3\n")
    report = verify_class_file(str(path), start_index=1)
    assert report.records_verified == 1
    assert report.first_record == 1


def test_class_file_parse_error_has_line(tmp_path):
    from planetrees.formats import ParseError

    path = tmp_path / "bad.classes"
    path.write_text("4;0-2 1-3\n4;0-x 1-3\n")
    with pytest.raises(ParseError, match="line 2"):
        verify_class_file(str(path))


def test_pool_size_is_clamped_to_cpus_and_chunks(monkeypatch):
    # The computed worker count is checked directly; no pool is started.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert pool_size(1, 1 << 14) == 1
    assert pool_size(3, 1 << 14) == 3
    assert pool_size(1000, 1 << 14) == 4
    assert pool_size(10**9, 1 << 14) == 4
    assert pool_size(1000, 2) == 2
    assert pool_size(0, 100) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pool_size(8, 100) == 1


# ----------------------------------------------------------------------
# certification of the brute-force answer
# ----------------------------------------------------------------------

def _crossing_path_coloring():
    # Color 1 is exactly the path 0-2 2-1 1-3, whose ends 0-2 and 1-3
    # cross in one_crossing_k4: the only color-1 spanning tree is not plane.
    return coloring_from(4, 2, {(0, 2): 1, (1, 2): 1, (1, 3): 1, (0, 1): 0, (0, 3): 0, (2, 3): 0})


def test_find_plane_tree_certifies_independently_of_the_index(monkeypatch):
    import planetrees.search as search

    c = _crossing_path_coloring()
    rep = find_plane_tree(one_crossing_k4(), c, mode="monochromatic", color=1)
    assert rep.status == "counterexample"
    assert "exhaustive scan" in rep.witness["reason"]
    # A scan that wrongly calls every tree plane is caught by is_plane.
    monkeypatch.setattr(search, "mask_is_plane", lambda mask, conflicts: True)
    rep = find_plane_tree(one_crossing_k4(), c, mode="monochromatic", color=1)
    assert rep.status == "counterexample"
    assert rep.checked_invariants == (("plane", False), ("spanning-tree", True))
    assert rep.witness["reason"] == "output predicates failed"
    assert rep.tree == frozenset({(0, 2), (1, 2), (1, 3)})

