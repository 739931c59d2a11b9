"""The colour-region prefilter of ``find_plane_tree`` is exact.

Before its Prüfer-order scan, ``find_plane_tree`` drops every colour
region (a class in monochromatic mode, a class's complement otherwise)
whose edges do not connect all n vertices.  Its answer must be the one
the scan without the prefilter gives (``reference_find_plane_tree`` in
``conftest.py``): the same status, tree, avoided colours, checks and
witness, on random crossing sets and colourings, including colourings
where no region connects.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from planetrees import search
from planetrees.core import Drawing, EdgeColoring, all_edges
from planetrees.search import find_plane_tree

from conftest import reference_find_plane_tree


def modes(k):
    yield "monochromatic", None
    yield "hypochromatic", None
    for col in range(k):
        yield "monochromatic", col
        yield "avoid", col


@st.composite
def instances(draw):
    n = draw(st.integers(2, 7))
    k = draw(st.integers(2, 4))
    edges = all_edges(n)
    independent = [(e, f) for e, f in itertools.combinations(edges, 2) if not set(e) & set(f)]
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    crossings = [pair for pair in independent if draw(st.floats(0, 1)) < density] if density else []
    shape = draw(st.sampled_from(["random", "isolated", "blocks"]))
    if shape == "random":
        colors = [draw(st.integers(0, k - 1)) for _ in edges]
    elif shape == "isolated":
        # Every edge at vertex v has colour c: avoiding c leaves v isolated.
        v, c = draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))
        colors = [c if v in e else draw(st.integers(0, k - 1)) for e in edges]
    else:
        # Colour by the pair of vertex blocks an edge joins: with k >= 3
        # and three or more blocks, often no class connects.
        block = [draw(st.integers(0, 2)) for _ in range(n)]
        colors = [(block[u] + block[v]) % k for u, v in edges]
    return Drawing(n, crossings), EdgeColoring(n, k, tuple(colors))


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(instances(), st.data())
def test_prefilter_matches_the_unfiltered_scan(instance, data):
    d, c = instance
    mode, color = data.draw(st.sampled_from(list(modes(c.k))))
    got = find_plane_tree(d, c, mode=mode, color=color)
    want = reference_find_plane_tree(d, c, mode=mode, color=color)
    assert got == want


def test_every_mode_on_a_colouring_where_no_class_connects():
    # Three blocks {0,1}, {2,3}, {4,5}; colour (block u + block v) % 3.
    n, k = 6, 3
    block = [0, 0, 1, 1, 2, 2]
    c = EdgeColoring(n, k, tuple((block[u] + block[v]) % k for u, v in all_edges(n)))
    d = Drawing(n, [((0, 2), (1, 3)), ((2, 4), (3, 5))])
    for mode, color in modes(k):
        got = find_plane_tree(d, c, mode=mode, color=color)
        assert got == reference_find_plane_tree(d, c, mode=mode, color=color)
    assert find_plane_tree(d, c).status == "counterexample"


def test_a_dropped_region_skips_the_scan(monkeypatch):
    n = 7
    c = EdgeColoring(n, 3, tuple(0 if 0 in e else 1 + (e[0] + e[1]) % 2 for e in all_edges(n)))
    d = Drawing(n, ())

    def refuse(n):
        pytest.fail("the scan ran")
        yield

    monkeypatch.setattr(search, "_tree_masks", refuse)
    rep = find_plane_tree(d, c, mode="avoid", color=0)
    assert rep.status == "counterexample"
    assert rep.witness["reason"] == "exhaustive scan found no plane spanning tree for the predicate"


def test_the_enumeration_guard_comes_before_the_prefilter():
    n = 11
    c = EdgeColoring(n, 2, tuple(0 if 0 in e else 1 for e in all_edges(n)))
    with pytest.raises(ValueError, match="refusing to enumerate"):
        find_plane_tree(Drawing(n, ()), c, mode="avoid", color=0)
