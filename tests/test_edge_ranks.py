"""Edge ranks by arithmetic, and the one breadth-first search.

``core`` keeps one per-n table, ``edge_table``.  Ranks come from the
formula, so a non-edge (a reversed pair, a vertex outside K_n, a tuple
of another length) must be skipped before the formula sees it, exactly
as the rank dict it replaced skipped what was not a key.
``extract_spanning_tree`` and ``spans`` share one search over a rank
mask; the tree must be the one the adjacency-list search gave.
"""

import random

import pytest

from planetrees.core import (
    Drawing,
    certify,
    edge_mask,
    edge_table,
    extract_spanning_tree,
    induced_subdrawing,
    is_plane,
    spans,
)
from planetrees.generators import gen_points
from planetrees.straightline import compile_points

from conftest import (
    reference_edge_mask,
    reference_extract_spanning_tree,
    reference_is_plane,
    uniform_coloring,
)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def test_spanning_tree_and_rank_skips_match_the_dict_references():
    for n in range(1, 31):
        rng = random.Random(n)
        edges = edge_table(n)
        for density in (0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0):
            s = frozenset(e for e in edges if rng.random() < density)
            want = _outcome(reference_extract_spanning_tree, n, s)
            assert _outcome(extract_spanning_tree, n, s) == want
            assert spans(n, edge_mask(n, s)) == (not isinstance(want, str))
        # A spanning path minus one edge: the refusal, whatever the cut.
        path = [(v, v + 1) for v in range(n - 1)]
        for cut in range(n - 1):
            s = frozenset(path[:cut] + path[cut + 1:])
            assert _outcome(extract_spanning_tree, n, s) == "subgraph is not spanning-connected"
    # Non-edges of K_6 mixed into edge sets: reversed, outside, of another length.
    d = compile_points(gen_points(6, 0))
    junk = [(1, 0), (5, 2), (0, 6), (-1, 2), (6, 7), (0, 1, 2), (3,), ()]
    rng = random.Random(0)
    for _ in range(300):
        s = frozenset(rng.sample(edge_table(6), rng.randint(0, 6)) + rng.sample(junk, rng.randint(0, 4)))
        assert edge_mask(6, s) == reference_edge_mask(6, s)
        assert is_plane(d, s) == reference_is_plane(d, s)
    assert edge_mask(6, junk) == 0 and is_plane(d, junk)


@pytest.mark.parametrize("first", [(0, 6), (6, 7), (-1, 2)])
def test_out_of_range_crossing_edge_is_named_after_canonicalisation(first):
    u, v = sorted(first)
    with pytest.raises(ValueError, match=f"crossing edge {u}-{v} out of range for n=6"):
        Drawing(6, [((1, 2), (3, 4)), (first[::-1], (1, 2))])


def test_edge_ranks_keep_nothing_per_n():
    import tracemalloc

    def work(n):
        d = Drawing(n, [((0, 1), (2, 3)), ((1, 4), (2, n - 1))])
        c = uniform_coloring(n)
        star = frozenset((0, v) for v in range(1, n))
        assert certify(d, c, star).ok
        assert induced_subdrawing(d, c, range(n - 1, -1, -2))[0].n == (n + 1) // 2
        assert extract_spanning_tree(n, star | {(1, 2)}) == star

    for n in (128, 127):
        edge_table(n)
    work(126)  # every statement runs once first, so only per-n state can stay behind
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        work(128)
        work(127)
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained < 100_000
