"""The crossing index on Drawing and the shared peel step, against references.

The references below are the crossing scans the solvers used before
they shared ``Drawing.conflicts``: ``induced_subdrawing`` filtering every
crossing pair by its endpoints, and the book and straight-line peel
loops testing each edge against a map of its crossing partners.  The
index, ``induced_subdrawing`` and ``peel_candidate`` must agree with
them on compiled drawings of all three layout classes and on random
crossing sets.
"""

import dataclasses
import itertools
import random

import pytest

from planetrees.book import compile_book
from planetrees.core import (
    Drawing,
    EdgeColoring,
    all_edges,
    certify,
    crossing_pair,
    edge,
    edge_mask,
    edge_table,
    incident_masks,
    induced_mask,
    induced_subdrawing,
    is_plane,
    mask_is_plane,
    peel_candidate,
    validate_drawing,
)
from planetrees.cylindrical import compile_layout
from planetrees.formats import serialize_drawing
from planetrees.generators import gen_book, gen_coloring, gen_cylindrical, gen_points
from planetrees.straightline import compile_points

# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------


def reference_induced_subdrawing(d, c, vs):
    order = list(vs)
    index = {v: i for i, v in enumerate(order)}
    keep = set(order)

    def map_edge(e):
        return edge(index[e[0]], index[e[1]])

    crossings = frozenset(
        crossing_pair(map_edge(e), map_edge(f))
        for e, f in d.crossings
        if set(e) <= keep and set(f) <= keep
    )
    rotations = None
    if d.rotations is not None:
        rotations = tuple(tuple(index[w] for w in d.rotations[v] if w in keep) for v in order)
    labels = None
    if d.vertex_labels is not None:
        labels = tuple(d.vertex_labels[v] for v in order)
    sub = Drawing(len(order), crossings, rotations, labels)
    sub_coloring = None
    if c is not None:
        mapping = {map_edge((u, v)): c.color_of(u, v) for u, v in itertools.combinations(sorted(keep), 2)}
        sub_coloring = EdgeColoring.from_map(len(order), c.k, mapping)
    return sub, sub_coloring


def crossing_partners(d):
    partners = {}
    for e, f in d.crossings:
        partners.setdefault(e, set()).add(f)
        partners.setdefault(f, set()).add(e)
    return partners


def reference_book_peel(d, color, alive, pos):
    """The book solver's peel loop: spine order, nearer spine neighbour wins."""
    partners = crossing_partners(d)
    alive_set = set(alive)

    def nearer(v, e, old):
        def dist(x):
            w = x[0] if x[1] == v else x[1]
            return abs(pos[w] - pos[v]), w

        return dist(e) < dist(old)

    for v in alive:
        byc = {}
        for w in alive:
            if w == v:
                continue
            e = edge(v, w)
            if all(not set(f) <= alive_set for f in partners.get(e, ())):
                c = color.color_of_edge(e)
                if c not in byc or nearer(v, e, byc[c]):
                    byc[c] = e
        if len(byc) == 2:
            return v, byc
    return None


def reference_points_peel(points, d, color, subset):
    """The straight-line solver's peel loop: nearer x-coordinate wins."""
    partners = crossing_partners(d)

    def key(v, x):
        w = x[0] if x[1] == v else x[1]
        return abs(points[w][0] - points[v][0]), w

    for v in sorted(subset):
        byc = {}
        for w in sorted(subset):
            if w == v:
                continue
            e = edge(v, w)
            if all(not set(f) <= subset for f in partners.get(e, ())):
                c = color.color_of_edge(e)
                if c not in byc or key(v, e) < key(v, byc[c]):
                    byc[c] = e
        if len(byc) == 2:
            return v, byc
    return None


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------


def random_drawing(n, rng, density):
    pairs = [
        (e, f)
        for e, f in itertools.combinations(all_edges(n), 2)
        if not set(e) & set(f) and rng.random() < density
    ]
    return Drawing(n, frozenset(pairs))


def sample_drawings():
    out = []
    for seed in range(6):
        n = 5 + 3 * seed
        p = n // 2
        out.append((f"cylindrical-{seed}", compile_layout(gen_cylindrical(p, n - p, seed))))
        out.append((f"book-{seed}", compile_book(gen_book(n, seed))))
        out.append((f"points-{seed}", compile_points(gen_points(n, seed))))
    for seed in range(6):
        rng = random.Random(f"index:{seed}")
        n = rng.randint(2, 11)
        out.append((f"random-{seed}", random_drawing(n, rng, rng.random())))
    return out


DRAWINGS = sample_drawings()


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name,d", DRAWINGS, ids=[name for name, _ in DRAWINGS])
def test_conflicts_are_symmetric_and_equal_the_crossing_set(name, d):
    table = edge_table(d.n)
    conflicts = d.conflicts
    assert len(conflicts) == len(table)
    pairs = set()
    for i, j in itertools.combinations(range(len(table)), 2):
        assert (conflicts[i] >> j & 1) == (conflicts[j] >> i & 1)
        if conflicts[i] >> j & 1:
            pairs.add((table[i], table[j]))
    assert all(not conflicts[i] >> i & 1 for i in range(len(table)))
    assert pairs == set(d.crossings)


@pytest.mark.parametrize("name,d", DRAWINGS, ids=[name for name, _ in DRAWINGS])
def test_induced_subdrawing_matches_the_crossing_scan(name, d):
    rng = random.Random(name)
    coloring = gen_coloring(d.n, 3, 7) if d.n >= 3 else None
    for trial in range(8):
        vs = rng.sample(range(d.n), rng.randint(2, d.n))
        c = coloring if trial % 2 else None
        sub, sub_c = induced_subdrawing(d, c, vs)
        ref, ref_c = reference_induced_subdrawing(d, c, vs)
        assert sub == ref
        assert sub_c == ref_c


@pytest.mark.parametrize("name,d", DRAWINGS, ids=[name for name, _ in DRAWINGS])
def test_mask_planarity_matches_is_plane(name, d):
    rng = random.Random(name)
    for _ in range(40):
        s = frozenset(e for e in all_edges(d.n) if rng.random() < rng.random())
        assert mask_is_plane(edge_mask(d.n, s), d.conflicts) == is_plane(d, s)


@pytest.mark.parametrize("seed", range(12))
def test_book_peel_matches_the_old_loop(seed):
    n = 4 + seed
    layout = gen_book(n, seed)
    d = compile_book(layout)
    pos = {v: i for i, v in enumerate(layout.spine)}
    alive = list(layout.spine)
    while True:
        got = peel_candidate(d, layout.color, alive, lambda v, w: abs(pos[w] - pos[v]))
        assert got == reference_book_peel(d, layout.color, alive, pos)
        if got is None:
            break
        alive.remove(got[0])


@pytest.mark.parametrize("seed", range(12))
def test_points_peel_matches_the_old_loop(seed):
    rng = random.Random(f"peel:{seed}")
    p = gen_points(4 + seed, seed)
    d = compile_points(p)
    color = gen_coloring(p.n, 2, seed + 100)
    x = p.points
    for _ in range(10):
        subset = frozenset(rng.sample(range(p.n), rng.randint(2, p.n)))
        got = peel_candidate(d, color, sorted(subset), lambda v, w: abs(x[w][0] - x[v][0]))
        assert got == reference_points_peel(x, d, color, subset)


def test_peel_candidate_on_random_crossing_sets():
    # Spine distance on an arbitrary order, as the book solver uses it.
    for seed in range(20):
        rng = random.Random(f"peel-random:{seed}")
        n = rng.randint(2, 9)
        d = random_drawing(n, rng, rng.random())
        color = gen_coloring(n, 2, seed)
        order = rng.sample(range(n), n)
        pos = {v: i for i, v in enumerate(order)}
        got = peel_candidate(d, color, order, lambda v, w: abs(pos[w] - pos[v]))
        assert got == reference_book_peel(d, color, order, pos)


def test_every_drawing_holds_its_rows_and_an_edge_outside_k_n_is_refused():
    with pytest.raises(ValueError, match="^crossing edge 3-7 out of range for n=5$"):
        Drawing(5, frozenset({((0, 1), (3, 7))}))
    assert "conflicts" not in vars(Drawing)  # a plain attribute, not a view built on first read
    pairs = {((0, 2), (1, 3)), ((0, 3), (1, 4))}
    for d in (Drawing(5, pairs), Drawing.from_rows(5, Drawing(5, pairs).conflicts)):
        assert vars(d)["conflicts"] == Drawing(5, pairs).conflicts
        assert set(d.pairs()) == pairs and validate_drawing(d) == []


def test_equality_and_hash_do_not_depend_on_the_index():
    d = compile_points(gen_points(9, 3))
    fresh = Drawing(d.n, d.crossings, d.rotations, d.vertex_labels)
    text, h, r = serialize_drawing(fresh), hash(fresh), repr(fresh)
    fresh.conflicts
    assert "conflicts" not in {f.name for f in dataclasses.fields(Drawing)}
    assert fresh == d and d == fresh
    assert hash(fresh) == h == hash(d)
    assert repr(fresh) == r and serialize_drawing(fresh) == text
    assert dataclasses.replace(fresh) == fresh


def test_certify_reports_every_failed_predicate():
    d = Drawing(4, frozenset({((0, 2), (1, 3))}))
    coloring = EdgeColoring(4, 2, (0, 1, 0, 0, 1, 0))  # (0,2) and (1,3) have color 1
    crossed = frozenset({(0, 2), (1, 3), (0, 1)})
    rep = certify(d, coloring, crossed, (("earlier", True),))
    assert rep.status == "counterexample" and rep.tree == crossed
    assert rep.checked_invariants == (
        ("earlier", True),
        ("output-plane", False),
        ("output-spanning-tree", True),
        ("output-monochromatic", False),
    )
    assert rep.witness == {"reason": "output predicates failed"} and rep.avoided_colors == frozenset()
    path = frozenset({(0, 1), (1, 2), (2, 3)})  # colors 0, 0, 0
    assert certify(d, coloring, path).witness == {"tree_color": 0}
    assert not certify(d, coloring, path, color=1).ok
    assert certify(d, coloring, path, color=1).avoided_colors == {0}
    rep = certify(d, coloring, path, avoid=0, extra=(("slab", True),))
    assert [name for name, _ in rep.checked_invariants] == [
        "output-plane", "output-spanning-tree", "avoids-removed-color", "slab"]
    assert not rep.ok
    rep = certify(d, coloring, path, avoid=1, witness={"removed_color": 1})
    assert rep.ok and rep.avoided_colors == {1} and rep.witness == {"removed_color": 1}


# ----------------------------------------------------------------------
# rank arithmetic in the mask helpers and the peel, against rank dicts
# ----------------------------------------------------------------------


def reference_induced_mask(n, vs):
    rank = {e: i for i, e in enumerate(all_edges(n))}
    return sum(1 << rank[e] for e in itertools.combinations(sorted(set(vs)), 2))


def reference_peel(d, coloring, order, dist):
    """peel_candidate with every edge rank looked up in a dict."""
    rank = {e: i for i, e in enumerate(all_edges(d.n))}
    alive = reference_induced_mask(d.n, order)
    for v in order:
        best = {}
        for w in order:
            if w == v:
                continue
            r = rank[edge(v, w)]
            if d.conflicts[r] & alive:
                continue
            key = (dist(v, w), w)
            c = coloring.colors[r]
            if c not in best or key < best[c]:
                best[c] = key
        if len(best) == 2:
            return v, {c: edge(v, w) for c, (_, w) in best.items()}
    return None


def test_incident_masks_match_a_rank_dict():
    for n in range(0, 41):
        rank = {e: i for i, e in enumerate(all_edges(n))}
        want = [sum(1 << rank[edge(v, w)] for w in range(n) if w != v) for v in range(n)]
        assert incident_masks(n) == want


@pytest.mark.parametrize("n", [2, 3, 9, 25, 33, 40])
def test_induced_mask_and_peel_match_rank_dicts_on_random_subsets(n):
    rng = random.Random(f"rank-arithmetic:{n}")
    drawings = [
        (compile_book(gen_book(n, n)), gen_coloring(n, 2, n)),
        (compile_points(gen_points(n, n)), gen_coloring(n, 2, n + 1)),
        (random_drawing(n, rng, 0.05), gen_coloring(n, 2, n + 2)),
    ]
    for d, color in drawings:
        for _ in range(15):
            order = rng.sample(range(n), rng.randint(0, n))
            assert induced_mask(n, order) == reference_induced_mask(n, order)
            assert induced_mask(n, iter(order)) == reference_induced_mask(n, order)
            dist = lambda v, w: (v * 7 + w * 3) % 5  # noqa: E731 - ties broken by w
            assert peel_candidate(d, color, order, dist) == reference_peel(d, color, order, dist)
