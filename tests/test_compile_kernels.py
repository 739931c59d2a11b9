"""The 4-subset compile kernels against the pairwise reference compilers.

The reference functions below are the straightforward compilers: every
pair of edges is tested on its own, with rational spiral counts for
annuli, spine interleaving for books and segment intersection for
points.  The kernels must reproduce their ``Drawing`` exactly (crossings,
rotations and labels) and raise the same errors with the same messages.
"""

import functools
import random
from fractions import Fraction

import pytest

from planetrees.book import BookLayout, compile_book
from planetrees.core import Drawing, all_edges, crossing_pair, edge
from planetrees.cylindrical import (
    TURN,
    CylindricalLayout,
    NotSimpleError,
    compile_layout,
)
from planetrees.generators import gen_book, gen_coloring, gen_cylindrical, gen_points
from planetrees.straightline import PointDrawing, check_general_position, compile_points, orient

from conftest import reference_orientation_compile, side_crossing_count

# ----------------------------------------------------------------------
# pairwise reference compilers
# ----------------------------------------------------------------------


def _interleave_circular(e, f):
    a, b = e
    c, d = f

    def between(x, lo, hi):
        if lo < hi:
            return lo < x < hi
        return x > lo or x < hi

    return between(c, a, b) != between(d, a, b)


def reference_compile_layout(layout):
    p, q, n = layout.n_inner, layout.n_outer, layout.n
    crossings = set()
    side_edges = [edge(u, w) for u in range(p) for w in range(p, n)]
    for i, e in enumerate(side_edges):
        for f in side_edges[i + 1 :]:
            m = side_crossing_count(layout, e, f)
            shared = set(e) & set(f)
            if shared and m >= 1:
                raise NotSimpleError(f"adjacent side edges {e} and {f} meet {m} time(s)")
            if not shared and m >= 2:
                raise NotSimpleError(f"independent side edges {e} and {f} meet {m} times")
            if not shared and m == 1:
                crossings.add(crossing_pair(e, f))
    for ids in (list(range(p)), list(range(p, n))):
        local = [(a, b) for a in range(len(ids)) for b in range(a + 1, len(ids))]
        for i, e0 in enumerate(local):
            for f0 in local[i + 1 :]:
                if not set(e0) & set(f0) and _interleave_circular(e0, f0):
                    crossings.add(
                        crossing_pair(edge(ids[e0[0]], ids[e0[1]]), edge(ids[f0[0]], ids[f0[1]]))
                    )
    rotations = []
    for v in range(n):
        if v < p:
            sides = sorted(range(p, n), key=lambda w: layout.windings[v][w - p])
            rotations.append(tuple(sides + [(v + s) % p for s in range(1, p)]))
        else:
            j = v - p
            sides = sorted(range(p), key=lambda u: layout.windings[u][j])
            rotations.append(tuple(sides + [p + (j - s) % q for s in range(1, q)]))
    labels = tuple("inner" if v < p else "outer" for v in range(n))
    return Drawing(n, frozenset(crossings), tuple(rotations), labels)


def reference_compile_book(layout):
    n = layout.n
    pos = {v: i for i, v in enumerate(layout.spine)}

    def interleave(e, f):
        a, b = sorted((pos[e[0]], pos[e[1]]))
        c, d = sorted((pos[f[0]], pos[f[1]]))
        return a < c < b < d or c < a < d < b

    edges = all_edges(n)
    crossings = set()
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            if not set(e) & set(f) and layout.page_of(e) == layout.page_of(f) and interleave(e, f):
                crossings.add(crossing_pair(e, f))
    rotations = []
    for v in range(n):
        pv = pos[v]
        others = [w for w in range(n) if w != v]

        def block(side, page, sign):
            chosen = [w for w in others if side(pos[w]) and layout.page_of(edge(v, w)) == page]
            return sorted(chosen, key=lambda w: sign * pos[w])

        rotations.append(tuple(
            block(lambda x: x > pv, "top", 1)
            + block(lambda x: x < pv, "top", 1)
            + block(lambda x: x < pv, "bottom", -1)
            + block(lambda x: x > pv, "bottom", -1)
        ))
    labels = tuple(f"spine:{pos[v]}" for v in range(n))
    return Drawing(n, frozenset(crossings), tuple(rotations), labels)


def _segments_cross(a, b, c, d):
    return (
        orient(a, b, c) != orient(a, b, d)
        and orient(c, d, a) != orient(c, d, b)
        and 0 not in (orient(a, b, c), orient(a, b, d), orient(c, d, a), orient(c, d, b))
    )


def _reference_general_position(points):
    n = len(points)
    if len({pt[0] for pt in points}) != n:
        raise ValueError("duplicate x-coordinate among points")
    if len(set(points)) != n:
        raise ValueError("duplicate point")
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if orient(points[i], points[j], points[k]) == 0:
                    raise ValueError(f"collinear points {i}, {j}, {k}")


def _angular_rotation(points, v):
    pv = points[v]

    def half(w):
        dx, dy = points[w][0] - pv[0], points[w][1] - pv[1]
        return 0 if dy > 0 or (dy == 0 and dx > 0) else 1

    def cmp(w1, w2):
        if half(w1) != half(w2):
            return -1 if half(w1) < half(w2) else 1
        a = (points[w1][0] - pv[0], points[w1][1] - pv[1])
        b = (points[w2][0] - pv[0], points[w2][1] - pv[1])
        return -1 if a[0] * b[1] - a[1] * b[0] > 0 else 1

    others = [w for w in range(len(points)) if w != v]
    return tuple(sorted(others, key=functools.cmp_to_key(cmp)))


def reference_compile_points(p):
    _reference_general_position(p.points)
    n = p.n
    edges = all_edges(n)
    crossings = set()
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            if not set(e) & set(f) and _segments_cross(
                p.points[e[0]], p.points[e[1]], p.points[f[0]], p.points[f[1]]
            ):
                crossings.add(crossing_pair(e, f))
    rotations = tuple(_angular_rotation(p.points, v) for v in range(n))
    rank = {v: r for r, v in enumerate(sorted(range(n), key=lambda v: p.points[v][0]))}
    return Drawing(n, frozenset(crossings), rotations, tuple(f"x:{rank[v]}" for v in range(n)))


def _outcome(compiler, layout):
    """The compiled drawing, or the (type, message) of the error raised."""
    try:
        return compiler(layout)
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_same_drawing(got, want):
    assert got.crossings == want.crossings
    assert got.rotations == want.rotations
    assert got.vertex_labels == want.vertex_labels
    assert got == want


# ----------------------------------------------------------------------
# annulus
# ----------------------------------------------------------------------

ANNULUS_SHAPES = [(p, n - p) for n in range(2, 25) for p in sorted({0, 1, n // 2, n - 1, n})]


@pytest.mark.parametrize("p,q", ANNULUS_SHAPES)
def test_annulus_kernel_matches_reference(p, q):
    layout = gen_cylindrical(p, q, seed=p * 31 + q, wrap_prob=0.5)
    _assert_same_drawing(compile_layout(layout), reference_compile_layout(layout))


def _random_wrapping_layout(rng, p, q, max_turns):
    resolution = 4 * (p + q) + rng.randrange(1, 7)
    inner = sorted(rng.sample(range(resolution), p))
    outer = sorted(rng.sample(range(resolution), q))
    inner = tuple(Fraction(2 * t, resolution) for t in inner)
    outer = tuple(Fraction(2 * t, resolution) for t in outer)
    windings = tuple(
        tuple((b - a) % TURN + TURN * rng.randint(-max_turns, max_turns) for b in outer)
        for a in inner
    )
    return CylindricalLayout(inner, outer, windings, gen_coloring(p + q, 2, rng.randrange(1000)))


@pytest.mark.parametrize("seed", range(8))
def test_annulus_kernel_matches_reference_on_wrapping_layouts(seed):
    rng = random.Random(f"wrapping:{seed}")
    raised = wrapped_simple = 0
    for _ in range(50):
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        layout = _random_wrapping_layout(rng, p, q, max_turns=rng.choice([1, 1, 2]))
        want = _outcome(reference_compile_layout, layout)
        got = _outcome(compile_layout, layout)
        if isinstance(want, Drawing):
            wrapped_simple += any(not 0 <= w < TURN for row in layout.windings for w in row)
            _assert_same_drawing(got, want)
        else:
            raised += 1
            assert got == want
    assert raised and wrapped_simple


def test_annulus_kernel_reports_first_violation_in_scan_order():
    # Several side pairs meet more than allowed; the message names the
    # first one in the reference's scan order.
    layout = CylindricalLayout(
        (Fraction(0), Fraction(1)),
        (Fraction(1, 2), Fraction(3, 2)),
        ((Fraction(9, 2), Fraction(11, 2)), (Fraction(11, 2), Fraction(1, 2))),
        gen_coloring(4, 2, 0),
    )
    want = _outcome(reference_compile_layout, layout)
    assert want[0] is NotSimpleError
    assert _outcome(compile_layout, layout) == want


# ----------------------------------------------------------------------
# book
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 25))
def test_book_kernel_matches_reference(n):
    for seed in (n, 100 + n):
        layout = gen_book(n, seed)
        _assert_same_drawing(compile_book(layout), reference_compile_book(layout))


@pytest.mark.parametrize("page", ["top", "bottom"])
def test_one_page_book_matches_reference(page):
    spine = tuple(random.Random(7).sample(range(9), 9))
    layout = BookLayout(spine, tuple(page for _ in range(36)), gen_coloring(9, 2, 7))
    _assert_same_drawing(compile_book(layout), reference_compile_book(layout))


# ----------------------------------------------------------------------
# points
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 25))
def test_points_kernel_matches_reference(n):
    for seed in (n, 100 + n):
        pts = gen_points(n, seed)
        _assert_same_drawing(compile_points(pts), reference_compile_points(pts))


def test_points_kernel_matches_reference_on_rational_and_negative_coordinates():
    rng = random.Random(3)
    pts = gen_points(12, 3)
    moved = tuple((Fraction(x - 50, 7), Fraction(rng.choice([-1, 1]) * y, 3)) for x, y in pts.points)
    drawing = PointDrawing(moved, pts.color)
    _assert_same_drawing(compile_points(drawing), reference_compile_points(drawing))


@pytest.mark.parametrize(
    "points",
    [
        ((0, 0), (0, 5), (3, 1)),
        ((0, 0), (1, 1), (2, 2), (3, 7)),
        ((0, 0), (1, 5), (2, 3), (4, 6), (3, 1)),
        ((5, 5), (1, 2), (5, 5)),
    ],
)
def test_points_kernel_raises_reference_errors(points):
    drawing = PointDrawing(points, gen_coloring(len(points), 2, 0))
    want = _outcome(reference_compile_points, drawing)
    assert want[0] is ValueError
    assert _outcome(compile_points, drawing) == want
    with pytest.raises(ValueError) as info:
        check_general_position(points)
    assert str(info.value) == want[1]


# ----------------------------------------------------------------------
# larger layouts: n 25..40
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n,seed", [(25, 0), (29, 1), (34, 2), (40, 3)])
def test_points_kernel_matches_the_orientation_reference_at_larger_n(n, seed):
    rng = random.Random(f"points-larger:{seed}")
    pts = gen_points(n, seed)
    moved = tuple((Fraction(x - 500, rng.randint(1, 9)), -y) for x, y in pts.points)
    for drawing in (pts, PointDrawing(moved, pts.color)):
        _assert_same_drawing(compile_points(drawing), reference_orientation_compile(drawing))


@pytest.mark.parametrize("n", [25, 31, 40])
def test_book_kernel_matches_reference_at_larger_n(n):
    layout = gen_book(n, 200 + n)
    _assert_same_drawing(compile_book(layout), reference_compile_book(layout))


@pytest.mark.parametrize("p,q,turns", [(12, 13, 1), (1, 26, -1), (20, 11, 1), (15, 25, -1)])
def test_annulus_kernel_matches_reference_at_larger_n(p, q, turns):
    # At this size a random extra turn almost never stays simple, so the
    # wrapping layout is the generated one twisted by a whole turn, and
    # random wrapping layouts are compared by the error they raise.
    layout = gen_cylindrical(p, q, seed=p * 31 + q, wrap_prob=0.5)
    windings = tuple(tuple(w + turns * TURN for w in row) for row in layout.windings)
    twisted = CylindricalLayout(layout.inner_angles, layout.outer_angles, windings, layout.color)
    for each in (layout, twisted):
        _assert_same_drawing(compile_layout(each), reference_compile_layout(each))
    rng = random.Random(f"wrapping-larger:{p}:{q}")
    for _ in range(2):
        wrapped = _random_wrapping_layout(rng, p, q, max_turns=1)
        assert _outcome(compile_layout, wrapped) == _outcome(reference_compile_layout, wrapped)


# ----------------------------------------------------------------------
# nothing kept per n
# ----------------------------------------------------------------------


def test_compilers_keep_nothing_per_n():
    import tracemalloc

    layouts = {n: [gen_points(n, 0), gen_book(n, 0)] for n in (126, 128, 127)}
    compilers = {PointDrawing: compile_points, BookLayout: compile_book}
    for layout in layouts[126]:  # every statement runs once first, so only per-n state can stay behind
        compilers[type(layout)](layout)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for layout in layouts[128] + layouts[127]:
            assert compilers[type(layout)](layout).n == layout.n
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained < 100_000
