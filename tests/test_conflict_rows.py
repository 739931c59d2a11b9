"""The conflict rows as a drawing's one stored index.

Every source of a drawing writes rows: ``parse_drawing`` and
``parse_classes``, the three layout compilers and the pair constructor.
Their rows must equal the rows built from the crossing pairs, and the
pair view must equal the pairs themselves; the references live in
``conftest.py``.  Writers walk the rows and must match the pair-sorting
writer byte for byte, and parse∘serialize must give the drawing back.
Finally, no parse, solve or verify path may build the pair view.
"""

import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from planetrees import cli, monotone, search
from planetrees.book import BookLayout, compile_book
from planetrees.core import Drawing, EdgeColoring, all_edges, induced_subdrawing
from planetrees.cylindrical import TURN, CylindricalLayout, NotSimpleError, compile_layout
from planetrees.formats import parse_classes, parse_drawing, serialize_class_file, serialize_drawing
from planetrees.generators import gen_book, gen_coloring, gen_cylindrical, gen_points
from planetrees.straightline import compile_points

from conftest import (
    reference_crossing_lines,
    reference_orientation_compile,
    reference_rows,
    reference_serialize_class_file,
    reference_serialize_drawing,
)
from test_compile_kernels import reference_compile_book, reference_compile_layout

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")


def random_pairs(rng, n, density, independent=True):
    """A random set of canonical crossing pairs of K_n."""
    return frozenset(
        (e, f)
        for e, f in itertools.combinations(all_edges(n), 2)
        if not (independent and set(e) & set(f)) and rng.random() < density
    )


def assert_index(d, n, pairs):
    assert d.n == n
    assert d.conflicts == reference_rows(n, pairs)
    assert d.crossings == pairs
    assert list(d.pairs()) == sorted(pairs)


# ----------------------------------------------------------------------
# every source writes the rows of its pairs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_pair_constructor_and_parsers_write_the_rows_of_their_pairs(seed):
    rng = random.Random(f"rows:{seed}")
    n = rng.randint(1, 12)
    pairs = random_pairs(rng, n, rng.random(), independent=seed % 3 != 0)
    shuffled = [(f, e) if rng.random() < 0.5 else (e, f) for e, f in pairs]
    shuffled = [((v, u), f) if rng.random() < 0.5 else (e, f) for e, f in shuffled for u, v in [e]]
    d = Drawing(n, shuffled)
    assert_index(d, n, pairs)
    text = reference_serialize_drawing(d)
    assert_index(parse_drawing(text)[0], n, pairs)
    reversed_tokens = text.replace("crossings:\n", "crossings:\n# reversed tokens\n")
    reversed_tokens = "\n".join(
        " ".join("-".join(tok.split("-")[::-1]) for tok in line.split()) if line[:1].isdigit() else line
        for line in reversed_tokens.splitlines()
    )
    assert_index(parse_drawing(reversed_tokens)[0], n, pairs)
    if seed % 3:
        (record,) = parse_classes(reference_serialize_class_file([d]))
        assert_index(record, n, pairs)


@pytest.mark.parametrize("n", range(2, 25))
def test_compilers_write_the_rows_of_the_reference_pairs(n):
    for seed in (n, 100 + n):
        pts = gen_points(n, seed)
        book = gen_book(n, seed)
        annulus = gen_cylindrical(n // 3, n - n // 3, seed, wrap_prob=0.5)
        for got, want in (
            (compile_points(pts), reference_orientation_compile(pts)),
            (compile_book(book), reference_compile_book(book)),
            (compile_layout(annulus), reference_compile_layout(annulus)),
        ):
            assert_index(got, n, want.crossings)
            assert got.rotations == want.rotations and got.vertex_labels == want.vertex_labels
            assert got == want


@pytest.mark.parametrize("seed", range(6))
def test_compilers_write_the_rows_of_wrapping_annuli(seed):
    # Windings of up to two extra turns: many layouts are not simple, and
    # compile_layout must raise side_crossings's first error for those.
    rng = random.Random(f"wrapping-rows:{seed}")
    raised = 0
    for _ in range(80):
        p, q = rng.randint(1, 6), rng.randint(1, 6)
        res = 4 * (p + q) + rng.randrange(1, 7)
        inner = tuple(Fraction(2 * t, res) for t in sorted(rng.sample(range(res), p)))
        outer = tuple(Fraction(2 * t, res) for t in sorted(rng.sample(range(res), q)))
        turns = rng.choice([0, 1, 1, 2])
        windings = tuple(tuple((b - a) % TURN + TURN * rng.randint(-turns, turns) for b in outer) for a in inner)
        layout = CylindricalLayout(inner, outer, windings, gen_coloring(p + q, 2, 0))
        try:
            want = reference_compile_layout(layout)
        except NotSimpleError as exc:
            raised += 1
            with pytest.raises(NotSimpleError) as info:
                compile_layout(layout)
            assert str(info.value) == str(exc)
            continue
        assert_index(compile_layout(layout), p + q, want.crossings)
    assert 10 < raised < 70


def test_one_page_book_rows():
    spine = tuple(random.Random(3).sample(range(10), 10))
    for page in ("top", "bottom"):
        layout = BookLayout(spine, (page,) * 45, gen_coloring(10, 2, 3))
        assert_index(compile_book(layout), 10, reference_compile_book(layout).crossings)


def test_induced_subdrawing_keeps_the_rows_of_the_kept_pairs():
    d = compile_points(gen_points(14, 2))
    for seed in range(20):
        vs = random.Random(seed).sample(range(14), 2 + seed % 12)
        index = {v: i for i, v in enumerate(vs)}
        want = frozenset(
            tuple(sorted(((min(index[a], index[b]), max(index[a], index[b])),
                          (min(index[c], index[e]), max(index[c], index[e])))))
            for (a, b), (c, e) in d.crossings
            if {a, b, c, e} <= set(vs)
        )
        assert_index(induced_subdrawing(d, None, vs)[0], len(vs), want)


def test_writers_walk_the_rows_in_pair_order():
    rng = random.Random("writers")
    drawings = [Drawing(n, random_pairs(rng, n, rng.random())) for n in range(1, 14)]
    drawings += [compile_points(gen_points(n, n)) for n in range(2, 20)]
    for d in drawings:
        assert serialize_drawing(d).splitlines()[2:2 + len(d.crossings)] == reference_crossing_lines(d)
        assert serialize_drawing(d) == reference_serialize_drawing(d)
    assert serialize_class_file(drawings) == reference_serialize_class_file(drawings)


def test_edge_outside_k_n_is_refused_at_construction():
    # The edge outside K_5 second or first in its pair, given reversed, and after a valid pair.
    for pairs in (
        [((0, 1), (3, 7))],
        [((3, 7), (0, 1))],
        [((1, 0), (7, 3))],
        [((7, 3), (1, 0))],
        [((0, 2), (1, 3)), ((0, 1), (3, 7))],
    ):
        with pytest.raises(ValueError, match="^crossing edge 3-7 out of range for n=5$"):
            Drawing(5, pairs)


def test_parse_errors_are_unchanged():
    cases = {
        "drawing n=4\ncrossings:\n0-2 1-3\n2-0 3-1\n": "line 4: duplicate crossing pair '2-0 3-1'",
        "drawing n=4\ncrossings:\n0-2 1-4\n": "line 3: edge '1-4' out of range for n=4",
        "drawing n=4\ncrossings:\n0-x 1-3\n": "line 3: expected vertex, got 'x'",
        "drawing n=4\ncrossings:\n0-2\n": "line 3: expected crossing pair 'u-v w-x', got '0-2'",
        "drawing n=4\ncrossings:\n0-2 1-3 2-3\n": "line 3: expected crossing pair 'u-v w-x', got '0-2 1-3 2-3'",
        "drawing n=4\ncrossings:\n0-1-2 1-3\n": "line 3: expected edge token u-v, got '0-1-2'",
    }
    for text, message in cases.items():
        with pytest.raises(ValueError) as info:
            parse_drawing(text)
        assert str(info.value) == message
    class_cases = {
        "4;0-2 1-3,1-3 0-2\n": "line 1: duplicate crossing pair '1-3 0-2'",
        "4;0-2 1-2\n": "line 1: adjacent edges cannot cross: '0-2 1-2'",
        "4;0-2 0-2\n": "line 1: adjacent edges cannot cross: '0-2 0-2'",
        "4;0-2 1-9\n": "line 1: edge '1-9' out of range for n=4",
    }
    for text, message in class_cases.items():
        with pytest.raises(ValueError) as info:
            parse_classes(text)
        assert str(info.value) == message


# ----------------------------------------------------------------------
# parse∘serialize
# ----------------------------------------------------------------------


@st.composite
def drawings(draw):
    n = draw(st.integers(1, 9))
    edges = all_edges(n)
    pairs = draw(st.sets(st.tuples(st.sampled_from(edges), st.sampled_from(edges)), max_size=40)) if edges else set()
    rotations = labels = x_order = coloring = None
    if draw(st.booleans()):
        rotations = tuple(tuple(draw(st.permutations([w for w in range(n) if w != v]))) for v in range(n))
    if draw(st.booleans()):
        labels = tuple(draw(st.sampled_from(["inner", "outer", "x:1"])) for _ in range(n))
    if draw(st.booleans()):
        x_order = tuple(draw(st.permutations(range(n))))
    if edges and draw(st.booleans()):
        k = draw(st.integers(2, 4))
        coloring = EdgeColoring(n, k, tuple(draw(st.integers(0, k - 1)) for _ in edges))
    return Drawing(n, pairs, rotations, labels), coloring, x_order


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(drawings())
def test_parse_of_serialize_is_the_identity(case):
    d, coloring, x_order = case
    text = serialize_drawing(d, coloring, x_order)
    back = parse_drawing(text)
    assert back == (d, coloring, x_order)
    assert back[0].conflicts == d.conflicts
    assert serialize_drawing(*back) == text
    if all(not set(e) & set(f) for e, f in d.crossings):
        (record,) = parse_classes(serialize_class_file([d]))
        assert record.conflicts == d.conflicts and record == Drawing(d.n, d.crossings)


# ----------------------------------------------------------------------
# no pair view on a hot path
# ----------------------------------------------------------------------


@pytest.fixture
def no_pair_view(monkeypatch):
    def refuse(self):
        raise AssertionError("the crossing-pair view was built")

    monkeypatch.setattr(Drawing, "crossings", property(refuse))


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_golden_cli_cases_build_no_pair_view(tmp_path, no_pair_view):
    # Every golden case: solve on every golden layout of the three layout
    # classes and on monotone drawings, brute, verify and validate.
    with open(GOLDEN, encoding="ascii") as fh:
        golden = json.load(fh)
    for name, info in golden["files"].items():
        (tmp_path / name).write_text(info["text"])
    solved = set()
    for case in golden["cases"]:
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in case["argv"]]
        assert run(argv) == (case["exit"], case["stdout"])
        if argv[0] == "solve":
            solved.add(argv[2])
    assert solved == {"cylindrical", "book", "pseudolinear", "monotone"}


def test_monotone_and_its_oracle_build_no_pair_view(no_pair_view):
    for i in range(24):
        n = 8 + 11 * i // 23
        k = -(-(n + 5) // 6)
        points = gen_points(n, 1000 + i, k=k)
        x_order = tuple(sorted(range(n), key=lambda v: points.points[v][0]))
        d, coloring, xs = parse_drawing(serialize_drawing(compile_points(points), points.color, x_order))
        report = monotone.solve_monotone(monotone.MonotoneDrawing(d, xs), coloring)
        assert report.status == "tree-found"
        for group in report.witness["groups"]:
            sub_d, sub_c = induced_subdrawing(d, coloring, group)
            assert search.find_plane_tree(sub_d, sub_c, mode="hypochromatic").ok
            assert search.find_plane_tree(sub_d, sub_c, mode="avoid", color=report.witness["removed_color"]).ok


def test_verify_and_validate_build_no_pair_view(tmp_path, no_pair_view):
    for seed in range(3):
        for layout, compile_ in (
            (gen_cylindrical(3, 3, seed), compile_layout),
            (gen_book(6, seed), compile_book),
            (gen_points(6, seed), compile_points),
        ):
            path = tmp_path / "d.drawing"
            path.write_text(serialize_drawing(compile_(layout)))
            code, out = run(["verify", str(path)])
            assert code == 0 and "failures: 0\n" in out
            code, out = run(["validate", str(path)])
            assert code == 0 and "status: ok\n" in out
