"""The writers and the point generator against their references.

Writers format edges from the per-n tables of ``formats`` (``u-v``
labels and ``e u v : `` colour-line prefixes), crossing pairs are
sorted by an integer key of edge ranks, and ``gen_points`` tests a
candidate by its reduced directions to the placed points.  The code
they replaced lives in ``conftest.py``; every byte written and every
point drawn must be the same.
"""

import random

import pytest

from planetrees.book import compile_book
from planetrees.core import Drawing
from planetrees.cylindrical import compile_layout
from planetrees.formats import (
    serialize_book,
    serialize_class_file,
    serialize_coloring,
    serialize_cylindrical,
    serialize_drawing,
    serialize_points,
)
from planetrees.generators import GenerationError, gen_book, gen_coloring, gen_cylindrical, gen_points
from planetrees.straightline import compile_points

from conftest import (
    reference_book_page_lines,
    reference_color_lines,
    reference_gen_points,
    reference_serialize_class_file,
    reference_serialize_drawing,
)

SIZES = range(2, 31)
KS = (2, 3, 5)
COMPILED = (
    lambda n, seed: compile_points(gen_points(n, seed)),
    lambda n, seed: compile_book(gen_book(n, seed)),
    lambda n, seed: compile_layout(gen_cylindrical(n // 2, n - n // 2, seed)),
)


def _outcome(gen, *args, **kwargs):
    try:
        return gen(*args, **kwargs)
    except GenerationError as exc:
        return str(exc)


@pytest.mark.parametrize("n", SIZES)
def test_point_generator_matches_reference(n):
    for seed in range(40):
        k = KS[seed % len(KS)]
        points = gen_points(n, seed, k)
        assert points == reference_gen_points(n, seed, k)
        assert serialize_points(points).endswith("\n".join(reference_color_lines(points.color)) + "\n")


@pytest.mark.parametrize("n", [4, 6, 9, 14])
def test_point_generator_gives_up_like_reference(n):
    outcomes = [_outcome(gen_points, n, 3, max_resamples=r) for r in range(1, 3 * n)]
    assert outcomes == [_outcome(reference_gen_points, n, 3, max_resamples=r) for r in range(1, 3 * n)]
    assert outcomes[0] == f"no general-position point set within 1 attempts (n={n}, seed=3)"
    assert not isinstance(outcomes[-1], str)  # the larger budgets also succeed


@pytest.mark.parametrize("n", SIZES)
def test_drawing_and_class_writers_match_reference(n):
    drawings = []
    for seed in range(8):
        d = COMPILED[seed % 3](n, seed)
        drawings.append(d)
        order = list(range(n))
        random.Random(seed).shuffle(order)
        # rotations, labels, x-order and colouring each present and absent:
        # n + seed runs through all 16 combinations over the sizes
        bits = [(n + seed) >> b & 1 for b in range(4)]
        coloring = gen_coloring(n, KS[(n + seed) % len(KS)], seed)
        variant = Drawing(n, d.crossings, d.rotations if bits[0] else None, d.vertex_labels if bits[1] else None)
        args = (variant, coloring if bits[3] else None, tuple(order) if bits[2] else None)
        assert serialize_drawing(*args) == reference_serialize_drawing(*args)
    assert serialize_class_file(drawings) == reference_serialize_class_file(drawings)
    assert serialize_class_file(drawings[:1]) == reference_serialize_class_file(drawings[:1])


def test_class_writer_matches_reference_on_empty_and_mixed_sizes():
    drawings = [COMPILED[n % 3](n, n) for n in SIZES]
    assert serialize_class_file(drawings) == reference_serialize_class_file(drawings)
    assert serialize_class_file([]) == reference_serialize_class_file([])


@pytest.mark.parametrize("n", SIZES)
def test_layout_and_coloring_writers_match_reference(n):
    for seed in range(4):
        for k in KS:
            coloring = gen_coloring(n, k, seed)
            assert serialize_coloring(coloring).splitlines()[1:] == reference_color_lines(coloring)
            book = gen_book(n, seed, k)
            lines = serialize_book(book).splitlines()
            assert lines[2:4] == reference_book_page_lines(book)
            assert lines[4:] == [f"colors: k={k}", *reference_color_lines(book.color)]
            layout = gen_cylindrical(seed % (n + 1), n - seed % (n + 1), seed, k)
            tail = serialize_cylindrical(layout).splitlines()[-len(coloring.colors) - 1 :]
            assert tail == [f"colors: k={k}", *reference_color_lines(layout.color)]
