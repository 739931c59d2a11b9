import pytest

from planetrees import generators
from planetrees.book import compile_book
from planetrees.core import validate_drawing
from planetrees.cylindrical import NotSimpleError, compile_layout
from planetrees.formats import (
    serialize_book,
    serialize_coloring,
    serialize_cylindrical,
    serialize_points,
)
from planetrees.generators import (
    GenerationError,
    gen_book,
    gen_coloring,
    gen_cylindrical,
    gen_points,
)
from planetrees.straightline import check_general_position, compile_points


def test_determinism_byte_identical():
    assert serialize_cylindrical(gen_cylindrical(3, 3, 42)) == serialize_cylindrical(
        gen_cylindrical(3, 3, 42)
    )
    assert serialize_book(gen_book(6, 42)) == serialize_book(gen_book(6, 42))
    assert serialize_points(gen_points(6, 42)) == serialize_points(gen_points(6, 42))
    assert serialize_coloring(gen_coloring(6, 3, 42)) == serialize_coloring(
        gen_coloring(6, 3, 42)
    )


def test_different_seeds_differ():
    assert serialize_book(gen_book(6, 1)) != serialize_book(gen_book(6, 2))


@pytest.mark.parametrize("seed", range(100))
def test_cylindrical_layouts_compile_and_validate(seed):
    layout = gen_cylindrical(3, 3, seed)
    assert validate_drawing(compile_layout(layout)) == []


def test_cylindrical_produces_wrapped_windings_somewhere():
    # The wrap probability is positive, so across seeds some accepted
    # layout winds an extra turn.
    wrapped = False
    for seed in range(80):
        layout = gen_cylindrical(2, 2, seed)
        base = [
            (layout.outer_angles[j] - layout.inner_angles[i]) % 2
            for i in range(2)
            for j in range(2)
        ]
        actual = [layout.windings[i][j] for i in range(2) for j in range(2)]
        if any(a != b for a, b in zip(actual, base)):
            wrapped = True
            break
    assert wrapped


@pytest.mark.parametrize("seed", range(40))
def test_books_compile(seed):
    assert validate_drawing(compile_book(gen_book(5, seed))) == []


@pytest.mark.parametrize("seed", range(40))
def test_points_general_position(seed):
    p = gen_points(7, seed)
    check_general_position(p.points)
    assert validate_drawing(compile_points(p)) == []


def test_coloring_classes_nonempty():
    for seed in range(30):
        c = gen_coloring(4, 4, seed)
        for col in range(4):
            assert c.class_edges(col)


def test_coloring_small_graph_many_colors():
    c = gen_coloring(2, 2, 0)  # one edge, two classes: nonemptiness impossible
    assert c.k == 2
    assert len(c.colors) == 1


def test_generator_input_validation():
    with pytest.raises(ValueError):
        gen_points(1, 0)
    with pytest.raises(ValueError):
        gen_book(1, 0)
    with pytest.raises(ValueError):
        gen_cylindrical(0, 1, 0)
    with pytest.raises(ValueError):
        gen_coloring(3, 1, 0)


def test_generation_error_diagnostic():
    with pytest.raises(GenerationError, match="attempts"):
        gen_points(30, 0, max_resamples=5)


@pytest.mark.parametrize("seed", range(3))
def test_coloring_forced_fill_gives_every_color_an_edge(seed):
    # With k = C(5, 2) = 10 one uniform draw hits every color with
    # probability 10!/10^10 = 3.6e-4, so the 100 draws miss and the fill runs.
    coloring = gen_coloring(5, 10, seed)
    assert sorted(set(coloring.colors)) == list(range(10))
    assert gen_coloring(5, 10, seed) == coloring


def test_annulus_generator_raises_when_a_minimal_candidate_is_refused(monkeypatch):
    attempts = []

    def refuse(sides, turn):
        attempts.append(sides)
        raise NotSimpleError("refused")

    monkeypatch.setattr(generators, "side_crossings", refuse)
    with pytest.raises(NotSimpleError, match="^refused$"):
        gen_cylindrical(2, 3, 0)
    assert len(attempts) == generators.WRAP_ATTEMPTS + 1
