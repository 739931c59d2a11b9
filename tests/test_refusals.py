"""Refusals at the library's and the readers' doors: each test feeds one
bad input and checks the exact complaint."""

import tracemalloc
from fractions import Fraction

import pytest

from planetrees.cli import main
from planetrees.core import Drawing, validate_drawing
from planetrees.formats import (
    ParseError,
    parse_book,
    parse_coloring,
    parse_cylindrical,
    parse_drawing,
    parse_points,
)

COLORS3 = "colors: k=2\ne 0 1 : 1\ne 0 2 : 0\ne 1 2 : 1\n"
CYLINDRICAL = "cylindrical n_inner=1 n_outer=2\ninner:\n0: 3/4\nouter:\n1: 5/36\n2: 17/36\nwindings:\n{}\n" + COLORS3
BOOK = "book n=3\n{}\n" + COLORS3
POINTS = "points n=3\n{}\n" + COLORS3


# ----------------------------------------------------------------------
# the Drawing constructors
# ----------------------------------------------------------------------

@pytest.mark.parametrize("build", [lambda n: Drawing(n, ()), lambda n: Drawing.from_rows(n, ())])
def test_negative_n_is_refused_before_any_row_is_allocated(build):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^n=-2000 is negative$"):
            build(-2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_from_rows_refuses_a_row_count_other_than_the_edge_count():
    with pytest.raises(ValueError, match="^expected 3 conflict rows for n=3, got 1$"):
        Drawing.from_rows(3, [0])
    with pytest.raises(ValueError, match="^expected 6 conflict rows for n=4, got 7$"):
        Drawing.from_rows(4, [0] * 7)


def test_n_zero_is_left_to_validate_drawing():
    assert validate_drawing(Drawing(0, ())) == ["vertex count 0 < 1"]
    assert validate_drawing(Drawing.from_rows(0, ())) == ["vertex count 0 < 1"]


# ----------------------------------------------------------------------
# the readers
# ----------------------------------------------------------------------

def test_color_line_with_an_out_of_range_vertex():
    with pytest.raises(ParseError, match="^line 3: edge 0 9 out of range for n=3$"):
        parse_coloring("coloring n=3 k=2\ne 0 1 : 1\ne 0 9 : 0\ne 1 2 : 1\n")


def test_xorder_that_is_not_a_permutation():
    with pytest.raises(ParseError, match="^line 2: xorder must be a permutation of the vertices$"):
        parse_drawing("drawing n=3\nxorder: 0 0 1\n")


def test_rotation_vertex_out_of_range():
    with pytest.raises(ParseError, match="^line 3: rotation vertex 5 out of range$"):
        parse_drawing("drawing n=3\nrotations:\n5: 0 1\n")


def test_winding_pair_out_of_range():
    with pytest.raises(ParseError, match="^line 8: winding pair 0 3 out of range$"):
        parse_cylindrical(CYLINDRICAL.format("0 3: 25/18\n0 2: 31/18"))


def test_duplicate_winding():
    with pytest.raises(ParseError, match="^line 9: duplicate winding for 0 1$"):
        parse_cylindrical(CYLINDRICAL.format("0 1: 25/18\n0 1: 31/18"))


def test_spine_that_is_not_a_permutation():
    with pytest.raises(ParseError, match=r"^line 2: spine must be a permutation of 0\.\.n-1$"):
        parse_book(BOOK.format("spine: 0 0 1\ntop: 0-1 0-2\nbottom: 1-2"))


def test_edge_on_both_pages():
    with pytest.raises(ParseError, match="^line 4: edge 0-1 assigned to two pages$"):
        parse_book(BOOK.format("spine: 1 2 0\ntop: 0-1 0-2\nbottom: 1-2 0-1"))


def test_edge_on_no_page():
    with pytest.raises(ParseError, match="^line 4: edge 1-2 has no page$"):
        parse_book(BOOK.format("spine: 1 2 0\ntop: 0-1\nbottom: 0-2"))


def test_point_vertex_out_of_range():
    with pytest.raises(ParseError, match="^line 3: point vertex 5 out of range$"):
        parse_points(POINTS.format("p 0: 0 0\np 5: 1 2\np 2: 3 1"))


def test_rational_point_coordinates():
    p = parse_points(POINTS.format("p 0: 1/2 0\np 1: 3/1 2\np 2: 5 -7/3"))
    assert p.points == ((Fraction(1, 2), 0), (3, 2), (5, Fraction(-7, 3)))
    assert type(p.points[1][0]) is int


# ----------------------------------------------------------------------
# the command line
# ----------------------------------------------------------------------

def test_verify_with_neither_a_file_nor_gen_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 1
    assert "error: verify needs a file or --gen" in capsys.readouterr().err


def test_brute_avoid_colour_outside_k_exits_1(capsys, tmp_path):
    path = tmp_path / "k2.pts"
    path.write_text(POINTS.format("p 0: 59 17\np 1: 40 26\np 2: 11 29"))
    assert main(["brute", str(path), "--mode", "avoid:5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: color 5 out of range 0..1\n"


def test_verify_refuses_a_file_with_gen_before_opening_it(capsys, tmp_path):
    missing = tmp_path / "missing.drawing"
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(missing), "--gen", "book", "--n", "4"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: verify takes a file or --gen, not both" in captured.err


@pytest.mark.parametrize("flags", [["--n", "9"], ["--n-inner", "3"], ["--n", "9", "--n-inner", "3"]])
def test_verify_refuses_gen_sizes_on_a_file(capsys, tmp_path, flags):
    path = tmp_path / "k3.pts"
    path.write_text(POINTS.format("p 0: 59 17\np 1: 40 26\np 2: 11 29"))
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path), *flags])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --n and --n-inner apply only to --gen, not to a file" in captured.err
