"""Refusals at the library's and the readers' doors: each test feeds one
bad input and checks the exact complaint."""

import tracemalloc
from fractions import Fraction

import pytest

from planetrees import cylindrical
from planetrees.book import PAGE_TOP, BookLayout
from planetrees.cli import main
from planetrees.core import Drawing, EdgeColoring, validate_drawing
from planetrees.cylindrical import CylindricalLayout, NotSimpleError, compile_layout, rotation_order_check, sweep_start
from planetrees.formats import (
    ParseError,
    parse_book,
    parse_coloring,
    parse_cylindrical,
    parse_drawing,
    parse_points,
)
from planetrees.generators import gen_coloring, gen_points
from planetrees.monotone import MonotoneDrawing, group_partition, solve_monotone
from planetrees.render import render_svg
from planetrees.straightline import PointDrawing

from conftest import fan_layout, uniform_coloring

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


@pytest.mark.parametrize("argv, message", [
    (["verify", "--gen", "book", "--n", "4", "--n-inner", "3"], "verify --gen book does not take --n-inner"),
    (["gen", "--class", "book", "--n", "4", "--n-inner", "3", "--seed", "0"], "gen --class book does not take --n-inner"),
    (["gen", "--class", "cylindrical", "--n", "5", "--n-inner", "2", "--n-outer", "2", "--seed", "0"],
     "gen --class cylindrical does not take --n"),
    (["gen", "--class", "coloring", "--n", "4", "--n-outer", "2", "--seed", "0"],
     "gen --class coloring does not take --n-outer"),
])
def test_a_size_flag_the_class_does_not_take_is_refused(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_validate_reports_a_crossing_of_an_edge_with_itself(capsys, tmp_path):
    path = tmp_path / "same.drawing"
    path.write_text("drawing n=3\ncrossings:\n0-1 0-1\n")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "violation: adjacent edges cross: 0-1 and 0-1\n" in out
    assert "violation: edge pair with identical edges: 0-1\n" in out


def test_validate_refuses_a_one_vertex_annulus(capsys, tmp_path):
    path = tmp_path / "one.cyl"
    path.write_text("cylindrical n_inner=1 n_outer=0\ninner:\n0: 0/1\nouter:\nwindings:\ncolors: k=2\n")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: layout needs at least 2 vertices\n")


# ----------------------------------------------------------------------
# the library's value types and solvers, called directly
# ----------------------------------------------------------------------

def test_book_layout_refusals():
    c3, top = gen_coloring(3, 2, 0), (PAGE_TOP,) * 3
    with pytest.raises(ValueError, match="^spine must be a permutation of 0..n-1$"):
        BookLayout((0, 2, 2), top, c3)
    with pytest.raises(ValueError, match="^expected 3 page assignments, got 2$"):
        BookLayout((0, 1, 2), top[:2], c3)
    with pytest.raises(ValueError, match="^unknown page 'left'$"):
        BookLayout((0, 1, 2), ("left",) * 3, c3)
    with pytest.raises(ValueError, match="^coloring vertex count does not match spine$"):
        BookLayout((0, 1, 2, 3), (PAGE_TOP,) * 6, c3)
    with pytest.raises(ValueError, match=r"^page assignment missing edge \(1, 2\)$"):
        BookLayout.from_maps((0, 1, 2), {(0, 1): PAGE_TOP, (0, 2): PAGE_TOP}, c3)


def test_edge_coloring_refusals():
    with pytest.raises(ValueError, match=r"^color index 2 out of range 0\.\.1$"):
        EdgeColoring(3, 2, (0, 2, 1))
    with pytest.raises(ValueError, match=r"^coloring is missing edge \(0, 2\)$"):
        EdgeColoring.from_map(3, 2, {(0, 1): 0, (1, 2): 1})


def test_validate_drawing_counts_rotation_rows():
    assert validate_drawing(Drawing(3, (), rotations=((1, 2), (0, 2)))) == ["rotation table has 2 rows for n=3"]


def test_cylindrical_layout_refuses_a_coloring_of_another_size():
    layout = fan_layout(2, 2, uniform_coloring(4))
    with pytest.raises(ValueError, match="^coloring size does not match vertex count$"):
        CylindricalLayout(layout.inner_angles, layout.outer_angles, layout.windings, uniform_coloring(5))


def test_sweep_start_refuses_more_than_two_colors():
    layout = fan_layout(2, 2, gen_coloring(4, 3, 0))
    with pytest.raises(ValueError, match="^sweep needs exactly 2 colors, got k=3$"):
        sweep_start(compile_layout(layout), layout)


def test_rotation_order_check_refusals():
    one_circle = compile_layout(fan_layout(0, 3, uniform_coloring(3)))
    with pytest.raises(ValueError, match="^vertex 0 has no side edges: opposite circle is empty$"):
        rotation_order_check(one_circle, 0)
    rotations = ((1, 4, 3, 2), (0, 2, 3, 4), (0, 1, 3, 4), (0, 1, 2, 4), (0, 1, 2, 3))
    shuffled = Drawing(5, (), rotations, ("inner", "inner", "outer", "outer", "outer"))
    with pytest.raises(AssertionError, match=r"lists the outer circle as \[4, 3, 2\], not a circular shift"):
        rotation_order_check(shuffled, 0)


def test_side_rows_cross_check_catches_a_side_crossings_that_accepts_too_much(monkeypatch):
    half, three_halves = Fraction(1, 2), Fraction(3, 2)
    twice_wound = CylindricalLayout((0,), (half, three_halves), ((half + 4, three_halves),), uniform_coloring(3))
    with pytest.raises(NotSimpleError, match="adjacent side edges"):
        compile_layout(twice_wound)
    monkeypatch.setattr(cylindrical, "side_crossings", lambda sides, turn: [])
    with pytest.raises(AssertionError, match="^side_crossings accepted a layout that side_rows refused$"):
        compile_layout(twice_wound)


def test_monotone_refusals():
    with pytest.raises(ValueError, match="^need d >= 2, got d=1$"):
        group_partition(5, 1)
    points = MonotoneDrawing.from_points(gen_points(5, 0))
    with pytest.raises(ValueError, match="^coloring size does not match drawing$"):
        solve_monotone(points, gen_coloring(6, 3, 0))


def test_point_drawing_refuses_a_coloring_of_another_size():
    with pytest.raises(ValueError, match="^coloring size does not match point count$"):
        PointDrawing(((0, 0), (1, 1)), gen_coloring(3, 2, 0))


def test_gen_coloring_refuses_fewer_than_two_vertices():
    with pytest.raises(ValueError, match="^need n >= 2, got n=1$"):
        gen_coloring(1, 2, 0)


def test_render_svg_refuses_a_value_it_cannot_draw():
    with pytest.raises(TypeError, match="^cannot render EdgeColoring$"):
        render_svg(gen_coloring(3, 2, 0))
