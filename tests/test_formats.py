from fractions import Fraction

import pytest

from planetrees.book import compile_book
from planetrees.core import Drawing, validate_drawing
from planetrees.cylindrical import compile_layout
from planetrees.formats import (
    ParseError,
    detect_kind,
    format_fraction,
    parse_book,
    parse_class_file,
    parse_coloring,
    parse_cylindrical,
    parse_drawing,
    parse_fraction,
    parse_points,
    serialize_book,
    serialize_class_file,
    serialize_coloring,
    serialize_cylindrical,
    serialize_drawing,
    serialize_points,
)
from planetrees.generators import gen_book, gen_coloring, gen_cylindrical, gen_points
from planetrees.straightline import compile_points


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(25))
def test_cylindrical_round_trip(seed):
    layout = gen_cylindrical(2, 3, seed)
    assert parse_cylindrical(serialize_cylindrical(layout)) == layout


@pytest.mark.parametrize("seed", range(25))
def test_book_round_trip(seed):
    layout = gen_book(6, seed)
    assert parse_book(serialize_book(layout)) == layout


@pytest.mark.parametrize("seed", range(25))
def test_points_round_trip(seed):
    p = gen_points(6, seed)
    assert parse_points(serialize_points(p)) == p


@pytest.mark.parametrize("seed", range(25))
def test_coloring_round_trip(seed):
    c = gen_coloring(7, 3, seed)
    assert parse_coloring(serialize_coloring(c)) == c


def test_drawing_round_trip_with_everything():
    d = compile_layout(gen_cylindrical(2, 2, 9))
    c = gen_coloring(4, 2, 9)
    text = serialize_drawing(d, c, x_order=(3, 1, 0, 2))
    d2, c2, xo = parse_drawing(text)
    assert d2 == d
    assert c2 == c
    assert xo == (3, 1, 0, 2)


def test_drawing_round_trip_minimal():
    d = Drawing(4, frozenset({((0, 2), (1, 3))}))
    d2, c2, xo = parse_drawing(serialize_drawing(d))
    assert d2 == d and c2 is None and xo is None


def test_serialization_canonical_and_stable():
    layout = gen_cylindrical(3, 2, 4)
    assert serialize_cylindrical(layout) == serialize_cylindrical(layout)
    d = compile_layout(layout)
    assert serialize_drawing(d) == serialize_drawing(d)


# ----------------------------------------------------------------------
# grammar details
# ----------------------------------------------------------------------

def test_fraction_tokens():
    assert parse_fraction(1, "3/2") == Fraction(3, 2)
    assert parse_fraction(1, "-13/6") == Fraction(-13, 6)
    assert parse_fraction(1, "2") == Fraction(2)
    assert format_fraction(Fraction(3, 2)) == "3/2"
    assert format_fraction(2) == "2/1"
    with pytest.raises(ParseError):
        parse_fraction(7, "x/2")


def test_crossing_token():
    d, _, _ = parse_drawing("drawing n=4\ncrossings:\n0-2 1-3\n")
    assert d.crossings == frozenset({((0, 2), (1, 3))})


def test_color_out_of_range_diagnoses_line():
    text = "coloring n=3 k=2\ne 0 1 : 0\ne 0 2 : 2\ne 1 2 : 1\n"
    with pytest.raises(ParseError, match="line 3.*out of range"):
        parse_coloring(text)


def test_missing_edge_color_is_error():
    text = "coloring n=3 k=2\ne 0 1 : 0\ne 0 2 : 1\n"
    with pytest.raises(ParseError):
        parse_coloring(text)


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\ndrawing n=3   # K_3\ncrossings:\n"
    d, _, _ = parse_drawing(text)
    assert d.n == 3


def test_duplicate_crossing_rejected():
    text = "drawing n=4\ncrossings:\n0-2 1-3\n1-3 0-2\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse_drawing(text)


def test_bad_edge_token_in_class_file(tmp_path):
    path = tmp_path / "bad.classes"
    path.write_text("4;0-2 1-3\n5;0-2 1;3\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_class_file(str(path))


def test_class_file_round_trip(tmp_path):
    ds = [
        Drawing(4, frozenset({((0, 2), (1, 3))})),
        Drawing(4, frozenset()),
        Drawing(5, frozenset({((0, 2), (1, 3)), ((0, 3), (1, 4))})),
    ]
    path = tmp_path / "k.classes"
    path.write_text(serialize_class_file(ds))
    assert parse_class_file(str(path)) == ds


def test_detect_kind():
    assert detect_kind("drawing n=3\n") == "drawing"
    assert detect_kind("cylindrical n_inner=1 n_outer=1\n") == "cylindrical"
    assert detect_kind("book n=2\n") == "book"
    assert detect_kind("points n=2\n") == "points"
    assert detect_kind("coloring n=2 k=2\n") == "coloring"
    assert detect_kind("4;0-2 1-3\n") == "class"
    with pytest.raises(ParseError):
        detect_kind("nonsense\n")


def test_incongruent_parsed_layout_rejected():
    text = (
        "cylindrical n_inner=1 n_outer=1\n"
        "inner:\n0: 0/1\nouter:\n1: 1/2\n"
        "windings:\n0 1: 1/3\n"
        "colors: k=2\ne 0 1 : 0\n"
    )
    with pytest.raises(ValueError, match="congruent"):
        parse_cylindrical(text)


def test_compiled_drawings_round_trip_through_files():
    for seed in range(10):
        for d in (
            compile_layout(gen_cylindrical(2, 2, seed)),
            compile_book(gen_book(5, seed)),
            compile_points(gen_points(5, seed)),
        ):
            d2, _, _ = parse_drawing(serialize_drawing(d))
            assert d2 == d


def test_parse_tree_reads_plain_and_report_lines():
    from planetrees.formats import parse_tree

    text = "status: tree-found\ntree: 0-1 1-2\n2-3  # plain line\n\nclass: book\n"
    assert parse_tree(text, 4) == frozenset({(0, 1), (1, 2), (2, 3)})
    with pytest.raises(ParseError, match="line 1: edge '0-4' out of range for n=4"):
        parse_tree("0-4\n", 4)


# ----------------------------------------------------------------------
# repeats are refused; a missing rotation or label names its header line
# ----------------------------------------------------------------------

DRAWING_K4 = (
    "drawing n=4\ncrossings:\n0-2 1-3\n"
    "rotations:\n0: 1 2 3\n1: 0 2 3\n2: 0 1 3\n3: 0 1 2\n"
    "labels:\n0: a\n1: b\n2: c\n3: d\n"
    "xorder: 0 1 2 3\n"
    "colors: k=2\ne 0 1 : 0\ne 0 2 : 0\ne 0 3 : 0\ne 1 2 : 1\ne 1 3 : 1\ne 2 3 : 1\n"
)


def with_line(text: str, after: int, line: str) -> str:
    lines = text.splitlines()
    return "\n".join(lines[:after] + [line] + lines[after:]) + "\n"


def test_drawing_k4_fixture_reads():
    d, c, xo = parse_drawing(DRAWING_K4)
    assert d.rotations[0] == (1, 2, 3) and d.vertex_labels == ("a", "b", "c", "d")
    assert xo == (0, 1, 2, 3) and c.colors == (0, 0, 0, 1, 1, 1)


@pytest.mark.parametrize(
    "after, line, message",
    [
        (5, "0: 2 1 3", "line 6: duplicate rotation for vertex 0"),
        (8, "3: 0 2 1", "line 9: duplicate rotation for vertex 3"),
        (11, "1: z", "line 12: duplicate label for vertex 1"),
        (14, "xorder: 3 2 1 0", "line 15: duplicate xorder section; the first is on line 14"),
        (8, "rotations:", "line 9: duplicate rotations section; the first is on line 4"),
        (13, "labels:", "line 14: duplicate labels section; the first is on line 9"),
        (21, "colors: k=2", "line 22: duplicate colors section; the first is on line 15"),
    ],
)
def test_drawing_repeats_are_refused(after, line, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_drawing(with_line(DRAWING_K4, after, line))


def test_a_second_crossings_header_continues_the_section():
    d, _, _ = parse_drawing("drawing n=4\ncrossings:\ncrossings:\n0-2 1-3\n")
    assert d.crossings == frozenset({((0, 2), (1, 3))})


@pytest.mark.parametrize(
    "drop, message",
    [(6, "line 4: rotations section missing vertex 1"), (11, "line 9: labels section must cover every vertex")],
)
def test_missing_rotation_or_label_names_the_section_header(drop, message):
    lines = DRAWING_K4.splitlines()
    del lines[drop - 1]
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_drawing("\n".join(lines) + "\n")


def test_short_colour_section_builds_nothing_sized_by_the_header():
    from planetrees.formats import _color_prefix_ranks

    before = _color_prefix_ranks.cache_info().currsize
    with pytest.raises(ParseError, match="^line 3: unexpected end of input$"):
        parse_coloring("coloring n=2000 k=2\ne 0 1 : 0\n")
    assert _color_prefix_ranks.cache_info().currsize == before


@pytest.mark.parametrize("pad", [0, 1, 500, 1021, 1022, 1023, 1024, 1025, 3000])
@pytest.mark.parametrize("filler", ["\n", "\r\n", "#\n", "# comment line\r\n"])
def test_detect_kind_past_a_long_preamble(pad, filler):
    preamble = filler * (pad // len(filler)) + " " * (pad % len(filler))
    lines_before = len((preamble + "x").splitlines()) - 1
    assert detect_kind(preamble + "points n=2\n") == "points"
    with pytest.raises(ParseError, match=f"^line {lines_before + 1}: unrecognized file header 'nonsense'$"):
        detect_kind(preamble + "nonsense\n")
    with pytest.raises(ParseError, match="^line 1: empty file$"):
        detect_kind(preamble)


@pytest.mark.parametrize(
    "text",
    [
        "drawing n=100000\n",
        "drawing n=100000\ncrossings:\n0-2 1-3\n",
        "100000;\n",
        "4;\n100000;0-2 1-3\n",
        "book n=100000\nspine: 0 1\n",
        "points n=100000\n",
        "cylindrical n_inner=50000 n_outer=50000\n",
    ],
)
def test_header_above_the_vertex_limit_is_refused_before_anything_is_sized(text):
    import tracemalloc

    from planetrees.formats import load_instance, parse_classes

    record = ";" in text
    line = text.count("\n") if record else 1
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"^line {line}: n=100000 exceeds the limit of 128 vertices$"):
            (parse_classes if record else load_instance)(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "text,line",
    [("drawing n=-2000\n", 1), ("-2000;\n", 1), ("4;\n-2000;0-2 1-3\n", 2)],
)
def test_negative_header_is_refused_before_anything_is_sized(text, line):
    import tracemalloc

    from planetrees.formats import parse_classes

    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"^line {line}: n=-2000 is negative$"):
            (parse_classes if ";" in text else parse_drawing)(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "header,field",
    [
        ("drawing n=-1", "n=-1"),
        ("book n=-3", "n=-3"),
        ("points n=-3", "n=-3"),
        ("coloring n=-3 k=2", "n=-3"),
        ("cylindrical n_inner=-3 n_outer=5", "n_inner=-3"),
        ("cylindrical n_inner=200 n_outer=-100", "n_outer=-100"),
    ],
)
def test_each_size_field_is_checked_on_its_own(header, field):
    from planetrees.formats import load_instance

    with pytest.raises(ParseError, match=f"^line 1: {field} is negative$"):
        load_instance(header + "\n")


def test_zero_vertices_is_left_to_validate():
    d, _, _ = parse_drawing("drawing n=0\n")
    assert validate_drawing(d) == ["vertex count 0 < 1"]


@pytest.mark.parametrize(
    "header",
    ["drawing n=128", "book n=128", "points n=128", "cylindrical n_inner=64 n_outer=64", "coloring n=2000 k=2"],
)
def test_header_at_the_vertex_limit_reads_on(header):
    from planetrees.formats import MAX_VERTICES, load_instance

    assert MAX_VERTICES == 128
    with pytest.raises(ParseError) as info:
        load_instance(header + "\nnonsense\n")
    assert info.value.line_no == 2


def test_headers_of_many_sizes_leave_no_per_size_table_behind():
    import tracemalloc

    from planetrees.formats import parse_classes

    tracemalloc.start()
    try:
        for n in range(65, 129):
            parse_drawing(f"drawing n={n}\n")
            parse_classes(f"{n};\n")
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20
