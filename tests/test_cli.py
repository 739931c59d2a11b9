import subprocess
import sys

import pytest

from planetrees.cli import build_parser, main
from planetrees.formats import (
    serialize_book,
    serialize_coloring,
    serialize_cylindrical,
    serialize_points,
)
from planetrees.generators import gen_book, gen_coloring, gen_cylindrical, gen_points


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if _:
            pairs.setdefault(key.strip(), value.strip())
    return pairs


@pytest.fixture
def cyl_file(tmp_path):
    path = tmp_path / "inst.cyl"
    path.write_text(serialize_cylindrical(gen_cylindrical(2, 3, 11)))
    return str(path)


@pytest.fixture
def book_file(tmp_path):
    path = tmp_path / "inst.book"
    path.write_text(serialize_book(gen_book(6, 11)))
    return str(path)


@pytest.fixture
def points_file(tmp_path):
    path = tmp_path / "inst.pts"
    path.write_text(serialize_points(gen_points(6, 11)))
    return str(path)


def test_validate_ok(capsys, cyl_file):
    code, out, _ = run(capsys, "validate", cyl_file)
    assert code == 0
    assert kv(out)["status"] == "ok"


def test_solve_cylindrical(capsys, cyl_file):
    code, out, _ = run(capsys, "solve", "--class", "cylindrical", cyl_file, "--assert-invariants")
    assert code == 0
    report = kv(out)
    assert report["status"] == "tree-found"
    assert "tree" in report
    assert "FAIL" not in report.get("invariants", "")


def test_solve_book_and_pseudolinear(capsys, book_file, points_file):
    code, out, _ = run(capsys, "solve", "--class", "book", book_file)
    assert code == 0 and kv(out)["status"] == "tree-found"
    code, out, _ = run(capsys, "solve", "--class", "pseudolinear", points_file)
    assert code == 0 and kv(out)["status"] == "tree-found"


def test_solve_monotone(capsys, tmp_path):
    from planetrees.monotone import colors_needed

    path = tmp_path / "mono.pts"
    path.write_text(serialize_points(gen_points(13, 3, k=colors_needed(13))))
    code, out, _ = run(capsys, "solve", "--class", "monotone", str(path))
    assert code == 0
    assert kv(out)["status"] == "tree-found"


@pytest.mark.parametrize("span", ["0", "1", "7"])
def test_solve_monotone_group_span_outside_the_range_is_named(capsys, tmp_path, span):
    path = tmp_path / "mono.pts"
    path.write_text(serialize_points(gen_points(5, 0, k=5)))
    code, out, err = run(capsys, "solve", "--class", "monotone", str(path), "--group-span", span)
    assert (code, out) == (1, "")
    assert err == (
        f"error: group span d={span} unsupported: the span must lie in 2..6 "
        "(groups of 3..7 vertices; larger groups have no verified small-instance guarantee)\n"
    )


def test_solve_monotone_drawing_with_xorder(capsys, tmp_path):
    from planetrees.formats import serialize_drawing
    from planetrees.monotone import colors_needed
    from planetrees.straightline import compile_points, x_order

    p = gen_points(9, 8, k=colors_needed(9))
    d = compile_points(p)
    path = tmp_path / "mono.drawing"
    path.write_text(serialize_drawing(d, p.color, x_order=tuple(x_order(p.points))))
    code, out, _ = run(capsys, "solve", "--class", "monotone", str(path))
    assert code == 0
    assert kv(out)["status"] == "tree-found"


def test_solve_wrong_file_kind(capsys, book_file):
    code, _, err = run(capsys, "solve", "--class", "cylindrical", book_file)
    assert code == 1
    assert "cylindrical" in err


def test_solve_cylindrical_needs_two_colors(capsys, tmp_path):
    path = tmp_path / "k3.cyl"
    path.write_text(serialize_cylindrical(gen_cylindrical(2, 2, 4, k=3)))
    code, _, err = run(capsys, "solve", "--class", "cylindrical", str(path))
    assert code == 1
    assert "2 colors" in err


def test_validate_coloring_file(capsys, tmp_path):
    path = tmp_path / "c.colors"
    path.write_text(serialize_coloring(gen_coloring(5, 2, 0)))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert kv(out)["status"] == "ok"


def test_verify_gen_cylindrical(capsys):
    code, out, _ = run(capsys, "verify", "--gen", "cylindrical", "--n", "5",
                       "--n-inner", "2", "--seed", "3")
    assert code == 0
    assert kv(out)["status"] == "verified"


def test_colors_override(capsys, tmp_path, book_file):
    colors = tmp_path / "alt.colors"
    colors.write_text(serialize_coloring(gen_coloring(6, 2, 99)))
    code, out, _ = run(capsys, "solve", "--class", "book", book_file, "--colors", str(colors))
    assert code == 0


def test_brute_modes(capsys, cyl_file):
    for mode in ("mono", "hypo", "avoid:0"):
        code, out, _ = run(capsys, "brute", cyl_file, "--mode", mode)
        assert code in (0, 2)


def test_brute_guard_exit_1(capsys, tmp_path):
    path = tmp_path / "big.pts"
    path.write_text(serialize_points(gen_points(11, 0)))
    code, _, err = run(capsys, "brute", str(path), "--mode", "mono")
    assert code == 1
    assert "11" in err


def test_brute_counterexample_exit_2(capsys, tmp_path):
    # Convex position, hull red, diagonals blue: no plane tree avoids
    # the hull color.
    from planetrees.core import EdgeColoring, edge
    from planetrees.straightline import PointDrawing, convex_hull

    pts = tuple((i, i * i) for i in range(5))
    hull = convex_hull(pts, range(5))
    hull_edges = {edge(hull[i], hull[(i + 1) % 5]) for i in range(5)}
    mapping = {(u, v): 0 if (u, v) in hull_edges else 1 for u in range(5) for v in range(u + 1, 5)}
    coloring = EdgeColoring.from_map(5, 2, mapping)
    path = tmp_path / "neg.pts"
    path.write_text(serialize_points(PointDrawing(pts, coloring)))
    code, out, _ = run(capsys, "brute", str(path), "--mode", "avoid:0")
    assert code == 2
    assert kv(out)["status"] == "counterexample"


def test_verify_gen_book_n5(capsys):
    code, out, _ = run(capsys, "verify", "--gen", "book", "--n", "5", "--seed", "1")
    assert code == 0
    report = kv(out)
    assert report["colorings"] == "512"
    assert report["status"] == "verified"


def test_verify_file(capsys, cyl_file):
    code, out, _ = run(capsys, "verify", cyl_file)
    assert code == 0
    assert kv(out)["status"] == "verified"


def test_verify_class_file(capsys, tmp_path):
    path = tmp_path / "k4.classes"
    path.write_text("4;\n4;0-2 1-3\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    report = kv(out)
    assert report["records"] == "2"
    assert report["colorings"] == "64"


def test_verify_refuses_n7_without_long_run(capsys, monkeypatch):
    monkeypatch.delenv("PLANETREES_LONG_RUN", raising=False)
    code, _, err = run(capsys, "verify", "--gen", "book", "--n", "7", "--seed", "0")
    assert code == 1
    assert "long-run" in err


def test_help_documents_desk_scale_limits():
    parser = build_parser()
    text = parser.format_help()
    assert "5,370,725" in text
    assert "10^8" in text


def test_gen_round_trip(capsys, tmp_path):
    out_path = tmp_path / "gen.book"
    code, _, _ = run(capsys, "gen", "--class", "book", "--n", "5", "--seed", "3", "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "solve", "--class", "book", str(out_path))
    assert code == 0


def test_gen_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--class", "points", "--n", "4", "--seed", "2")
    assert code == 0
    assert out.startswith("points n=4")


def test_render_with_tree(capsys, tmp_path, cyl_file):
    report_path = tmp_path / "report.txt"
    code, out, _ = run(capsys, "solve", "--class", "cylindrical", cyl_file)
    assert code == 0
    report_path.write_text(out)
    svg_path = tmp_path / "out.svg"
    code, _, _ = run(capsys, "render", cyl_file, "--tree", str(report_path), "-o", str(svg_path))
    assert code == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert 'class="tree"' in svg


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/file.xyz")
    assert code == 1


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "planetrees.cli", "frobnicate"],
        capture_output=True,
    )
    assert proc.returncode == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "planetrees.cli", "gen", "--class", "coloring", "--n", "4", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("coloring n=4")


# A trusted drawing file whose adjacent edges 0-1 and 0-2 cross: a
# simple drawing never has that, so every solver path must refuse it.
ADJACENT_CROSSING_K4 = """drawing n=4
crossings:
0-1 0-2
xorder: 0 1 2 3
colors: k=2
e 0 1 : 0
e 0 2 : 0
e 0 3 : 0
e 1 2 : 0
e 1 3 : 0
e 2 3 : 0
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["brute", "--mode", "mono"],
        ["brute", "--mode", "hypo"],
        ["verify"],
        ["solve", "--class", "monotone"],
    ],
)
def test_invalid_trusted_drawing_is_input_error(capsys, tmp_path, argv):
    path = tmp_path / "bad.drawing"
    path.write_text(ADJACENT_CROSSING_K4)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1 and "adjacent edges cross: 0-1 and 0-2" in out
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    assert "tree-found" not in out
    assert err.startswith("error: invalid drawing: adjacent edges cross: 0-1 and 0-2")


def test_invalid_trusted_drawing_is_not_rendered(capsys, tmp_path):
    path = tmp_path / "bad.drawing"
    path.write_text(ADJACENT_CROSSING_K4)
    svg = tmp_path / "bad.svg"
    code, out, err = run(capsys, "render", str(path), "-o", str(svg))
    assert code == 1
    assert not svg.exists()
    assert err.startswith("error: invalid drawing: adjacent edges cross: 0-1 and 0-2")


# Layouts that parse but do not compile: side edges 0-2 and 1-2 of the
# annulus meet twice, and the three points are collinear.
DOUBLE_MEETING_ANNULUS = """cylindrical n_inner=2 n_outer=2
inner:
0: 0/1
1: 1/1
outer:
2: 0/1
3: 1/1
windings:
0 2: 0/1
0 3: 1/1
1 2: 5/1
1 3: 0/1
colors: k=2
e 0 1 : 0
e 0 2 : 1
e 0 3 : 0
e 1 2 : 1
e 1 3 : 0
e 2 3 : 1
"""

COLLINEAR_POINTS = """points n=3
p 0: 0 0
p 1: 1 1
p 2: 2 2
colors: k=2
e 0 1 : 0
e 0 2 : 0
e 1 2 : 1
"""


@pytest.mark.parametrize(
    "name,text,message",
    [
        ("double.cyl", DOUBLE_MEETING_ANNULUS, "adjacent side edges (0, 2) and (1, 2) meet 2 time(s)"),
        ("collinear.pts", COLLINEAR_POINTS, "collinear points 0, 1, 2"),
    ],
    ids=["annulus", "points"],
)
def test_uncompilable_layout_is_not_rendered(capsys, tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1 and err == f"error: {message}\n"
    svg = tmp_path / "bad.svg"
    code, out, err = run(capsys, "render", str(path), "-o", str(svg))
    assert code == 1
    assert out == ""
    assert not svg.exists()
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "name,text",
    [
        ("one.drawing", "drawing n=1\ncrossings:\n"),
        ("one.classes", "4;0-2 1-3\n1;\n"),
        ("zero.classes", "0;\n"),
    ],
    ids=["drawing", "class-record", "class-record-0"],
)
def test_verify_needs_two_vertices(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: verification needs n >= 2")


def test_verify_all_colorings_needs_two_vertices():
    from planetrees.core import Drawing
    from planetrees.search import verify_all_colorings

    with pytest.raises(ValueError, match="verification needs n >= 2, got n=1"):
        verify_all_colorings(Drawing(1, frozenset()))


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_bad_jobs_flag_is_input_error(capsys, value):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--gen", "book", "--n", "4", "--jobs", value])
    assert info.value.code == 1
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_bad_jobs_environment_is_input_error(capsys, monkeypatch, value):
    monkeypatch.setenv("PLANETREES_JOBS", value)
    with pytest.raises(SystemExit) as info:
        main(["verify", "--gen", "book", "--n", "4"])
    assert info.value.code == 1
    assert f"PLANETREES_JOBS), got {value!r}" in capsys.readouterr().err


def test_jobs_flag_overrides_bad_environment(capsys, monkeypatch):
    monkeypatch.setenv("PLANETREES_JOBS", "abc")
    code, out, _ = run(capsys, "verify", "--gen", "book", "--n", "4", "--jobs", "1")
    assert code == 0
    assert kv(out)["status"] == "verified"


def test_bad_jobs_environment_does_not_affect_other_commands(capsys, monkeypatch):
    monkeypatch.setenv("PLANETREES_JOBS", "abc")
    code, out, _ = run(capsys, "gen", "--class", "book", "--n", "4", "--seed", "1")
    assert code == 0
    assert out.startswith("book n=4")


@pytest.mark.parametrize("mode", ["avoid:x", "avoid:", "avoid", "mono:0", "hypo:1", "triangle"])
def test_brute_mode_is_checked_before_the_file(capsys, tmp_path, mode):
    # The file does not exist: the mode must be refused first.
    code, out, err = run(capsys, "brute", str(tmp_path / "missing.drawing"), "--mode", mode)
    assert code == 1
    assert out == ""
    assert err == f"error: unknown mode {mode!r} (use mono, avoid:<c>, or hypo)\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("tree: 0-1-2\n", "line 1: expected edge token u-v, got '0-1-2'"),
        ("# a comment\n0-1\n0-x\n", "line 3: expected vertex, got 'x'"),
        ("status: tree-found\ntree: 0-1 3-3\n", "line 2: edge '3-3' out of range for n=6"),
    ],
)
def test_render_tree_errors_name_the_tree_file_and_line(capsys, tmp_path, book_file, text, message):
    tree = tmp_path / "bad.tree"
    tree.write_text(text)
    svg = tmp_path / "out.svg"
    code, _, err = run(capsys, "render", book_file, "--tree", str(tree), "-o", str(svg))
    assert code == 1
    assert not svg.exists()
    assert err == f"error: tree file {tree}: {message}\n"



@pytest.mark.parametrize(
    "argv,sizes",
    [
        (["gen", "--class", "cylindrical", "--n-inner", "-1", "--n-outer", "3", "--seed", "0"], "n_inner=-1, n_outer=3"),
        (["verify", "--gen", "cylindrical", "--n", "3", "--n-inner", "5"], "n_inner=5, n_outer=-2"),
    ],
    ids=["gen", "verify"],
)
def test_negative_circle_size_is_named(capsys, argv, sizes):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: circle sizes must be non-negative, got {sizes}\n"


@pytest.mark.parametrize("start", ["3", "5", "-1"])
def test_verify_start_outside_class_file_is_refused(capsys, tmp_path, start):
    path = tmp_path / "k4.classes"
    path.write_text("4;\n4;0-2 1-3\n")
    code, out, err = run(capsys, "verify", str(path), "--start", start)
    assert code == 1
    assert out == ""
    assert err == f"error: start index {start} out of range 0..2 for 2 records\n"


def test_verify_start_at_the_record_count_verifies_nothing(capsys, tmp_path):
    path = tmp_path / "k4.classes"
    path.write_text("4;\n4;0-2 1-3\n")
    code, out, _ = run(capsys, "verify", str(path), "--start", "2")
    assert code == 0
    assert (kv(out)["records"], kv(out)["status"]) == ("0", "verified")


@pytest.mark.parametrize(
    "source,what",
    [
        (["--gen", "book", "--n", "4", "--seed", "1"], "--gen instances"),
        (["@book"], "book files"),
        (["@drawing"], "drawing files"),
    ],
    ids=["gen", "book", "drawing"],
)
@pytest.mark.parametrize("start", ["0", "9"])
def test_verify_start_outside_a_class_file_is_refused(capsys, tmp_path, source, what, start):
    book = tmp_path / "k4.book"
    book.write_text(serialize_book(gen_book(4, 1)))
    drawing = tmp_path / "k4.drawing"
    drawing.write_text("drawing n=4\ncrossings:\n0-2 1-3\n")
    files = {"@book": str(book), "@drawing": str(drawing)}
    code, out, err = run(capsys, "verify", *(files.get(a, a) for a in source), "--start", start)
    assert code == 1
    assert out == ""
    assert err == f"error: --start applies only to class files, not to {what}\n"


@pytest.mark.parametrize("cls", ["cylindrical", "book", "points"])
@pytest.mark.parametrize(
    "flags,message",
    [
        ([], "refusing exhaustive verification for n=320 > 6 without the long-run flag"),
        (["--long-run"], "n=320 exceeds the limit of 128 vertices"),
    ],
    ids=["desk-scale", "long-run"],
)
def test_verify_gen_refuses_its_size_before_generating(capsys, monkeypatch, cls, flags, message):
    from planetrees import cli

    def refuse(*args, **kwargs):
        raise AssertionError("generated an instance that is refused")

    monkeypatch.delenv("PLANETREES_LONG_RUN", raising=False)
    sizes, _, write = cli.GENERATORS[cls]
    monkeypatch.setitem(cli.GENERATORS, cls, (sizes, refuse, write))
    code, out, err = run(capsys, "verify", "--gen", cls, "--n", "320", "--seed", "0", *flags)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "sizes,n",
    [
        (["book", "--n", "129"], 129),
        (["points", "--n", "100000"], 100000),
        (["coloring", "--n", "129"], 129),
        (["cylindrical", "--n-inner", "64", "--n-outer", "65"], 129),
    ],
)
def test_gen_refuses_sizes_a_file_could_not_hold(capsys, sizes, n):
    code, out, err = run(capsys, "gen", "--class", *sizes, "--seed", "0")
    assert (code, out, err) == (1, "", f"error: n={n} exceeds the limit of 128 vertices\n")


@pytest.mark.parametrize("command", ["validate", "render", "verify", "brute"])
def test_header_above_the_limit_is_an_input_error(capsys, tmp_path, command):
    path = tmp_path / "huge.drawing"
    path.write_text("drawing n=100000\n")
    extra = {"render": ["-o", str(tmp_path / "out.svg")], "brute": ["--mode", "mono"]}.get(command, [])
    code, out, err = run(capsys, command, str(path), *extra)
    assert (code, out, err) == (1, "", "error: line 1: n=100000 exceeds the limit of 128 vertices\n")


@pytest.mark.parametrize(
    "solver,text,n,validated",
    [
        ("pseudolinear", "points n=0\ncolors: k=2\n", 0, 1),
        ("pseudolinear", "points n=1\np 0: 0 0\ncolors: k=2\n", 1, 0),
        ("book", "book n=0\nspine: \ntop: \nbottom: \ncolors: k=2\n", 0, 1),
        ("book", "book n=1\nspine: 0\ntop: \nbottom: \ncolors: k=2\n", 1, 0),
    ],
    ids=["points-0", "points-1", "book-0", "book-1"],
)
def test_solve_refuses_fewer_than_two_vertices(capsys, tmp_path, solver, text, n, validated):
    path = tmp_path / "small.txt"
    path.write_text(text)
    code, out, err = run(capsys, "solve", "--class", solver, str(path))
    assert (code, out, err) == (1, "", f"error: need n >= 2, got n={n}\n")
    code, out, err = run(capsys, "validate", str(path))
    status = "violation: vertex count 0 < 1\nstatus: 1 violations" if n == 0 else "status: ok"
    assert (code, out, err) == (validated, f"kind: {text.split()[0]}\nn: {n}\ncrossings: 0\n{status}\n", "")
