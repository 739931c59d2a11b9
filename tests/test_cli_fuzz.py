"""Mutated files through the command line.

Lines of seeded files of all five formats and of class files are
deleted, duplicated, swapped, truncated or have a token replaced; the
result goes through ``validate``, ``solve``, ``brute --mode hypo``,
``verify`` and ``render`` via ``cli.main``.  Bad input may only end
the command with an exit code: no exception other than ``SystemExit``
escapes, and every exit 1 prints ``error:``.
"""

import contextlib
import io
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from planetrees.cli import main
from planetrees.formats import (
    serialize_book,
    serialize_class_file,
    serialize_coloring,
    serialize_cylindrical,
    serialize_drawing,
    serialize_points,
)
from planetrees.generators import gen_book, gen_coloring, gen_cylindrical, gen_points
from planetrees.monotone import colors_needed
from planetrees.straightline import compile_points

from test_load_instance import mutate

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)

KINDS = ("drawing", "coloring", "cylindrical", "book", "points", "class")
SOLVER = {"cylindrical": "cylindrical", "book": "book", "points": "pseudolinear", "drawing": "monotone"}
TOKENS = ["0", "1", "-1", "7", "1/2", "0/0", "x", "", ":", ";", ",", "drawing", "book", "points",
          "coloring", "cylindrical", "n=3", "k=1", "colors:", "xorder:", "crossings:", "rotations:",
          "labels:", "inner:", "windings:", "spine:", "top:", "e", "p", "0-1", "2-3", "3-3", "#"]
mutations = st.lists(
    st.tuples(st.sampled_from(["delete", "duplicate", "swap", "token", "truncate"]),
              st.integers(0, 999), st.integers(0, 999), st.sampled_from(TOKENS)),
    min_size=1, max_size=4,
)


def seeded(kind: str, n: int, seed: int) -> str:
    if kind == "cylindrical":
        return serialize_cylindrical(gen_cylindrical(seed % (n + 1), n - seed % (n + 1), seed))
    if kind == "book":
        return serialize_book(gen_book(n, seed))
    if kind == "points":
        return serialize_points(gen_points(n, seed))
    if kind == "coloring":
        return serialize_coloring(gen_coloring(n, 2, seed))
    if kind == "class":
        return serialize_class_file([compile_points(gen_points(m, seed)) for m in range(2, n + 1)])
    pts = gen_points(n, seed, k=colors_needed(n))
    x_order = tuple(sorted(range(n), key=pts.points.__getitem__))
    return serialize_drawing(compile_points(pts), pts.color, x_order)


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@SETTINGS
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 6), seed=st.integers(0, 10**6), ops=mutations)
def test_mutated_files_end_with_an_exit_code(tmp_path_factory, kind, n, seed, ops):
    path = str(tmp_path_factory.mktemp("fuzz") / "input.txt")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(mutate(seeded(kind, n, seed), ops))
    for argv in (
        ["validate", path],
        ["solve", "--class", SOLVER.get(kind, "book"), path],
        ["brute", path, "--mode", "hypo"],
        ["verify", path],
        ["render", path, "-o", os.devnull],
    ):
        code, err = run_cli(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert "error:" in err, (argv, err)
