"""The one-pass readers of planetrees.formats against the reference readers.

The reference readers in conftest are the token-stream readers the
one-pass ones replaced.  On seeded files of all five formats and class
files, and on mutations of their lines, both must return equal values
or raise the same error with the same text.  Two differences are
allowed, both in drawing files: a repeated ``rotations``, ``labels``,
``xorder`` or ``colors`` section, or a vertex given twice in the
rotations or labels, is now refused on its line; and a rotation or
label missing for some vertex is reported on its section's header line,
not on line 0.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planetrees import formats

from conftest import (
    reference_detect_kind,
    reference_parse_book,
    reference_parse_classes,
    reference_parse_coloring,
    reference_parse_cylindrical,
    reference_parse_drawing,
    reference_parse_points,
    reference_parse_tree,
)
from test_cli_fuzz import KINDS, mutations, seeded
from test_load_instance import mutate

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=400)

READERS = {
    "drawing": (formats.parse_drawing, reference_parse_drawing),
    "coloring": (formats.parse_coloring, reference_parse_coloring),
    "cylindrical": (formats.parse_cylindrical, reference_parse_cylindrical),
    "book": (formats.parse_book, reference_parse_book),
    "points": (formats.parse_points, reference_parse_points),
    "class": (formats.parse_classes, reference_parse_classes),
}
REPEATED_SECTION = re.compile(r"line (\d+): duplicate (rotations|labels|xorder|colors) section; the first is on line (\d+)")
REPEATED_VERTEX = re.compile(r"line (\d+): duplicate (rotation|label) for vertex (-?\d+)")
MISSING_VERTEX = re.compile(r"line (\d+): (rotations section missing vertex \d+|labels section must cover every vertex)")


def outcome(parse, *args):
    try:
        return "value", parse(*args)
    except Exception as exc:  # compared by type and text, whatever the reader raised
        return type(exc), str(exc)


def body(text: str, line_no: int) -> str:
    """Line ``line_no`` of ``text`` as the readers see it."""
    return text.splitlines()[line_no - 1].split("#", 1)[0].strip()


def vertex(text: str, line_no: int):
    """The vertex before the ``:`` of a rotation or label line, else None."""
    try:
        return int(body(text, line_no).partition(":")[0])
    except ValueError:
        return None


def allowed_difference(text: str, new, ref) -> bool:
    """True when ``new`` refuses a repeat that the reference took, or names
    the header line of a section the reference reported on line 0."""
    if new[0] is not formats.ParseError:
        return False
    if m := REPEATED_SECTION.fullmatch(new[1]):
        line_no, name, first = int(m[1]), m[2], int(m[3])
        return first < line_no and body(text, line_no).split()[0] == body(text, first).split()[0] == name + ":"
    if m := REPEATED_VERTEX.fullmatch(new[1]):
        line_no, v = int(m[1]), int(m[3])
        return [vertex(text, i) for i in range(1, line_no + 1)].count(v) > 1
    if m := MISSING_VERTEX.fullmatch(new[1]):
        line_no = int(m[1])
        return ref == (formats.ParseError, f"line 0: {m[2]}") and body(text, line_no) in ("rotations:", "labels:")
    return False


def assert_same(kind: str, text: str) -> None:
    new_reader, ref_reader = READERS[kind]
    new, ref = outcome(new_reader, text), outcome(ref_reader, text)
    if new != ref:
        assert allowed_difference(text, new, ref), (new, ref)
    assert outcome(formats.detect_kind, text) == outcome(reference_detect_kind, text)
    if kind == "points" and new[0] == "value":
        assert all(type(c) is type(r) for p, q in zip(new[1].points, ref[1].points) for c, r in zip(p, q))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 8))
def test_seeded_files_read_the_same(kind, n):
    for seed in range(4):
        text = seeded(kind, n, seed)
        assert_same(kind, text)
        assert outcome(READERS[kind][0], text)[0] == "value"


@SETTINGS
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 6), seed=st.integers(0, 10**6), ops=mutations)
def test_mutated_files_read_the_same(kind, n, seed, ops):
    assert_same(kind, mutate(seeded(kind, n, seed), ops))


@SETTINGS
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 6), seed=st.integers(0, 10**6),
       ops=mutations, comment=st.sampled_from(["", "# note", "\n\n", "  # x\n#"]))
def test_mutated_files_with_comments_read_the_same(kind, n, seed, ops, comment):
    lines = mutate(seeded(kind, n, seed), ops).split("\n")
    lines.insert(seed % (len(lines) + 1), comment)
    assert_same(kind, "\n".join(line + comment if i == n else line for i, line in enumerate(lines)))


@SETTINGS
@given(n=st.integers(2, 6), seed=st.integers(0, 10**6), ops=mutations)
def test_tree_files_read_the_same(n, seed, ops):
    text = mutate(f"status: tree-found\ntree: 0-1 1-2\n{n - 2}-{n - 1}\n# {seed}\n", ops)
    assert outcome(formats.parse_tree, text, n) == outcome(reference_parse_tree, text, n)
