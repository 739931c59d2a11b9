"""Property tests for ``formats.load_instance``, the one reader of instance files.

For seeded instances of all five kinds the loader must give what the
kind's own parser gives, and serializing then loading must give the
instance back.  The header alone decides the kind, so a file of a kind
the caller does not accept is refused before its body is read.  On
mutated files the loader and ``Instance.drawing()`` may fail only with
``ParseError`` or another ``ValueError``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planetrees.book import compile_book
from planetrees.cylindrical import compile_layout
from planetrees.formats import (
    KINDS,
    ParseError,
    load_instance,
    parse_book,
    parse_coloring,
    parse_cylindrical,
    parse_drawing,
    parse_points,
    serialize_book,
    serialize_coloring,
    serialize_cylindrical,
    serialize_drawing,
    serialize_points,
)
from planetrees.generators import gen_book, gen_coloring, gen_cylindrical, gen_points
from planetrees.straightline import compile_points

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=120)

OWN_PARSER = {
    "coloring": parse_coloring,
    "cylindrical": parse_cylindrical,
    "book": parse_book,
    "points": parse_points,
}
COMPILER = {"cylindrical": compile_layout, "book": compile_book, "points": compile_points}

kinds = st.sampled_from(sorted(KINDS))
sizes = st.integers(2, 7)
seeds = st.integers(0, 10**6)


def seeded(kind: str, n: int, seed: int):
    """(value, coloring, x_order, text) of a seeded instance of ``kind``."""
    if kind == "cylindrical":
        p = seed % (n + 1)
        layout = gen_cylindrical(p, n - p, seed)
        return layout, layout.color, None, serialize_cylindrical(layout)
    if kind == "book":
        layout = gen_book(n, seed)
        return layout, layout.color, None, serialize_book(layout)
    if kind == "points":
        pts = gen_points(n, seed)
        return pts, pts.color, None, serialize_points(pts)
    if kind == "coloring":
        coloring = gen_coloring(n, 2 + seed % 2, seed)
        return coloring, coloring, None, serialize_coloring(coloring)
    pts = gen_points(n, seed)
    d = compile_points(pts)
    coloring = pts.color if seed % 2 else None
    x_order = tuple(sorted(range(n), key=pts.points.__getitem__)) if seed % 3 else None
    return d, coloring, x_order, serialize_drawing(d, coloring, x_order)


@SETTINGS
@given(kind=kinds, n=sizes, seed=seeds)
def test_loader_gives_what_the_kind_parser_gives(kind, n, seed):
    value, coloring, x_order, text = seeded(kind, n, seed)
    inst = load_instance(text)
    assert inst.kind == kind
    if kind == "drawing":
        assert (inst.value, inst.coloring, inst.x_order) == parse_drawing(text)
    else:
        own = OWN_PARSER[kind](text)
        assert inst.value == own
        assert inst.coloring == (own if kind == "coloring" else own.color)
        assert inst.x_order is None
    assert (inst.value, inst.coloring, inst.x_order) == (value, coloring, x_order)
    assert inst.n == n
    if kind in COMPILER:
        assert inst.drawing() == COMPILER[kind](value)
    elif kind == "drawing":
        assert inst.drawing() is inst.value


@SETTINGS
@given(kind=kinds, n=sizes, seed=seeds, accepted=st.sets(kinds, min_size=1))
def test_other_kinds_are_refused_before_parsing(kind, n, seed, accepted):
    accepted = tuple(sorted(accepted - {kind})) or tuple(sorted(set(KINDS) - {kind}))
    # A broken body cannot change the message: the header decides first.
    text = seeded(kind, n, seed)[-1] + "not a line of any format\n"
    with pytest.raises(ValueError) as exc:
        load_instance(text, accepted, "reader")
    assert str(exc.value) == f"reader needs a {' or '.join(accepted)} file, got {kind}"


def test_class_files_are_refused():
    with pytest.raises(ValueError, match="got class$"):
        load_instance("4;0-2 1-3\n")


def test_unknown_header_is_reported_at_its_line():
    with pytest.raises(ParseError, match=r"^line 3: unrecognized file header 'foo n=3'$"):
        load_instance("\n# comment\nfoo n=3  # trailing\n")
    with pytest.raises(ParseError, match="empty file"):
        load_instance("# only a comment\n\n")


def test_coloring_files_hold_no_drawing():
    inst = load_instance(serialize_coloring(gen_coloring(4, 2, 0)))
    with pytest.raises(ValueError, match="holds no drawing"):
        inst.drawing()


TOKENS = ["0", "1", "-1", "7", "1/2", "0/0", "x", "", ":", "drawing", "book", "points",
          "coloring", "cylindrical", "n=3", "k=1", "colors:", "xorder:", "crossings:",
          "rotations:", "labels:", "e", "0-1", "2-3", "3-3", ";", "#"]
mutations = st.lists(
    st.tuples(st.sampled_from(["delete", "duplicate", "swap", "token", "truncate"]),
              st.integers(0, 999), st.integers(0, 999), st.sampled_from(TOKENS)),
    min_size=1, max_size=4,
)


def mutate(text: str, ops) -> str:
    lines = text.split("\n")
    for op, i, j, token in ops:
        i, j = i % len(lines), j % len(lines)
        if op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[j])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            words = lines[i].split(" ")
            words[j % len(words)] = token
            lines[i] = " ".join(words)
        elif op == "truncate":
            lines = lines[: max(i, 1)]
    return "\n".join(lines)


@SETTINGS
@given(kind=kinds, n=sizes, seed=seeds, ops=mutations)
def test_mutated_files_fail_only_with_value_errors(kind, n, seed, ops):
    text = mutate(seeded(kind, n, seed)[-1], ops)
    try:
        inst = load_instance(text)
        if inst.kind != "coloring":
            inst.drawing()
    except ValueError:  # ParseError, NotSimpleError and the geometry checks
        pass
