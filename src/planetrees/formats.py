"""Line-oriented text formats for drawings, layouts, and colorings.

Every format is ASCII, human-diffable, and exact: angles and windings
are rationals in units of pi written as ``p/q``, point coordinates are
integers or plain rationals.  Serialization is canonical (edges and
crossing pairs sorted, rotations starting at the smallest neighbor),
so ``parse(serialize(x)) == x`` holds for every value.  One per-n table
per text form of an edge, ``_edge_label_ranks`` (``u-v``) and
``_color_prefix_ranks`` (``e u v : ``), maps the text to the edge's rank.
Readers make one pass over a file's non-blank lines and look tokens and
prefixes up in it; a miss goes through the token parsers, which name the
fault.  Writers take labels and prefixes in the tables' key order, which is
rank order, and write crossings straight from a drawing's conflict rows.

Grammars (values in <>; ``#`` starts a comment; blank lines ignored):

    drawing n=<n>
    crossings:          (zero or more lines ``u-v w-x``)
    rotations:          (optional; lines ``v: a b c ...``)
    labels:             (optional; lines ``v: <tag>``)
    xorder: <v0> <v1> ...   (optional)
    colors: k=<k>       (optional; lines ``e u v : c``)

    A drawing has at most one ``rotations``, ``labels`` and ``colors``
    section and one ``xorder`` line; each vertex appears once in the
    rotations and once in the labels.  A repeat is refused, not merged.

    coloring n=<n> k=<k>
    e <u> <v> : <c>     (one line per edge of K_n)

    cylindrical n_inner=<p> n_outer=<q>
    inner:              (lines ``v: p/q`` — angle in units of pi)
    outer:              (lines ``v: p/q``)
    windings:           (lines ``u w: p/q``)
    colors: k=<k>       (required; lines ``e u v : c``)

    book n=<n>
    spine: <v0> <v1> ...
    top: <u-v> ...      (edges on the top page, possibly none)
    bottom: <u-v> ...
    colors: k=<k>       (required)

    points n=<n>
    p <v>: <x> <y>      (one line per point)
    colors: k=<k>       (required)

Class files are one drawing per line, ``n;<crossing pairs comma-separated>``.
A drawing, layout or class-record header may declare at most
``MAX_VERTICES`` = 128 vertices (an annulus counts both circles); a larger
one, or any negative size, is refused on its header line before anything
is sized by it.
Tree files (``render --tree``) hold ``u-v`` tokens, plain or after ``tree:``.

``load_instance(text)`` reads every other file: the header picks its
row of the ``KINDS`` table (parser, compiler) before the body is parsed.
It returns a frozen ``Instance`` (kind, value, colouring, x-order) whose
``drawing()`` compiles a layout or returns a drawing file's own drawing.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Any, Iterator, Optional, Sequence, Union

from .book import PAGE_BOTTOM, PAGE_TOP, BookLayout, compile_book
from .core import Drawing, Edge, EdgeColoring, edge, edge_index, edge_table, row_pairs
from .cylindrical import CylindricalLayout, compile_layout
from .straightline import PointDrawing, compile_points

# The largest vertex count a drawing, layout or class-record header may
# declare.  A drawing's crossing rows and a book's edge table are sized by
# the header before any other line is read.  The commands stay far below it:
# render stops at 50 vertices, brute at 10 and verify at 6 without their flags.
MAX_VERTICES = 128


class ParseError(ValueError):
    """Malformed input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _lines(text: str) -> list[tuple[int, str]]:
    """``(line number, line)`` of each non-blank line, ``#`` comments cut off."""
    raws = text.splitlines()
    if "#" in text:
        raws = [raw.partition("#")[0] for raw in raws]
    return [(i, line) for i, raw in enumerate(raws, 1) if (line := raw.strip())]


def _take(it: Iterator[tuple[int, str]], eof: int) -> tuple[int, str]:
    """The next line; ParseError on line ``eof`` at the end of input."""
    for item in it:
        return item
    raise ParseError(eof, "unexpected end of input")


def _exactly(it: Iterator[tuple[int, str]], eof: int, count: int) -> Iterator[tuple[int, str]]:
    """The next ``count`` lines; ParseError after them if the input ends first."""
    block = list(islice(it, max(0, min(count, eof))))  # fewer than eof lines are left
    yield from block
    if len(block) < count:
        raise ParseError(eof, "unexpected end of input")


def _finish(it: Iterator[tuple[int, str]], value: Any) -> Any:
    """``value``, once no line is left."""
    for line_no, line in it:
        raise ParseError(line_no, f"unexpected trailing line {line!r}")
    return value


def _parse_int(line_no: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"expected {what}, got {token!r}") from None


def _parse_header_fields(line_no: int, line: str, kind: str, fields: list[str]) -> list[int]:
    parts = line.split()
    if not parts or parts[0] != kind:
        raise ParseError(line_no, f"expected {kind!r} header, got {line!r}")
    if len(parts) != len(fields) + 1:
        raise ParseError(line_no, f"{kind} header needs fields {fields}")
    values = []
    for part, name in zip(parts[1:], fields):
        if not part.startswith(name + "="):
            raise ParseError(line_no, f"expected {name}=<int>, got {part!r}")
        values.append(_parse_int(line_no, part[len(name) + 1 :], f"{name} value"))
    return values


def _check_sizes(line_no: int, sizes: dict[str, int], bounded: bool = True) -> None:
    """Refuse a negative size field and, when ``bounded``, a total above
    ``MAX_VERTICES``; a size of 0 is left to ``validate_drawing``."""
    for name, size in sizes.items():
        if size < 0:
            raise ParseError(line_no, f"{name}={size} is negative")
    n = sum(sizes.values())
    if bounded and n > MAX_VERTICES:
        raise ParseError(line_no, f"n={n} exceeds the limit of {MAX_VERTICES} vertices")


def _open(text: str, kind: str, fields: list[str]) -> tuple[Iterator[tuple[int, str]], int, list[int]]:
    """An iterator past a file's header, the line of its end, and the header's fields.
    A negative size is refused, and so is a drawing or layout header above
    ``MAX_VERTICES`` vertices; a colouring sizes nothing by its header until
    its lines are there."""
    lines = _lines(text)
    it, eof = iter(lines), lines[-1][0] + 1 if lines else 1
    line_no, line = _take(it, eof)
    values = _parse_header_fields(line_no, line, kind, fields)
    sizes = {name: value for name, value in zip(fields, values) if name != "k"}
    _check_sizes(line_no, sizes, bounded=kind != "coloring")
    return it, eof, values


def _parse_edge_token(line_no: int, token: str, n: int) -> Edge:
    parts = token.split("-")
    if len(parts) != 2:
        raise ParseError(line_no, f"expected edge token u-v, got {token!r}")
    u = _parse_int(line_no, parts[0], "vertex")
    v = _parse_int(line_no, parts[1], "vertex")
    if u == v or not (0 <= u < n and 0 <= v < n):
        raise ParseError(line_no, f"edge {token!r} out of range for n={n}")
    return edge(u, v)


@functools.lru_cache(maxsize=64)
def _edge_label_ranks(n: int) -> dict[str, int]:
    return {f"{u}-{v}": r for r, (u, v) in enumerate(edge_table(n))}


@functools.lru_cache(maxsize=64)
def _color_prefix_ranks(n: int) -> dict[str, int]:
    return {f"e {u} {v} : ": r for r, (u, v) in enumerate(edge_table(n))}


def _add_crossing(rows: list[int], line_no: int, text: str, n: int, adjacent_ok: bool = True) -> None:
    """Set the row bits of the crossing pair ``u-v w-x`` in ``text``; a bit
    already set is a duplicate, and a token other than a canonical ``u-v``
    goes through ``_parse_edge_token``, which names what is wrong."""
    toks = text.split()
    if len(toks) != 2:
        raise ParseError(line_no, f"expected crossing pair 'u-v w-x', got {text!r}")
    ranks = _edge_label_ranks(n)
    i, j = (ranks[t] if t in ranks else edge_index(n, _parse_edge_token(line_no, t, n)) for t in toks)
    if not adjacent_ok and set(edge_table(n)[i]) & set(edge_table(n)[j]):
        raise ParseError(line_no, f"adjacent edges cannot cross: {text!r}")
    if rows[i] >> j & 1:
        raise ParseError(line_no, f"duplicate crossing pair {text!r}")
    rows[i] |= 1 << j
    rows[j] |= 1 << i


def parse_fraction(line_no: int, token: str) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_no, f"expected rational p/q, got {token!r}") from None


def format_fraction(f: Union[int, Fraction]) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def _color_entry(line_no: int, line: str, n: int, k: int, colors) -> None:
    """Check one ``e u v : c`` line and write c at its edge's rank."""
    parts = line.split()
    if len(parts) != 5 or parts[0] != "e" or parts[3] != ":":
        raise ParseError(line_no, f"expected color line 'e u v : c', got {line!r}")
    u = _parse_int(line_no, parts[1], "vertex")
    v = _parse_int(line_no, parts[2], "vertex")
    c = _parse_int(line_no, parts[4], "color")
    if u == v or not (0 <= u < n and 0 <= v < n):
        raise ParseError(line_no, f"edge {u} {v} out of range for n={n}")
    e = edge(u, v)
    r = edge_index(n, e)
    if colors[r] is not None:
        raise ParseError(line_no, f"duplicate color for edge {e[0]}-{e[1]}")
    if not 0 <= c < k:
        raise ParseError(line_no, f"color index {c} out of range for k={k}")
    colors[r] = c


def _read_color_lines(it: Iterator[tuple[int, str]], eof: int, n: int, k: int) -> EdgeColoring:
    """One colour line per edge of K_n, in any order, written into rank order;
    a line the prefix table misses goes through ``_color_entry``."""
    m = n * (n - 1) // 2
    block = list(islice(it, min(m, eof)))
    whole = len(block) == m  # else the lines' own faults come first, and nothing is sized by the header
    ranks, colors = (_color_prefix_ranks(n), [None] * m) if whole else ({}, defaultdict(lambda: None))
    for line_no, line in block:
        cut = line.rfind(" ") + 1
        r = ranks.get(line[:cut])
        try:
            c = int(line[cut:])
        except ValueError:
            r = None
        if r is None or colors[r] is not None or not 0 <= c < k:
            _color_entry(line_no, line, n, k, colors)
        else:
            colors[r] = c
    if not whole:
        raise ParseError(eof, "unexpected end of input")
    return EdgeColoring(n, k, tuple(colors))


def _serialize_color_lines(c: EdgeColoring) -> list[str]:
    return [f"{prefix}{color}" for prefix, color in zip(_color_prefix_ranks(c.n), c.colors)]


def _crossing_lines(d: Drawing) -> list[str]:
    """``u-v w-x`` per crossing pair, sorted: rank order is lexicographic."""
    labels = list(_edge_label_ranks(d.n))
    return [f"{labels[r]} {labels[s]}" for r, s in row_pairs(d.conflicts)]


def _read_colors(it: Iterator[tuple[int, str]], eof: int, n: int, line_no: int, line: str) -> EdgeColoring:
    """The colour lines after the ``colors: k=<k>`` header ``line``."""
    parts = line.split()
    if len(parts) != 2 or parts[0] != "colors:" or not parts[1].startswith("k="):
        raise ParseError(line_no, f"expected 'colors: k=<k>', got {line!r}")
    return _read_color_lines(it, eof, n, _parse_int(line_no, parts[1][2:], "k value"))


# --- Drawing ---


def serialize_drawing(
    d: Drawing,
    coloring: Optional[EdgeColoring] = None,
    x_order: Optional[tuple[int, ...]] = None,
) -> str:
    out = [f"drawing n={d.n}", "crossings:", *_crossing_lines(d)]
    if d.rotations is not None:
        out.append("rotations:")
        for v, rot in enumerate(d.rotations):
            out.append(f"{v}: " + " ".join(str(w) for w in rot))
    if d.vertex_labels is not None:
        out.append("labels:")
        for v, tag in enumerate(d.vertex_labels):
            out.append(f"{v}: {tag}")
    if x_order is not None:
        out.append("xorder: " + " ".join(str(v) for v in x_order))
    if coloring is not None:
        out.append(f"colors: k={coloring.k}")
        out.extend(_serialize_color_lines(coloring))
    return "\n".join(out) + "\n"


def parse_drawing(text: str) -> tuple[Drawing, Optional[EdgeColoring], Optional[tuple[int, ...]]]:
    it, eof, (n,) = _open(text, "drawing", ["n"])
    rows = [0] * (n * (n - 1) // 2)
    rotations = labels = x_order = coloring = section = ranks = None
    first: dict[str, int] = {}  # the header line of each section that may appear once
    for line_no, line in it:
        if section == "crossings":
            a, _, b = line.partition(" ")
            i, j = ranks.get(a), ranks.get(b)
            if i is not None and j is not None and not rows[i] >> j & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
                continue
        head, *toks = line.split()
        if head in ("rotations:", "labels:", "xorder:", "colors:"):
            if head in first:
                raise ParseError(line_no, f"duplicate {head[:-1]} section; the first is on line {first[head]}")
            first[head] = line_no
        if head == "crossings:":
            section, ranks = "crossings", _edge_label_ranks(n)
        elif head == "rotations:":
            section, rotations = "rotations", [None] * n
        elif head == "labels:":
            section, labels = "labels", {}
        elif head == "xorder:":
            x_order = tuple(_parse_int(line_no, t, "vertex") for t in toks)
            if sorted(x_order) != list(range(n)):
                raise ParseError(line_no, "xorder must be a permutation of the vertices")
            section = None
        elif head == "colors:":
            coloring = _read_colors(it, eof, n, line_no, line)
            section = None
        elif section == "crossings":
            _add_crossing(rows, line_no, line, n)
        elif section == "rotations":
            v_tok, _, rest = line.partition(":")
            v = _parse_int(line_no, v_tok.strip(), "vertex")
            if not 0 <= v < n:
                raise ParseError(line_no, f"rotation vertex {v} out of range")
            rot = tuple(_parse_int(line_no, t, "vertex") for t in rest.split())
            if rotations[v] is not None:
                raise ParseError(line_no, f"duplicate rotation for vertex {v}")
            rotations[v] = rot
        elif section == "labels":
            v_tok, _, rest = line.partition(":")
            v = _parse_int(line_no, v_tok.strip(), "vertex")
            if v in labels:
                raise ParseError(line_no, f"duplicate label for vertex {v}")
            labels[v] = rest.strip()
        else:
            raise ParseError(line_no, f"unexpected line {line!r}")
    if rotations is not None and None in rotations:
        raise ParseError(first["rotations:"], f"rotations section missing vertex {rotations.index(None)}")
    if labels is not None and sorted(labels) != list(range(n)):
        raise ParseError(first["labels:"], "labels section must cover every vertex")
    label_tuple = None if labels is None else tuple(labels[v] for v in range(n))
    return Drawing.from_rows(n, rows, rotations, label_tuple), coloring, x_order


# --- EdgeColoring ---


def serialize_coloring(c: EdgeColoring) -> str:
    return "\n".join([f"coloring n={c.n} k={c.k}", *_serialize_color_lines(c)]) + "\n"


def parse_coloring(text: str) -> EdgeColoring:
    it, eof, (n, k) = _open(text, "coloring", ["n", "k"])
    return _finish(it, _read_color_lines(it, eof, n, k))


# --- CylindricalLayout ---


def serialize_cylindrical(layout: CylindricalLayout) -> str:
    p = layout.n_inner
    out = [f"cylindrical n_inner={p} n_outer={layout.n_outer}"]
    out.append("inner:")
    for i, a in enumerate(layout.inner_angles):
        out.append(f"{i}: {format_fraction(a)}")
    out.append("outer:")
    for j, a in enumerate(layout.outer_angles):
        out.append(f"{p + j}: {format_fraction(a)}")
    out.append("windings:")
    for i in range(p):
        for j in range(layout.n_outer):
            out.append(f"{i} {p + j}: {format_fraction(layout.windings[i][j])}")
    out.append(f"colors: k={layout.color.k}")
    out.extend(_serialize_color_lines(layout.color))
    return "\n".join(out) + "\n"


def parse_cylindrical(text: str) -> CylindricalLayout:
    it, eof, (p, q) = _open(text, "cylindrical", ["n_inner", "n_outer"])
    n = p + q

    def expect_section(name: str) -> None:
        ln, lv = _take(it, eof)
        if lv != name:
            raise ParseError(ln, f"expected section {name!r}, got {lv!r}")

    def angle_lines(count: int, offset: int, what: str) -> tuple[Fraction, ...]:
        expect_section(f"{what}:")
        angles: dict[int, Fraction] = {}
        for ln, lv in _exactly(it, eof, count):
            v_tok, sep, rest = lv.partition(":")
            if not sep:
                raise ParseError(ln, f"expected '<vertex>: <angle>', got {lv!r}")
            v = _parse_int(ln, v_tok.strip(), "vertex")
            if not offset <= v < offset + count:
                raise ParseError(ln, f"{what} vertex {v} out of range")
            if v in angles:
                raise ParseError(ln, f"duplicate angle for vertex {v}")
            angles[v] = parse_fraction(ln, rest.strip())
        return tuple(angles[v] for v in range(offset, offset + count))

    inner = angle_lines(p, 0, "inner")
    outer = angle_lines(q, p, "outer")
    expect_section("windings:")
    windings: dict[tuple[int, int], Fraction] = {}
    for ln, lv in _exactly(it, eof, p * q):
        head, sep, rest = lv.partition(":")
        toks = head.split()
        if not sep or len(toks) != 2:
            raise ParseError(ln, f"expected '<u> <w>: <winding>', got {lv!r}")
        u = _parse_int(ln, toks[0], "inner vertex")
        w = _parse_int(ln, toks[1], "outer vertex")
        if not (0 <= u < p and p <= w < n):
            raise ParseError(ln, f"winding pair {u} {w} out of range")
        if (u, w) in windings:
            raise ParseError(ln, f"duplicate winding for {u} {w}")
        windings[(u, w)] = parse_fraction(ln, rest.strip())
    color = _finish(it, _read_colors(it, eof, n, *_take(it, eof)))
    wind = tuple(tuple(windings[(i, p + j)] for j in range(q)) for i in range(p))
    return CylindricalLayout(inner, outer, wind, color)


# --- BookLayout ---


def serialize_book(layout: BookLayout) -> str:
    n = layout.n
    out = [f"book n={n}"]
    out.append("spine: " + " ".join(str(v) for v in layout.spine))
    for name, page in (("top:", PAGE_TOP), ("bottom:", PAGE_BOTTOM)):
        out.append(f"{name} " + " ".join(e for e, p in zip(_edge_label_ranks(n), layout.pages) if p == page))
    out.append(f"colors: k={layout.color.k}")
    out.extend(_serialize_color_lines(layout.color))
    return "\n".join(out) + "\n"


def parse_book(text: str) -> BookLayout:
    it, eof, (n,) = _open(text, "book", ["n"])
    ln, lv = _take(it, eof)
    if not lv.startswith("spine:"):
        raise ParseError(ln, f"expected 'spine: ...', got {lv!r}")
    spine = tuple(_parse_int(ln, t, "vertex") for t in lv.split()[1:])
    if sorted(spine) != list(range(n)):
        raise ParseError(ln, "spine must be a permutation of 0..n-1")
    ranks = _edge_label_ranks(n)
    pages: list[Optional[str]] = [None] * len(ranks)
    for name, page in (("top:", PAGE_TOP), ("bottom:", PAGE_BOTTOM)):
        ln, lv = _take(it, eof)
        toks = lv.split()
        if toks[0] != name:
            raise ParseError(ln, f"expected section {name!r}, got {lv!r}")
        for tok in toks[1:]:
            r = ranks.get(tok)
            if r is None:
                r = edge_index(n, _parse_edge_token(ln, tok, n))
            if pages[r] is not None:
                raise ParseError(ln, f"edge {tok} assigned to two pages")
            pages[r] = page
    if None in pages:
        raise ParseError(ln, f"edge {list(ranks)[pages.index(None)]} has no page")
    color = _finish(it, _read_colors(it, eof, n, *_take(it, eof)))
    return BookLayout(spine, tuple(pages), color)


# --- PointDrawing ---


def _format_coord(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else format_fraction(f)


def serialize_points(p: PointDrawing) -> str:
    out = [f"points n={p.n}"]
    for v, (x, y) in enumerate(p.points):
        out.append(f"p {v}: {_format_coord(x)} {_format_coord(y)}")
    out.append(f"colors: k={p.color.k}")
    out.extend(_serialize_color_lines(p.color))
    return "\n".join(out) + "\n"


def _parse_coord(line_no: int, token: str):
    if "/" not in token:
        return _parse_int(line_no, token, "rational p/q")
    f = parse_fraction(line_no, token)
    return int(f) if f.denominator == 1 else f


def parse_points(text: str) -> PointDrawing:
    it, eof, (n,) = _open(text, "points", ["n"])
    pts: dict[int, tuple] = {}
    for ln, lv in _exactly(it, eof, n):
        parts = lv.split()
        if len(parts) != 4 or parts[0] != "p" or not parts[1].endswith(":"):
            raise ParseError(ln, f"expected 'p <v>: <x> <y>', got {lv!r}")
        v = _parse_int(ln, parts[1][:-1], "vertex")
        if not 0 <= v < n:
            raise ParseError(ln, f"point vertex {v} out of range")
        if v in pts:
            raise ParseError(ln, f"duplicate point for vertex {v}")
        pts[v] = (_parse_coord(ln, parts[2]), _parse_coord(ln, parts[3]))
    color = _finish(it, _read_colors(it, eof, n, *_take(it, eof)))
    return PointDrawing(tuple(pts[v] for v in range(n)), color)


# --- Class files and the instance loader ---


def serialize_class_file(drawings: list[Drawing]) -> str:
    return "\n".join(f"{d.n};" + ",".join(_crossing_lines(d)) for d in drawings) + "\n"


def parse_class_file(path: str) -> list[Drawing]:
    with open(path, encoding="ascii") as fh:
        return parse_classes(fh.read())


def parse_classes(text: str) -> list[Drawing]:
    """One drawing per ``n;<crossing pairs>`` line of a class file."""
    drawings = []
    for line_no, line in _lines(text):
        head, sep, rest = line.partition(";")
        if not sep:
            raise ParseError(line_no, "expected 'n;<crossing pairs>'")
        n = _parse_int(line_no, head.strip(), "vertex count")
        _check_sizes(line_no, {"n": n})
        rows = [0] * (n * (n - 1) // 2)
        rest = rest.strip()
        for chunk in rest.split(",") if rest else []:
            _add_crossing(rows, line_no, chunk, n, adjacent_ok=False)
        drawings.append(Drawing.from_rows(n, rows))
    return drawings


def parse_tree(text: str, n: int) -> frozenset[Edge]:
    """Tree edges ``u-v`` of K_n, on plain lines or after ``tree:``.

    Lines with another ``key:`` are skipped, so a solver's report reads
    back as the tree it found.
    """
    edges = set()
    for line_no, line in _lines(text):
        key, sep, rest = line.partition(":")
        if sep:
            if key.strip() != "tree":
                continue
            line = rest
        edges.update(_parse_edge_token(line_no, tok, n) for tok in line.split())
    return frozenset(edges)


# kind -> (parser, compiler).  A drawing file needs no compiler and a
# coloring file holds no drawing.
KINDS = {
    "drawing": (parse_drawing, None),
    "coloring": (parse_coloring, None),
    "cylindrical": (parse_cylindrical, compile_layout),
    "book": (parse_book, compile_book),
    "points": (parse_points, compile_points),
}
DRAWING_KINDS = ("drawing", "cylindrical", "book", "points")


def detect_kind(text: str) -> str:
    """File kind from the header token; class files have ';' records.
    Only the first KB is split into lines, unless the header is not there."""
    for cut in (1024, len(text)):
        lines = _lines(text[:cut])
        if lines[cut < len(text) :]:  # the first line is whole if the text ends or a line follows it
            line_no, line = lines[0]
            head = line.split()[0]
            if head in KINDS:
                return head
            if ";" in line and line.split(";")[0].strip().isdigit():
                return "class"
            raise ParseError(line_no, f"unrecognized file header {line[:40]!r}")
    raise ParseError(1, "empty file")


@dataclass(frozen=True)
class Instance:
    """A parsed file: its kind, the value it holds, its colouring and a drawing's x-order."""

    kind: str
    value: Any
    coloring: Optional[EdgeColoring]
    x_order: Optional[tuple[int, ...]] = None

    @property
    def n(self) -> int:
        return self.value.n

    def drawing(self) -> Drawing:
        """The file's drawing; a layout is compiled on every call."""
        if self.kind == "drawing":
            return self.value
        compile_ = KINDS[self.kind][1]
        if compile_ is None:
            raise ValueError(f"a {self.kind} file holds no drawing")
        return compile_(self.value)


def load_instance(text: str, kinds: Sequence[str] = tuple(KINDS), reader: str = "a single instance") -> Instance:
    """Parse a file of one of ``kinds``; the header refuses any other kind before parsing."""
    kind = detect_kind(text)
    if kind not in kinds:
        raise ValueError(f"{reader} needs a {' or '.join(kinds)} file, got {kind}")
    value = KINDS[kind][0](text)
    if kind == "drawing":
        return Instance(kind, *value)
    return Instance(kind, value, value if kind == "coloring" else value.color)
