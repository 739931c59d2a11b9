"""Line-oriented text formats for drawings, layouts, and colorings.

Every format is ASCII, human-diffable, and exact: angles and windings
are rationals in units of pi written as ``p/q``, point coordinates are
integers or plain rationals.  Serialization is canonical (edges and
crossing pairs sorted, rotations starting at the smallest neighbor),
so ``parse(serialize(x)) == x`` holds for every value.  Writers format
edges from per-n tables in ``edge_table`` order: ``_edge_labels``
(``u-v``) and ``_color_prefixes`` (``e u v : ``).  Crossings go straight
between text and a drawing's conflict rows: writers walk the rows in
rank order, readers look each ``u-v`` token up in the labels' ranks.

Grammars (values in <>; ``#`` starts a comment; blank lines ignored):

    drawing n=<n>
    crossings:          (zero or more lines ``u-v w-x``)
    rotations:          (optional; lines ``v: a b c ...``)
    labels:             (optional; lines ``v: <tag>``)
    xorder: <v0> <v1> ...   (optional)
    colors: k=<k>       (optional; lines ``e u v : c``)

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
Tree files (``render --tree``) hold ``u-v`` tokens, plain or after ``tree:``.

``load_instance(text)`` reads every other file: the header picks its
row of the ``KINDS`` table (parser, compiler) before the body is parsed.
It returns a frozen ``Instance`` (kind, value, colouring, x-order) whose
``drawing()`` compiles a layout or returns a drawing file's own drawing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Sequence, Union

from .book import PAGE_BOTTOM, PAGE_TOP, BookLayout, compile_book
from .core import Drawing, Edge, EdgeColoring, _edge_bits, all_edges, edge, edge_index, edge_table, row_pairs
from .cylindrical import CylindricalLayout, compile_layout
from .straightline import PointDrawing, compile_points


class ParseError(ValueError):
    """Malformed input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class _Lines:
    """Token stream over non-blank, comment-stripped lines."""

    def __init__(self, text: str):
        self.items: list[tuple[int, str]] = []
        for i, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                self.items.append((i, line))
        self.pos = 0

    def peek(self) -> Optional[tuple[int, str]]:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> tuple[int, str]:
        item = self.peek()
        if item is None:
            last = self.items[-1][0] if self.items else 0
            raise ParseError(last + 1, "unexpected end of input")
        self.pos += 1
        return item

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.items)

    def finish(self) -> None:
        if not self.exhausted:
            line_no, line = self.next()
            raise ParseError(line_no, f"unexpected trailing line {line!r}")


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
    return {label: r for r, label in enumerate(_edge_labels(n))}


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


def _parse_color_lines(lines: _Lines, n: int, k: int) -> EdgeColoring:
    mapping: dict[Edge, int] = {}
    m = n * (n - 1) // 2
    while len(mapping) < m:
        line_no, line = lines.next()
        parts = line.split()
        if len(parts) != 5 or parts[0] != "e" or parts[3] != ":":
            raise ParseError(line_no, f"expected color line 'e u v : c', got {line!r}")
        u = _parse_int(line_no, parts[1], "vertex")
        v = _parse_int(line_no, parts[2], "vertex")
        c = _parse_int(line_no, parts[4], "color")
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ParseError(line_no, f"edge {u} {v} out of range for n={n}")
        e = edge(u, v)
        if e in mapping:
            raise ParseError(line_no, f"duplicate color for edge {e[0]}-{e[1]}")
        if not 0 <= c < k:
            raise ParseError(line_no, f"color index {c} out of range for k={k}")
        mapping[e] = c
    return EdgeColoring.from_map(n, k, mapping)


@functools.lru_cache(maxsize=64)
def _edge_labels(n: int) -> tuple[str, ...]:
    return tuple(f"{u}-{v}" for u, v in edge_table(n))


@functools.lru_cache(maxsize=64)
def _color_prefixes(n: int) -> tuple[str, ...]:
    return tuple(f"e {u} {v} : " for u, v in edge_table(n))


def _serialize_color_lines(c: EdgeColoring) -> list[str]:
    return [f"{prefix}{color}" for prefix, color in zip(_color_prefixes(c.n), c.colors)]


def _crossing_lines(d: Drawing) -> list[str]:
    """``u-v w-x`` per crossing pair, sorted: rank order is lexicographic."""
    labels = _edge_labels(d.n)
    return [f"{labels[r]} {labels[s]}" for r, s in row_pairs(d.conflicts)]


def _parse_colors_section(lines: _Lines, n: int) -> EdgeColoring:
    line_no, line = lines.next()
    parts = line.split()
    if len(parts) != 2 or parts[0] != "colors:" or not parts[1].startswith("k="):
        raise ParseError(line_no, f"expected 'colors: k=<k>', got {line!r}")
    k = _parse_int(line_no, parts[1][2:], "k value")
    return _parse_color_lines(lines, n, k)


# ---------------------------------------------------------------------------
# Drawing
# ---------------------------------------------------------------------------


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


def parse_drawing(
    text: str,
) -> tuple[Drawing, Optional[EdgeColoring], Optional[tuple[int, ...]]]:
    lines = _Lines(text)
    line_no, line = lines.next()
    (n,) = _parse_header_fields(line_no, line, "drawing", ["n"])
    rows = [0] * len(_edge_bits(n))
    rotations: Optional[list] = None
    labels: Optional[dict[int, str]] = None
    x_order: Optional[tuple[int, ...]] = None
    coloring: Optional[EdgeColoring] = None
    section = None
    while not lines.exhausted:
        line_no, line = lines.next()
        toks = line.split()
        head = toks[0]
        if head == "crossings:":
            section = "crossings"
            continue
        if head == "rotations:":
            section = "rotations"
            rotations = [None] * n
            continue
        if head == "labels:":
            section = "labels"
            labels = {}
            continue
        if head == "xorder:":
            x_order = tuple(_parse_int(line_no, t, "vertex") for t in toks[1:])
            if sorted(x_order) != list(range(n)):
                raise ParseError(line_no, "xorder must be a permutation of the vertices")
            section = None
            continue
        if head == "colors:":
            lines.pos -= 1
            coloring = _parse_colors_section(lines, n)
            section = None
            continue
        if section == "crossings":
            _add_crossing(rows, line_no, line, n)
            continue
        if section == "rotations":
            v_tok, _, rest = line.partition(":")
            v = _parse_int(line_no, v_tok.strip(), "vertex")
            if not 0 <= v < n:
                raise ParseError(line_no, f"rotation vertex {v} out of range")
            rot = tuple(_parse_int(line_no, t, "vertex") for t in rest.split())
            assert rotations is not None
            rotations[v] = rot
            continue
        if section == "labels":
            v_tok, _, rest = line.partition(":")
            v = _parse_int(line_no, v_tok.strip(), "vertex")
            assert labels is not None
            labels[v] = rest.strip()
            continue
        raise ParseError(line_no, f"unexpected line {line!r}")
    rot_tuple = None
    if rotations is not None:
        missing = [v for v, r in enumerate(rotations) if r is None]
        if missing:
            raise ParseError(0, f"rotations section missing vertex {missing[0]}")
        rot_tuple = tuple(rotations)
    label_tuple = None
    if labels is not None:
        if sorted(labels) != list(range(n)):
            raise ParseError(0, "labels section must cover every vertex")
        label_tuple = tuple(labels[v] for v in range(n))
    return Drawing.from_rows(n, rows, rot_tuple, label_tuple), coloring, x_order


# ---------------------------------------------------------------------------
# EdgeColoring
# ---------------------------------------------------------------------------


def serialize_coloring(c: EdgeColoring) -> str:
    out = [f"coloring n={c.n} k={c.k}"]
    out.extend(_serialize_color_lines(c))
    return "\n".join(out) + "\n"


def parse_coloring(text: str) -> EdgeColoring:
    lines = _Lines(text)
    line_no, line = lines.next()
    n, k = _parse_header_fields(line_no, line, "coloring", ["n", "k"])
    coloring = _parse_color_lines(lines, n, k)
    lines.finish()
    return coloring


# ---------------------------------------------------------------------------
# CylindricalLayout
# ---------------------------------------------------------------------------


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
    lines = _Lines(text)
    line_no, line = lines.next()
    p, q = _parse_header_fields(line_no, line, "cylindrical", ["n_inner", "n_outer"])
    n = p + q

    def expect_section(name: str) -> None:
        ln, lv = lines.next()
        if lv != name:
            raise ParseError(ln, f"expected section {name!r}, got {lv!r}")

    def angle_lines(count: int, offset: int, what: str) -> tuple[Fraction, ...]:
        angles: dict[int, Fraction] = {}
        for _ in range(count):
            ln, lv = lines.next()
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

    expect_section("inner:")
    inner = angle_lines(p, 0, "inner")
    expect_section("outer:")
    outer = angle_lines(q, p, "outer")
    expect_section("windings:")
    windings: dict[tuple[int, int], Fraction] = {}
    for _ in range(p * q):
        ln, lv = lines.next()
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
    color = _parse_colors_section(lines, n)
    lines.finish()
    wind = tuple(tuple(windings[(i, p + j)] for j in range(q)) for i in range(p))
    return CylindricalLayout(inner, outer, wind, color)


# ---------------------------------------------------------------------------
# BookLayout
# ---------------------------------------------------------------------------


def serialize_book(layout: BookLayout) -> str:
    n = layout.n
    out = [f"book n={n}"]
    out.append("spine: " + " ".join(str(v) for v in layout.spine))
    for name, page in (("top:", PAGE_TOP), ("bottom:", PAGE_BOTTOM)):
        out.append(f"{name} " + " ".join(e for e, p in zip(_edge_labels(n), layout.pages) if p == page))
    out.append(f"colors: k={layout.color.k}")
    out.extend(_serialize_color_lines(layout.color))
    return "\n".join(out) + "\n"


def parse_book(text: str) -> BookLayout:
    lines = _Lines(text)
    line_no, line = lines.next()
    (n,) = _parse_header_fields(line_no, line, "book", ["n"])
    ln, lv = lines.next()
    if not lv.startswith("spine:"):
        raise ParseError(ln, f"expected 'spine: ...', got {lv!r}")
    spine = tuple(_parse_int(ln, t, "vertex") for t in lv.split()[1:])
    if sorted(spine) != list(range(n)):
        raise ParseError(ln, "spine must be a permutation of 0..n-1")
    pages: dict[Edge, str] = {}
    for name, page in (("top:", PAGE_TOP), ("bottom:", PAGE_BOTTOM)):
        ln, lv = lines.next()
        if lv.split()[0] != name:
            raise ParseError(ln, f"expected section {name!r}, got {lv!r}")
        for tok in lv.split()[1:]:
            e = _parse_edge_token(ln, tok, n)
            if e in pages:
                raise ParseError(ln, f"edge {tok} assigned to two pages")
            pages[e] = page
    missing = [e for e in all_edges(n) if e not in pages]
    if missing:
        raise ParseError(ln, f"edge {missing[0][0]}-{missing[0][1]} has no page")
    color = _parse_colors_section(lines, n)
    lines.finish()
    return BookLayout.from_maps(spine, pages, color)


# ---------------------------------------------------------------------------
# PointDrawing
# ---------------------------------------------------------------------------


def _format_coord(x) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def serialize_points(p: PointDrawing) -> str:
    out = [f"points n={p.n}"]
    for v, (x, y) in enumerate(p.points):
        out.append(f"p {v}: {_format_coord(x)} {_format_coord(y)}")
    out.append(f"colors: k={p.color.k}")
    out.extend(_serialize_color_lines(p.color))
    return "\n".join(out) + "\n"


def _parse_coord(line_no: int, token: str):
    f = parse_fraction(line_no, token)
    return int(f) if f.denominator == 1 else f


def parse_points(text: str) -> PointDrawing:
    lines = _Lines(text)
    line_no, line = lines.next()
    (n,) = _parse_header_fields(line_no, line, "points", ["n"])
    pts: dict[int, tuple] = {}
    for _ in range(n):
        ln, lv = lines.next()
        parts = lv.split()
        if len(parts) != 4 or parts[0] != "p" or not parts[1].endswith(":"):
            raise ParseError(ln, f"expected 'p <v>: <x> <y>', got {lv!r}")
        v = _parse_int(ln, parts[1][:-1], "vertex")
        if not 0 <= v < n:
            raise ParseError(ln, f"point vertex {v} out of range")
        if v in pts:
            raise ParseError(ln, f"duplicate point for vertex {v}")
        pts[v] = (_parse_coord(ln, parts[2]), _parse_coord(ln, parts[3]))
    color = _parse_colors_section(lines, n)
    lines.finish()
    return PointDrawing(tuple(pts[v] for v in range(n)), color)


# ---------------------------------------------------------------------------
# Class files and the instance loader
# ---------------------------------------------------------------------------


def serialize_class_file(drawings: list[Drawing]) -> str:
    out = []
    for d in drawings:
        out.append(f"{d.n};" + ",".join(_crossing_lines(d)))
    return "\n".join(out) + "\n"


def parse_class_file(path: str) -> list[Drawing]:
    with open(path, encoding="ascii") as fh:
        return parse_classes(fh.read())


def parse_classes(text: str) -> list[Drawing]:
    """One drawing per ``n;<crossing pairs>`` line of a class file."""
    drawings = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, rest = line.partition(";")
        if not sep:
            raise ParseError(line_no, "expected 'n;<crossing pairs>'")
        n = _parse_int(line_no, head.strip(), "vertex count")
        rows = [0] * len(_edge_bits(n))
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
    for line_no, line in _Lines(text).items:
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
    """File kind from the header token; class files have ';' records."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
