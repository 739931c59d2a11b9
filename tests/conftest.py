"""Shared builders for small reference drawings."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from planetrees.book import PAGE_BOTTOM, PAGE_TOP, BookLayout
from planetrees.core import Drawing, EdgeColoring, SolveReport, all_edges, edge, edge_index, is_spanning_tree
from planetrees.cylindrical import TURN, CylindricalLayout, NotSimpleError, side_crossings
from planetrees.formats import ParseError
from planetrees.generators import GenerationError, gen_coloring
from planetrees.search import enumerate_spanning_trees, find_plane_tree
from planetrees.straightline import PointDrawing, orient


def one_crossing_k4() -> Drawing:
    """K_4 drawn with the single crossing (0,2) x (1,3)."""
    return Drawing(4, frozenset({((0, 2), (1, 3))}))


def plain_drawing(n: int, crossings=()) -> Drawing:
    return Drawing(n, frozenset(crossings))


def uniform_coloring(n: int, color: int = 0, k: int = 2) -> EdgeColoring:
    m = n * (n - 1) // 2
    return EdgeColoring(n, k, tuple(color for _ in range(m)))


def coloring_from(n: int, k: int, mapping: dict) -> EdgeColoring:
    full = {edge(u, v): mapping[edge(u, v)] for u, v in all_edges(n)}
    return EdgeColoring.from_map(n, k, full)


def canonical_pairs(crossings) -> bool:
    """True when ``crossings`` is a frozenset that rebuilding with
    ``crossing_pair(edge(...), edge(...))`` would leave unchanged (the
    pair check the ``Drawing`` constructor skipped for compiled input
    while it stored pairs)."""
    if type(crossings) is not frozenset:
        return False
    try:
        for p in crossings:
            e, f = p
            u, v = e
            x, y = f
            if not (u < v and x < y and (u < x or u == x and v <= y)):
                return False
            if type(p) is not tuple or type(e) is not tuple or type(f) is not tuple:
                return False
    except (TypeError, ValueError):
        return False
    return True


def convex_interleaving_crossings(order: list[int]) -> frozenset:
    """Independent oracle for convex-position crossings.

    In convex position, two independent edges cross exactly when their
    endpoints alternate around the hull, so every 4-subset contributes
    the pair of diagonals of its quadrilateral.
    """
    pos = {v: i for i, v in enumerate(order)}
    crossings = set()
    for quad in itertools.combinations(sorted(order, key=lambda v: pos[v]), 4):
        a, b, c, d = quad  # in hull order
        e, f = edge(a, c), edge(b, d)
        crossings.add((e, f) if e <= f else (f, e))
    return frozenset(crossings)


def fan_layout(p: int, q: int, color: EdgeColoring) -> CylindricalLayout:
    """Evenly spaced circles with minimal windings (always simple)."""
    inner = tuple(Fraction(2 * i, p) for i in range(p))
    outer = tuple(Fraction(2 * j, q) + Fraction(1, 2 * q) for j in range(q))
    windings = tuple(
        tuple((outer[j] - inner[i]) % 2 for j in range(q)) for i in range(p)
    )
    return CylindricalLayout(inner, outer, windings, color)


def winding_of(layout: CylindricalLayout, e) -> Fraction:
    u, w = e
    return layout.windings[u][w - layout.n_inner]


def side_start(layout: CylindricalLayout, e) -> Fraction:
    return layout.inner_angles[e[0]]


def _integers_strictly_between(x: Fraction, y: Fraction) -> int:
    lo, hi = (x, y) if x <= y else (y, x)
    return max(0, math.ceil(hi) - math.floor(lo) - 1)


def side_crossing_count(layout: CylindricalLayout, e, f) -> int:
    """Number of interior meetings of two side-edge spirals.

    The per-pair rational reference for the count; compile_layout
    evaluates the same formula in integer ticks over a common
    denominator.
    """
    a0 = side_start(layout, e) - side_start(layout, f)
    a1 = (side_start(layout, e) + winding_of(layout, e)) - (
        side_start(layout, f) + winding_of(layout, f)
    )
    return _integers_strictly_between(a0 / TURN, a1 / TURN)


def reference_layout_errors(inner_angles, outer_angles, windings, color) -> None:
    """The rational checks of ``CylindricalLayout`` before they moved to
    integer ticks: raise the ValueError that a layout of these fields
    raises, or nothing."""
    p, q = len(inner_angles), len(outer_angles)
    if p + q < 2:
        raise ValueError("layout needs at least 2 vertices")
    for angles, side in ((inner_angles, "inner"), (outer_angles, "outer")):
        for a in angles:
            if not 0 <= a < TURN:
                raise ValueError(f"{side} angle {a} outside [0, 2) pi")
        if any(angles[i] >= angles[i + 1] for i in range(len(angles) - 1)):
            raise ValueError(f"{side} angles must be strictly increasing")
    if len(windings) != p or any(len(row) != q for row in windings):
        raise ValueError(f"windings must have shape {p}x{q}")
    for i in range(p):
        for j in range(q):
            diff = outer_angles[j] - inner_angles[i]
            if (windings[i][j] - diff) % TURN != 0:
                raise ValueError(
                    f"winding of side edge {i}-{p + j} is not congruent to the "
                    f"angle difference modulo a full turn"
                )
    if color.n != p + q:
        raise ValueError("coloring size does not match vertex count")


def reference_gen_cylindrical(n_inner: int, n_outer: int, seed: int, k: int = 2) -> CylindricalLayout:
    """The annulus generator as it was with rational candidates: each
    candidate is a layout of ``Fraction`` angles and windings, kept when
    compiling it would find no side pair that breaks simplicity."""
    n = n_inner + n_outer
    if n < 2:
        raise ValueError("need at least 2 vertices in total")
    rng = random.Random(f"cylindrical:{n_inner}:{n_outer}:{seed}")
    resolution = max(8 * n * n, 64)
    color = gen_coloring(n, k, seed)
    max_resamples, wrap_prob = 64, 0.15
    for attempt in range(max_resamples):
        inner = tuple(Fraction(2 * t, resolution) for t in sorted(rng.sample(range(resolution), n_inner)))
        outer = tuple(Fraction(2 * t, resolution) for t in sorted(rng.sample(range(resolution), n_outer)))
        p_wrap = wrap_prob * max(0.0, 1.0 - attempt / max(1, max_resamples // 2))
        windings = []
        for i in range(n_inner):
            row = []
            for j in range(n_outer):
                base = (outer[j] - inner[i]) % TURN
                if rng.random() < p_wrap:
                    base += TURN if rng.random() < 0.5 else -TURN
                row.append(base)
            windings.append(tuple(row))
        layout = CylindricalLayout(inner, outer, tuple(windings), color)
        den, starts, _, ticks = layout.ticks  # the side-pair scan of compile_layout
        sides = [((u, w), a, a + t) for u, a in enumerate(starts) for w, t in enumerate(ticks[u], n_inner)]
        try:
            side_crossings(sides, 2 * den)
        except NotSimpleError:
            continue
        reference_layout_errors(inner, outer, windings, color)
        return layout
    raise AssertionError(f"no simple layout within {max_resamples} attempts")


# The writers and the point generator as they were before the per-n
# edge-label tables and the direction test; tests/test_writer_tables.py
# compares the package's output with these byte for byte.


def reference_color_lines(c: EdgeColoring) -> list[str]:
    return [f"e {u} {v} : {c.color_of(u, v)}" for u, v in all_edges(c.n)]


def reference_serialize_drawing(d: Drawing, coloring=None, x_order=None) -> str:
    out = [f"drawing n={d.n}", "crossings:"]
    for e, f in sorted(d.crossings):
        out.append(f"{e[0]}-{e[1]} {f[0]}-{f[1]}")
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
        out.extend(reference_color_lines(coloring))
    return "\n".join(out) + "\n"


def reference_book_page_lines(layout) -> list[str]:
    """The ``top:`` and ``bottom:`` lines of a book file."""
    n = layout.n
    top = [e for e in all_edges(n) if layout.page_of(e) == PAGE_TOP]
    bottom = [e for e in all_edges(n) if layout.page_of(e) == PAGE_BOTTOM]
    return ["top: " + " ".join(f"{u}-{v}" for u, v in top), "bottom: " + " ".join(f"{u}-{v}" for u, v in bottom)]


def reference_serialize_class_file(drawings) -> str:
    out = []
    for d in drawings:
        pairs = ",".join(f"{e[0]}-{e[1]} {f[0]}-{f[1]}" for e, f in sorted(d.crossings))
        out.append(f"{d.n};{pairs}")
    return "\n".join(out) + "\n"


def reference_gen_points(n: int, seed: int, k: int = 2, max_resamples: int = 2000):
    """The point generator with one orientation test per pair of placed points."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    rng = random.Random(f"points:{n}:{seed}")
    grid = max(4 * n * n, 64)
    points: list[tuple[int, int]] = []
    attempts = 0
    while len(points) < n:
        attempts += 1
        if attempts > max_resamples:
            raise GenerationError(
                f"no general-position point set within {max_resamples} attempts "
                f"(n={n}, seed={seed})"
            )
        cand = (rng.randrange(grid), rng.randrange(grid))
        if any(cand[0] == p[0] for p in points):
            continue
        if any(
            orient(points[i], points[j], cand) == 0
            for i in range(len(points))
            for j in range(i + 1, len(points))
        ):
            continue
        points.append(cand)
    return PointDrawing(tuple(points), gen_coloring(n, k, seed))


# The disconnected-class fallback as it was before the annulus solver
# built its side-edge tree directly, with the helpers only it used.


def connected_components(n: int, s) -> list[frozenset[int]]:
    """Connected components of (V=0..n-1, s), sorted by smallest member."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in s:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, set[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def color_class_components(n: int, c: EdgeColoring, color: int) -> list[frozenset[int]]:
    """Components of the subgraph formed by one color class."""
    if not 0 <= color < c.k:
        raise ValueError(f"color {color} out of range 0..{c.k - 1}")
    return connected_components(n, c.class_edges(color))


def merge_colors(c: EdgeColoring, keep: int) -> EdgeColoring:
    """Collapse to two colors: class 0 is the kept class, 1 the rest."""
    if not 0 <= keep < c.k:
        raise ValueError(f"color {keep} out of range 0..{c.k - 1}")
    return EdgeColoring(c.n, 2, tuple(0 if col == keep else 1 for col in c.colors))


def nonspanning_fallback(d: Drawing, c: EdgeColoring) -> SolveReport:
    """Plane spanning tree avoiding a disconnected color class, by search;
    not-applicable when every class is spanning."""
    bad = next((col for col in range(c.k) if len(color_class_components(d.n, c, col)) > 1), None)
    if bad is None:
        return SolveReport(status="not-applicable", witness={"reason": "every color class is spanning"})
    report = find_plane_tree(d, c, mode="avoid", color=bad)
    if report.status != "tree-found":
        return SolveReport(
            status="counterexample",
            witness={"reason": "no plane spanning tree avoids a non-spanning color class", "color": bad, "n": d.n},
        )
    return report


# The crossing index as it was before the conflict rows became a
# drawing's one stored index: rows built from the pair set, the
# orientation-table point compiler, the pair-sorting crossing writer and
# the plane-tree scan without the colour-region prefilter.
# tests/test_conflict_rows.py and tests/test_search_prefilter.py compare
# the package with these.


def reference_rows(n: int, pairs) -> tuple[int, ...]:
    """One crossing bitmask per edge rank, built from crossing pairs."""
    rank = {e: i for i, e in enumerate(all_edges(n))}
    rows = [0] * len(rank)
    for e, f in pairs:
        rows[rank[e]] |= 1 << rank[f]
        rows[rank[f]] |= 1 << rank[e]
    return tuple(rows)


def reference_orientation_compile(p: PointDrawing) -> Drawing:
    """compile_points over the orientation table of all triples: each
    4-subset a<b<c<d crosses as ab|cd, ac|bd or ad|bc by the signs of
    its four triples, and each rotation ranks a point by the signs of
    the triples through the vertex."""
    points, n = p.points, p.n
    if len({x for x, _ in points}) != n:
        raise ValueError("duplicate x-coordinate among points")
    o = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in itertools.combinations(range(n), 3):
        s = orient(points[i], points[j], points[k])
        if s == 0:
            raise ValueError(f"collinear points {i}, {j}, {k}")
        o[i][j][k] = o[j][k][i] = o[k][i][j] = s
        o[i][k][j] = o[k][j][i] = o[j][i][k] = -s
    crossings = []
    for a, b, c, d in itertools.combinations(range(n), 4):
        abc, abd, acd, bcd = o[a][b][c], o[a][b][d], o[a][c][d], o[b][c][d]
        if abc != abd and acd != bcd:
            crossings.append(((a, b), (c, d)))
        elif abc == acd and abd == bcd:
            crossings.append(((a, c), (b, d)))
        elif abd != acd and abc != bcd:
            crossings.append(((a, d), (b, c)))
    rotations = []
    for v in range(n):
        x, y = points[v]
        halves = ([], [])
        for w, (wx, wy) in enumerate(points):
            if w != v:
                halves[0 if wy > y or (wy == y and wx > x) else 1].append(w)
        rot = []
        for half in halves:
            ranked = [0] * len(half)
            for w in half:
                ranked[(len(half) - 1 - sum(o[v][w][u] for u in half)) // 2] = w
            rot += ranked
        rotations.append(tuple(rot))
    rank = {v: r for r, v in enumerate(sorted(range(n), key=lambda v: points[v][0]))}
    return Drawing(n, frozenset(crossings), tuple(rotations), tuple(f"x:{rank[v]}" for v in range(n)))


def reference_crossing_lines(d: Drawing) -> list[str]:
    """``u-v w-x`` per crossing pair, sorted by the key rank(e)*m + rank(f)."""
    table = all_edges(d.n)
    rank, m = {e: i for i, e in enumerate(table)}, len(table)
    keys = sorted(rank[e] * m + rank[f] for e, f in d.crossings)
    return [f"{table[k // m][0]}-{table[k // m][1]} {table[k % m][0]}-{table[k % m][1]}" for k in keys]


def reference_find_plane_tree(d: Drawing, c: EdgeColoring, mode: str = "monochromatic", color=None) -> SolveReport:
    """find_plane_tree with its per-tree predicate over every tree in
    Prüfer order, and no colour-region prefilter (n <= 10)."""
    n, k = d.n, c.k
    rows = reference_rows(n, d.crossings)
    class_masks = [0] * k
    for i, col in enumerate(c.colors):
        class_masks[col] |= 1 << i

    def satisfies(mask):
        if mode == "monochromatic":
            for col in [color] if color is not None else range(k):
                if mask & ~class_masks[col] == 0:
                    return frozenset(range(k)) - {col}
            return None
        if mode == "avoid":
            return frozenset({color}) if mask & class_masks[color] == 0 else None
        used = {col for col, cm in enumerate(class_masks) if mask & cm}
        return frozenset(range(k)) - used if len(used) < k else None

    for tree in enumerate_spanning_trees(n):
        mask = sum(1 << edge_index(n, e) for e in tree)
        avoided = satisfies(mask)
        if avoided is None or any(rows[i] & mask for i in range(len(rows)) if mask >> i & 1):
            continue
        plane = not any(e in tree and f in tree for e, f in d.crossings)
        checks = (("plane", plane), ("spanning-tree", is_spanning_tree(n, tree)))
        return SolveReport("tree-found", frozenset(tree), avoided, checks, {"mode": mode, "color": color})
    witness = {"reason": "exhaustive scan found no plane spanning tree for the predicate",
               "mode": mode, "color": color, "n": n}
    return SolveReport("counterexample", witness=witness)


# ---------------------------------------------------------------------------
# The readers as they were while every format went through a ``_Lines``
# token stream (one method call per line, colourings through a dict and
# ``EdgeColoring.from_map``).  tests/test_reader_reference.py compares
# the one-pass readers of planetrees.formats with these.
# ---------------------------------------------------------------------------


class _ReferenceLines:
    """Token stream over non-blank, comment-stripped lines."""

    def __init__(self, text: str):
        self.items: list[tuple[int, str]] = []
        for i, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                self.items.append((i, line))
        self.pos = 0

    def next(self) -> tuple[int, str]:
        if self.pos >= len(self.items):
            last = self.items[-1][0] if self.items else 0
            raise ParseError(last + 1, "unexpected end of input")
        self.pos += 1
        return self.items[self.pos - 1]

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.items)

    def finish(self) -> None:
        if not self.exhausted:
            line_no, line = self.next()
            raise ParseError(line_no, f"unexpected trailing line {line!r}")


def _ref_int(line_no: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"expected {what}, got {token!r}") from None


def _ref_header(line_no: int, line: str, kind: str, fields: list[str]) -> list[int]:
    parts = line.split()
    if not parts or parts[0] != kind:
        raise ParseError(line_no, f"expected {kind!r} header, got {line!r}")
    if len(parts) != len(fields) + 1:
        raise ParseError(line_no, f"{kind} header needs fields {fields}")
    values = []
    for part, name in zip(parts[1:], fields):
        if not part.startswith(name + "="):
            raise ParseError(line_no, f"expected {name}=<int>, got {part!r}")
        values.append(_ref_int(line_no, part[len(name) + 1 :], f"{name} value"))
    return values


def _ref_edge_token(line_no: int, token: str, n: int):
    parts = token.split("-")
    if len(parts) != 2:
        raise ParseError(line_no, f"expected edge token u-v, got {token!r}")
    u = _ref_int(line_no, parts[0], "vertex")
    v = _ref_int(line_no, parts[1], "vertex")
    if u == v or not (0 <= u < n and 0 <= v < n):
        raise ParseError(line_no, f"edge {token!r} out of range for n={n}")
    return edge(u, v)


def _ref_add_crossing(rows: list[int], line_no: int, text: str, n: int, adjacent_ok: bool = True) -> None:
    toks = text.split()
    if len(toks) != 2:
        raise ParseError(line_no, f"expected crossing pair 'u-v w-x', got {text!r}")
    i, j = (edge_index(n, _ref_edge_token(line_no, t, n)) for t in toks)
    if not adjacent_ok and set(all_edges(n)[i]) & set(all_edges(n)[j]):
        raise ParseError(line_no, f"adjacent edges cannot cross: {text!r}")
    if rows[i] >> j & 1:
        raise ParseError(line_no, f"duplicate crossing pair {text!r}")
    rows[i] |= 1 << j
    rows[j] |= 1 << i


def _ref_fraction(line_no: int, token: str) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_no, f"expected rational p/q, got {token!r}") from None


def _ref_color_lines(lines: _ReferenceLines, n: int, k: int) -> EdgeColoring:
    mapping = {}
    m = n * (n - 1) // 2
    while len(mapping) < m:
        line_no, line = lines.next()
        parts = line.split()
        if len(parts) != 5 or parts[0] != "e" or parts[3] != ":":
            raise ParseError(line_no, f"expected color line 'e u v : c', got {line!r}")
        u = _ref_int(line_no, parts[1], "vertex")
        v = _ref_int(line_no, parts[2], "vertex")
        c = _ref_int(line_no, parts[4], "color")
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ParseError(line_no, f"edge {u} {v} out of range for n={n}")
        e = edge(u, v)
        if e in mapping:
            raise ParseError(line_no, f"duplicate color for edge {e[0]}-{e[1]}")
        if not 0 <= c < k:
            raise ParseError(line_no, f"color index {c} out of range for k={k}")
        mapping[e] = c
    return EdgeColoring.from_map(n, k, mapping)


def _ref_colors_section(lines: _ReferenceLines, n: int) -> EdgeColoring:
    line_no, line = lines.next()
    parts = line.split()
    if len(parts) != 2 or parts[0] != "colors:" or not parts[1].startswith("k="):
        raise ParseError(line_no, f"expected 'colors: k=<k>', got {line!r}")
    return _ref_color_lines(lines, n, _ref_int(line_no, parts[1][2:], "k value"))


def reference_parse_drawing(text: str):
    """parse_drawing before duplicates were refused: a later rotation or
    label line, ``xorder`` line or ``colors`` section replaces the
    earlier one, and a missing rotation or label is reported on line 0."""
    lines = _ReferenceLines(text)
    line_no, line = lines.next()
    (n,) = _ref_header(line_no, line, "drawing", ["n"])
    rows = [0] * (n * (n - 1) // 2)
    rotations = labels = x_order = coloring = section = None
    while not lines.exhausted:
        line_no, line = lines.next()
        toks = line.split()
        head = toks[0]
        if head == "crossings:":
            section = "crossings"
        elif head == "rotations:":
            section, rotations = "rotations", [None] * n
        elif head == "labels:":
            section, labels = "labels", {}
        elif head == "xorder:":
            x_order = tuple(_ref_int(line_no, t, "vertex") for t in toks[1:])
            if sorted(x_order) != list(range(n)):
                raise ParseError(line_no, "xorder must be a permutation of the vertices")
            section = None
        elif head == "colors:":
            lines.pos -= 1
            coloring, section = _ref_colors_section(lines, n), None
        elif section == "crossings":
            _ref_add_crossing(rows, line_no, line, n)
        elif section == "rotations":
            v_tok, _, rest = line.partition(":")
            v = _ref_int(line_no, v_tok.strip(), "vertex")
            if not 0 <= v < n:
                raise ParseError(line_no, f"rotation vertex {v} out of range")
            rotations[v] = tuple(_ref_int(line_no, t, "vertex") for t in rest.split())
        elif section == "labels":
            v_tok, _, rest = line.partition(":")
            labels[_ref_int(line_no, v_tok.strip(), "vertex")] = rest.strip()
        else:
            raise ParseError(line_no, f"unexpected line {line!r}")
    if rotations is not None:
        missing = [v for v, r in enumerate(rotations) if r is None]
        if missing:
            raise ParseError(0, f"rotations section missing vertex {missing[0]}")
        rotations = tuple(rotations)
    if labels is not None:
        if sorted(labels) != list(range(n)):
            raise ParseError(0, "labels section must cover every vertex")
        labels = tuple(labels[v] for v in range(n))
    return Drawing.from_rows(n, rows, rotations, labels), coloring, x_order


def reference_parse_coloring(text: str) -> EdgeColoring:
    lines = _ReferenceLines(text)
    line_no, line = lines.next()
    n, k = _ref_header(line_no, line, "coloring", ["n", "k"])
    coloring = _ref_color_lines(lines, n, k)
    lines.finish()
    return coloring


def reference_parse_cylindrical(text: str) -> CylindricalLayout:
    lines = _ReferenceLines(text)
    line_no, line = lines.next()
    p, q = _ref_header(line_no, line, "cylindrical", ["n_inner", "n_outer"])
    n = p + q

    def expect_section(name: str) -> None:
        ln, lv = lines.next()
        if lv != name:
            raise ParseError(ln, f"expected section {name!r}, got {lv!r}")

    def angle_lines(count: int, offset: int, what: str):
        angles = {}
        for _ in range(count):
            ln, lv = lines.next()
            v_tok, sep, rest = lv.partition(":")
            if not sep:
                raise ParseError(ln, f"expected '<vertex>: <angle>', got {lv!r}")
            v = _ref_int(ln, v_tok.strip(), "vertex")
            if not offset <= v < offset + count:
                raise ParseError(ln, f"{what} vertex {v} out of range")
            if v in angles:
                raise ParseError(ln, f"duplicate angle for vertex {v}")
            angles[v] = _ref_fraction(ln, rest.strip())
        return tuple(angles[v] for v in range(offset, offset + count))

    expect_section("inner:")
    inner = angle_lines(p, 0, "inner")
    expect_section("outer:")
    outer = angle_lines(q, p, "outer")
    expect_section("windings:")
    windings = {}
    for _ in range(p * q):
        ln, lv = lines.next()
        head, sep, rest = lv.partition(":")
        toks = head.split()
        if not sep or len(toks) != 2:
            raise ParseError(ln, f"expected '<u> <w>: <winding>', got {lv!r}")
        u = _ref_int(ln, toks[0], "inner vertex")
        w = _ref_int(ln, toks[1], "outer vertex")
        if not (0 <= u < p and p <= w < n):
            raise ParseError(ln, f"winding pair {u} {w} out of range")
        if (u, w) in windings:
            raise ParseError(ln, f"duplicate winding for {u} {w}")
        windings[(u, w)] = _ref_fraction(ln, rest.strip())
    color = _ref_colors_section(lines, n)
    lines.finish()
    wind = tuple(tuple(windings[(i, p + j)] for j in range(q)) for i in range(p))
    return CylindricalLayout(inner, outer, wind, color)


def reference_parse_book(text: str) -> BookLayout:
    lines = _ReferenceLines(text)
    line_no, line = lines.next()
    (n,) = _ref_header(line_no, line, "book", ["n"])
    ln, lv = lines.next()
    if not lv.startswith("spine:"):
        raise ParseError(ln, f"expected 'spine: ...', got {lv!r}")
    spine = tuple(_ref_int(ln, t, "vertex") for t in lv.split()[1:])
    if sorted(spine) != list(range(n)):
        raise ParseError(ln, "spine must be a permutation of 0..n-1")
    pages = {}
    for name, page in (("top:", PAGE_TOP), ("bottom:", PAGE_BOTTOM)):
        ln, lv = lines.next()
        if lv.split()[0] != name:
            raise ParseError(ln, f"expected section {name!r}, got {lv!r}")
        for tok in lv.split()[1:]:
            e = _ref_edge_token(ln, tok, n)
            if e in pages:
                raise ParseError(ln, f"edge {tok} assigned to two pages")
            pages[e] = page
    missing = [e for e in all_edges(n) if e not in pages]
    if missing:
        raise ParseError(ln, f"edge {missing[0][0]}-{missing[0][1]} has no page")
    color = _ref_colors_section(lines, n)
    lines.finish()
    return BookLayout.from_maps(spine, pages, color)


def reference_parse_points(text: str) -> PointDrawing:
    lines = _ReferenceLines(text)
    line_no, line = lines.next()
    (n,) = _ref_header(line_no, line, "points", ["n"])
    pts = {}
    for _ in range(n):
        ln, lv = lines.next()
        parts = lv.split()
        if len(parts) != 4 or parts[0] != "p" or not parts[1].endswith(":"):
            raise ParseError(ln, f"expected 'p <v>: <x> <y>', got {lv!r}")
        v = _ref_int(ln, parts[1][:-1], "vertex")
        if not 0 <= v < n:
            raise ParseError(ln, f"point vertex {v} out of range")
        if v in pts:
            raise ParseError(ln, f"duplicate point for vertex {v}")
        coords = [_ref_fraction(ln, t) for t in parts[2:]]
        pts[v] = tuple(int(f) if f.denominator == 1 else f for f in coords)
    color = _ref_colors_section(lines, n)
    lines.finish()
    return PointDrawing(tuple(pts[v] for v in range(n)), color)


def reference_parse_classes(text: str) -> list[Drawing]:
    drawings = []
    for line_no, line in _ReferenceLines(text).items:
        head, sep, rest = line.partition(";")
        if not sep:
            raise ParseError(line_no, "expected 'n;<crossing pairs>'")
        n = _ref_int(line_no, head.strip(), "vertex count")
        rows = [0] * (n * (n - 1) // 2)
        rest = rest.strip()
        for chunk in rest.split(",") if rest else []:
            _ref_add_crossing(rows, line_no, chunk, n, adjacent_ok=False)
        drawings.append(Drawing.from_rows(n, rows))
    return drawings


def reference_parse_tree(text: str, n: int) -> frozenset:
    edges = set()
    for line_no, line in _ReferenceLines(text).items:
        key, sep, rest = line.partition(":")
        if sep:
            if key.strip() != "tree":
                continue
            line = rest
        edges.update(_ref_edge_token(line_no, tok, n) for tok in line.split())
    return frozenset(edges)


def reference_detect_kind(text: str) -> str:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()[0]
        if head in ("drawing", "coloring", "cylindrical", "book", "points"):
            return head
        if ";" in line and line.split(";")[0].strip().isdigit():
            return "class"
        raise ParseError(line_no, f"unrecognized file header {line[:40]!r}")
    raise ParseError(1, "empty file")


def _reference_ranks(n: int) -> dict:
    return {e: i for i, e in enumerate(all_edges(n))}


def reference_edge_mask(n: int, edges) -> int:
    """``core.edge_mask`` through a rank dict: what is not a key is skipped."""
    rank = _reference_ranks(n)
    return sum(1 << rank[e] for e in set(edges) if e in rank)


def reference_is_plane(d: Drawing, s) -> bool:
    """``core.is_plane`` through a rank dict, pair by pair against the rows."""
    rank, rows = _reference_ranks(d.n), d.conflicts
    ranks = [rank[e] for e in s if e in rank]
    return not any(rows[i] >> j & 1 for i, j in itertools.combinations_with_replacement(ranks, 2))


def reference_extract_spanning_tree(n: int, s) -> frozenset:
    """``core.extract_spanning_tree`` as a breadth-first search over adjacency
    lists: neighbours sorted, a FIFO queue, ValueError when not spanning."""
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in s:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()
    seen = {0}
    queue = [0]
    tree = set()
    while queue:
        x = queue.pop(0)
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                tree.add(edge(x, y))
                queue.append(y)
    if len(seen) != n:
        raise ValueError("subgraph is not spanning-connected")
    return frozenset(tree)
