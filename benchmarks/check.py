"""Independent answer checker for the planetrees benchmark.

Nothing here imports planetrees.  Every check works from the instance
text the program was given and the answer it printed or returned:

* crossing predicates per layout class, computed from the geometry in
  the file (book page and spine interleave, point orientation, annulus
  winding and chord interleave) or, for trusted drawings, read from the
  file's own crossing list;
* union-find for spanning;
* colour rules: one colour for ``construct``, at least one colour
  unused for ``monotone``;
* for exhaustive verification, an own count of plane spanning trees and
  of colourings that no plane tree covers.

Edges are ``(u, v)`` tuples with ``u < v``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable

Edge = tuple[int, int]
Crosser = Callable[[Edge, Edge], bool]


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _edge_token(tok: str) -> Edge:
    u, v = tok.split("-")
    return _edge(int(u), int(v))


def _lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _header_n(line: str) -> int:
    fields = dict(tok.split("=") for tok in line.split()[1:])
    if "n" in fields:
        return int(fields["n"])
    return int(fields["n_inner"]) + int(fields["n_outer"])


def parse_colours(text: str) -> tuple[dict[Edge, int], int]:
    """Edge colours and k from the ``colors: k=<k>`` section of a file."""
    colours: dict[Edge, int] = {}
    k = 0
    for line in _lines(text):
        parts = line.split()
        if parts[0] == "colors:":
            k = int(parts[1].split("=")[1])
        elif parts[0] == "e" and len(parts) == 5 and parts[3] == ":":
            colours[_edge(int(parts[1]), int(parts[2]))] = int(parts[4])
    return colours, k


def parse_instance(text: str) -> tuple[int, Crosser]:
    """Vertex count and crossing predicate of an instance file."""
    lines = _lines(text)
    kind = lines[0].split()[0]
    n = _header_n(lines[0])
    if kind == "book":
        return n, _book_crosser(lines)
    if kind == "points":
        return n, _points_crosser(lines)
    if kind == "cylindrical":
        return n, _annulus_crosser(lines)
    if kind == "drawing":
        pairs = parse_crossing_list(text)
        return n, lambda e, f: frozenset((e, f)) in pairs
    raise ValueError(f"unknown instance kind {kind!r}")


def parse_crossing_list(text: str) -> set[frozenset[Edge]]:
    """Crossing pairs listed in the ``crossings:`` section of a drawing file."""
    pairs = set()
    inside = False
    for line in _lines(text):
        if ":" in line.split()[0]:  # a section head or a keyed line
            inside = line == "crossings:"
            continue
        if inside:
            a, b = line.split()
            pairs.add(frozenset((_edge_token(a), _edge_token(b))))
    return pairs


def _independent(e: Edge, f: Edge) -> bool:
    return len({*e, *f}) == 4


def _interleave(pos: dict[int, int], e: Edge, f: Edge) -> bool:
    """Endpoints of two independent edges alternate along a line or circle."""
    a, b = sorted((pos[e[0]], pos[e[1]]))
    inside = [a < pos[x] < b for x in f]
    return inside[0] != inside[1]


def _book_crosser(lines: list[str]) -> Crosser:
    pos: dict[int, int] = {}
    page: dict[Edge, str] = {}
    for line in lines:
        head, _, rest = line.partition(":")
        if head == "spine":
            pos = {int(v): i for i, v in enumerate(rest.split())}
        elif head in ("top", "bottom"):
            for tok in rest.split():
                page[_edge_token(tok)] = head

    def cross(e: Edge, f: Edge) -> bool:
        return _independent(e, f) and page[e] == page[f] and _interleave(pos, e, f)

    return cross


def _orientation(a, b, c) -> int:
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (det > 0) - (det < 0)


def _points_crosser(lines: list[str]) -> Crosser:
    pts: dict[int, tuple[Fraction, Fraction]] = {}
    for line in lines:
        if line.startswith("p "):
            head, _, rest = line.partition(":")
            x, y = rest.split()
            pts[int(head.split()[1])] = (Fraction(x), Fraction(y))

    def cross(e: Edge, f: Edge) -> bool:
        if not _independent(e, f):
            return False
        a, b = pts[e[0]], pts[e[1]]
        c, d = pts[f[0]], pts[f[1]]
        return (
            _orientation(a, b, c) * _orientation(a, b, d) < 0
            and _orientation(c, d, a) * _orientation(c, d, b) < 0
        )

    return cross


def _annulus_crosser(lines: list[str]) -> Crosser:
    """Annulus layout: angles and windings are rationals in units of pi.

    A side edge from inner vertex u to outer vertex w sweeps the angle
    a_u + t * W_uw for radius parameter t in [0, 1].  Two side edges
    meet where their angular difference is a whole turn (2 in units of
    pi), so they cross once per even integer strictly inside the range
    of that difference.  Chords of one circle cross when their
    endpoints interleave around it; chords never meet side edges.
    """
    p = int(lines[0].split()[1].split("=")[1])
    angle: dict[int, Fraction] = {}
    winding: dict[Edge, Fraction] = {}
    section = None
    for line in lines[1:]:
        if line in ("inner:", "outer:", "windings:"):
            section = line[:-1]
            continue
        if line.startswith("colors:"):
            section = None
            continue
        head, _, value = line.partition(":")
        if section in ("inner", "outer"):
            angle[int(head)] = Fraction(value.strip())
        elif section == "windings":
            u, w = head.split()
            winding[_edge(int(u), int(w))] = Fraction(value.strip())
    n = len(angle)
    inner_pos = {v: i for i, v in enumerate(sorted(range(p), key=angle.__getitem__))}
    outer_pos = {v: i for i, v in enumerate(sorted(range(p, n), key=angle.__getitem__))}

    def is_side(e: Edge) -> bool:
        return e[0] < p <= e[1]

    def cross(e: Edge, f: Edge) -> bool:
        if not _independent(e, f):
            return False
        if is_side(e) and is_side(f):
            start = angle[e[0]] - angle[f[0]]
            end = start + winding[e] - winding[f]
            lo, hi = sorted((start / 2, end / 2))
            # whole numbers k with lo < k < hi
            return math.ceil(hi) - math.floor(lo) - 1 >= 1
        if is_side(e) or is_side(f):
            return False
        if (e[0] < p) != (f[0] < p):
            return False
        pos = inner_pos if e[0] < p else outer_pos
        return _interleave(pos, e, f)

    return cross


def spans_all(n: int, edges: Iterable[Edge]) -> bool:
    """True iff the edges connect vertices 0..n-1 (union-find)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            parts -= 1
    return parts == 1


def tree_problems(
    n: int,
    tree: Iterable[Edge],
    cross: Crosser,
    colours: dict[Edge, int],
    k: int,
    rule: str,
) -> list[str]:
    """Reasons an answer is not a valid tree; empty when it is valid.

    ``rule`` is ``monochromatic`` (one colour) or ``hypochromatic`` (at
    least one of the k colours unused).
    """
    edges = sorted({_edge(u, v) for u, v in tree})
    problems = []
    if any(not 0 <= u < v < n for u, v in edges):
        return [f"edge out of range for n={n}"]
    if len(edges) != n - 1 or not spans_all(n, edges):
        problems.append(f"not a spanning tree: {len(edges)} edges for n={n}")
    for e, f in itertools.combinations(edges, 2):
        if cross(e, f):
            problems.append(f"edges {e} and {f} cross")
            break
    used = {colours[e] for e in edges}
    if rule == "monochromatic" and len(used) > 1:
        problems.append(f"tree uses colours {sorted(used)}")
    if rule == "hypochromatic" and len(used) >= k:
        problems.append(f"tree uses all {k} colours")
    return problems


def parse_report(stdout: str) -> dict[str, str]:
    """``key: value`` lines printed by the command line."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def parse_tree(value: str) -> list[Edge]:
    return [_edge_token(tok) for tok in value.split()]


def plane_tree_masks(n: int, cross: Crosser) -> list[int]:
    """Plane spanning trees of K_n as bitmasks over lexicographic edge ranks."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    conflict = [0] * len(edges)
    for i, j in itertools.combinations(range(len(edges)), 2):
        if cross(edges[i], edges[j]):
            conflict[i] |= 1 << j
            conflict[j] |= 1 << i
    masks = []
    for combo in itertools.combinations(range(len(edges)), n - 1):
        mask = 0
        for i in combo:
            mask |= 1 << i
        if any(conflict[i] & mask for i in combo):
            continue
        if spans_all(n, (edges[i] for i in combo)):
            masks.append(mask)
    return masks


def uncovered_colourings(n: int, masks: list[int]) -> int:
    """Two-colourings, up to swapping colours, with no monochromatic plane tree.

    Colouring index bit i-1 is the colour of the edge of rank i; the
    edge of rank 0 has colour 0.  Each index is one bit of a big
    integer, so "edge i has colour 1" over all colourings is one
    periodic bit pattern, and a tree covers the AND of its edges'
    patterns (colour 1) or of their complements (colour 0).
    """
    m = n * (n - 1) // 2
    total = 1 << (m - 1)
    full = (1 << total) - 1
    planes = [0]
    for bit in range(m - 1):
        # indices with this bit set: runs of 2^bit ones, period 2^(bit+1)
        width = 1 << (bit + 1)
        pattern = ((1 << (1 << bit)) - 1) << (1 << bit)
        while width < total:
            pattern |= pattern << width
            width *= 2
        planes.append(pattern)
    covered = 0
    for mask in masks:
        ones = full
        zeros = full
        for i in range(m):
            if mask >> i & 1:
                ones &= planes[i]
                zeros &= ~planes[i]
        covered |= ones | (zeros & full)
        if covered == full:
            break
    return total - bin(covered).count("1")
