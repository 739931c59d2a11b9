"""Combinatorial model of edge-colored simple drawings of K_n.

A drawing is stored purely combinatorially: its crossings plus
(optionally) the rotation system.  Geometric layout classes (annulus,
book, point set) live in their own modules and compile down to this
representation; every solver consumes only the combinatorial data.

Edges are plain ``(u, v)`` tuples with ``u < v``; edge sets are
``frozenset`` of such tuples.  A drawing stores one index of its
crossings, ``Drawing.conflicts``: for each edge rank (the lexicographic
order of ``edge_table``) the bitmask of the edges crossing it, written
directly by the parser and the layout compilers; no parse, solve or
verify path builds the crossing pairs.  The checked constructor, which
writes the rows from crossing pairs, refuses an edge outside K_n.  The
bit of the edge of rank r is ``1 << r``, computed where it is used; no
table holds them.  An edge set is plane when no member's row meets the
set's own mask.  The same module holds the one peel step
(``peel_candidate``) with its re-attachment (``reattach``) and the one
output check (``certify``) the solvers share; its ``is_plane`` tests
tree edges pair by pair against the rows, never through
``mask_is_plane``, the searches' test.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

Edge = tuple[int, int]
EdgeSet = frozenset[Edge]
CrossingPair = tuple[Edge, Edge]

STATUS_TREE_FOUND = "tree-found"
STATUS_COUNTEREXAMPLE = "counterexample"


def edge(u: int, v: int) -> Edge:
    """Canonical edge with endpoints in increasing order."""
    if u == v:
        raise ValueError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


@functools.lru_cache(maxsize=64)
def edge_table(n: int) -> tuple[Edge, ...]:
    """All C(n,2) edges of K_n in lexicographic order, built once per n.

    Solvers put these very tuples into the trees they return, so the
    edges of many answers share one copy.
    """
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


@functools.lru_cache(maxsize=64)
def _edge_ranks(n: int) -> dict[Edge, int]:
    return {e: i for i, e in enumerate(edge_table(n))}


def all_edges(n: int) -> list[Edge]:
    """All C(n,2) edges of K_n in lexicographic order."""
    return list(edge_table(n))


def edge_index(n: int, e: Edge) -> int:
    """Rank of an edge in the lexicographic order of ``all_edges(n)``."""
    u, v = e
    # u*(n-1) - u*(u+1)/2 edges precede block u; then offset within it.
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def crossing_pair(e: Edge, f: Edge) -> CrossingPair:
    """Canonical (lexicographically sorted) unordered pair of edges."""
    return (e, f) if e <= f else (f, e)


def row_pairs(rows: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Rank pairs (r, s), r <= s, of the set bits s of each row r, sorted."""
    for r, row in enumerate(rows):
        row >>= r
        while row:
            low = row & -row
            yield r, r + low.bit_length() - 1
            row ^= low


def _canonical_rotations(rotations) -> Optional[tuple[tuple[int, ...], ...]]:
    """Each circular sequence rotated so that its smallest entry comes first."""
    if rotations is None:
        return None
    seqs = [tuple(rot) for rot in rotations]
    return tuple(seq[seq.index(min(seq)):] + seq[: seq.index(min(seq))] if seq else seq for seq in seqs)


def _edge_count(n: int) -> int:
    """C(n, 2), refusing a negative n as the parsers do (n = 0 is left to
    ``validate_drawing``)."""
    if n < 0:
        raise ValueError(f"n={n} is negative")
    return n * (n - 1) // 2


@dataclass(frozen=True, init=False)
class Drawing:
    """Simple drawing of K_n: its crossings, rotations and vertex labels.

    The one stored index is ``conflicts``, one crossing bitmask per edge
    rank, written by the checked constructor from crossing pairs or
    taken by ``from_rows``.  The checked constructor refuses a pair with
    an edge outside K_n (ValueError naming the edge), and both refuse a
    negative n, so every drawing holds its rows.  ``crossings``, the set
    of canonical pairs, is a view built on first use; equality and
    hashing compare it.  Rotations (counterclockwise neighbour orders)
    start at the smallest neighbour.
    """

    n: int
    crossings: frozenset[CrossingPair]
    rotations: Optional[tuple[tuple[int, ...], ...]] = None
    vertex_labels: Optional[tuple[str, ...]] = None

    def __init__(self, n: int, crossings: Iterable[CrossingPair], rotations=None, vertex_labels=None) -> None:
        rows = [0] * _edge_count(n)
        rank = _edge_ranks(n)
        for e, f in [crossing_pair(edge(*e), edge(*f)) for e, f in crossings]:
            if e not in rank or f not in rank:
                u, v = e if e not in rank else f
                raise ValueError(f"crossing edge {u}-{v} out of range for n={n}")
            rows[rank[e]] |= 1 << rank[f]
            rows[rank[f]] |= 1 << rank[e]
        rotations = _canonical_rotations(rotations)
        self.__dict__.update(n=n, conflicts=tuple(rows), rotations=rotations, vertex_labels=vertex_labels)

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[int], rotations=None, vertex_labels=None) -> "Drawing":
        """A drawing from its conflict rows, ``rows[r]`` the crossing
        bitmask of edge rank r; the rows must be symmetric, and there must
        be one per edge of K_n."""
        if len(rows) != _edge_count(n):
            raise ValueError(f"expected {_edge_count(n)} conflict rows for n={n}, got {len(rows)}")
        d = cls.__new__(cls)
        rotations = _canonical_rotations(rotations)
        d.__dict__.update(n=n, conflicts=tuple(rows), rotations=rotations, vertex_labels=vertex_labels)
        return d

    @functools.cached_property
    def crossings(self) -> frozenset[CrossingPair]:  # noqa: F811 - the view behind the field
        return frozenset(self.pairs())

    def pairs(self) -> Iterator[CrossingPair]:
        """The crossing pairs in sorted order, read off the rows."""
        table = edge_table(self.n)
        return ((table[r], table[s]) for r, s in row_pairs(self.conflicts))


@dataclass(frozen=True)
class EdgeColoring:
    """Total map from the edges of K_n to colors 0..k-1.

    The coloring need not be proper; the only requirements are k >= 2
    and totality.  Stored as a flat tuple indexed by ``edge_index``.
    """

    n: int
    k: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.n * (self.n - 1) // 2
        if self.k < 2:
            raise ValueError(f"need at least 2 colors, got k={self.k}")
        if len(self.colors) != m:
            raise ValueError(f"expected {m} edge colors for n={self.n}, got {len(self.colors)}")
        bad = [c for c in self.colors if not 0 <= c < self.k]
        if bad:
            raise ValueError(f"color index {bad[0]} out of range 0..{self.k - 1}")

    @classmethod
    def from_map(cls, n: int, k: int, mapping: dict[Edge, int]) -> "EdgeColoring":
        colors = []
        for e in all_edges(n):
            if e not in mapping:
                raise ValueError(f"coloring is missing edge {e}")
            colors.append(mapping[e])
        return cls(n, k, tuple(colors))

    def color_of(self, u: int, v: int) -> int:
        return self.colors[edge_index(self.n, edge(u, v))]

    def color_of_edge(self, e: Edge) -> int:
        return self.colors[edge_index(self.n, e)]

    def as_map(self) -> dict[Edge, int]:
        return dict(zip(all_edges(self.n), self.colors))

    def class_edges(self, color: int) -> EdgeSet:
        return frozenset(e for e, c in zip(all_edges(self.n), self.colors) if c == color)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solver or search run.

    When ``status`` is ``tree-found`` the tree is spanning, plane in
    the input drawing, and uses none of the colors in
    ``avoided_colors``.  ``checked_invariants`` lists (name, passed)
    pairs for every runtime assertion that was evaluated.  ``witness``
    carries diagnostic data, notably the full trace when a run ends in
    ``counterexample``.
    """

    status: str
    tree: Optional[EdgeSet] = None
    avoided_colors: frozenset[int] = frozenset()
    checked_invariants: tuple[tuple[str, bool], ...] = ()
    witness: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_TREE_FOUND

    @property
    def all_invariants_passed(self) -> bool:
        return all(passed for _, passed in self.checked_invariants)


def validate_drawing(d: Drawing) -> list[str]:
    """Check the structural axioms of a drawing.

    Returns a list of human-readable violations (empty means valid).
    Violations are data, not exceptions: each names the offending edge
    pair or vertex.  Consistency of the rotation system with the
    crossing set is not checked here; layout compilers guarantee it by
    construction.
    """
    violations = []
    if d.n < 1:
        violations.append(f"vertex count {d.n} < 1")
        return violations
    for e, f in d.pairs():
        if set(e) & set(f):
            violations.append(f"adjacent edges cross: {e[0]}-{e[1]} and {f[0]}-{f[1]}")
        if e == f:
            violations.append(f"edge pair with identical edges: {e[0]}-{e[1]}")
    if d.rotations is not None:
        if len(d.rotations) != d.n:
            violations.append(f"rotation table has {len(d.rotations)} rows for n={d.n}")
        else:
            for v, rot in enumerate(d.rotations):
                expected = set(range(d.n)) - {v}
                if set(rot) != expected or len(rot) != len(expected):
                    violations.append(f"rotation of vertex {v} is not a permutation of the others")
    return violations


def is_plane(d: Drawing, s: EdgeSet) -> bool:
    """True iff no two edges of s (nor one edge with itself) cross,
    tested pair by pair against the drawing's rows."""
    rank, rows = _edge_ranks(d.n), d.conflicts
    ranks = [rank[e] for e in s if e in rank]
    return not any(rows[i] >> j & 1 for i, j in itertools.combinations_with_replacement(ranks, 2))


def edge_mask(n: int, edges: Iterable[Edge]) -> int:
    """Bitmask of the edges of K_n in ``edges``; other edges are skipped."""
    rank = _edge_ranks(n)
    mask = 0
    for e in edges:
        if e in rank:
            mask |= 1 << rank[e]
    return mask


def induced_mask(n: int, vs: Iterable[int]) -> int:
    """Bitmask of the edges of K_n with both ends in ``vs``."""
    return edge_mask(n, itertools.combinations(sorted(vs), 2))


def mask_is_plane(mask: int, conflicts: Sequence[int]) -> bool:
    """True iff no edge of the bitmask crosses another edge of it."""
    rest = mask
    while rest:
        low = rest & -rest
        if conflicts[low.bit_length() - 1] & mask:
            return False
        rest ^= low
    return True


def peel_candidate(
    d: Drawing, coloring: EdgeColoring, order: Sequence[int], dist: Callable[[int, int], object]
) -> Optional[tuple[int, dict[int, Edge]]]:
    """First vertex of ``order`` with uncrossed edges of both colors.

    An edge counts as uncrossed when no edge between two vertices of
    ``order`` crosses it.  Returns (v, {color: edge}), where each color's
    edge goes to the w with the least (dist(v, w), w), or None when no
    vertex qualifies.
    """
    rank = _edge_ranks(d.n)
    conflicts, colors = d.conflicts, coloring.colors
    alive = induced_mask(d.n, order)
    for v in order:
        best: dict[int, tuple] = {}
        for w in order:
            if w == v:
                continue
            r = rank[(v, w) if v < w else (w, v)]
            if conflicts[r] & alive:
                continue
            key = (dist(v, w), w)
            c = colors[r]
            if c not in best or key < best[c]:
                best[c] = key
        if len(best) == 2:
            return v, {c: edge(v, w) for c, (_, w) in best.items()}
    return None


def reattach(
    d: Drawing, coloring: EdgeColoring, tree: Iterable[Edge], color: Optional[int],
    removed: Sequence[tuple[int, dict[int, Edge]]], checked: Sequence[tuple[str, bool]], **certify_args,
) -> SolveReport:
    """Add the removed (v, {color: edge}) back in reverse order, each by its
    edge of the tree's ``color`` (a colourless tree takes the smallest colour
    of the first vertex), and ``certify`` the tree with ``certify_args``; a
    vertex without such an edge ends in a counterexample naming it."""
    tree = set(tree)
    for v, byc in reversed(removed):
        if color is None:
            color = min(byc)
        if color not in byc:
            witness = {"reason": "re-attachment impossible", "vertex": v}
            return SolveReport(STATUS_COUNTEREXAMPLE, checked_invariants=tuple(checked), witness=witness)
        tree.add(byc[color])
    return certify(d, coloring, frozenset(tree), checked, **certify_args)


def is_spanning_tree(n: int, s: EdgeSet) -> bool:
    """True iff s has n-1 edges of K_n and connects all n vertices."""
    return len(s) == n - 1 and all(0 <= u < v < n for u, v in s) and spans(n, edge_mask(n, s))


def spans(n: int, mask: int) -> bool:
    """True iff the edges of the bitmask connect all n vertices."""
    table, adjacent = edge_table(n), [0] * n
    while mask:
        low = mask & -mask
        u, v = table[low.bit_length() - 1]
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
        mask ^= low
    seen = frontier = 1
    while frontier:
        low = frontier & -frontier
        new = adjacent[low.bit_length() - 1] & ~seen
        seen |= new
        frontier ^= low | new
    return seen == (1 << n) - 1


def induced_subdrawing(
    d: Drawing, c: Optional[EdgeColoring], vs: Iterable[int]
) -> tuple[Drawing, Optional[EdgeColoring]]:
    """Restrict a drawing (and optionally its coloring) to a vertex subset.

    The vertices are reindexed 0..len(vs)-1 in the order given.
    Crossings keep exactly the pairs with all four endpoints in vs;
    rotations are restricted by deletion.
    """
    order = list(vs)
    if len(order) < 2:
        raise ValueError("induced subdrawing needs at least 2 vertices")
    if len(set(order)) != len(order):
        raise ValueError("duplicate vertices in subset")
    for v in order:
        if not 0 <= v < d.n:
            raise ValueError(f"vertex {v} out of range for n={d.n}")
    k = len(order)
    rank, conflicts = _edge_ranks(d.n), d.conflicts
    # Old rank of every kept edge, in new rank order; rows keep the kept bits, renumbered.
    ranks = [rank[edge(order[i], order[j])] for i, j in edge_table(k)]
    new_bit = {1 << r: 1 << i for i, r in enumerate(ranks)}
    kept = sum(new_bit)
    rows = []
    for r in ranks:
        rest, row = conflicts[r] & kept, 0
        while rest:
            low = rest & -rest
            row |= new_bit[low]
            rest ^= low
        rows.append(row)
    rotations = None
    if d.rotations is not None:
        index = {v: i for i, v in enumerate(order)}
        rotations = tuple(
            tuple(index[w] for w in d.rotations[v] if w in index) for v in order
        )
    labels = None
    if d.vertex_labels is not None:
        labels = tuple(d.vertex_labels[v] for v in order)
    sub = Drawing.from_rows(k, rows, rotations, labels)
    sub_coloring = None
    if c is not None:
        sub_coloring = EdgeColoring(k, c.k, tuple(c.colors[r] for r in ranks))
    return sub, sub_coloring


def tree_colors(c: EdgeColoring, s: EdgeSet) -> set[int]:
    """Distinct colors used by an edge set."""
    return {c.color_of_edge(e) for e in s}


def extract_spanning_tree(n: int, s: EdgeSet) -> EdgeSet:
    """Deterministic spanning tree of a connected spanning subgraph.

    Breadth-first from vertex 0 with neighbors visited in increasing
    order.  Any spanning tree of a plane subgraph is itself plane.
    """
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


def certify(
    d: Drawing,
    coloring: EdgeColoring,
    tree: EdgeSet,
    checked: Iterable[tuple[str, bool]] = (),
    *,
    color: Optional[int] = None,
    avoid: Optional[int] = None,
    extra: Iterable[tuple[str, bool]] = (),
    witness: Optional[dict] = None,
    failure: Optional[dict] = None,
) -> SolveReport:
    """Check a solver's answer and build its report.

    Appends to ``checked``, in this order, ``output-plane`` (through
    ``is_plane``), ``output-spanning-tree``, and one color check:
    ``avoids-removed-color`` when ``avoid`` is given, otherwise
    ``output-monochromatic`` (the tree uses exactly ``color`` when it is
    given, some single color otherwise); then the ``extra`` checks.
    A tree passing all of them is found, with ``witness`` plus, when
    monochromatic, its ``tree_color``; otherwise the report is a
    counterexample carrying the tree and ``failure`` with a ``reason``.
    ``avoided_colors`` is every color the tree leaves unused, or the
    complement of ``color`` when one was demanded.
    """
    used = tree_colors(coloring, tree)
    if avoid is not None:
        color_check = ("avoids-removed-color", avoid not in used)
    elif color is not None:
        color_check = ("output-monochromatic", used == {color})
    else:
        color_check = ("output-monochromatic", len(used) == 1)
    own = (
        ("output-plane", is_plane(d, tree)),
        ("output-spanning-tree", is_spanning_tree(d.n, tree)),
        color_check,
        *extra,
    )
    passed = all(ok for _, ok in own)
    colors = frozenset(range(coloring.k))
    if color is not None:
        avoided = colors - {color}
    else:
        avoided = colors - used if passed else frozenset()
    if passed:
        status, info = STATUS_TREE_FOUND, dict(witness or {})
        if avoid is None:
            info["tree_color"] = next(iter(used))
    else:
        status, info = STATUS_COUNTEREXAMPLE, {"reason": "output predicates failed", **(failure or {})}
    return SolveReport(status, tree, avoided, tuple(checked) + own, info)
