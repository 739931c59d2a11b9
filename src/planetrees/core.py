"""Combinatorial model of edge-colored simple drawings of K_n.

A drawing is stored purely combinatorially: the set of crossing edge
pairs plus (optionally) the rotation system.  Geometric layout classes
(annulus, book, point set) live in their own modules and compile down
to this representation; every solver consumes only the combinatorial
data.

Edges are plain ``(u, v)`` tuples with ``u < v``; edge sets are
``frozenset`` of such tuples.  All predicates here are pure functions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

Edge = tuple[int, int]
EdgeSet = frozenset[Edge]
CrossingPair = tuple[Edge, Edge]

STATUS_TREE_FOUND = "tree-found"
STATUS_COUNTEREXAMPLE = "counterexample"
STATUS_NOT_APPLICABLE = "not-applicable"


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


def _canonical_pairs(crossings) -> bool:
    """True when ``crossings`` is a frozenset that rebuilding with
    ``crossing_pair(edge(...), edge(...))`` would leave unchanged."""
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


def _canonical_rotation(rot: Iterable[int]) -> tuple[int, ...]:
    """Rotate a circular sequence so that its smallest entry comes first."""
    seq = tuple(rot)
    if not seq:
        return seq
    i = seq.index(min(seq))
    return seq[i:] + seq[:i]


@dataclass(frozen=True)
class Drawing:
    """Simple drawing of K_n given by its crossing pairs and rotations.

    ``crossings`` holds unordered pairs of independent edges that cross
    (at most once each, per simplicity).  ``rotations``, when present,
    gives for each vertex the circular counterclockwise order of the
    other vertices; it is canonicalized to start at the smallest
    neighbor index.  ``vertex_labels`` carries optional role tags such
    as ``inner``/``outer`` for annulus layouts.
    """

    n: int
    crossings: frozenset[CrossingPair]
    rotations: Optional[tuple[tuple[int, ...], ...]] = None
    vertex_labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not _canonical_pairs(self.crossings):
            pairs = frozenset(crossing_pair(edge(*e), edge(*f)) for e, f in self.crossings)
            object.__setattr__(self, "crossings", pairs)
        if self.rotations is not None:
            canon = tuple(_canonical_rotation(r) for r in self.rotations)
            object.__setattr__(self, "rotations", canon)

    def crossing_partners(self) -> dict[Edge, frozenset[Edge]]:
        """Map each edge to the set of edges crossing it."""
        partners: dict[Edge, set[Edge]] = {}
        for e, f in self.crossings:
            partners.setdefault(e, set()).add(f)
            partners.setdefault(f, set()).add(e)
        return {e: frozenset(s) for e, s in partners.items()}


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
    for e, f in sorted(d.crossings):
        for u, v in (e, f):
            if not (0 <= u < v < d.n):
                violations.append(f"edge {u}-{v} out of range for n={d.n}")
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
    """True iff no crossing pair of the drawing lies entirely inside s."""
    for e, f in d.crossings:
        if e in s and f in s:
            return False
    return True


def is_spanning_tree(n: int, s: EdgeSet) -> bool:
    """True iff s has n-1 edges and connects all n vertices."""
    if len(s) != n - 1:
        return False
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in s:
        if not (0 <= u < v < n):
            return False
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def connected_components(n: int, s: Iterable[Edge]) -> list[frozenset[int]]:
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
    index = {v: i for i, v in enumerate(order)}
    keep = set(order)

    def map_edge(e: Edge) -> Edge:
        return edge(index[e[0]], index[e[1]])

    crossings = frozenset(
        crossing_pair(map_edge(e), map_edge(f))
        for e, f in d.crossings
        if set(e) <= keep and set(f) <= keep
    )
    rotations = None
    if d.rotations is not None:
        rotations = tuple(
            tuple(index[w] for w in d.rotations[v] if w in keep) for v in order
        )
    labels = None
    if d.vertex_labels is not None:
        labels = tuple(d.vertex_labels[v] for v in order)
    sub = Drawing(len(order), crossings, rotations, labels)
    sub_coloring = None
    if c is not None:
        mapping = {
            map_edge((u, v)): c.color_of(u, v)
            for u, v in itertools.combinations(sorted(keep), 2)
        }
        sub_coloring = EdgeColoring.from_map(len(order), c.k, mapping)
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
