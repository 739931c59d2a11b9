"""2-page book drawings and their monochromatic spanning-tree solver.

In a book drawing all vertices sit on a line (the spine) and every
edge runs entirely above or below it.  Two edges cross exactly when
they are on the same page and their endpoints interleave along the
spine, which makes the compiled crossings purely combinatorial.
For positions a<b<c<d only the pairing (a,c)x(b,d) interleaves, so
the conflict row of the edge at a, c is its page's edges with one end
strictly between them: a few operations on incident-edge masks per
edge.  The annulus compiler reuses this for its chords.

The solver peels off vertices that are incident to uncrossed edges of
both colors, takes the (necessarily monochromatic) residual spine
path, and re-attaches the peeled vertices in reverse order by their
same-colored uncrossed edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    Drawing,
    Edge,
    EdgeColoring,
    SolveReport,
    all_edges,
    edge,
    edge_index,
    edge_mask,
    induced_mask,
    peel_candidate,
    reattach,
)

PAGE_TOP = "top"
PAGE_BOTTOM = "bottom"


@dataclass(frozen=True)
class BookLayout:
    """Spine order, a page per edge, and an edge coloring."""

    spine: tuple[int, ...]
    pages: tuple[str, ...]  # indexed like EdgeColoring.colors
    color: EdgeColoring

    def __post_init__(self) -> None:
        n = len(self.spine)
        if sorted(self.spine) != list(range(n)):
            raise ValueError("spine must be a permutation of 0..n-1")
        m = n * (n - 1) // 2
        if len(self.pages) != m:
            raise ValueError(f"expected {m} page assignments, got {len(self.pages)}")
        for p in self.pages:
            if p not in (PAGE_TOP, PAGE_BOTTOM):
                raise ValueError(f"unknown page {p!r}")
        if self.color.n != n:
            raise ValueError("coloring vertex count does not match spine")

    @property
    def n(self) -> int:
        return len(self.spine)

    @classmethod
    def from_maps(cls, spine: tuple[int, ...], page_map: dict[Edge, str], color: EdgeColoring) -> "BookLayout":
        n = len(spine)
        pages = []
        for e in all_edges(n):
            if e not in page_map:
                raise ValueError(f"page assignment missing edge {e}")
            pages.append(page_map[e])
        return cls(spine, tuple(pages), color)

    def page_of(self, e: Edge) -> str:
        return self.pages[edge_index(self.n, edge(*e))]


def interleaving_rows(n: int, rows: list[int], order: Sequence[int], page_of: Sequence[int]) -> None:
    """Add to the conflict rows of K_n the crossings of the edges drawn on
    one side of a line through the vertices ``order``; ``page_of[r]`` is
    the mask of the edges on edge r's page.  The edge at positions a, c
    crosses the edges of its page with one end strictly between: the XOR
    of the incident masks of the vertices between, less those at a, c."""
    incident = [edge_mask(n, (edge(v, w) for w in range(n) if w != v)) for v in range(n)]  # the edges at each vertex
    prefix = [0]  # prefix[i]: XOR of the incident masks of order[:i]
    for v in order:
        prefix.append(prefix[-1] ^ incident[v])
    for a, x in enumerate(order):
        for c in range(a + 2, len(order)):
            y = order[c]
            r = edge_index(n, (x, y) if x < y else (y, x))
            rows[r] |= (prefix[c] ^ prefix[a + 1]) & ~(incident[x] | incident[y]) & page_of[r]


def compile_book(layout: BookLayout) -> Drawing:
    """Crossing set and rotations of a book drawing.

    Crossings are exactly the same-page spine-interleaving pairs.  The
    rotation of a vertex walks counterclockwise from the spine
    direction: top edges to the right by increasing distance, top
    edges to the left by increasing position, then the mirrored bottom
    blocks.
    """
    n, spine = layout.n, layout.spine
    pos = sorted(range(n), key=spine.__getitem__)  # pos[v]: spine position of v
    page = [[None] * n for _ in range(n)]  # page[u][w] by vertex
    for (u, w), pg in zip(all_edges(n), layout.pages):
        page[u][w] = page[w][u] = pg
    rotations = []
    for v in range(n):
        left, right, row = spine[: pos[v]], spine[pos[v] + 1 :], page[v]
        rotations.append(tuple(
            [w for w in right if row[w] == PAGE_TOP]
            + [w for w in left if row[w] == PAGE_TOP]
            + [w for w in reversed(left) if row[w] == PAGE_BOTTOM]
            + [w for w in reversed(right) if row[w] == PAGE_BOTTOM]
        ))
    top = sum(1 << r for r, pg in enumerate(layout.pages) if pg == PAGE_TOP)
    masks = {PAGE_TOP: top, PAGE_BOTTOM: (1 << len(layout.pages)) - 1 ^ top}
    rows = [0] * len(layout.pages)
    interleaving_rows(n, rows, spine, [masks[pg] for pg in layout.pages])
    return Drawing.from_rows(n, rows, tuple(rotations), tuple(f"spine:{i}" for i in pos))


def solve_book(layout: BookLayout) -> SolveReport:
    """Monochromatic plane spanning tree of a 2-colored book drawing.

    Peels vertices incident to uncrossed edges of both colors (lowest
    spine position first), takes the residual spine path, then
    re-attaches the peeled vertices in inverse order by an uncrossed
    edge matching the tree's color.  The path is uncrossed: no alive
    vertex lies between two spine-consecutive ones.  It is one color: an
    inner path vertex with path edges of two colors would have been
    peeled.  Both are recorded, and ``certify`` checks the answer.
    """
    color = layout.color
    if color.k != 2:
        raise ValueError(f"book solver handles exactly 2 colors, got k={color.k}")
    d = compile_book(layout)
    n = layout.n
    pos = {v: i for i, v in enumerate(layout.spine)}

    alive = list(layout.spine)  # kept in spine order: lowest position first
    removed: list[tuple[int, dict[int, Edge]]] = []
    while True:
        candidate = peel_candidate(d, color, alive, lambda v, w: abs(pos[w] - pos[v]))
        if candidate is None:
            break
        removed.append(candidate)
        alive.remove(candidate[0])

    path_edges = [edge(alive[i], alive[i + 1]) for i in range(len(alive) - 1)]
    alive_mask = induced_mask(n, alive)
    path_colors = {color.color_of_edge(e) for e in path_edges}
    checked = [
        ("residual-path-uncrossed", not any(d.conflicts[edge_index(n, e)] & alive_mask for e in path_edges)),
        ("residual-path-monochromatic", len(path_colors) <= 1),
    ]
    witness = {"removed_vertices": [v for v, _ in removed]}
    return reattach(d, color, path_edges, min(path_colors, default=None), removed, checked, witness=witness)
