"""Brute-force engine: spanning-tree enumeration and exhaustive checks.

Spanning trees of K_n are enumerated through the bijection with
length-(n-2) vertex sequences, so each labeled tree appears exactly
once and "first tree found" is deterministic (lexicographic sequence
order).  On top of the enumeration sit two users:

* ``find_plane_tree`` — first plane spanning tree satisfying a color
  predicate (monochromatic / avoid one color / hypochromatic);
* ``verify_all_colorings`` — for a fixed small drawing, confirm that
  every 2-edge-coloring (up to swapping the two colors) admits a
  monochromatic plane spanning tree.

Trees and color classes are bitmasks over the edge ranks of K_n, and
a tree is plane when none of its edges' rows in the drawing's conflict
index (``Drawing.conflicts``, one crossing bitmask per edge rank,
built once per drawing) meets the tree's own mask.  The verifier is
bit-sliced (Biham, FSE 1997): coloring index bit i-1 is the color of
edge i, so across a block of 2^B consecutive indices edges 1..B vary,
and a block is one 2^B-bit integer whose bit j is the coloring that
gives color 1 to the varying edges in j.  A plane tree with varying
edges v, whose fixed edges allow a monochromatic color, is color 1 at
every j that contains v and color 0 at every j inside ~v.  So each
such tree sets one seed bit, and B shift-and-OR steps over the
periodic bit-planes close the seeds upward and downward (the zeta
transform over subsets, on one integer); the failures are the bits
left clear.  A block of at most 2^16 colorings thus costs 2B such
steps and one OR per pattern of fixed edges, not one per plane tree.
"""

from __future__ import annotations

import array
import bisect
import collections
import contextlib
import functools
import itertools
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    Drawing,
    Edge,
    EdgeColoring,
    EdgeSet,
    SolveReport,
    STATUS_COUNTEREXAMPLE,
    STATUS_TREE_FOUND,
    edge,
    edge_mask,
    edge_table,
    is_plane,
    is_spanning_tree,
    mask_is_plane,
    spans,
)

ENUMERATION_LIMIT = 10
DESK_SCALE_LIMIT = 6
LONG_RUN_ENV = "PLANETREES_LONG_RUN"
JOBS_ENV = "PLANETREES_JOBS"
BLOCK_BITS = 16  # colorings per block: 2^16, one 8 KB integer per bit-plane
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _decode_tree(n: int, seq: tuple[int, ...]) -> frozenset[Edge]:
    """Labeled tree on 0..n-1 from its length-(n-2) vertex sequence."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    ptr = 0
    leaf = -1
    for x in seq:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append(edge(leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = -1
    u = degree.index(1)
    v = degree.index(1, u + 1)
    edges.append(edge(u, v))
    return frozenset(edges)


def enumerate_spanning_trees(n: int, allow_large: bool = False) -> Iterator[EdgeSet]:
    """Yield every labeled spanning tree of K_n exactly once.

    Streams n^(n-2) trees in lexicographic order of their defining
    vertex sequences.  Refuses n > 10 unless ``allow_large`` is set;
    the refusal comes at the call, before any tree is made.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if n > ENUMERATION_LIMIT and not allow_large:
        raise ValueError(
            f"refusing to enumerate n^(n-2) = {n}^{n - 2} spanning trees for n={n}; "
            f"pass allow_large=True to override"
        )
    return (_decode_tree(n, seq) for seq in itertools.product(range(n), repeat=n - 2))


@functools.lru_cache(maxsize=8)
def _tree_masks(n: int) -> array.array:
    """All spanning trees of K_n as edge-rank bitmasks (n <= 7 only), 4 bytes each."""
    return array.array("I", (edge_mask(n, tree) for tree in enumerate_spanning_trees(n)))


def _mask_to_edges(n: int, mask: int) -> EdgeSet:
    return frozenset(e for i, e in enumerate(edge_table(n)) if mask >> i & 1)


def _iter_tree_masks(n: int, allow_large: bool) -> Iterator[int]:
    if n <= 7:
        return iter(_tree_masks(n))
    return (edge_mask(n, tree) for tree in enumerate_spanning_trees(n, allow_large=allow_large))


def find_plane_tree(
    d: Drawing,
    c: EdgeColoring,
    mode: str = "monochromatic",
    color: Optional[int] = None,
    allow_large: bool = False,
) -> SolveReport:
    """First plane spanning tree satisfying a color predicate.

    ``mode`` is one of ``monochromatic`` (one color; a specific one if
    ``color`` is given), ``avoid`` (no edge of ``color``), or
    ``hypochromatic`` (at least one of the k colors unused), scanning
    only the colour regions that connect all n vertices.  The tree found
    is certified by ``is_plane`` and ``is_spanning_tree``, not by
    ``mask_is_plane``, the test the scan used.  Returns a counterexample
    report when the scan finds nothing or the certificate fails.
    """
    if mode not in ("monochromatic", "avoid", "hypochromatic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "avoid" and color is None:
        raise ValueError("avoid mode needs a color")
    if color is not None and not 0 <= color < c.k:
        raise ValueError(f"color {color} out of range 0..{c.k - 1}")
    n = d.n
    conflicts = d.conflicts
    class_masks = [0] * c.k
    for i, col in enumerate(c.colors):
        class_masks[col] |= 1 << i
    # The n > 10 refusal comes first.  A tree lies in a colour class or a class's
    # complement; a region that does not connect the n vertices holds none.
    trees = _iter_tree_masks(n, allow_large)
    chosen = range(c.k) if color is None or mode == "hypochromatic" else (color,)
    full = (1 << len(c.colors)) - 1
    regions = [r for r in (class_masks[col] if mode == "monochromatic" else full ^ class_masks[col] for col in chosen)
               if spans(n, r)]
    for mask in trees if regions else ():
        if not any(mask & region == mask for region in regions):
            continue
        if mask_is_plane(mask, conflicts):
            tree = _mask_to_edges(n, mask)
            checks = (("plane", is_plane(d, tree)), ("spanning-tree", is_spanning_tree(n, tree)))
            witness = {"mode": mode, "color": color}
            if all(ok for _, ok in checks):
                avoided = {color} if mode == "avoid" else {col for col, cm in enumerate(class_masks) if not mask & cm}
                return SolveReport(STATUS_TREE_FOUND, tree, frozenset(avoided), checks, witness)
            failure = {"reason": "output predicates failed", **witness}
            return SolveReport(STATUS_COUNTEREXAMPLE, tree, frozenset(), checks, failure)
    reason = "exhaustive scan found no plane spanning tree for the predicate"
    return SolveReport(STATUS_COUNTEREXAMPLE, witness={"reason": reason, "mode": mode, "color": color, "n": n})


class _Failures(Sequence):
    """Failing colorings kept as indices, read as the tuple of their reports.

    ``parts`` holds (record, n, failing indices) per drawing.  Element k
    is a coloring dict, or (record, dict) when the record is not None;
    each dict is built only when it is read.
    """

    def __init__(self, parts: list[tuple[Optional[int], int, array.array]]):
        self._parts = [part for part in parts if part[2]]
        self._starts = list(itertools.accumulate((len(part[2]) for part in self._parts), initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[j] for j in range(len(self))[k])
        k = range(len(self))[k]
        j = bisect.bisect_right(self._starts, k) - 1
        record, n, failing = self._parts[j]
        idx = failing[k - self._starts[j]]
        # Edge i has bit i of twice the index: color 0 for edge 0, index bit i-1 after it.
        fail = {"coloring_index": idx, "coloring": {e: idx << 1 >> i & 1 for i, e in enumerate(edge_table(n))}}
        return fail if record is None else (record, fail)

    def __eq__(self, other) -> bool:
        return tuple(self) == tuple(other) if isinstance(other, (tuple, _Failures)) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class VerifyReport:
    """Aggregate outcome of an exhaustive 2-coloring verification."""

    n: int
    colorings_checked: int
    failures: Sequence[dict] = ()
    plane_tree_count: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures


def _plane_tree_mask_list(d: Drawing) -> list[int]:
    conflicts = d.conflicts
    return [m for m in _iter_tree_masks(d.n, allow_large=True) if mask_is_plane(m, conflicts)]


@functools.lru_cache(maxsize=4)
def _bit_planes(block_bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Where each varying edge has color 0, and where color 1, in one block.

    Bit j of planes[1][i] is bit i-1 of j, for j < 2^block_bits: 2^(i-1)
    zeros then 2^(i-1) ones, repeated.  One period is multiplied by
    the repunit of that period, so no loop runs over the indices.
    planes[0][i] is its complement.  Entry 0 is unused, because edge 0
    never varies.
    """
    size = 1 << block_bits
    full = (1 << size) - 1
    ones = [0]
    for i in range(1, block_bits + 1):
        half = 1 << (i - 1)
        period = ((1 << half) - 1) << half
        ones.append(period * (full // ((1 << 2 * half) - 1)))
    return tuple(full ^ plane for plane in ones), tuple(ones)


def _verify_range(plane_masks: list[int], start: int, stop: int, block_bits: int) -> tuple[int, list[int]]:
    """Check colorings with index in [start, stop); returns count and failing indices.

    Coloring index bit i-1 is the color of edge i; edge 0, the edge
    (0,1), has color 0 (global color swap symmetry).  Indices are taken
    in blocks of 2^block_bits: inside a block edges 1..block_bits vary
    and the higher edges have the colors of the block number's bits.
    A tree with varying edges v seeds bit v of ``up`` if its fixed
    edges have color 1 and it avoids edge 0, and bit ~v of ``down`` if
    its fixed edges have color 0; ``up`` is closed upward and ``down``
    downward, one shift-and-OR per varying edge.
    """
    zeros, ones = _bit_planes(block_bits)
    size = 1 << block_bits
    # The seeds of the trees with each pattern of fixed edges, set once per call.
    seeds = collections.defaultdict(lambda: (bytearray(size + 7 >> 3), bytearray(size + 7 >> 3)))
    for t in plane_masks:
        up, down = seeds[t >> (block_bits + 1)]
        v = t >> 1 & (size - 1)
        if not t & 1:
            up[v >> 3] |= 1 << (v & 7)
        v ^= size - 1
        down[v >> 3] |= 1 << (v & 7)
    patterns = []
    while seeds:  # each pattern's bytearrays are dropped as its integers are made
        fixed, (up, down) = seeds.popitem()
        patterns.append((fixed, int.from_bytes(up, "little"), int.from_bytes(down, "little")))
    failures: list[int] = []
    for block in range(start >> block_bits, (stop + size - 1) >> block_bits):
        base = block << block_bits
        lo, hi = max(start - base, 0), min(stop - base, size)
        up = down = 0
        for fixed, up_seed, down_seed in patterns:
            if not fixed & ~block:
                up |= up_seed
            if not fixed & block:
                down |= down_seed
        for i in range(block_bits):
            up |= (up & zeros[i + 1]) << (1 << i)
            down |= (down & ones[i + 1]) >> (1 << i)
        # Indices outside [start, stop) count as covered; one byte per index, 1 if it fails.
        flags = format(((1 << hi) - (1 << lo)) & ~(up | down), "b")[::-1].encode().translate(_BIT_BYTES)
        failures.extend(itertools.compress(range(base, base + size), flags))
    return stop - start, failures


def long_run_enabled() -> bool:
    return os.environ.get(LONG_RUN_ENV, "").strip() not in ("", "0", "false")


def pool_size(jobs: int, chunks: int) -> int:
    """Worker processes for ``jobs`` requested over ``chunks`` units of
    work: never more than the CPUs or the units, and at least 1."""
    return max(1, min(jobs, os.cpu_count() or 1, chunks))


def check_desk_scale(n: int, long_run: bool) -> None:
    """Refuse exhaustive verification of K_n above desk scale unless a long run is asked for."""
    if n > DESK_SCALE_LIMIT and not (long_run or long_run_enabled()):
        raise ValueError(
            f"refusing exhaustive verification for n={n} > {DESK_SCALE_LIMIT} "
            f"without the long-run flag"
        )


def _coloring_blocks(n: int) -> tuple[int, int]:
    """Colorings of a drawing of K_n, and the bits of the blocks covering them."""
    if n < 2:
        raise ValueError(f"verification needs n >= 2, got n={n}")
    m = n * (n - 1) // 2
    return 1 << (m - 1), min(BLOCK_BITS, m - 1)


@contextlib.contextmanager
def _worker_pool(workers: int):
    """A process pool of ``workers``, or None when one worker suffices."""
    if workers <= 1:
        yield None
        return
    # Imported only here: the pool machinery adds about 2 MB to every
    # process that imports the package, and most runs start no pool.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool


def _verify(d: Drawing, pool, workers: int) -> tuple[int, array.array, int]:
    """Colorings checked, failing indices in ascending order, and plane trees."""
    total, block_bits = _coloring_blocks(d.n)
    plane_masks = _plane_tree_mask_list(d)
    blocks = total >> block_bits
    shards = min(workers, blocks)
    if shards <= 1:
        parts = [_verify_range(plane_masks, 0, total, block_bits)]
    else:
        # Whole blocks per shard, in ascending order, so failures stay sorted.
        bounds = [(blocks * i // shards) << block_bits for i in range(shards + 1)]
        parts = pool.map(_verify_range, [plane_masks] * shards, bounds[:-1], bounds[1:], [block_bits] * shards)
    checked, failing = 0, array.array("Q")
    for part_checked, part_failing in parts:
        checked += part_checked
        failing.extend(part_failing)
    return checked, failing, len(plane_masks)


def _verify_each(drawings: Sequence[Drawing], long_run: bool, jobs: int) -> list[tuple[int, array.array, int]]:
    """``_verify`` of each drawing, after the desk-scale guards of all of
    them, in one pool sized for the drawing with the most blocks."""
    blocks = 0
    for d in drawings:
        check_desk_scale(d.n, long_run)
        total, block_bits = _coloring_blocks(d.n)
        blocks = max(blocks, total >> block_bits)
    workers = pool_size(jobs, blocks)
    with _worker_pool(workers) as pool:
        return [_verify(d, pool, workers) for d in drawings]


def verify_all_colorings(
    d: Drawing,
    long_run: bool = False,
    jobs: int = 1,
) -> VerifyReport:
    """Check all 2-edge-colorings of a drawing for monochromatic plane trees.

    The color of edge (0,1) is fixed to 0, so 2^(C(n,2)-1) colorings are
    examined.  Any coloring without a monochromatic plane spanning tree
    is reported verbatim in the failures list.  ``jobs`` splits the
    blocks of colorings into one shard per worker, with ``pool_size``
    workers; drawings with n <= 6 fit in one block and run serially.

    Exhaustive runs with n >= 7 are refused unless ``long_run`` is set
    (or the PLANETREES_LONG_RUN environment variable enables it): at
    n=7 a single drawing already needs 2^20 colorings, and at n=8 there
    are 5,370,725 weak isomorphism classes of drawings with more than
    10^8 colorings each, far beyond desk scale.
    """
    [(checked, failing, trees)] = _verify_each([d], long_run, jobs)
    return VerifyReport(
        n=d.n, colorings_checked=checked, failures=_Failures([(None, d.n, failing)]), plane_tree_count=trees
    )


@dataclass(frozen=True)
class ClassFileReport:
    """Per-record results of verifying a file of crossing-set records."""

    records_verified: int
    colorings_checked: int
    failures: Sequence[tuple[int, dict]] = ()
    first_record: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_class_file(path: str, long_run: bool = False, jobs: int = 1, start_index: int = 0) -> ClassFileReport:
    """verify_classes over the records of the class file at ``path``."""
    from .formats import parse_class_file

    return verify_classes(parse_class_file(path), long_run, jobs, start_index)


def verify_classes(
    records: list[Drawing],
    long_run: bool = False,
    jobs: int = 1,
    start_index: int = 0,
) -> ClassFileReport:
    """Run verify_all_colorings on every drawing record of a class file.

    Each record comes from a line ``n;<crossing pairs comma-separated>``.
    Verification is resumable via ``start_index`` (0-based record number).
    """
    if not 0 <= start_index <= len(records):
        raise ValueError(f"start index {start_index} out of range 0..{len(records)} for {len(records)} records")
    todo = records[start_index:]
    results = _verify_each(todo, long_run, jobs)
    parts = [(rec_no, d.n, failing) for rec_no, (d, (_, failing, _)) in enumerate(zip(todo, results), start_index)]
    return ClassFileReport(
        records_verified=len(todo),
        colorings_checked=sum(checked for checked, _, _ in results),
        failures=_Failures(parts),
        first_record=start_index,
    )
