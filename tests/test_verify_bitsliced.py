"""The bit-sliced verifier against the per-coloring reference loop.

The reference below is the straightforward verifier: every coloring
index is decoded on its own and tested against the plane trees one at
a time.  Its plane trees come from ``enumerate_spanning_trees`` and
``is_plane``, not from the bitmask tables of ``search``.  The block
cover must return the same ``(colorings_checked, failures,
plane_tree_count)``, with the failures in ascending index order, for
every block size and every sub-range.
"""

import concurrent.futures
import itertools
import random

import pytest

from planetrees import search
from planetrees.core import Drawing, all_edges, crossing_pair, edge_index, is_plane
from planetrees.generators import gen_points
from planetrees.search import (
    _bit_planes,
    _coloring_blocks,
    _verify_range,
    enumerate_spanning_trees,
    verify_all_colorings,
    verify_class_file,
)
from planetrees.straightline import compile_points

# ----------------------------------------------------------------------
# per-coloring reference
# ----------------------------------------------------------------------


def reference_plane_masks(d):
    masks = []
    for tree in enumerate_spanning_trees(d.n):
        if is_plane(d, tree):
            masks.append(sum(1 << edge_index(d.n, e) for e in tree))
    return masks


def reference_verify_range(plane_masks, start, stop):
    """Coloring index idx gives edge i the color of bit i-1; edge 0 has color 0."""
    failures = []
    checked = 0
    cached = plane_masks[0] if plane_masks else 0
    for idx in range(start, stop):
        coloring_mask = idx << 1
        checked += 1
        hit = bool(plane_masks) and (cached & coloring_mask == 0 or cached & coloring_mask == cached)
        if not hit:
            for t in plane_masks:
                inter = t & coloring_mask
                if inter == 0 or inter == t:
                    cached = t
                    hit = True
                    break
        if not hit:
            failures.append(idx)
    return checked, failures


def reference_report(d):
    masks = reference_plane_masks(d)
    total = 1 << (d.n * (d.n - 1) // 2 - 1)
    checked, failing = reference_verify_range(masks, 0, total)
    return checked, failing, len(masks)


def summary(report):
    return (
        report.colorings_checked,
        [fail["coloring_index"] for fail in report.failures],
        report.plane_tree_count,
    )


def random_crossings(n, density, seed):
    """Any set of independent edge pairs; dense sets leave colorings uncovered."""
    rng = random.Random(seed)
    pairs = [
        crossing_pair(e, f)
        for e, f in itertools.combinations(all_edges(n), 2)
        if not set(e) & set(f)
    ]
    return Drawing(n, frozenset(p for p in pairs if rng.random() < density))


CASES = [(n, density, seed) for n in range(2, 6) for density in (0.2, 0.6, 1.0) for seed in range(3)]
CASES += [(6, density, seed) for density, seed in ((0.1, 0), (0.4, 1), (0.7, 2), (1.0, 3))]


@pytest.fixture(scope="module")
def references():
    table = {}
    for case in CASES:
        d = random_crossings(*case)
        table[case] = (d, reference_report(d))
    return table


def test_cases_include_failing_colorings(references):
    failing = [case for case, (_, ref) in references.items() if ref[1]]
    assert len(failing) >= 10
    assert any(case[0] == 6 for case in failing)


@pytest.mark.parametrize("case", CASES)
def test_matches_reference(references, case):
    d, ref = references[case]
    report = verify_all_colorings(d)
    assert summary(report) == ref
    for fail in report.failures:
        idx = fail["coloring_index"]
        colors = fail["coloring"]
        assert [colors[e] for e in all_edges(d.n)] == [0] + [idx >> i & 1 for i in range(len(colors) - 1)]


@pytest.mark.parametrize("block_bits", [0, 1, 3, 6, 10])
def test_block_sizes_and_subranges_match_reference(references, block_bits):
    rng = random.Random(block_bits)
    for case, (d, (total, failing, _)) in references.items():
        if case[0] == 6 and block_bits < 3:
            continue  # 2^14 colorings in blocks of one or two: slow, and n <= 5 shows the same
        masks = reference_plane_masks(d)
        bits = min(block_bits, d.n * (d.n - 1) // 2 - 1)
        assert _verify_range(masks, 0, total, bits) == (total, failing)
        size = 1 << bits
        edges_of_blocks = list(range(0, total + 1, size))
        for _ in range(4):
            # Ranges that start or stop one step off a block edge, and arbitrary ones.
            edge_at = rng.choice(edges_of_blocks)
            start = max(0, edge_at - rng.randint(0, 2))
            stop = min(total, max(start, edge_at + rng.randint(0, 2) + rng.randint(0, size)))
            for lo, hi in ((start, stop), tuple(sorted(rng.sample(range(total + 1), 2)))):
                expected = [i for i in failing if lo <= i < hi]
                assert _verify_range(masks, lo, hi, bits) == (hi - lo, expected), (case, lo, hi)


def test_empty_range_and_empty_tree_list():
    assert _verify_range([0b111], 5, 5, 3) == (0, [])
    assert _verify_range([], 3, 11, 2) == (8, list(range(3, 11)))


def test_bit_planes_are_periodic():
    for block_bits in range(0, 9):
        zeros, ones = _bit_planes(block_bits)
        assert len(zeros) == len(ones) == block_bits + 1
        for i in range(1, block_bits + 1):
            assert ones[i] == sum(1 << j for j in range(1 << block_bits) if j >> (i - 1) & 1)
            assert zeros[i] == sum(1 << j for j in range(1 << block_bits) if not j >> (i - 1) & 1)


def test_blocks_never_exceed_block_bits():
    for n in range(2, 9):
        total, block_bits = _coloring_blocks(n)
        assert total == 1 << (n * (n - 1) // 2 - 1)
        assert block_bits == min(search.BLOCK_BITS, n * (n - 1) // 2 - 1)
        assert total % (1 << block_bits) == 0
    # At n=8 there are 2^27 colorings; each plane spans one block of 2^16.
    zeros, ones = _bit_planes(_coloring_blocks(8)[1])
    assert max(p.bit_length() for p in zeros + ones) == 1 << 16


def test_n8_block_matches_reference():
    # The 8 stars of K_8 are plane in every drawing.  With 28 edges, edges
    # 17..27 are fixed per block: take the last block, where all are 1.
    n = 8
    stars = [sum(1 << edge_index(n, (min(c, v), max(c, v))) for v in range(n) if v != c) for c in range(n)]
    total, block_bits = _coloring_blocks(n)
    start = total - (1 << block_bits)
    result = _verify_range(stars, start, total, block_bits)
    assert result == reference_verify_range(stars, start, total)
    assert result[1]


# ----------------------------------------------------------------------
# shards and pools
# ----------------------------------------------------------------------


class SerialPool:
    """Stands in for ProcessPoolExecutor: counts pools, runs map in-process."""

    started = []

    def __init__(self, max_workers):
        SerialPool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(search, "BLOCK_BITS", 4)


@pytest.fixture
def serial_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    SerialPool.started = []


@pytest.mark.parametrize("case", [case for case in CASES if case[0] >= 5])
def test_sharded_blocks_match_reference(references, small_blocks, serial_pool, case):
    d, ref = references[case]
    for jobs in (2, 3, 4):
        assert summary(verify_all_colorings(d, jobs=jobs)) == ref
    assert SerialPool.started == [2, 3, 4]


def test_jobs_two_matches_serial(references, small_blocks):
    # A real pool of two workers, clamped to the CPUs as for any run.
    d, ref = references[(5, 1.0, 0)]
    assert ref[1]
    serial = verify_all_colorings(d, jobs=1)
    parallel = verify_all_colorings(d, jobs=2)
    assert serial == parallel
    assert summary(parallel) == ref


def test_class_file_starts_one_pool(tmp_path, small_blocks, serial_pool, references):
    cases = [(5, 1.0, 0), (4, 0.6, 1), (5, 0.2, 2), (6, 0.4, 1)]
    lines = []
    for case in cases:
        d = references[case][0]
        pairs = ",".join(f"{e[0]}-{e[1]} {f[0]}-{f[1]}" for e, f in sorted(d.crossings))
        lines.append(f"{d.n};{pairs}")
    path = tmp_path / "mixed.classes"
    path.write_text("\n".join(lines) + "\n")
    report = verify_class_file(str(path), jobs=3)
    assert SerialPool.started == [3]
    expected = [(rec, idx) for rec, case in enumerate(cases) for idx in references[case][1][1]]
    assert [(rec, fail["coloring_index"]) for rec, fail in report.failures] == expected
    assert report.colorings_checked == sum(references[case][1][0] for case in cases)
    assert report.records_verified == len(cases)


def test_class_file_of_small_drawings_starts_no_pool(tmp_path, serial_pool):
    path = tmp_path / "k4.classes"
    path.write_text("4;\n4;0-2 1-3\n5;\n")
    report = verify_class_file(str(path), jobs=4)
    assert report.passed and report.colorings_checked == 32 + 32 + 512
    assert SerialPool.started == []


# ----------------------------------------------------------------------
# n = 7
# ----------------------------------------------------------------------


def test_n7_points_long_run():
    d = compile_points(gen_points(7, 0))
    report = verify_all_colorings(d, long_run=True)
    assert report.colorings_checked == 1 << 20
    assert report.plane_tree_count == 4582
    assert report.failures == ()


@pytest.mark.parametrize("jobs", [1, 3])
def test_one_drawing_verifies_as_a_one_record_class_file(references, small_blocks, serial_pool, jobs):
    for case in CASES:
        d = references[case][0]
        single = verify_all_colorings(d, jobs=jobs)
        pools = list(SerialPool.started)
        record = search.verify_classes([d], jobs=jobs)
        assert SerialPool.started == pools * 2, case  # the same pool, or none, for both
        SerialPool.started = []
        assert record.colorings_checked == single.colorings_checked
        assert [fail for _, fail in record.failures] == list(single.failures)
