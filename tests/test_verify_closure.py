"""The subset-closure cover at full block size, and failures built when read.

At n=7 a block holds 2^16 colorings and edges 17..20 are fixed by the
block number, so a range that straddles a block edge takes trees of
different fixed-edge patterns on its two sides.  Such ranges are
checked against the per-coloring reference loop of
``test_verify_bitsliced``.  A report keeps its failing colorings as
indices and builds each coloring dict only when it is read; it still
reads, compares and hashes as the tuple of dicts it stands for.
"""

import dataclasses
import random
import tracemalloc

import pytest

from planetrees import search
from planetrees.core import all_edges
from planetrees.search import _coloring_blocks, _verify_range, verify_all_colorings, verify_classes
from test_verify_bitsliced import random_crossings, reference_plane_masks, reference_report, reference_verify_range

N7_CASES = [(7, 0.25, 1), (7, 0.25, 2), (7, 0.45, 0)]


@pytest.mark.parametrize("case", N7_CASES)
def test_n7_ranges_across_block_edges_match_reference(case):
    d = random_crossings(*case)
    masks = reference_plane_masks(d)
    total, block_bits = _coloring_blocks(7)
    assert block_bits == search.BLOCK_BITS == 16
    rng = random.Random(case[2])
    sides = set()
    for edge_at in range(1 << block_bits, total, 1 << block_bits):
        start, stop = edge_at - rng.randint(500, 2500), edge_at + rng.randint(500, 2500)
        result = _verify_range(masks, start, stop, block_bits)
        assert result == reference_verify_range(masks, start, stop), (case, start, stop)
        sides |= {idx >= edge_at for idx in result[1]}
    assert sides == {False, True}


def eager_failures(d, failing):
    table = all_edges(d.n)
    return tuple(
        {"coloring_index": idx, "coloring": {e: idx << 1 >> i & 1 for i, e in enumerate(table)}} for idx in failing
    )


def test_failures_read_as_the_tuple_they_stand_for():
    d = random_crossings(5, 1.0, 0)
    report = verify_all_colorings(d)
    eager = eager_failures(d, reference_report(d)[1])
    assert len(eager) > 4
    assert report.failures == eager and eager == report.failures
    assert report.failures != eager[:-1] and report.failures != eager[::-1]
    assert list(report.failures) == list(eager) and len(report.failures) == len(eager)
    assert report.failures[-1] == eager[-1] and report.failures[2] == eager[2]
    assert report.failures[1:4] == eager[1:4] and isinstance(report.failures[1:4], tuple)
    with pytest.raises(IndexError):
        report.failures[len(eager)]
    assert repr(report.failures) == repr(eager)
    assert report == verify_all_colorings(d) and not report.passed


def test_no_failures_compare_and_hash_as_the_empty_tuple():
    d = random_crossings(5, 0.2, 0)
    report = verify_all_colorings(d)
    assert report.passed and report.failures == () and () == report.failures
    assert report == dataclasses.replace(report, failures=())
    assert hash(report) == hash(dataclasses.replace(report, failures=()))


def test_class_failures_read_as_per_record_tuples():
    records = [random_crossings(5, 1.0, 0), random_crossings(4, 0.2, 0), random_crossings(5, 0.6, 1),
               random_crossings(4, 1.0, 2)]
    report = verify_classes(records)
    eager = tuple((rec, fail) for rec, d in enumerate(records) for fail in eager_failures(d, reference_report(d)[1]))
    assert len({rec for rec, _ in eager}) >= 2
    assert report.failures == eager and list(report.failures) == list(eager)
    assert report.failures[-1] == eager[-1] and report.failures[3:9] == eager[3:9]
    assert verify_classes(records, start_index=len(records)).failures == ()


def test_many_failures_stay_compact():
    # 708,812 of the 2^20 colorings fail.  With one dict built per failure up
    # front the run peaked at 586 MB traced; the cover alone needs about 33 MB.
    d = random_crossings(7, 0.6, 1)
    tracemalloc.start()
    try:
        report = verify_all_colorings(d, long_run=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.failures) == 708_812
    assert peak < 80 * 2**20
    idx = report.failures[-1]["coloring_index"]
    assert report.failures[-1] == eager_failures(d, [idx])[0]
