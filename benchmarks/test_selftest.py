"""Self-tests of the benchmark: tiny workloads and checker negative controls."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

BOOK = """book n=4
spine: 0 1 2 3
top: 0-2 1-3 0-1 2-3
bottom: 0-3 1-2
colors: k=2
e 0 1 : 0
e 0 2 : 0
e 0 3 : 1
e 1 2 : 1
e 1 3 : 0
e 2 3 : 0
"""

POINTS = """points n=4
p 0: 0 0
p 1: 1 3
p 2: 3 1
p 3: 4 4
colors: k=2
e 0 1 : 0
e 0 2 : 0
e 0 3 : 0
e 1 2 : 0
e 1 3 : 1
e 2 3 : 1
"""

# Inner 0 at angle 0, 1 at angle pi; outer 2 at angle pi/2, 3 at 3pi/2.
# Side edges 0-2 (winding 1/2) and 1-3 (winding 1/2) stay apart;
# 0-3 with winding 3/2 crosses 1-2 with winding -1/2.
ANNULUS = """cylindrical n_inner=2 n_outer=2
inner:
0: 0/1
1: 1/1
outer:
2: 1/2
3: 3/2
windings:
0 2: 1/2
0 3: 3/2
1 2: -1/2
1 3: 1/2
colors: k=2
e 0 1 : 0
e 0 2 : 0
e 0 3 : 0
e 1 2 : 0
e 1 3 : 1
e 2 3 : 0
"""

DRAWING = """drawing n=4
crossings:
0-2 1-3
xorder: 0 1 2 3
colors: k=3
e 0 1 : 0
e 0 2 : 1
e 0 3 : 2
e 1 2 : 0
e 1 3 : 1
e 2 3 : 2
"""


def _problems(text: str, tree, rule: str = "monochromatic") -> list[str]:
    n, cross = check.parse_instance(text)
    colours, k = check.parse_colours(text)
    return check.tree_problems(n, tree, cross, colours, k, rule)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_valid_trees_pass():
    assert _problems(BOOK, [(0, 1), (0, 2), (2, 3)]) == []
    assert _problems(POINTS, [(0, 1), (0, 2), (0, 3)]) == []
    assert _problems(ANNULUS, [(0, 2), (1, 2), (2, 3)]) == []
    assert _problems(DRAWING, [(0, 1), (1, 2), (1, 3)], "hypochromatic") == []


@pytest.mark.parametrize("text,tree", [
    (BOOK, [(0, 2), (1, 3), (0, 1)]),      # same page, interleaved on the spine
    (POINTS, [(0, 3), (1, 2), (0, 1)]),    # the diagonals of a convex quadrilateral
    (ANNULUS, [(0, 3), (1, 2), (0, 2)]),   # spirals one turn apart
    (DRAWING, [(0, 2), (1, 3), (0, 1)]),   # listed in the file's crossings
])
def test_checker_rejects_crossing_pair(text, tree):
    assert any("cross" in p for p in _problems(text, tree, "hypochromatic"))


def test_checker_rejects_non_spanning_edge_set():
    assert any("spanning" in p for p in _problems(POINTS, [(0, 1), (0, 2), (1, 2)]))
    assert any("spanning" in p for p in _problems(POINTS, [(0, 1), (0, 2)]))


def test_checker_rejects_two_coloured_tree():
    assert any("colours" in p for p in _problems(POINTS, [(0, 1), (1, 3), (0, 2)]))


def test_checker_rejects_tree_using_every_colour():
    assert any("colours" in p for p in _problems(DRAWING, [(0, 1), (0, 2), (0, 3)], "hypochromatic"))


def test_checker_counts_failing_colourings():
    # With every pair of independent edges crossing, K_4's plane trees
    # are its four stars; the colourings no monochromatic star covers
    # are counted exactly.
    crossing = """drawing n=4
crossings:
0-1 2-3
0-2 1-3
0-3 1-2
"""
    n, cross = check.parse_instance(crossing)
    masks = check.plane_tree_masks(n, cross)
    assert len(masks) == 4
    uncovered = 0
    for idx in range(1 << 5):
        colour = [0] + [idx >> (i - 1) & 1 for i in range(1, 6)]
        if not any(len({colour[i] for i in range(6) if m >> i & 1}) == 1 for m in masks):
            uncovered += 1
    assert check.uncovered_colourings(n, masks) == uncovered > 0

