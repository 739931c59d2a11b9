"""The annulus solver's one entry.

``solve_cylindrical`` compiles a layout once and hands it to
``reduce_and_solve``.  When the cycles are monochromatic in different
colors and nothing is removed, the answer is ``sweep_run``'s own report;
a reduced layout's drawing is restricted from the compiled one, so no
solve compiles twice.
"""

import dataclasses
import random

import pytest

from planetrees import cylindrical
from planetrees.core import EdgeColoring, induced_subdrawing
from planetrees.cylindrical import (
    CLOCKWISE,
    COUNTERCLOCKWISE,
    NotApplicableError,
    compile_layout,
    cycle_colors,
    cycle_edges_of,
    first_side_edge,
    reduce_and_solve,
    restrict_layout,
    solve_cylindrical,
    sweep_run,
)
from planetrees.generators import gen_cylindrical


def _layout(seed, n_max=12):
    rng = random.Random(f"entry:{seed}")
    n = rng.randint(2, n_max)
    p = rng.randint(1, n - 1)
    return gen_cylindrical(p, n - p, seed)


def _recolored(layout, inner_color, outer_color):
    """The layout with its inner and outer cycles painted one color each."""
    p, n = layout.n_inner, layout.n
    colors = dict(layout.color.as_map())
    for e in cycle_edges_of(list(range(p))):
        colors[e] = inner_color
    for e in cycle_edges_of(list(range(p, n))):
        colors[e] = outer_color
    return dataclasses.replace(layout, color=EdgeColoring.from_map(n, 2, colors))


@pytest.mark.parametrize("assert_invariants", [True, False])
def test_entry_returns_the_sweep_report_unchanged(assert_invariants):
    for seed in range(30):
        layout = _layout(seed)
        inner_color = seed % 2
        layout = _recolored(layout, inner_color, 1 - inner_color)
        d = compile_layout(layout)
        swept = sweep_run(d, layout, assert_invariants)
        assert swept.status == "tree-found"
        assert reduce_and_solve(d, layout, assert_invariants) == swept
        assert solve_cylindrical(layout, assert_invariants) == swept


def test_one_compile_per_solve(monkeypatch):
    calls = []

    def counting(layout):
        calls.append(layout)
        return compile_layout(layout)

    monkeypatch.setattr(cylindrical, "compile_layout", counting)
    branches = set()
    for seed in range(80):
        calls.clear()
        rep = solve_cylindrical(_layout(seed))
        assert rep.status == "tree-found"
        assert len(calls) == 1, seed
        if rep.witness.get("removed_vertices"):
            branches.add(rep.witness["branch"])
    assert "sweep" in branches  # reduced cycles that went to the sweep


def test_restricted_drawing_equals_compiled_sublayout():
    for seed in range(40):
        layout = _layout(seed, n_max=16)
        rng = random.Random(f"kept:{seed}")
        kept = sorted(rng.sample(range(layout.n), rng.randint(2, layout.n)))
        d = compile_layout(layout)
        sub_layout = restrict_layout(layout, kept)[0]
        assert induced_subdrawing(d, None, kept)[0] == compile_layout(sub_layout)


def test_sweep_run_refuses_layouts_outside_its_preconditions():
    shared = _recolored(_layout(3), 1, 1)
    with pytest.raises(NotApplicableError):
        sweep_run(compile_layout(shared), shared)
    for p, q in ((0, 5), (5, 0)):
        one_circle = gen_cylindrical(p, q, 1)
        with pytest.raises(NotApplicableError):
            sweep_run(compile_layout(one_circle), one_circle)


def test_first_side_edge_picks_by_rational_winding():
    for seed in range(40):
        layout = _layout(seed, n_max=16)
        p = layout.n_inner
        for v in range(layout.n):
            for direction, pick in ((CLOCKWISE, max), (COUNTERCLOCKWISE, min)):
                if v < p:
                    j = pick(range(layout.n_outer), key=lambda j: layout.windings[v][j])
                    want = (v, p + j)
                else:
                    want = (pick(range(p), key=lambda u: layout.windings[u][v - p]), v)
                assert first_side_edge(layout, v, direction) == want


@pytest.mark.parametrize("paint", [None, (0, 1), (1, 0), (0, 0), (1, 1)])
def test_reduction_leaves_cycles_of_one_color_each(paint):
    """The vertices a solve kept have monochromatic cycles (``cycle_colors``
    names both), and the sweep ran exactly when their colors differ; a
    report without a ``branch`` is the sweep's own."""
    branches = set()
    for seed in range(60):
        layout = _layout(seed, n_max=16)
        if paint is not None:
            layout = _recolored(layout, *paint)
        rep = solve_cylindrical(layout)
        assert rep.status == "tree-found", seed
        removed = set(rep.witness.get("removed_vertices", ()))
        kept = [v for v in range(layout.n) if v not in removed]
        inner_c, outer_c = cycle_colors(restrict_layout(layout, kept)[0])
        assert inner_c is not None and outer_c is not None, seed
        branch = rep.witness.get("branch", "sweep")
        assert (branch == "sweep") == (inner_c != outer_c), seed
        branches.add(branch)
    assert "sweep" in branches
