import contextlib
import dataclasses
import io
import json
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planetrees import cylindrical, search
from planetrees.cli import main
from planetrees.core import (
    EdgeColoring,
    all_edges,
    edge,
    induced_subdrawing,
    is_plane,
    is_spanning_tree,
    tree_colors,
    validate_drawing,
)
from planetrees.cylindrical import (
    CLOCKWISE,
    COUNTERCLOCKWISE,
    CylindricalLayout,
    NotApplicableError,
    NotSimpleError,
    compile_layout,
    cycle_colors,
    cycle_edges_of,
    first_side_edge,
    restrict_layout,
    rotation_order_check,
    side_edge_tree,
    solve_cylindrical,
    sweep_start,
    sweep_round,
    sweep_run,
)
from planetrees.generators import gen_coloring, gen_cylindrical
from planetrees.formats import load_instance, serialize_cylindrical
from planetrees.search import enumerate_spanning_trees, find_plane_tree

from conftest import coloring_from, fan_layout, nonspanning_fallback, side_crossing_count, uniform_coloring

F = Fraction


def cyl(inner, outer, windings, colors):
    return CylindricalLayout(
        tuple(F(a) for a in inner),
        tuple(F(a) for a in outer),
        tuple(tuple(F(x) for x in row) for row in windings),
        colors,
    )


# ----------------------------------------------------------------------
# layout validation
# ----------------------------------------------------------------------

def test_layout_rejects_incongruent_winding():
    with pytest.raises(ValueError, match="congruent"):
        cyl([0], [F(1, 2)], [[F(1, 3)]], uniform_coloring(2))


def test_layout_rejects_unsorted_angles():
    with pytest.raises(ValueError, match="increasing"):
        cyl([F(1), F(1, 2)], [F(1, 4)], [[F(1, 4) - F(1), F(1, 4) - F(1, 2)]], uniform_coloring(3))


def test_layout_rejects_out_of_range_angle():
    with pytest.raises(ValueError, match="outside"):
        cyl([F(5, 2)], [F(1, 2)], [[0]], uniform_coloring(2))


# ----------------------------------------------------------------------
# side-edge crossing counts
# ----------------------------------------------------------------------

def test_half_turn_opposed_spirals_cross_once():
    # One spiral starts at angle 0 winding +pi/2, the other at pi/4
    # winding -pi/2; their angular difference passes a full-turn
    # multiple exactly once.
    layout = cyl(
        [0, F(1, 4)],
        [F(1, 2), F(7, 4)],
        [[F(1, 2), F(-1, 4)], [F(1, 4), F(-1, 2)]],
        uniform_coloring(4),
    )
    e, f = edge(0, 2), edge(1, 3)
    assert side_crossing_count(layout, e, f) == 1
    d = compile_layout(layout)
    assert ((0, 2), (1, 3)) in d.crossings


def test_interleaving_inner_chords_cross():
    layout = cyl([0, F(1, 2), F(1), F(3, 2)], [], [[], [], [], []], uniform_coloring(4))
    d = compile_layout(layout)
    assert d.crossings == frozenset({((0, 2), (1, 3))})


def test_interleaving_outer_arcs_cross():
    layout = cyl([], [0, F(1, 2), F(1), F(3, 2)], [], uniform_coloring(4))
    d = compile_layout(layout)
    assert d.crossings == frozenset({((0, 2), (1, 3))})


def test_adjacent_side_pair_meeting_is_rejected():
    # Both edges share the inner vertex; opposite extra turns force a
    # meeting away from the endpoint.
    with pytest.raises(NotSimpleError, match="adjacent"):
        compile_layout(
            cyl([0], [F(1, 2), F(1)], [[F(1, 2) + 2, F(1) - 2]], uniform_coloring(3))
        )


def test_independent_side_pair_double_meeting_is_rejected():
    # Both side edges at inner vertex 0 (and the one sharing outer
    # vertex 2) co-wrap two extra turns, keeping every adjacent pair
    # clean, but the wrapped edge then overtakes the independent edge
    # 1-3 twice.
    with pytest.raises(NotSimpleError, match="independent"):
        compile_layout(
            cyl(
                [0, F(1)],
                [F(1, 2), F(3, 2)],
                [[F(9, 2), F(11, 2)], [F(11, 2), F(1, 2)]],
                uniform_coloring(4),
            )
        )


def _numeric_side_crossings(layout, e, f, samples=509):
    """Independent oracle: count proper intersections of polyline
    approximations of the two spirals.  Endpoint touches have a zero
    orientation sign and are not counted, so shared endpoints need no
    special casing; a prime sample count keeps crossings with small
    rational parameters away from polyline joints."""

    def pts(g):
        u, w = g
        a = float(layout.inner_angles[u])
        dlt = float(layout.windings[u][w - layout.n_inner])
        out = []
        for s in range(samples + 1):
            t = s / samples
            th = (a + t * dlt) * math.pi
            r = 1.0 + t
            out.append((r * math.cos(th), r * math.sin(th)))
        return out

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 1e-12) - (v < -1e-12)

    a_pts, b_pts = pts(e), pts(f)
    count = 0
    for i in range(samples):
        p1, p2 = a_pts[i], a_pts[i + 1]
        lo_x, hi_x = min(p1[0], p2[0]), max(p1[0], p2[0])
        lo_y, hi_y = min(p1[1], p2[1]), max(p1[1], p2[1])
        for j in range(samples):
            q1, q2 = b_pts[j], b_pts[j + 1]
            if max(q1[0], q2[0]) < lo_x or min(q1[0], q2[0]) > hi_x:
                continue
            if max(q1[1], q2[1]) < lo_y or min(q1[1], q2[1]) > hi_y:
                continue
            o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
            o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
            if o1 * o2 < 0 and o3 * o4 < 0:
                count += 1
    return count


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_side_crossing_formula_matches_polyline_oracle(seed):
    layout = gen_cylindrical(2, 2, seed)
    p, n = layout.n_inner, layout.n
    sides = [edge(u, w) for u in range(p) for w in range(p, n)]
    for i, e in enumerate(sides):
        for f in sides[i + 1 :]:
            expected = side_crossing_count(layout, e, f)
            got = _numeric_side_crossings(layout, e, f, samples=509)
            assert got == expected, (e, f)


def test_fan_3x3_crossing_pattern_matches_polyline_oracle():
    # Minimal windings on evenly spaced circles: the side edges form
    # the radial-fan picture, whose crossings the sampled-curve oracle
    # reproduces pair by pair.
    layout = fan_layout(3, 3, uniform_coloring(6))
    d = compile_layout(layout)
    sides = [edge(u, w) for u in range(3) for w in range(3, 6)]
    for i, e in enumerate(sides):
        for f in sides[i + 1 :]:
            expected = side_crossing_count(layout, e, f)
            if set(e) & set(f):
                assert expected == 0
            got = _numeric_side_crossings(layout, e, f, samples=193)
            assert got == expected, (e, f)
            pair = (e, f) if e <= f else (f, e)
            assert (pair in d.crossings) == (expected == 1)


def test_fan_is_radial_and_crossing_free_adjacent():
    layout = fan_layout(3, 3, uniform_coloring(6))
    d = compile_layout(layout)
    assert validate_drawing(d) == []
    for e, f in d.crossings:
        assert not set(e) & set(f)


# ----------------------------------------------------------------------
# rotations
# ----------------------------------------------------------------------

def test_rotation_order_fan():
    layout = fan_layout(2, 3, uniform_coloring(5))
    d = compile_layout(layout)
    seq = rotation_order_check(d, 0)
    assert sorted(seq) == [2, 3, 4]
    start = seq.index(2)
    assert seq[start:] + seq[:start] == [2, 3, 4]


def test_rotation_order_with_extra_turn():
    # Wrapping one winding by a full turn shifts where the opposite
    # circle's order starts but keeps it a circular shift.
    layout = CylindricalLayout(
        (F(0),),
        (F(1, 2), F(1), F(3, 2)),
        ((F(1, 2) + 2, F(1), F(3, 2)),),
        uniform_coloring(4),
    )
    d = compile_layout(layout)
    seq = rotation_order_check(d, 0)
    assert seq == [2, 3, 1] or seq == [3, 1, 2] or seq == [1, 2, 3]
    # minimal-winding variant starts at the first outer vertex
    plain = CylindricalLayout(
        (F(0),),
        (F(1, 2), F(1), F(3, 2)),
        ((F(1, 2), F(1), F(3, 2)),),
        uniform_coloring(4),
    )
    assert rotation_order_check(compile_layout(plain), 0) == [1, 2, 3]


def test_rotation_order_singleton():
    layout = fan_layout(2, 1, uniform_coloring(3))
    d = compile_layout(layout)
    assert rotation_order_check(d, 0) == [2]


def test_rotation_order_rejects_missing_labels():
    from conftest import one_crossing_k4

    with pytest.raises(ValueError):
        rotation_order_check(one_crossing_k4(), 0)


# ----------------------------------------------------------------------
# cycle colors
# ----------------------------------------------------------------------

def test_single_vertex_circle_takes_opposite_color():
    colors = coloring_from(
        4,
        2,
        {(1, 2): 0, (2, 3): 0, (1, 3): 0, (0, 1): 0, (0, 2): 1, (0, 3): 0},
    )
    layout = fan_layout(1, 3, colors)
    inner_c, outer_c = cycle_colors(layout)
    assert outer_c == 0
    assert inner_c == 1


def test_two_vertex_drawing_cycle_colors():
    layout = fan_layout(1, 1, uniform_coloring(2, color=1))
    assert cycle_colors(layout) == (1, 0)


def test_bichromatic_cycle_is_none():
    colors = coloring_from(
        4,
        2,
        {(1, 2): 0, (2, 3): 1, (1, 3): 0, (0, 1): 0, (0, 2): 0, (0, 3): 0},
    )
    layout = fan_layout(1, 3, colors)
    assert cycle_colors(layout)[1] is None


# ----------------------------------------------------------------------
# sweep state machine
# ----------------------------------------------------------------------

def blue_inner_red_outer_2x2(side_colors=(0, 0, 0, 0)):
    a, b, c, d = side_colors
    colors = coloring_from(
        4,
        2,
        {(0, 1): 1, (2, 3): 0, (0, 2): a, (0, 3): b, (1, 2): c, (1, 3): d},
    )
    return fan_layout(2, 2, colors)


def test_sweep_start_initial_state():
    layout = blue_inner_red_outer_2x2()
    d = compile_layout(layout)
    state = sweep_start(d, layout)
    assert state.v_cur == 0
    assert state.direction == CLOCKWISE
    assert state.e_cur == first_side_edge(layout, 0, CLOCKWISE)
    assert state.H == set()


def test_sweep_start_rejects_missing_precondition():
    colors = coloring_from(
        4,
        2,
        {(0, 1): 0, (2, 3): 0, (0, 2): 0, (0, 3): 0, (1, 2): 0, (1, 3): 0},
    )
    layout = fan_layout(2, 2, colors)  # both cycles color 0
    d = compile_layout(layout)
    with pytest.raises(NotApplicableError):
        sweep_start(d, layout)
    all_outer = fan_layout(0, 4, gen_coloring(4, 2, 0))
    with pytest.raises(NotApplicableError):
        sweep_start(compile_layout(all_outer), all_outer)


def test_sweep_round_first_edge_switch_flips_direction():
    # 1 inner, 2 outer; the lone inner vertex has the opposite color of
    # the outer cycle, so the first (outer-colored) side edge switches
    # the rotation vertex and reverses the direction.
    colors = coloring_from(3, 2, {(1, 2): 0, (0, 1): 1, (0, 2): 0})
    layout = fan_layout(1, 2, colors)
    d = compile_layout(layout)
    state = sweep_start(d, layout)
    first = state.e_cur
    assert layout.color.color_of_edge(first) == 0  # differs from inner color 1
    state = sweep_round(state, d)
    assert first in state.H
    other = first[1] if first[0] == 0 else first[0]
    assert state.v_cur == other
    assert state.direction == COUNTERCLOCKWISE
    assert state.ctx.trace[0].get("switched")


def test_sweep_round_noop_when_already_covered():
    layout = blue_inner_red_outer_2x2()
    d = compile_layout(layout)
    state = sweep_start(d, layout)
    state = sweep_round(state, d)
    h_after = set(state.H)
    again = sweep_round(state, d)
    assert again.H == h_after


def test_sweep_2x2_all_red_sides():
    layout = blue_inner_red_outer_2x2((0, 0, 0, 0))
    d = compile_layout(layout)
    rep = sweep_run(d, layout)
    assert rep.status == "tree-found"
    assert tree_colors(layout.color, rep.tree) == {0}
    assert is_plane(d, rep.tree) and is_spanning_tree(4, rep.tree)
    # Oracle: among all 16 labeled trees of K_4 some red plane spanning
    # tree exists, and the sweep found one of them.
    oracle = [
        t
        for t in enumerate_spanning_trees(4)
        if is_plane(d, t) and tree_colors(layout.color, t) == {0}
    ]
    assert oracle
    assert rep.tree in oracle


def test_sweep_1x1():
    layout = fan_layout(1, 1, uniform_coloring(2, color=0))
    d = compile_layout(layout)
    rep = sweep_run(d, layout)
    assert rep.status == "tree-found"
    assert rep.tree == frozenset({(0, 1)})


def test_sweep_2x3_trace_frozen():
    # Inner cycle blue, everything else red.  The walk starts at inner
    # vertex 0, switches to the last outer vertex, stalls, reverses,
    # and covers both inner vertices from there; the kept red subgraph
    # is the outer cycle plus the two red side edges at vertex 4, whose
    # breadth-first spanning tree is the star at vertex 4.
    colors = coloring_from(
        5,
        2,
        {
            (0, 1): 1,
            (2, 3): 0, (3, 4): 0, (2, 4): 0,
            (0, 2): 0, (0, 3): 0, (0, 4): 0, (1, 2): 0, (1, 3): 0, (1, 4): 0,
        },
    )
    layout = fan_layout(2, 3, colors)
    d = compile_layout(layout)
    rep = sweep_run(d, layout)
    assert rep.status == "tree-found"
    assert rep.witness["rounds"] == 2
    assert rep.tree == frozenset({(0, 4), (1, 4), (2, 4), (3, 4)})
    assert rep.all_invariants_passed
    assert find_plane_tree(d, layout.color, mode="monochromatic").status == "tree-found"


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------

def test_reduction_all_outer_goes_through_book():
    for seed in range(10):
        layout = gen_cylindrical(0, 5, seed)
        d = compile_layout(layout)
        rep = solve_cylindrical(layout)
        assert rep.status == "tree-found"
        assert rep.witness["branch"] == "book"
        assert is_plane(d, rep.tree) and is_spanning_tree(5, rep.tree)
        assert len(tree_colors(layout.color, rep.tree)) == 1


def test_reduction_same_color_cycles_with_side_edge():
    mapping = {}
    for u in range(6):
        for v in range(u + 1, 6):
            inner = u < 3 and v < 3
            outer = u >= 3 and v >= 3
            mapping[(u, v)] = 1 if (inner or outer) else 0
    mapping[(0, 3)] = 1  # one side edge in the cycles' color
    colors = coloring_from(6, 2, mapping)
    layout = fan_layout(3, 3, colors)
    rep = solve_cylindrical(layout)
    assert rep.status == "tree-found"
    assert rep.witness["branch"] == "same-color-side-edge"
    assert tree_colors(layout.color, rep.tree) == {1}


def test_reduction_same_color_cycles_without_side_edge_uses_fallback():
    mapping = {}
    for u in range(6):
        for v in range(u + 1, 6):
            inner = u < 3 and v < 3
            outer = u >= 3 and v >= 3
            mapping[(u, v)] = 1 if (inner or outer) else 0
    colors = coloring_from(6, 2, mapping)
    layout = fan_layout(3, 3, colors)
    d = compile_layout(layout)
    rep = solve_cylindrical(layout)
    assert rep.status == "tree-found"
    assert rep.witness["branch"] == "same-color-fallback"
    assert tree_colors(layout.color, rep.tree) == {0}
    assert is_plane(d, rep.tree) and is_spanning_tree(6, rep.tree)


def test_reduction_alternating_inner_cycle_removes_vertices():
    # Inner cycle on 4 vertices with colors alternating 0,1,0,1: every
    # inner vertex has bichromatic incident cycle edges, so at least one
    # is peeled and re-attached.
    mapping = {}
    for u in range(7):
        for v in range(u + 1, 7):
            mapping[(u, v)] = 0
    mapping[(0, 1)] = 0
    mapping[(1, 2)] = 1
    mapping[(2, 3)] = 0
    mapping[(0, 3)] = 1
    mapping[(4, 5)] = 1
    mapping[(5, 6)] = 1
    mapping[(4, 6)] = 1
    colors = coloring_from(7, 2, mapping)
    layout = fan_layout(4, 3, colors)
    d = compile_layout(layout)
    rep = solve_cylindrical(layout)
    assert rep.status == "tree-found"
    assert rep.witness["removed_vertices"]
    assert is_plane(d, rep.tree) and is_spanning_tree(7, rep.tree)
    assert len(tree_colors(layout.color, rep.tree)) == 1
    assert find_plane_tree(d, layout.color, mode="monochromatic").status == "tree-found"


def test_invariant_violation_reports_counterexample_with_trace():
    # No genuine layout can trip the sweep invariants, so feed the
    # sweep a tampered drawing: an extra crossing between two side
    # edges breaks the planarity invariant, and the report must carry
    # the failed check and the step trace instead of raising.
    from planetrees.core import Drawing, crossing_pair

    layout = blue_inner_red_outer_2x2()
    d = compile_layout(layout)
    extra = crossing_pair((0, 3), (1, 3))  # adjacent pair: impossible in reality
    fake_pairs = set(d.crossings) | {crossing_pair((0, 2), (1, 3)), extra}
    tampered = Drawing(d.n, frozenset(fake_pairs), d.rotations, d.vertex_labels)
    rep = sweep_run(tampered, layout, assert_invariants=True)
    assert rep.status == "counterexample"
    assert not rep.all_invariants_passed
    assert rep.witness["invariant"]
    assert rep.witness["trace"]


def test_one_circle_layout_weakly_isomorphic_to_book():
    # The empty-circle delegation is sound because cutting the circle
    # yields a one-page book drawing with the same crossing pairs.
    from planetrees.book import compile_book
    from planetrees.cylindrical import _as_book_layout

    for seed in range(10):
        for p, q in ((0, 6), (6, 0), (0, 4), (5, 0)):
            layout = gen_cylindrical(p, q, seed)
            assert compile_layout(layout).crossings == compile_book(
                _as_book_layout(layout)
            ).crossings


@pytest.mark.parametrize("seed", range(20))
def test_rotation_order_check_all_vertices(seed):
    layout = gen_cylindrical(2 + seed % 3, 2 + seed % 4, seed)
    d = compile_layout(layout)
    for v in range(d.n):
        seq = rotation_order_check(d, v)
        assert len(seq) == (layout.n_outer if v < layout.n_inner else layout.n_inner)


def test_solver_deterministic():
    layout = gen_cylindrical(3, 3, 17)
    a = solve_cylindrical(layout)
    b = solve_cylindrical(layout)
    assert a.tree == b.tree
    assert a.witness == b.witness


def test_restriction_commutes_with_induced_subdrawing():
    for seed in range(15):
        layout = gen_cylindrical(3, 3, seed)
        d = compile_layout(layout)
        keep = [0, 2, 3, 5]
        sub_layout, mapping = restrict_layout(layout, keep)
        direct = compile_layout(sub_layout)
        induced, induced_colors = induced_subdrawing(d, layout.color, keep)
        assert direct.crossings == induced.crossings
        assert direct.rotations == induced.rotations
        assert sub_layout.color == induced_colors


# ----------------------------------------------------------------------
# end-to-end property
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_solver_matches_oracle(seed):
    rng = random.Random(seed)
    p = rng.randint(0, 4)
    q = rng.randint(0, 4)
    if p + q < 2:
        p, q = 1, 1
    layout = gen_cylindrical(p, q, seed)
    d = compile_layout(layout)
    assert validate_drawing(d) == []
    rep = solve_cylindrical(layout, assert_invariants=True)
    assert rep.status == "tree-found", rep.witness
    assert rep.all_invariants_passed
    assert is_plane(d, rep.tree)
    assert is_spanning_tree(d.n, rep.tree)
    assert len(tree_colors(layout.color, rep.tree)) == 1
    assert find_plane_tree(d, layout.color, mode="monochromatic").status == "tree-found"


# ----------------------------------------------------------------------
# same-colored cycles with no side edge of their color
# ----------------------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")


def cycles_colored(layout, c):
    """The layout with both cycles in color c and every other edge in 1 - c."""
    cycles = set(cycle_edges_of(layout.inner_ids()) + cycle_edges_of(layout.outer_ids()))
    colors = tuple(c if e in cycles else 1 - c for e in all_edges(layout.n))
    return dataclasses.replace(layout, color=EdgeColoring(layout.n, 2, colors))


@pytest.mark.parametrize("size", [6, 20, 40])
def test_cycles_of_one_color_solve_through_the_cli(tmp_path, size):
    path = tmp_path / "cycles0.cyl"
    path.write_text(serialize_cylindrical(cycles_colored(gen_cylindrical(size, size, 0), 0)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["solve", "--class", "cylindrical", str(path)])
    assert code == 0
    assert "status: tree-found\n" in out.getvalue()
    assert "tree-color: 1\n" in out.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    p=st.integers(2, 10),
    q=st.integers(2, 10),
    seed=st.integers(0, 10**6),
    wrap_prob=st.sampled_from([0.15, 0.6]),
    c=st.sampled_from([0, 1]),
)
def test_side_edge_tree_is_certified(p, q, seed, wrap_prob, c):
    layout = cycles_colored(gen_cylindrical(p, q, seed, wrap_prob=wrap_prob), c)
    d = compile_layout(layout)
    rep = solve_cylindrical(layout)
    assert rep.status == "tree-found", rep.witness
    assert rep.all_invariants_passed
    assert rep.witness["branch"] == "same-color-fallback"
    assert rep.tree == side_edge_tree(layout)
    assert is_plane(d, rep.tree) and is_spanning_tree(d.n, rep.tree)
    assert tree_colors(layout.color, rep.tree) == {1 - c}
    if layout.n <= 8:
        assert nonspanning_fallback(d, layout.color).status == "tree-found"


def construct_style_layouts(seed, count=34, n_lo=8, n_hi=24):
    """The annulus layouts of the benchmark's construct workload: sizes
    spread over n_lo..n_hi, and every other one with an inner cycle of
    color 0 and an outer cycle of color 1."""
    rng = random.Random(f"construct:{seed}")
    for i in range(count):
        n = n_lo + (n_hi - n_lo) * i // (count - 1)
        p = n // 2 + rng.randint(-1, 1)
        layout = gen_cylindrical(p, n - p, seed * 1000 + i)
        if i % 2:
            colors = layout.color.as_map()
            for ids, c in ((layout.inner_ids(), 0), (layout.outer_ids(), 1)):
                colors.update((e, c) for e in cycle_edges_of(ids))
            layout = dataclasses.replace(layout, color=EdgeColoring.from_map(n, 2, colors))
        yield layout


def test_annulus_solver_never_enumerates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the annulus solver ran a spanning-tree search")

    monkeypatch.setattr(search, "enumerate_spanning_trees", refuse)
    monkeypatch.setattr(search, "find_plane_tree", refuse)
    with open(GOLDEN, encoding="ascii") as fh:
        files = json.load(fh)["files"]
    layouts = []
    for name, info in sorted(files.items()):
        if name.endswith(".cyl"):
            try:
                layout = load_instance(info["text"], ("cylindrical",)).value
                compile_layout(layout)
            except ValueError:
                continue  # a file that is not a simple layout never reaches the solver
            layouts.append(layout)
    layouts += [lay for seed in (1, 5, 7) for lay in construct_style_layouts(seed)]
    assert len(layouts) > 150
    for layout in layouts:
        for assert_invariants in (False, True):
            rep = solve_cylindrical(layout, assert_invariants)
            assert rep.status == "tree-found", rep.witness


def test_reduction_that_removes_nothing_keeps_the_layout(monkeypatch, tmp_path):
    # Both cycles of one colour: no vertex is removed, so the reduced
    # layout is the layout itself and restrict_layout is not called.
    with open(GOLDEN, encoding="ascii") as fh:
        golden = json.load(fh)
    expected = {}
    for case in golden["cases"]:
        if case["argv"][:3] == ["solve", "--class", "cylindrical"] and case["argv"][3] == "@cyl_6_6_0_cycles0.cyl":
            expected[tuple(case["argv"][4:])] = (case["exit"], case["stdout"])
    assert len(expected) == 2
    path = tmp_path / "cycles0.cyl"
    path.write_text(golden["files"]["cyl_6_6_0_cycles0.cyl"]["text"])

    def refuse(*args):
        raise AssertionError("restrict_layout rebuilt a layout the reduction left whole")

    monkeypatch.setattr(cylindrical, "restrict_layout", refuse)
    for extra, (code, stdout) in expected.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["solve", "--class", "cylindrical", str(path), *extra]) == code
        assert out.getvalue() == stdout
    for size in (20, 40):
        layout = cycles_colored(gen_cylindrical(size, size, 0), 0)
        got = solve_cylindrical(layout)
        assert got.ok and got.witness["removed_vertices"] == []
        assert got.tree == side_edge_tree(layout)
