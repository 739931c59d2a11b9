"""Annulus layouts in integer ticks against their rational references.

``gen_cylindrical`` draws its candidates in integer ticks and checks
them with ``side_crossings`` alone, and ``CylindricalLayout`` validates
its angles and windings over one common denominator.  The rational
generator and checks they replaced live in ``conftest.py``; the
serialized layouts and the error messages must be the same.  The
compilers hand their conflict rows to ``Drawing.from_rows`` unchecked,
and class files are read once per command.
"""

import builtins
import contextlib
import io
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from planetrees.book import compile_book
from planetrees.cli import main
from planetrees.core import Drawing
from planetrees.cylindrical import CylindricalLayout, NotSimpleError, compile_layout, side_crossings
from planetrees.formats import serialize_cylindrical
from planetrees.generators import gen_book, gen_cylindrical, gen_points
from planetrees.straightline import compile_points

from conftest import canonical_pairs, reference_gen_cylindrical, reference_layout_errors

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")


def _generated(gen, p, q, seed):
    try:
        return serialize_cylindrical(gen(p, q, seed))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("p", range(13))
def test_generator_matches_rational_reference(p):
    for q in range(13):
        for seed in range(6):
            assert _generated(gen_cylindrical, p, q, seed) == _generated(reference_gen_cylindrical, p, q, seed)


def construct_sizes(seed, per_class=34, n_lo=8, n_hi=24):
    """(n_inner, n_outer, seed) of every annulus layout that the
    benchmark's ``construct`` workload generates for ``seed``."""
    rng = random.Random(f"construct:{seed}")
    sizes = []
    for i in range(per_class):
        n = n_lo + (n_hi - n_lo) * i // (per_class - 1)
        p = n // 2 + rng.randint(-1, 1)
        sizes.append((p, n - p, seed * 1000 + i))
    return sizes


@pytest.mark.parametrize("seed", [1, 5])
def test_generator_matches_rational_reference_at_benchmark_sizes(seed):
    for p, q, s in construct_sizes(seed):
        assert _generated(gen_cylindrical, p, q, s) == _generated(reference_gen_cylindrical, p, q, s)


def test_side_crossings_scan_order_and_scale():
    # 0-2 winds more than a full turn, so it meets 0-3, the first pair
    # in scan order, although later pairs break simplicity as well.
    sides = [((0, 2), 0, 9), ((0, 3), 0, 3), ((1, 2), 4, 9), ((1, 3), 4, 11)]
    with pytest.raises(NotSimpleError, match=r"adjacent side edges \(0, 2\) and \(0, 3\) meet 1 time"):
        side_crossings(sides, 4)
    # Counts do not depend on the tick size: one crossing, then none.
    for scale in (1, 3, 10):
        crossing = [((0, 2), 0, 3 * scale), ((1, 3), 2 * scale, scale)]
        assert side_crossings(crossing, 2 * scale) == [((0, 2), (1, 3))]
        apart = [((0, 2), 0, scale), ((1, 3), 2 * scale, 5 * scale)]
        assert side_crossings(apart, 4 * scale) == []


# ----------------------------------------------------------------------
# validation messages on mutated layouts
# ----------------------------------------------------------------------


def _fields(layout):
    return [list(layout.inner_angles), list(layout.outer_angles), [list(r) for r in layout.windings], layout.color]


def _message(check, fields):
    inner, outer, windings, color = fields
    try:
        check(tuple(inner), tuple(outer), tuple(tuple(r) for r in windings), color)
    except ValueError as exc:
        return str(exc)
    return None


def _assert_same_message(fields):
    got = _message(CylindricalLayout, fields)
    assert got == _message(reference_layout_errors, fields)
    return got


def layouts(min_inner=0, min_outer=0):
    sizes = st.tuples(st.integers(min_inner, 5), st.integers(min_outer, 5)).filter(lambda pq: sum(pq) >= 2)
    return st.builds(lambda pq, seed: gen_cylindrical(*pq, seed), sizes, st.integers(0, 200))


fractions = st.builds(Fraction, st.integers(-30, 60), st.integers(1, 15))
SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


@SETTINGS
@given(layouts(), st.data())
def test_angle_out_of_range_message(layout, data):
    fields = _fields(layout)
    side = data.draw(st.sampled_from([s for s in (0, 1) if fields[s]]))
    i = data.draw(st.integers(0, len(fields[side]) - 1))
    fields[side][i] = data.draw(fractions.filter(lambda a: not 0 <= a < 2) | st.just(Fraction(2)))
    assert "outside [0, 2) pi" in _assert_same_message(fields)


@SETTINGS
@given(st.sampled_from([0, 1]), st.booleans(), st.data())
def test_non_increasing_angles_message(side, repeat, data):
    layout = data.draw(layouts(2, 0) if side == 0 else layouts(0, 2))
    fields = _fields(layout)
    angles = fields[side]
    i = data.draw(st.integers(0, len(angles) - 2))
    if repeat:
        angles[i + 1] = angles[i]
    else:
        angles[i], angles[i + 1] = angles[i + 1], angles[i]
    assert "strictly increasing" in _assert_same_message(fields)


@SETTINGS
@given(layouts(), st.sampled_from(["drop-row", "add-row", "drop-entry", "add-entry"]), st.data())
def test_wrong_shape_message(layout, how, data):
    fields = _fields(layout)
    windings = fields[2]
    if how == "add-row" or not windings:
        windings.append([Fraction(0)] * layout.n_outer)
    elif how == "drop-row":
        windings.pop(data.draw(st.integers(0, len(windings) - 1)))
    else:
        row = windings[data.draw(st.integers(0, len(windings) - 1))]
        if how == "add-entry" or not row:
            row.append(data.draw(fractions))
        else:
            row.pop()
    assert "windings must have shape" in _assert_same_message(fields)


@SETTINGS
@given(layouts(1, 1), st.integers(-2, 2), st.data())
def test_winding_off_by_one_tick_message(layout, turns, data):
    fields = _fields(layout)
    i = data.draw(st.integers(0, layout.n_inner - 1))
    j = data.draw(st.integers(0, layout.n_outer - 1))
    tick = Fraction(2, max(8 * layout.n * layout.n, 64))  # the generator's tick
    off = data.draw(st.sampled_from([tick, -tick, Fraction(1)]) | fractions.filter(lambda x: x % 2 != 0))
    fields[2][i][j] += off + 2 * turns
    assert "not congruent" in _assert_same_message(fields)
    fields[2][i][j] -= off  # whole turns off: still a valid layout
    assert _assert_same_message(fields) is None


# ----------------------------------------------------------------------
# trusted compiled drawings; class files read once
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_compilers_emit_canonical_pairs(n):
    for seed in range(4):
        for d in (
            compile_layout(gen_cylindrical(n // 2, n - n // 2, seed)),
            compile_book(gen_book(n, seed)),
            compile_points(gen_points(n, seed)),
        ):
            assert canonical_pairs(d.crossings)
            assert d == Drawing(d.n, d.crossings, d.rotations, d.vertex_labels)


def test_compiled_drawing_canonicalizes_rotations():
    d = Drawing.from_rows(3, (0, 0, 0), ((2, 1), (2, 0), (1, 0)), None)
    assert d.rotations == ((1, 2), (0, 2), (0, 1))
    assert d == Drawing(3, frozenset(), ((1, 2), (0, 2), (0, 1)))


@pytest.mark.parametrize("command", ["validate", "verify"])
def test_class_file_is_opened_once(tmp_path, monkeypatch, command):
    with open(GOLDEN, encoding="ascii") as fh:
        text = json.load(fh)["files"]["records.classes"]["text"]
    path = tmp_path / "records.classes"
    path.write_text(text, encoding="ascii")
    real_open, opened = builtins.open, []

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main([command, str(path)])
    assert out.getvalue().startswith("records: 7\n")
    assert code == (0 if command == "validate" else 2)
    assert opened.count(str(path)) == 1
