import gc
import importlib
import sys
import weakref

import pytest

from planetrees.core import Drawing
from planetrees.generators import gen_book, gen_cylindrical, gen_points
from planetrees.render import render_svg
from planetrees.cylindrical import solve_cylindrical


def test_one_plus_one_layout_has_two_circles_one_curve():
    layout = gen_cylindrical(1, 1, 0)
    svg = render_svg(layout)
    assert svg.count("<circle") >= 2 + 2  # two guide circles + two vertex dots
    assert svg.count("<polyline") == 1  # the single side edge


def test_render_deterministic():
    layout = gen_cylindrical(2, 3, 7)
    assert render_svg(layout) == render_svg(layout)
    book = gen_book(5, 7)
    assert render_svg(book) == render_svg(book)
    pts = gen_points(5, 7)
    assert render_svg(pts) == render_svg(pts)


def test_tree_highlight_group_contains_tree_edges():
    layout = gen_cylindrical(2, 2, 3)
    rep = solve_cylindrical(layout)
    svg = render_svg(layout, rep.tree)
    start = svg.index('<g class="tree"')
    end = svg.index("</g>", start)
    group = svg[start:end]
    drawn = group.count("<polyline") + group.count("<path")
    assert drawn == len(rep.tree)


def test_book_and_points_render_all_edges():
    book = gen_book(4, 1)
    svg = render_svg(book)
    assert svg.count("A ") == 6  # one elliptical arc per edge
    pts = gen_points(4, 1)
    svg = render_svg(pts)
    assert svg.count("<path") == 6


def test_schematic_drawing_render():
    d = Drawing(5, frozenset({((0, 2), (1, 3))}))
    svg = render_svg(d)
    assert svg.count("<path") == 10


def test_render_vertex_guard():
    d = Drawing(51, frozenset())
    with pytest.raises(ValueError, match="50"):
        render_svg(d)


def _package_modules() -> list[str]:
    return [name for name in sys.modules if name == "planetrees" or name.startswith("planetrees.")]


def test_a_dropped_import_of_the_package_is_freed():
    """A fresh import of every module, once dropped from sys.modules, leaves
    no class alive: no module-level typing construct (whose cache outlives
    the module) holds one."""
    saved = {name: sys.modules.pop(name) for name in _package_modules()}
    try:
        for name in saved:
            importlib.import_module(name)
        fresh = weakref.ref(sys.modules["planetrees.core"].Drawing)
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert fresh() is None
