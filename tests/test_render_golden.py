"""Golden SVGs: ``render_svg`` output must not change, byte for byte.

``data/render_golden.json`` maps each case's id to the SVG drawn for it.
The cases cover annulus, book and point layouts and the schematic
picture of a compiled point set, with n from 2 to 13 and k = 2 or 3.
Every other one highlights a spanning tree.  They also cover the 1+1
annulus and the annuli with one empty circle.

A change that alters the pictures on purpose re-records them with
``python tests/test_render_golden.py --record``.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

from planetrees.generators import gen_book, gen_cylindrical, gen_points
from planetrees.render import render_svg
from planetrees.straightline import compile_points

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "render_golden.json")

GENERATED = {
    "cylindrical": lambda n, seed, k: gen_cylindrical(n // 2, n - n // 2, seed, k=k),
    "book": lambda n, seed, k: gen_book(n, seed, k=k),
    "points": lambda n, seed, k: gen_points(n, seed, k=k),
    "schematic": lambda n, seed, k: compile_points(gen_points(n, seed, k=k)),
}
# One-circle and 1+1 annuli: (n_inner, n_outer).
ANNULI = [(1, 1), (0, 5), (4, 0)]


def spanning_tree(n: int, seed: int) -> frozenset:
    """A seeded random spanning tree of K_n; it need not be plane."""
    rng = random.Random(seed)
    return frozenset((rng.randrange(v), v) for v in range(1, n))


def cases() -> dict[str, tuple]:
    """Case id -> (object to render, tree or None)."""
    out = {}
    for kind, build in GENERATED.items():
        for n in range(2, 14):
            seed, k, tree = n, 2 if n % 4 < 2 else 3, n % 2 == 1
            tag = f"{kind}-n{n}-k{k}-seed{seed}{'-tree' if tree else ''}"
            out[tag] = (build(n, seed, k), spanning_tree(n, seed) if tree else None)
    for p, q in ANNULI:
        for seed in (0, 1):
            tag = f"cylindrical-{p}+{q}-seed{seed}{'-tree' if seed else ''}"
            out[tag] = (gen_cylindrical(p, q, seed), spanning_tree(p + q, seed) if seed else None)
    return out


CASES = cases()


@pytest.fixture(scope="module")
def golden():
    with open(DATA, encoding="ascii") as fh:
        return json.load(fh)


def test_golden_ids_match_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_svg_is_unchanged(golden, case):
    obj, tree = CASES[case]
    assert render_svg(obj, tree) == golden[case]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    with open(DATA, "w", encoding="ascii") as fh:
        json.dump({case: render_svg(*CASES[case]) for case in sorted(CASES)}, fh, indent=1, sort_keys=True)
        fh.write("\n")
