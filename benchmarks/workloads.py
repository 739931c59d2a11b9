"""Workloads of the planetrees benchmark.

A workload builds seeded instances with ``planetrees.generators`` at
set-up, runs one operation per instance in the timed loop, and checks
every answer with ``check.py``.  In the traced run, a probe pass runs
each instance's operation once more and replays it through the
layers' public functions right after, so the per-layer times and
counts cover exactly one pass over the instances.

``pt`` is a namespace of the package's modules (``pt.cli``,
``pt.formats``, ...), imported afresh by each set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
from collections import Counter
from typing import Optional

import check

STATUS_OK = "tree-found"
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_verify.json")


@dataclasses.dataclass
class Instance:
    label: str  # solver class, or the layer that compiled a verify drawing
    key: str  # generator call that made it, e.g. "book:n=6:seed=3004"
    path: str
    text: str  # the file the program reads
    geometry: Optional[str] = None  # layout file the checker reads, when it differs


def stratified_n(i: int, count: int, lo: int, hi: int) -> int:
    """The i-th of ``count`` sizes spread evenly over lo..hi."""
    return lo if count == 1 else lo + (hi - lo) * i // (count - 1)


def run_cli(pt, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pt.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _certify(pt, tr, counts: Counter, d, tree) -> None:
    with tr.span("core.certify"):
        pt.core.is_plane(d, tree)
        pt.core.is_spanning_tree(d.n, tree)
    counts["core.certify_calls"] += 1


class Construct:
    """``solve --class <cylindrical|book|pseudolinear>`` through the CLI.

    Classes rotate; each class gets ``per_class`` sizes spread over
    n_lo..n_hi, so every seed has the same size mix.  Every other
    annulus layout gets monochromatic cycles of different colours, so
    the multi-round sweep runs as well as the reduction path.
    """

    def __init__(self, per_class: int = 34, n_lo: int = 8, n_hi: int = 24):
        self.per_class, self.n_lo, self.n_hi = per_class, n_lo, n_hi

    def build(self, pt, seed: int, workdir: str, tr, counts: Counter) -> list[Instance]:
        rng = random.Random(f"construct:{seed}")
        gen, fmt = pt.generators, pt.formats
        out = []
        for i in range(self.per_class):
            n = stratified_n(i, self.per_class, self.n_lo, self.n_hi)
            s = seed * 1000 + i
            p = n // 2 + rng.randint(-1, 1)
            with tr.span("generators"):
                layout = gen.gen_cylindrical(p, n - p, s)
                book = gen.gen_book(n, s)
                points = gen.gen_points(n, s)
            if i % 2:
                layout = self._split_cycle_colours(pt, layout, p)
            cases = (
                ("cylindrical", f"cylindrical:{p}:{n - p}:seed={s}", fmt.serialize_cylindrical(layout)),
                ("book", f"book:n={n}:seed={s}", fmt.serialize_book(book)),
                ("pseudolinear", f"points:n={n}:seed={s}", fmt.serialize_points(points)),
            )
            for label, key, text in cases:
                path = os.path.join(workdir, f"{len(out):03d}.{label}")
                out.append(Instance(label, key, path, text))
        return out

    @staticmethod
    def _split_cycle_colours(pt, layout, p: int):
        n = layout.n
        colours = layout.color.as_map()
        for ids, colour in ((list(range(p)), 0), (list(range(p, n)), 1)):
            for a, b in zip(ids, ids[1:] + ids[:1]):
                colours[(min(a, b), max(a, b))] = colour
        return dataclasses.replace(layout, color=pt.core.EdgeColoring.from_map(n, 2, colours))

    def op(self, pt, inst: Instance, tr):
        with tr.span("cli.main"):
            return run_cli(pt, ["solve", "--class", inst.label, inst.path])

    def problems(self, inst: Instance, result) -> list[str]:
        code, out, err = result
        report = check.parse_report(out)
        if code != 0 or report.get("status") != STATUS_OK:
            return [f"exit {code}, status {report.get('status')}: {err.strip()}"]
        n, cross = check.parse_instance(inst.text)
        colours, k = check.parse_colours(inst.text)
        tree = check.parse_tree(report.get("tree", ""))
        return check.tree_problems(n, tree, cross, colours, k, "monochromatic")

    def probe(self, pt, inst: Instance, tr, counts: Counter) -> None:
        self.op(pt, inst, tr)
        layer, parse, compile_, solve = {
            "cylindrical": (
                "cylindrical",
                pt.formats.parse_cylindrical,
                pt.cylindrical.compile_layout,
                lambda obj: pt.cylindrical.solve_cylindrical(obj, assert_invariants=False),
            ),
            "book": ("book", pt.formats.parse_book, pt.book.compile_book, pt.book.solve_book),
            "pseudolinear": (
                "straightline",
                pt.formats.parse_points,
                pt.straightline.compile_points,
                pt.straightline.solve_points,
            ),
        }[inst.label]
        with tr.span("formats.parse"):
            obj = parse(inst.text)
        counts["formats.parse_bytes"] += len(inst.text)
        with tr.span(f"{layer}.compile"):
            d = compile_(obj)
        counts[f"compile.crossings.{layer}"] += len(d.crossings)
        with tr.span(f"{layer}.solve"):
            report = solve(obj)
        _certify(pt, tr, counts, d, report.tree)
        witness = report.witness or {}
        if layer == "cylindrical":
            counts["cylindrical.sweep_rounds"] += witness.get("rounds", 0)
            counts["cylindrical.reduced_ops"] += len(witness.get("removed_vertices", ()))
        elif layer == "book":
            counts["book.peeled_vertices"] += len(witness.get("removed_vertices", ()))


class Monotone:
    """Trusted ``drawing`` files with an ``xorder`` line, solved by the library.

    The drawings are compiled from seeded point sets with n spread over
    n_lo..n_hi and k = ceil((n+5)/6) colours.  One operation reads and
    parses the file, runs ``solve_monotone``, then cross-checks every
    group with the brute-force oracle as the paper's criterion 3 does:
    ``induced_subdrawing`` plus ``find_plane_tree`` in hypochromatic
    mode and in avoid-the-removed-colour mode.
    """

    def __init__(self, count: int = 150, n_lo: int = 8, n_hi: int = 19):
        self.count, self.n_lo, self.n_hi = count, n_lo, n_hi

    def build(self, pt, seed: int, workdir: str, tr, counts: Counter) -> list[Instance]:
        out = []
        for i in range(self.count):
            n = stratified_n(i, self.count, self.n_lo, self.n_hi)
            k = -(-(n + 5) // 6)
            s = seed * 1000 + i
            with tr.span("generators"):
                points = pt.generators.gen_points(n, s, k=k)
            with tr.span("straightline.compile"):
                d = pt.straightline.compile_points(points)
            counts["compile.crossings.straightline"] += len(d.crossings)
            x_order = tuple(sorted(range(n), key=lambda v: points.points[v][0]))
            text = pt.formats.serialize_drawing(d, points.color, x_order)
            path = os.path.join(workdir, f"m{i:03d}.drawing")
            out.append(Instance("drawing", f"points:n={n}:k={k}:seed={s}", path, text))
        return out

    def _solve(self, pt, inst: Instance, tr):
        with open(inst.path, encoding="ascii") as fh:
            text = fh.read()
        with tr.span("formats.parse"):
            d, colouring, x_order = pt.formats.parse_drawing(text)
        drawing = pt.monotone.MonotoneDrawing(d, x_order)
        with tr.span("monotone.solve"):
            report = pt.monotone.solve_monotone(drawing, colouring)
        oracle = []
        if report.status == STATUS_OK:
            removed = report.witness["removed_color"]
            for group in report.witness["groups"]:
                with tr.span("core.induced_subdrawing"):
                    sub_d, sub_c = pt.core.induced_subdrawing(d, colouring, group)
                with tr.span("search.find_plane_tree"):
                    hypo = pt.search.find_plane_tree(sub_d, sub_c, mode="hypochromatic")
                with tr.span("search.find_plane_tree"):
                    avoid = pt.search.find_plane_tree(sub_d, sub_c, mode="avoid", color=removed)
                oracle.append((hypo.status, avoid.status))
        return d, report, tuple(oracle)

    def op(self, pt, inst: Instance, tr):
        _, report, oracle = self._solve(pt, inst, tr)
        return report.status, report.tree, oracle

    def problems(self, inst: Instance, result) -> list[str]:
        status, tree, oracle = result
        if status != STATUS_OK:
            return [f"status {status}"]
        misses = sum(s != STATUS_OK for pair in oracle for s in pair)
        if misses:
            return [f"group oracle found no tree {misses} time(s)"]
        n, cross = check.parse_instance(inst.text)
        colours, k = check.parse_colours(inst.text)
        return check.tree_problems(n, tree, cross, colours, k, "hypochromatic")

    def probe(self, pt, inst: Instance, tr, counts: Counter) -> None:
        counts["formats.parse_bytes"] += len(inst.text)
        d, report, oracle = self._solve(pt, inst, tr)
        if report.tree is not None:
            _certify(pt, tr, counts, d, report.tree)
        counts["monotone.groups"] += len(oracle)
        counts["search.find_plane_tree_calls"] += 2 * len(oracle)
        counts["search.find_plane_tree_hits"] += sum(s == STATUS_OK for pair in oracle for s in pair)


class Verify:
    """``verify <file>`` on n=6 drawings of all three classes.

    Each drawing is compiled at set-up and written as a ``drawing``
    file; one operation checks all 2^14 colourings.  The checker
    counts plane trees from the layout's geometry, not from the
    compiled crossing list.
    """

    N = 6

    def __init__(self, per_class: int = 17):
        self.per_class = per_class
        self._expected: dict[str, tuple[int, int, int]] = {}
        with open(REFERENCE_FILE, encoding="ascii") as fh:
            self._reference: dict[str, int] = json.load(fh)["plane_trees"]

    def build(self, pt, seed: int, workdir: str, tr, counts: Counter) -> list[Instance]:
        gen, n = pt.generators, self.N
        out = []
        for i in range(self.per_class):
            s = seed * 1000 + i
            p = 1 + i % (n - 1)
            with tr.span("generators"):
                layouts = (
                    (f"cylindrical:{p}:{n - p}:seed={s}", gen.gen_cylindrical(p, n - p, s)),
                    (f"book:n={n}:seed={s}", gen.gen_book(n, s)),
                    (f"points:n={n}:seed={s}", gen.gen_points(n, s)),
                )
            for (key, layout), (layer, compile_, serialize) in zip(layouts, self._classes(pt)):
                with tr.span(f"{layer}.compile"):
                    d = compile_(layout)
                counts[f"compile.crossings.{layer}"] += len(d.crossings)
                path = os.path.join(workdir, f"v{len(out):03d}.drawing")
                text = pt.formats.serialize_drawing(d)
                out.append(Instance(layer, key, path, text, serialize(layout)))
        return out

    @staticmethod
    def _classes(pt):
        return (
            ("cylindrical", pt.cylindrical.compile_layout, pt.formats.serialize_cylindrical),
            ("book", pt.book.compile_book, pt.formats.serialize_book),
            ("straightline", pt.straightline.compile_points, pt.formats.serialize_points),
        )

    def op(self, pt, inst: Instance, tr):
        with tr.span("cli.main"):
            return run_cli(pt, ["verify", inst.path])

    def expected(self, inst: Instance) -> tuple[int, int, int]:
        """Colourings, plane trees and failures counted by the checker."""
        if inst.key not in self._expected:
            n, cross = check.parse_instance(inst.geometry)
            masks = check.plane_tree_masks(n, cross)
            colourings = 1 << (n * (n - 1) // 2 - 1)
            self._expected[inst.key] = (colourings, len(masks), check.uncovered_colourings(n, masks))
        return self._expected[inst.key]

    def problems(self, inst: Instance, result) -> list[str]:
        code, out, err = result
        report = check.parse_report(out)
        colourings, trees, failures = self.expected(inst)
        problems = []
        if code != 0 or report.get("status") != "verified":
            problems.append(f"exit {code}, status {report.get('status')}: {err.strip()}")
        printed = (report.get("colorings"), report.get("plane-trees"), report.get("failures"))
        if printed != (str(colourings), str(trees), "0") or failures != 0:
            problems.append(
                f"printed colorings/plane-trees/failures {printed}, "
                f"checker counts {(colourings, trees, failures)}"
            )
        reference = self._reference.get(inst.key)
        if reference is not None and reference != trees:
            problems.append(f"plane-trees {trees} differs from the recorded {reference}")
        return problems

    def probe(self, pt, inst: Instance, tr, counts: Counter) -> None:
        self.op(pt, inst, tr)
        with tr.span("formats.parse"):
            d, _, _ = pt.formats.parse_drawing(inst.text)
        counts["formats.parse_bytes"] += len(inst.text)
        with tr.span("search.verify"):
            report = pt.search.verify_all_colorings(d)
        counts["search.colorings_checked"] += report.colorings_checked
        counts["search.plane_trees"] += report.plane_tree_count
        counts["search.tree_space"] += d.n ** (d.n - 2)


class Search:
    """The two uses of ``search`` in one loop: every ``Monotone``
    instance, then every ``Verify`` instance.

    ``monotone`` is the early-exit use (one colouring, many small
    drawings), ``verify`` the exhaustive one (all colourings of one
    drawing).  Each pass takes about as long on either part, so a
    search change that helps one use and costs the other shows in the
    end-to-end figures as a smaller net change, and in the trace as
    ``search.find_plane_tree_s`` against ``search.verify_s``.
    """

    def __init__(self, monotone: Monotone, verify: Verify):
        self.parts = (monotone, verify)
        self._owner: dict[str, object] = {}

    def build(self, pt, seed: int, workdir: str, tr, counts: Counter) -> list[Instance]:
        out = []
        for part in self.parts:
            for inst in part.build(pt, seed, workdir, tr, counts):
                self._owner[inst.path] = part
                out.append(inst)
        return out

    def op(self, pt, inst: Instance, tr):
        return self._owner[inst.path].op(pt, inst, tr)

    def problems(self, inst: Instance, result) -> list[str]:
        return self._owner[inst.path].problems(inst, result)

    def probe(self, pt, inst: Instance, tr, counts: Counter) -> None:
        self._owner[inst.path].probe(pt, inst, tr, counts)


def make(name: str, tiny: bool = False):
    """The named workload at full size, or at a size that runs in about a second."""
    if name == "construct":
        return Construct(1, 8, 9) if tiny else Construct()
    if name == "search":
        if tiny:
            return Search(Monotone(2, 8, 9), Verify(per_class=1))
        return Search(Monotone(), Verify())
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("construct", "search")
