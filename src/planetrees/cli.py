"""Command-line surface tying together solvers, search, and rendering.

Commands map one-to-one onto library operations and print a
machine-readable report: one ``key: value`` pair per line plus the
edge list of any tree found.  Exit codes: 0 when a tree is found or a
verification passes, 2 on a counterexample (including exhausted
searches), 1 on input errors or guard violations.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional

from . import formats
from .book import solve_book
from .core import (
    Drawing,
    SolveReport,
    STATUS_TREE_FOUND,
    validate_drawing,
)
from .cylindrical import solve_cylindrical
from .generators import gen_book, gen_coloring, gen_cylindrical, gen_points
from .monotone import MAX_GROUP_SPAN, MonotoneDrawing, solve_monotone
from .render import render_svg
from .search import (
    JOBS_ENV,
    VerifyReport,
    check_desk_scale,
    find_plane_tree,
    verify_all_colorings,
    verify_classes,
)
from .straightline import solve_points

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_COUNTEREXAMPLE = 2

LONG_RUN_NOTE = (
    "Exhaustive 2-coloring verification is refused for n >= 7 unless --long-run "
    "is given (or PLANETREES_LONG_RUN=1): a single drawing with n=7 already has "
    "2^20 colorings to check, and full verification over all drawings of K_8 is "
    "out of reach at desk scale -- there are 5,370,725 weak isomorphism classes "
    "of simple drawings of K_8, each with more than 10^8 distinct 2-colorings."
)


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


def _emit(key: str, value) -> None:
    print(f"{key}: {value}")


def _emit_report(rep: SolveReport) -> None:
    _emit("status", rep.status)
    if rep.checked_invariants:
        _emit(
            "invariants",
            " ".join(f"{name}={'pass' if ok else 'FAIL'}" for name, ok in rep.checked_invariants),
        )
    if rep.avoided_colors:
        _emit("avoided", " ".join(str(c) for c in sorted(rep.avoided_colors)))
    if rep.witness:
        for key in ("tree_color", "removed_color", "rounds", "reason"):
            if key in rep.witness:
                _emit(key.replace("_", "-"), rep.witness[key])
    if rep.tree is not None:
        _emit("tree", " ".join(f"{u}-{v}" for u, v in sorted(rep.tree)))


def _report_exit(rep: SolveReport) -> int:
    return EXIT_OK if rep.status == STATUS_TREE_FOUND else EXIT_COUNTEREXAMPLE


def _load(text: str, reader: str, kinds=formats.DRAWING_KINDS, colors: Optional[str] = None) -> formats.Instance:
    """The instance in ``text``; a ``--colors`` file replaces its colouring."""
    inst = formats.load_instance(text, kinds, reader)
    if colors is None:
        return inst
    coloring = formats.parse_coloring(_read(colors))
    if coloring.n != inst.n:
        raise ValueError(f"coloring file has n={coloring.n}, instance has n={inst.n}")
    value = inst.value if inst.kind == "drawing" else dataclasses.replace(inst.value, color=coloring)
    return dataclasses.replace(inst, value=value, coloring=coloring)


def _checked(d: Drawing) -> Drawing:
    """``d``, refused when it breaks the structural axioms."""
    violations = validate_drawing(d)
    if violations:
        raise ValueError(f"invalid drawing: {'; '.join(violations)}")
    return d


def cmd_validate(args) -> int:
    text = _read(args.file)
    if formats.detect_kind(text) == "class":
        drawings = formats.parse_classes(text)
        bad = 0
        for i, d in enumerate(drawings):
            violations = validate_drawing(d)
            for v in violations:
                _emit(f"record-{i}", v)
            bad += bool(violations)
        _emit("records", len(drawings))
        _emit("status", "ok" if bad == 0 else f"{bad} invalid records")
        return EXIT_OK if bad == 0 else EXIT_INPUT_ERROR
    inst = _load(text, "validate", tuple(formats.KINDS))
    if inst.kind == "coloring":
        _emit("kind", "coloring")
        _emit("status", "ok")
        return EXIT_OK
    d = inst.drawing()
    violations = validate_drawing(d)
    _emit("kind", inst.kind)
    _emit("n", d.n)
    _emit("crossings", sum(1 for _ in d.pairs()))
    for v in violations:
        _emit("violation", v)
    _emit("status", "ok" if not violations else f"{len(violations)} violations")
    return EXIT_OK if not violations else EXIT_INPUT_ERROR


def _solve_monotone(inst: formats.Instance, args) -> SolveReport:
    """The monotone solver on a point set, or on a drawing with an x-order and a colouring."""
    if inst.kind == "points":
        return solve_monotone(MonotoneDrawing.from_points(inst.value), inst.coloring, d=args.group_span)
    d = _checked(inst.drawing())
    if inst.x_order is None:
        raise ValueError("monotone solver needs an xorder line in drawing files")
    if inst.coloring is None:
        raise ValueError("monotone solver needs a coloring (embedded or --colors)")
    return solve_monotone(MonotoneDrawing(d, inst.x_order), inst.coloring, d=args.group_span)


# solve --class -> (the file kinds it reads, its solver of (instance, args)); layout solvers compile their layout.
SOLVERS = {
    "cylindrical": (("cylindrical",), lambda inst, args: solve_cylindrical(inst.value, args.assert_invariants)),
    "book": (("book",), lambda inst, args: solve_book(inst.value)),
    "pseudolinear": (("points",), lambda inst, args: solve_points(inst.value)),
    "monotone": (("points", "drawing"), _solve_monotone),
}


def cmd_solve(args) -> int:
    kinds, solve = SOLVERS[args.solver_class]
    rep = solve(_load(_read(args.file), f"solver class {args.solver_class}", kinds, args.colors), args)
    _emit("class", args.solver_class)
    _emit_report(rep)
    return _report_exit(rep)


# brute --mode name -> (find_plane_tree mode, whether ":<color>" follows).
BRUTE_MODES = {"mono": ("monochromatic", False), "hypo": ("hypochromatic", False), "avoid": ("avoid", True)}


def _brute_mode(text: str) -> tuple[str, Optional[int]]:
    """The search mode and color named by ``--mode``."""
    name, sep, color = text.partition(":")
    mode, takes_color = BRUTE_MODES.get(name, (None, None))
    if mode is not None and takes_color == bool(sep):
        try:
            return mode, int(color) if sep else None
        except ValueError:
            pass
    raise ValueError(f"unknown mode {text!r} (use mono, avoid:<c>, or hypo)")


def cmd_brute(args) -> int:
    mode, color = _brute_mode(args.mode)
    inst = _load(_read(args.file), "brute", colors=args.colors)
    d = _checked(inst.drawing())
    coloring = inst.coloring
    if coloring is None:
        raise ValueError("no coloring: embed a colors section or pass --colors")
    rep = find_plane_tree(d, coloring, mode=mode, color=color, allow_large=args.allow_large)
    _emit("n", d.n)
    _emit("mode", args.mode)
    _emit_report(rep)
    return _report_exit(rep)


def _emit_verify(report: VerifyReport) -> int:
    _emit("n", report.n)
    _emit("colorings", report.colorings_checked)
    _emit("plane-trees", report.plane_tree_count)
    _emit("failures", len(report.failures))
    for fail in report.failures:
        _emit("failing-coloring", fail["coloring"])
    _emit("status", "verified" if report.passed else "counterexample")
    return EXIT_OK if report.passed else EXIT_COUNTEREXAMPLE


# gen --class -> (its size flags, its generator of (*sizes, seed, k), its writer).
GENERATORS = {
    "cylindrical": (("n_inner", "n_outer"), gen_cylindrical, formats.serialize_cylindrical),
    "book": (("n",), gen_book, formats.serialize_book),
    "points": (("n",), gen_points, formats.serialize_points),
    "coloring": (("n",), lambda n, seed, k: gen_coloring(n, k, seed), formats.serialize_coloring),
}


def _generate(cls: str, sizes: dict[str, Optional[int]], seed: int, k: int = 2):
    """The seeded instance of ``gen --class cls`` with the size flags in ``sizes``."""
    flags, generate, _ = GENERATORS[cls]
    values = [sizes[flag] for flag in flags]
    if None in values:
        raise ValueError(f"gen --class {cls} needs " + " and ".join("--" + f.replace("_", "-") for f in flags))
    if sum(values) > formats.MAX_VERTICES:
        raise ValueError(f"n={sum(values)} exceeds the limit of {formats.MAX_VERTICES} vertices")
    return generate(*values, seed, k)


def _refuse_size_flags(args, command: str, cls: str, flags: tuple[str, ...]) -> None:
    """Refuse each size flag of ``flags`` set in ``args`` that ``cls`` does not take."""
    for flag in flags:
        if vars(args)[flag] is not None and flag not in GENERATORS[cls][0]:
            raise ValueError(f"{command} {cls} does not take --{flag.replace('_', '-')}")


def _generated_drawing(args) -> Drawing:
    n = args.n
    if n is None:
        raise ValueError("verify --gen needs --n")
    _refuse_size_flags(args, "verify --gen", args.gen, ("n_inner",))
    check_desk_scale(n, args.long_run)
    n_inner = n // 2 if args.n_inner is None else args.n_inner
    sizes = {"n": n, "n_inner": n_inner, "n_outer": n - n_inner}
    return formats.KINDS[args.gen][1](_generate(args.gen, sizes, args.seed))


def cmd_verify(args) -> int:
    if args.gen is None:
        text = _read(args.file)
        kind = formats.detect_kind(text)
        if kind == "class":
            report = verify_classes(formats.parse_classes(text), args.long_run, args.jobs, args.start or 0)
            _emit("records", report.records_verified)
            _emit("colorings", report.colorings_checked)
            _emit("failures", len(report.failures))
            for rec_no, fail in report.failures:
                _emit(f"failing-record-{rec_no}", fail["coloring"])
            _emit("status", "verified" if report.passed else "counterexample")
            return EXIT_OK if report.passed else EXIT_COUNTEREXAMPLE
    if args.start is not None:
        source = "--gen instances" if args.gen else f"{kind} files"
        raise ValueError(f"--start applies only to class files, not to {source}")
    d = _checked(_load(text, "verify").drawing()) if args.gen is None else _generated_drawing(args)
    return _emit_verify(verify_all_colorings(d, long_run=args.long_run, jobs=args.jobs))


def cmd_gen(args) -> int:
    _refuse_size_flags(args, "gen --class", args.gen_class, ("n", "n_inner", "n_outer"))
    write = GENERATORS[args.gen_class][2]
    text = write(_generate(args.gen_class, vars(args), args.seed, args.k))
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
        _emit("written", args.output)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_render(args) -> int:
    inst = _load(_read(args.file), "render")
    _checked(inst.drawing())
    tree = None
    if args.tree:
        try:
            tree = formats.parse_tree(_read(args.tree), inst.n)
        except formats.ParseError as exc:
            raise ValueError(f"tree file {args.tree}: {exc}") from None
    svg = render_svg(inst.value, tree)
    with open(args.output, "w", encoding="ascii") as fh:
        fh.write(svg)
    _emit("written", args.output)
    return EXIT_OK


def _jobs_count(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer (from --jobs or {JOBS_ENV}), got {text!r}"
        )
    return jobs


class _Parser(argparse.ArgumentParser):
    # Usage errors are input errors (exit 1); argparse's default exit
    # code 2 is reserved for counterexamples.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="planetrees",
        description=(
            "Monochromatic and hypochromatic plane spanning trees in edge-colored "
            "simple drawings of complete graphs: constructive solvers for annulus, "
            "book, straight-line, and monotone drawings, plus a brute-force "
            "verification engine."
        ),
        epilog=LONG_RUN_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a file's structural axioms")
    p_val.add_argument("file")
    p_val.set_defaults(func=cmd_validate)

    p_solve = sub.add_parser("solve", help="run a constructive solver")
    p_solve.add_argument("--class", dest="solver_class", required=True, choices=SOLVERS)
    p_solve.add_argument("file")
    p_solve.add_argument("--colors", help="coloring file overriding the embedded one")
    p_solve.add_argument("--assert-invariants", action="store_true",
                         help="assert per-step sweep invariants")
    p_solve.add_argument("--group-span", type=int, default=MAX_GROUP_SPAN,
                         help=f"monotone group span d (default {MAX_GROUP_SPAN})")
    p_solve.set_defaults(func=cmd_solve)

    p_brute = sub.add_parser("brute", help="exhaustive plane-tree search")
    p_brute.add_argument("file")
    p_brute.add_argument("--mode", required=True,
                         help="mono, avoid:<color>, or hypo")
    p_brute.add_argument("--colors", help="coloring file")
    p_brute.add_argument("--allow-large", action="store_true",
                         help="lift the n <= 10 enumeration guard")
    p_brute.set_defaults(func=cmd_brute)

    p_verify = sub.add_parser(
        "verify",
        help="check every 2-coloring for a monochromatic plane spanning tree",
        description="Exhaustively verify drawings (single files, generated "
        "instances, or class files with one crossing-set record per line).",
        epilog=LONG_RUN_NOTE,
    )
    p_verify.add_argument("file", nargs="?", help="drawing, layout, or class file")
    p_verify.add_argument("--gen", choices=[c for c in GENERATORS if formats.KINDS[c][1]],
                          help="verify a generated instance instead of a file")
    p_verify.add_argument("--n", type=int, help="vertex count for --gen")
    p_verify.add_argument("--n-inner", type=int, help="inner-circle size for --gen cylindrical")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--long-run", action="store_true",
                          help="allow exhaustive runs with n >= 7")
    # A string default goes through _jobs_count only when --jobs is absent.
    p_verify.add_argument("--jobs", type=_jobs_count, default=os.environ.get(JOBS_ENV) or "1",
                          help=f"parallel verification shards, at most one per CPU "
                          f"(default: {JOBS_ENV} or 1)")
    p_verify.add_argument("--start", type=int,
                          help="first record index for resumable class-file runs (class files only)")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a seeded instance")
    p_gen.add_argument("--class", dest="gen_class", required=True, choices=GENERATORS)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--n-inner", type=int)
    p_gen.add_argument("--n-outer", type=int)
    p_gen.add_argument("--k", type=int, default=2, help="number of colors")
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(func=cmd_gen)

    p_render = sub.add_parser("render", help="render a drawing or layout to SVG")
    p_render.add_argument("file")
    p_render.add_argument("--tree", help="file with tree edges to highlight")
    p_render.add_argument("-o", "--output", required=True)
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if args.file is None and args.gen is None:
            parser.error("verify needs a file or --gen")
        if args.file is not None and args.gen is not None:
            parser.error("verify takes a file or --gen, not both")
        if args.file is not None and (args.n, args.n_inner) != (None, None):
            parser.error("--n and --n-inner apply only to --gen, not to a file")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
