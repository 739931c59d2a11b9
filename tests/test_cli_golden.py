"""Golden CLI outputs: stdout and exit code of every case must not change.

``data/cli_golden.json`` holds the input files (seeded generator
output, random crossing sets and a few invalid or degenerate files,
each with the call that made it under ``key``) and, per case, the
argv (``@name`` stands for a file's path), the exit code and the exact
stdout.  It covers validate, solve for all four classes with and
without ``--assert-invariants``, brute in mono, hypo and avoid modes,
and verify on n <= 6 files, class files and ``--gen`` instances.
Stderr is compared only in the cases that record it: the drawing files
refused for a repeated line, and ``gen`` and ``verify --gen`` refused
for a missing or too large size or a size flag the class does not
take.  Elsewhere an error message may be reworded.

A change that alters the output on purpose re-records the expected
values with ``python tests/test_cli_golden.py --record``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

from planetrees.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")

with open(DATA, encoding="ascii") as _fh:
    GOLDEN = json.load(_fh)


def write_files(directory: str) -> None:
    for name, info in GOLDEN["files"].items():
        with open(os.path.join(directory, name), "w", encoding="ascii") as fh:
            fh.write(info["text"])


def run_case(argv: list[str], directory: str, err: io.StringIO | None = None) -> tuple[int, str]:
    real = [os.path.join(directory, a[1:]) if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err or io.StringIO()):
        code = main(real)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("golden"))
    write_files(directory)
    return directory


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[f"{i}:{' '.join(c['argv'])}" for i, c in enumerate(GOLDEN["cases"])]
)
def test_cli_output_is_unchanged(golden_dir, case):
    code, out = run_case(case["argv"], golden_dir)
    assert out == case["stdout"]
    assert code == case["exit"]


@pytest.mark.parametrize(
    "case", [c for c in GOLDEN["cases"] if "stderr" in c], ids=lambda c: " ".join(c["argv"])
)
def test_refusal_message_is_unchanged(golden_dir, case):
    err = io.StringIO()
    assert run_case(case["argv"], golden_dir, err) == (case["exit"], case["stdout"])
    assert err.getvalue() == case["stderr"]


def test_golden_set_covers_every_command():
    commands = {(c["argv"][0], c["argv"][2] if c["argv"][0] == "solve" else None) for c in GOLDEN["cases"]}
    assert {("validate", None), ("brute", None), ("verify", None)} <= commands
    assert {("solve", cls) for cls in ("cylindrical", "book", "pseudolinear", "monotone")} <= commands
    modes = {c["argv"][c["argv"].index("--mode") + 1].split(":")[0] for c in GOLDEN["cases"] if "--mode" in c["argv"]}
    assert modes == {"mono", "hypo", "avoid"}
    assert len(GOLDEN["files"]) >= 100


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_files(tmp)
        for case in GOLDEN["cases"]:
            err = io.StringIO()
            case["exit"], case["stdout"] = run_case(case["argv"], tmp, err)
            if "stderr" in case:
                case["stderr"] = err.getvalue()
    with open(DATA, "w", encoding="ascii") as fh:
        json.dump(GOLDEN, fh, indent=1, sort_keys=True)
        fh.write("\n")
