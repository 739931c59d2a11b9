"""Print each statement of src/planetrees that the test suite never runs.

Runs the tier-1 suite in this process under ``sys.settrace`` and prints
every statement line no test reached as ``file:line``, then the count.
Worker and child processes are not traced.  From the repository root:

    python tests/unreached_lines.py [extra pytest arguments]
"""

import ast
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "planetrees"
ran: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(str(SRC)) else None


def _code_lines(code) -> set[int]:
    """Lines that carry bytecode in ``code`` or a code object nested in it."""
    nested = (c for c in code.co_consts if hasattr(c, "co_lines"))
    return {line for *_, line in code.co_lines() if line} | set().union(*map(_code_lines, nested))


if __name__ == "__main__":
    sys.path.insert(0, str(SRC.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    import pytest

    threading.settrace(_calls)
    sys.settrace(_calls)
    pytest.main(["-q", "--continue-on-collection-errors", *sys.argv[1:]])
    sys.settrace(None)
    missed = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        stmts = {node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.stmt)}
        for line in sorted(stmts & _code_lines(compile(text, str(path), "exec"))):
            if (str(path), line) not in ran:
                missed.append(f"{path.relative_to(ROOT)}:{line}")
    print("\n".join(missed), f"\n{len(missed)} unreached statements", sep="")
