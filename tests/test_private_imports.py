"""No module of the package imports a private (underscore) name from a
sibling module: what one module shares with another is public."""

import ast
import pathlib

import planetrees

PACKAGE = pathlib.Path(planetrees.__file__).parent


def private_imports(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("planetrees")):
            found += [f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [hit for path in modules for hit in private_imports(path)] == []
