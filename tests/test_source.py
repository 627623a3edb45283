"""Source-level checks on the library package."""

import ast
from pathlib import Path

import spgroth

PACKAGE = Path(spgroth.__file__).resolve().parent


def test_library_holds_no_assert_statements():
    # python -O strips assert statements, so a check the library relies on
    # must raise explicitly
    found = []
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_library_raises_no_assertion_error():
    # an internal failure is a RuntimeError; AssertionError is for tests
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
