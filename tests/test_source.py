"""Source-level checks on the library package."""

import ast
import subprocess
import sys
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


# the library modules, without the package's re-exports
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _reads(node) -> set[str]:
    """The names a node refers to: bare names and attribute names."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_every_import_is_used():
    found = []
    for name, tree in MODULES.items():
        reads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{name}:{node.lineno} {alias.name}" for alias in node.names
                          if (alias.asname or alias.name.split(".")[0]) not in reads]
    assert found == []


def _defined_names(stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


# (module, top-level statement, the names it reads) across the package
STATEMENTS = [(name, stmt, _reads(stmt)) for name, tree in MODULES.items() for stmt in tree.body]


def _read_elsewhere(defined: str, stmt) -> bool:
    return any(defined in reads for _, other, reads in STATEMENTS if other is not stmt)


def test_every_private_name_is_used():
    # a private module-level name that nothing reads outside its own
    # definition is dead code
    found = []
    for name, stmt, _ in STATEMENTS:
        for private in _defined_names(stmt):
            if not private.startswith("_") or private.startswith("__"):
                continue
            if not _read_elsewhere(private, stmt):
                found.append(f"{name}:{stmt.lineno} {private}")
    assert found == []


def test_every_public_function_has_a_library_caller():
    # one production route per object: a public function that nothing else
    # in the package reads (the CLI counts, the re-exports do not) is a
    # second route and belongs with the test oracles.  The one exception
    # is the positive recurrence, which still waits for its CLI identity
    found = [f"{name}:{stmt.lineno} {stmt.name}" for name, stmt, _ in STATEMENTS
             if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
             and not _read_elsewhere(stmt.name, stmt)]
    assert [entry.split()[1] for entry in found] == ["gp_sp_positive_recurrence"], found


def test_cli_start_up_imports_no_heavy_modules():
    # each CLI run pays its imports; -S keeps site's own imports (a .pth
    # file may load typing) out of the check
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import spgroth.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []
