"""numpy is the package's only runtime dependency: every other module it
imports comes with Python.  And the package knows no shipped problem."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "aubincheck"


def _absolute_imports(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_numpy_outside_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {
        (path.name, name)
        for path in sources
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "numpy"
    }
    assert not foreign


def test_no_module_names_a_fixture():
    # Every report depends only on its input file: no module knows a
    # particular shipped problem.
    stems = sorted(path.stem for path in (PACKAGE.parents[1] / "fixtures").glob("*.prob"))
    assert stems
    named = {
        (path.name, stem)
        for path in sorted(PACKAGE.glob("*.py"))
        for stem in stems
        if stem in path.read_text()
    }
    assert not named
