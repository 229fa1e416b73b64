"""numpy is the package's only runtime dependency: every other module it
imports comes with Python.  The package knows no shipped problem.  The
oracle's acceptance bar is read in one place, and one function checks
every pair (x, w)."""

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


def _scopes(tree: ast.AST, hit, scope: str = "<module>"):
    """The innermost function around each node where ``hit`` holds, by name."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        if hit(node):
            yield scope
        yield from _scopes(node, hit, inner)


def _readers(tree: ast.AST, name: str):
    """The innermost function around each load of ``name``, by name."""
    return _scopes(tree, lambda node: isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))


def test_one_function_reads_the_acceptance_bar():
    # The acceptance rule `_stationary` takes its bar from `_acceptance_box`,
    # and every other site that decides or encloses acceptance calls them,
    # so no second copy of the rule can compare against the bar.
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    readers = set(_readers(tree, "ACCEPT_RESIDUAL"))
    assert readers and readers <= {"_stationary", "_acceptance_box"}


def test_one_function_checks_a_pair():
    # Points and membership queries pass `_check_pair`, so no second copy of
    # its size or finiteness test can build its messages.
    def builds(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, str) and (
            "problem expects" in node.value or "non-finite entry" in node.value
        )

    builders = {
        (path.name, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in _scopes(ast.parse(path.read_text()), builds)
    }
    assert builders == {("calculus.py", "_check_pair")}
