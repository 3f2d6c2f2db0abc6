"""Ratchets on the code itself.

Every public function, class and method of ``qmcoh`` is read somewhere
in the package outside its own definition, so no public entry point
lives only for the tests, apart from the few that the benchmark's
tracing still binds; so is every private (single-underscore)
top-level function and method, so no helper outlives its last caller;
and every name a module of the package or of the tests imports is read
in that module. All three read code, not text: a name is read where it
occurs as an ``ast`` ``Name`` or ``Attribute`` node, which covers
expressions inside f-strings but not docstrings or comments. A
decorated definition counts as read, since the decorator receives it.
"""

import ast
from pathlib import Path

import qmcoh

SRC = Path(qmcoh.__file__).parent
TESTS = Path(__file__).parent
TRACING = TESTS.parent / "perfbench" / "tracing.py"

# Read by no package code, but bound by the benchmark's tracing
# (perfbench/tracing.py), which wraps the linalg helpers and
# InvariantCochain.__call__; ROADMAP item 2 (the benchmark revision)
# deletes them together with those bindings.
DEFERRED = {"in_span", "subspace_sum", "intersect", "InvariantCochain"}


def reads(tree):
    """(name, line) of each Name and Attribute node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def public_definitions(tree):
    """(name, first line, last line) of each public top-level function
    or class and each public method of a public class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield item.name, item.lineno, item.end_lineno


def private_definitions(tree):
    """(name, first line, last line) of each undecorated private
    top-level function and each undecorated private method."""
    def private(node):
        return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
                and not node.decorator_list)

    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in members:
            if private(item):
                yield item.name, item.lineno, item.end_lineno


def unread_definitions(definitions):
    """Names from ``definitions`` that no package code reads outside
    the definition itself."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    occurrences = {p: list(reads(tree)) for p, tree in trees.items()}
    unused = set()
    for path, tree in trees.items():
        for name, first, last in definitions(tree):
            used = any(
                read == name
                for other, found in occurrences.items()
                for read, line in found
                if other != path or not first <= line <= last
            )
            if not used:
                unused.add(name)
    return unused


def imported_names(tree):
    """(bound name, line) of each import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def test_every_public_name_is_used_inside_the_package():
    assert unread_definitions(public_definitions) == DEFERRED


def test_every_deferred_name_is_bound_by_the_tracing():
    """Each deferred name is read in the tracing code, as a name or as a
    string argument (``function(linalg, "in_span", ...)``); docstrings
    do not count."""
    tree = ast.parse(TRACING.read_text())
    scopes = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, scopes) and ast.get_docstring(node) is not None
    }
    bound = {name for name, _ in reads(tree)} | {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings
    }
    assert DEFERRED <= bound


def test_every_private_helper_is_used_inside_the_package():
    assert unread_definitions(private_definitions) == set()


def test_every_imported_name_is_read():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text())
        names = {name for name, _ in reads(tree)}
        unread += [
            f"{path.name}:{line} {name}"
            for name, line in imported_names(tree)
            if name not in names
        ]
    assert unread == []
