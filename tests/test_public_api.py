"""Ratchets on the code itself.

Every public function, class and method of ``qmcoh`` is read somewhere
in the package outside its own definition, so no public entry point
lives only for the tests; and every name a module of the package or of
the tests imports is read in that module. Both read code, not text: a
name is read where it occurs as an ``ast`` ``Name`` or ``Attribute``
node, which covers expressions inside f-strings but not docstrings or
comments.
"""

import ast
from pathlib import Path

import qmcoh

SRC = Path(qmcoh.__file__).parent
TESTS = Path(__file__).parent

# Reached only by tests today; ROADMAP item 2 (the benchmark revision)
# deletes the linalg helpers together with their bindings in
# perfbench/tracing.py, takes the homogeneous cochain picture with them,
# and decides whether lemma3_check becomes a spectral identity.
DEFERRED = {
    "in_span", "subspace_sum", "intersect",
    "homogeneous_coboundary", "to_homogeneous", "to_inhomogeneous",
    "lemma3_check",
}


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
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    occurrences = {p: list(reads(tree)) for p, tree in trees.items()}
    unused = set()
    for path, tree in trees.items():
        for name, first, last in public_definitions(tree):
            used = any(
                read == name
                for other, found in occurrences.items()
                for read, line in found
                if other != path or not first <= line <= last
            )
            if not used:
                unused.add(name)
    assert unused == DEFERRED


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
