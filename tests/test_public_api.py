"""Ratchet on the package surface: every public function, class and
method of ``qmcoh`` is named somewhere in the package outside its own
definition, so no public entry point lives only for the tests."""

import ast
import re
from pathlib import Path

import qmcoh

SRC = Path(qmcoh.__file__).parent

# Reached only by tests today; ROADMAP item 2 (the benchmark revision)
# deletes the linalg helpers together with their bindings in
# perfbench/tracing.py, takes the homogeneous cochain picture with them,
# and decides whether lemma3_check becomes a spectral identity.
DEFERRED = {
    "in_span", "subspace_sum", "intersect",
    "homogeneous_coboundary", "lemma3_check",
}


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


def test_every_public_name_is_used_inside_the_package():
    sources = {p: p.read_text().splitlines() for p in sorted(SRC.glob("*.py"))}
    unused = set()
    for path, lines in sources.items():
        tree = ast.parse("\n".join(lines))
        for name, first, last in public_definitions(tree):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(
                word.search(line)
                for other, text in sources.items()
                for i, line in enumerate(text, 1)
                if other != path or not first <= i <= last
            )
            if not used:
                unused.add(name)
    assert unused == DEFERRED
