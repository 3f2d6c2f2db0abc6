"""Ratchets on the code itself.

Every top-level function and method of ``qmcoh`` runs in the package's
own traffic (``TRAFFIC``: the ``qmcoh`` command lines and the benchmark's
``ss`` builds), so no entry point and no helper lives only for the
tests. The traffic runs in a fresh interpreter under ``sys.setprofile``,
installed before ``qmcoh`` is imported, so import-time code and module
caches start cold. Exempt are dunders other than ``__init__`` and
``__call__``, bodies that only raise ``NotImplementedError``,
``errors.py``, and the few names that nothing runs but the benchmark's
tracing still binds (``DEFERRED``).

Every public class is read somewhere in the package outside its own
definition, and every name a module of the package or of the tests
imports is read in that module. These two read code, not text: a name
is read where it occurs as an ``ast`` ``Name`` or ``Attribute`` node,
which covers expressions inside f-strings but not docstrings or
comments.
"""

import ast
import subprocess
import sys
from pathlib import Path

import qmcoh

SRC = Path(qmcoh.__file__).parent
TESTS = Path(__file__).parent
TRACING = TESTS.parent / "perfbench" / "tracing.py"

# Run by no package code, but bound by the benchmark's tracing
# (perfbench/tracing.py), which wraps the linalg helpers, Chain.scale,
# FieldOps.scale and InvariantCochain.__call__; ROADMAP item 2 (the
# benchmark revision) deletes them together with those bindings.
DEFERRED = {
    "in_span", "subspace_sum", "intersect", "vectors_into_span",
    "Chain.scale", "FieldOps.scale", "InvariantCochain.__init__",
    "InvariantCochain.__call__",
}
DEFERRED_CLASSES = {"InvariantCochain"}

# The package's traffic: every verify suite on every fixture, the ss
# sources with their --out documents read back, every qm action, and
# the benchmark's ss builds. argv[1] is a scratch directory and argv[2]
# the directory that holds the package; prints the file, first line and
# name of every code object of the package that ran.
TRAFFIC = r"""
import sys

sys.path.insert(0, sys.argv[2])
ran = set()


def profile(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)


sys.setprofile(profile)

import contextlib
import io
import os
from pathlib import Path

import qmcoh
from qmcoh import cli, fixtures, linalg, spectral, verify


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(list(argv))


tmp = Path(sys.argv[1])
run("verify", "--list")
for fixture in sorted(fixtures.FIXTURES):
    for suite in verify.SUITE_ORDER:
        run("verify", "--suite", suite, "--fixture", fixture,
            "--samples", "1")
for source, extra in [("z4-hs", [])] + [
        ("random", ["--seed", str(seed)]) for seed in range(4)]:
    doc = tmp / f"{source}{''.join(extra)}.json"
    run("ss", source, *extra, "--out", str(doc))
    run("ss", str(doc))
run("ss", "random", "--out", str(tmp / "missing" / "complex.json"))
run("qm", "eval", "--word", "ab", "--on", "abAB")
run("qm", "homogenize", "--word", "ab", "--on", "abAB")
run("qm", "cocycle", "--word", "ab", "--pair", "a", "b")
run("qm", "defect-estimate", "--word", "ab", "--samples", "4")
for field, max_total in (("F3", 4), ("Q", 3)):
    cx, filt, _info = spectral.hs_double_complex(
        fixtures.z4_extension(), field=linalg.FIELDS[field],
        max_total=max_total)
    spectral.sequence_report(cx, filt, window=3, max_r=4)

sys.setprofile(None)
root = os.path.dirname(qmcoh.__file__) + os.sep
for code in ran:
    if code.co_filename.startswith(root):
        print(os.path.basename(code.co_filename), code.co_firstlineno,
              code.co_name)
"""


def reads(tree):
    """(name, line) of each Name and Attribute node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def public_classes(tree):
    """(name, first line, last line) of each public top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno


def unread_classes():
    """Public classes that no package code reads outside the class
    itself."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    occurrences = {p: list(reads(tree)) for p, tree in trees.items()}
    unused = set()
    for path, tree in trees.items():
        for name, first, last in public_classes(tree):
            used = any(
                read == name
                for other, found in occurrences.items()
                for read, line in found
                if other != path or not first <= line <= last
            )
            if not used:
                unused.add(name)
    return unused


def only_raises_not_implemented(fn):
    body = fn.body
    if ast.get_docstring(fn) is not None:
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def traced_definitions(tree):
    """(qualified name, first line, name) of each top-level function and
    each method of a top-level class that the trace must see run. The
    first line is that of the code object: the first decorator's, if
    any."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def exempt(fn):
        dunder = fn.name.startswith("__") and fn.name.endswith("__")
        return ((dunder and fn.name not in ("__init__", "__call__"))
                or only_raises_not_implemented(fn))

    def first_line(fn):
        return min([fn.lineno] + [d.lineno for d in fn.decorator_list])

    for node in tree.body:
        if isinstance(node, functions):
            members = [("", node)]
        elif isinstance(node, ast.ClassDef):
            members = [(node.name + ".", item) for item in node.body
                       if isinstance(item, functions)]
        else:
            continue
        for prefix, fn in members:
            if not exempt(fn):
                yield prefix + fn.name, first_line(fn), fn.name


def imported_names(tree):
    """(bound name, line) of each import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def test_every_function_and_method_runs_in_the_package_traffic(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", TRAFFIC, str(tmp_path), str(SRC.parent)],
        capture_output=True, text=True, check=True,
    ).stdout
    ran = {(file, int(line), name) for file, line, name in
           (row.split() for row in out.splitlines())}
    unrun = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text())
        for qualified, line, name in traced_definitions(tree):
            if (path.name, line, name) not in ran:
                unrun.add(qualified)
    assert unrun == DEFERRED


def test_every_public_class_is_used_inside_the_package():
    assert unread_classes() == DEFERRED_CLASSES


def test_every_deferred_name_is_bound_by_the_tracing():
    """Each part of each deferred name is read in the tracing code, as a
    name or as a string argument (``function(linalg, "in_span", ...)``);
    docstrings do not count."""
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
    parts = {part for name in DEFERRED | DEFERRED_CLASSES
             for part in name.split(".")}
    assert parts <= bound


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
