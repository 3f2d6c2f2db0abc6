"""Spans and counters around the calls into each qmcoh module.

``instrument`` replaces the public functions and methods the benchmark
reports on with wrappers that open a span on entry and close it on exit.
A module-level function is replaced at every binding site, in every
``qmcoh`` module namespace that holds it (``spectral`` imports
``span_reduce``, ``verify`` imports ``pair`` and ``m2_chain``, ...), so
no caller reaches the unwrapped original. Methods are replaced on their
class.

Spans are aggregated as they close: calls, self time (duration minus
the time covered by child spans) and total time (outermost spans of a
name only, so recursion is not counted twice). Up to ``keep`` spans per
name are also kept in memory with their parent ids and written out by
``dump`` when the run ends. Counts marked "computed" in ``LAYER_METRICS``
are derived from argument or result sizes, not measured inside the
program.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self, clock=time.perf_counter, keep: int = 1000):
        self.clock = clock
        self.keep = keep
        self.stack: list = []  # open spans: [id, name, start, covered]
        self.depth: dict = {}  # name -> open spans of that name
        self.calls: dict = {}
        self.self_s: dict = {}
        self.total_s: dict = {}
        self.counts: dict = {}
        self.spans: list = []  # (id, parent id, name, start, end)
        self.kept: dict = {}
        self.next_id = 0

    def enter(self, name: str) -> None:
        self.next_id += 1
        self.depth[name] = self.depth.get(name, 0) + 1
        self.stack.append([self.next_id, name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        sid, name, start, covered = self.stack.pop()
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - covered
        depth = self.depth[name] - 1
        self.depth[name] = depth
        if depth == 0:
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
        parent = None
        if self.stack:
            top = self.stack[-1]
            top[3] += dur
            parent = top[0]
        kept = self.kept.get(name, 0)
        if kept < self.keep:
            self.kept[name] = kept + 1
            self.spans.append((sid, parent, name, start, end))

    def count(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def high(self, key: str, n) -> None:
        if n > self.counts.get(key, 0):
            self.counts[key] = n

    def dump(self, path) -> None:
        doc = {
            "fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "calls": self.calls,
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans) -> dict:
    """Self time per name from (id, parent, name, start, end) records:
    each span's duration minus the durations of its direct children."""
    covered: dict = {}
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    out: dict = {}
    for sid, _parent, name, start, end in spans:
        out[name] = out.get(name, 0.0) + (end - start) - covered.get(sid, 0.0)
    return out


def traced(tracer: Tracer, name: str, fn, before=None, after=None):
    """``fn`` inside a span; ``before(*args)`` runs ahead of the span and
    ``after(result, *args)`` after it, both for size counts."""
    enter, leave = tracer.enter, tracer.exit
    if before is None and after is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if after is not None:
            after(result, *args, **kwargs)
        return result
    return wrapper


def _qmcoh_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "qmcoh" or n.startswith("qmcoh.")]


def _rebind(original, wrapper) -> int:
    """Replace ``original`` by ``wrapper`` in every qmcoh namespace and
    module-level dict; returns the number of sites replaced."""
    sites = 0
    for mod in _qmcoh_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                sites += 1
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper
                        sites += 1
    return sites


def instrument(tracer: Tracer) -> None:
    """Wrap every reported function of qmcoh; call before any work."""
    import qmcoh.cli  # noqa: F401  (loads every module of the package)
    from qmcoh import (chains, cochains, extensions, fixtures, groups, linalg,
                       quasimorphism, spectral, verify, words)

    count, high = tracer.count, tracer.high

    def function(module, attr, name, before=None, after=None):
        fn = getattr(module, attr)
        if not _rebind(fn, traced(tracer, name, fn, before, after)):
            raise RuntimeError(f"{module.__name__}.{attr} has no binding site")

    def method(cls, attr, name, before=None, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(
                traced(tracer, name, raw.__func__, before, after)))
        else:
            setattr(cls, attr, traced(tracer, name, raw, before, after))

    # words
    function(words, "mul", "words.mul")
    function(words, "power", "words.power",
             after=lambda r, *a, **k: high("words.power.max_len", len(r)))
    function(words, "chars", "words.chars",
             before=lambda w: count("words.chars.letters", len(w)))
    function(words, "pow_entry", "words.pow_entry")

    # groups
    method(groups.FreeAutomorphism, "_apply", "groups.aut_apply")
    method(groups.FreeAutomorphism, "inverse", "groups.aut_build")
    method(groups.FreeAutomorphism, "compose", "groups.aut_build")
    method(groups.TwistedProduct, "mul", "groups.twisted")
    method(groups.TwistedProduct, "inv", "groups.twisted")

    # quasimorphism
    def power_hit(qm, g, n):
        count("quasimorphism.eval_power.hits", (g, n) in qm._power_cache)

    def cocycle_hit(c, entry):
        count("quasimorphism.cocycle_eval.hits", tuple(entry) in c._cache)

    Brooks = quasimorphism.BrooksQuasimorphism
    method(Brooks, "eval_power", "quasimorphism.eval_power", before=power_hit)
    method(Brooks, "eval_string", "quasimorphism.eval_string",
           before=lambda qm, s: count(
               "quasimorphism.eval_string.scanned_chars", len(s)))
    function(quasimorphism, "homogenize", "quasimorphism.homogenize")
    method(quasimorphism.HomogeneousCocycle, "evaluate",
           "quasimorphism.cocycle_eval", before=cocycle_hit)

    # chains: a generator of items is materialized (outside the span) so
    # that its length can be counted
    chain_init = chains.Chain.__init__
    traced_init = traced(
        tracer, "chains.chain_init", chain_init,
        after=lambda r, z, *a, **k: count(
            "chains.chain_init.terms_kept", len(z.support)))

    def sized_init(self, group, degree, items=(), *rest, **kwargs):
        if not isinstance(items, (list, tuple, dict)):
            items = list(items)
        count("chains.chain_init.terms_in", len(items))
        traced_init(self, group, degree, items, *rest, **kwargs)

    chains.Chain.__init__ = functools.wraps(chain_init)(sized_init)
    for attr in ("__add__", "__sub__", "__neg__", "scale"):
        method(chains.Chain, attr, "chains.chain_arith")
    function(chains, "m_chain", "chains.m_chain")
    function(chains, "m2_chain", "chains.m2_chain")
    function(chains, "pushforward", "chains.pushforward")

    # cochains
    function(cochains, "pair", "cochains.pair",
             before=lambda c, z: count("cochains.pair.terms", len(z.support)))
    method(cochains.BoundedCochain, "__call__", "cochains.cochain_call")
    method(cochains.InvariantCochain, "__call__", "cochains.cochain_call")

    # extensions
    method(extensions.AbstractKernel, "f", "extensions.kernel_f")
    method(extensions.AbstractKernel, "psi", "extensions.kernel_psi")
    method(extensions.CentralExtensionModel, "mul", "extensions.model_mul")
    method(extensions.CentralExtensionModel, "shift", "extensions.model_shift")

    # fixtures
    for attr in ("semidirect_f2_z", "z4_extension", "split_swap",
                 "corrupted_kernel"):
        function(fixtures, attr, "fixtures.build")

    # linalg
    for attr in ("reduce", "add"):
        method(linalg._Gf2Echelon, attr, "linalg.gf2.echelon",
               before=lambda e, v: count("linalg.gf2.bits_touched",
                                         v.bit_length()))
        method(linalg._FieldEchelon, attr, "linalg.field.echelon",
               before=lambda e, v: count("linalg.field.entries_touched",
                                         len(v)))
    for attr in ("from_entries", "entries", "from_sparse", "basis_vector",
                 "add", "scale", "is_zero", "combine", "mask", "outside"):
        method(linalg.FieldOps, attr, "linalg.field.vec_ops")
    # spanned only to see every width asked for; not reported
    function(linalg, "vector_ops", "linalg.vector_ops",
             before=lambda field, width: high("linalg.max_width", width))
    for attr in ("span_reduce", "rank_of", "relations", "solve_coords",
                 "in_span", "subspace_sum", "intersect", "vectors_into_span",
                 "vectors_into_coordspan", "complement_in", "matrix_rank",
                 "matmul"):
        function(linalg, attr, "linalg.subspace")

    # spectral
    function(spectral, "hs_double_complex", "spectral.hs_build")
    method(spectral.FiniteComplex, "__init__", "spectral.complex_check",
           before=lambda cx, field, dims, *a, **k: high(
               "spectral.dim_max", max(dims)))
    method(spectral.Filtration, "_validate", "spectral.filtration_check")
    for attr in ("cycles", "boundaries", "representatives", "d_data"):
        method(spectral.SpectralSequence, attr, f"spectral.{attr}")
    function(spectral, "sequence_report", "spectral.report")

    # verify: one span per identity run, named after its suite
    for i, spec in enumerate(verify.REGISTRY):
        verify.REGISTRY[i] = spec._replace(run=traced(
            tracer, f"verify.suite.{spec.suite}", spec.run))
    function(verify, "run_suite", "verify.run_suite")

    # cli
    function(qmcoh.cli, "main", "cli")


# verify.SUITE_ORDER, restated so that run.py can list the metrics
# without importing the package
SUITES = ("qm", "chains", "cochains", "kernels", "model", "theta",
          "sections", "spectral")


def _span(name, *stats):
    units = {"calls": "count", "self_s": "s", "total_s": "s"}
    return [(f"{name}.{s}", units[s], (s, name)) for s in stats]


# (metric, unit, source): source is ("calls" | "self_s" | "total_s", span),
# ("count", key) for a computed count, or ("ratio", key, span)
LAYER_METRICS = (
    _span("words.mul", "calls", "self_s")
    + _span("words.power", "calls", "self_s")
    + [("words.power.max_len", "letters", ("count", "words.power.max_len"))]
    + _span("words.chars", "calls", "self_s")
    + [("words.chars.letters", "letters", ("count", "words.chars.letters"))]
    + _span("words.pow_entry", "calls", "self_s")
    + [("words.root_cache.size", "entries",
        ("count", "words.root_cache.size"))]
    + _span("groups.aut_apply", "calls", "self_s")
    + _span("groups.aut_build", "calls", "self_s")
    + _span("groups.twisted", "calls", "self_s")
    + _span("quasimorphism.eval_power", "calls", "self_s")
    + [("quasimorphism.eval_power.hit_ratio", "ratio",
        ("ratio", "quasimorphism.eval_power.hits",
         "quasimorphism.eval_power"))]
    + _span("quasimorphism.eval_string", "calls", "self_s")
    + [("quasimorphism.eval_string.scanned_chars", "chars",
        ("count", "quasimorphism.eval_string.scanned_chars"))]
    + _span("quasimorphism.homogenize", "calls", "self_s")
    + _span("quasimorphism.cocycle_eval", "calls", "self_s")
    + [("quasimorphism.cocycle_eval.hit_ratio", "ratio",
        ("ratio", "quasimorphism.cocycle_eval.hits",
         "quasimorphism.cocycle_eval"))]
    + _span("chains.chain_init", "calls", "self_s")
    + [("chains.chain_init.terms_in", "terms",
        ("count", "chains.chain_init.terms_in")),
       ("chains.chain_init.terms_kept", "terms",
        ("count", "chains.chain_init.terms_kept"))]
    + _span("chains.chain_arith", "calls", "self_s")
    + _span("chains.m_chain", "calls", "self_s")
    + _span("chains.m2_chain", "calls", "self_s")
    + _span("chains.pushforward", "calls", "self_s")
    + _span("cochains.pair", "calls", "self_s")
    + [("cochains.pair.terms", "terms", ("count", "cochains.pair.terms"))]
    + _span("cochains.cochain_call", "calls", "self_s")
    + _span("extensions.kernel_f", "calls", "self_s")
    + _span("extensions.kernel_psi", "calls", "self_s")
    + _span("extensions.model_mul", "calls", "self_s")
    + _span("extensions.model_shift", "calls", "self_s")
    + _span("fixtures.build", "calls", "total_s")
    + _span("linalg.gf2.echelon", "calls", "self_s")
    + [("linalg.gf2.bits_touched", "bits",
        ("count", "linalg.gf2.bits_touched"))]
    + _span("linalg.field.echelon", "calls", "self_s")
    + [("linalg.field.entries_touched", "entries",
        ("count", "linalg.field.entries_touched"))]
    + _span("linalg.field.vec_ops", "calls", "self_s")
    + _span("linalg.subspace", "calls", "total_s")
    + [("linalg.max_width", "coords", ("count", "linalg.max_width"))]
    + _span("spectral.hs_build", "self_s")
    + _span("spectral.complex_check", "total_s")
    + _span("spectral.filtration_check", "total_s")
    + _span("spectral.cycles", "calls", "self_s")
    + _span("spectral.boundaries", "calls", "self_s")
    + _span("spectral.representatives", "calls", "self_s")
    + _span("spectral.d_data", "calls", "self_s")
    + _span("spectral.report", "total_s")
    + [("spectral.dim_max", "coords", ("count", "spectral.dim_max"))]
    + [m for s in SUITES for m in _span(f"verify.suite.{s}", "total_s")]
    + [("cli.self_s", "s", ("self_s", "cli")),
       ("cli.report_bytes", "bytes", ("count", "cli.report_bytes"))]
)


def layer_metrics(tracer: Tracer) -> dict:
    """{metric: value} for every entry of LAYER_METRICS."""
    stats = {"calls": tracer.calls, "self_s": tracer.self_s,
             "total_s": tracer.total_s}
    out = {}
    for metric, _unit, source in LAYER_METRICS:
        if source[0] == "count":
            out[metric] = tracer.counts.get(source[1], 0)
        elif source[0] == "ratio":
            calls = tracer.calls.get(source[2], 0)
            out[metric] = tracer.counts.get(source[1], 0) / calls if calls else 0.0
        else:
            out[metric] = stats[source[0]].get(source[1], 0)
    return out
