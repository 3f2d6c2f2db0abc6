"""The benchmark's own tests (stdlib only).

    python3 -m unittest discover -s perfbench -t perfbench
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

import check
import tracing
from run import END_TO_END, ROOT, TRACE_METRICS
from workloads import REFERENCE_SEED, WORKLOADS


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SpanTreeTest(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        clock = FakeClock()
        t = tracing.Tracer(clock=clock)
        # a[0, 10] holds b[1, 4] (which holds a[2, 3]) and c[5, 9]
        for at, op in [(0, "a"), (1, "b"), (2, "a"), (3, None), (4, None),
                       (5, "c"), (9, None), (10, None)]:
            clock.now = at
            t.enter(op) if op else t.exit()
        self.assertEqual(t.calls, {"a": 2, "b": 1, "c": 1})
        self.assertEqual(t.self_s, {"a": 3 + 1, "b": 2, "c": 4})
        self.assertEqual(t.total_s, {"a": 10, "b": 3, "c": 4})
        self.assertEqual(tracing.self_times(t.spans), t.self_s)
        parents = {name: parent for _id, parent, name, *_ in t.spans
                   if name != "a"}
        self.assertEqual(parents, {"b": 1, "c": 1})

    def test_kept_spans_are_capped_per_name(self):
        t = tracing.Tracer(clock=FakeClock(), keep=2)
        for _ in range(5):
            t.enter("x")
            t.exit()
        self.assertEqual(len(t.spans), 2)
        self.assertEqual(t.calls["x"], 5)


def _verify_ref(name="verify-wide"):
    return check.reference_path(name).read_text()


def _as_seed(text: str, seed: int) -> str:
    doc = json.loads(text)
    doc["seed"] = seed
    return json.dumps(doc)


class VerifyCheckTest(unittest.TestCase):
    def setUp(self):
        self.ref = _verify_ref()
        self.doc = json.loads(self.ref)

    def test_reference_has_only_the_expected_failures(self):
        failing = {e["id"] for e in self.doc["identities"] if e["failures"]}
        self.assertEqual(failing, {"kernel-change"})

    def test_accepts_failures_only_in_kernel_change(self):
        self.assertEqual(check.check_verify(
            self.ref, REFERENCE_SEED, 1, self.ref), [])
        doc = copy.deepcopy(self.doc)
        doc["seed"] = 7
        kc = next(e for e in doc["identities"] if e["id"] == "kernel-change")
        kc["failures"].append("another by-design failure")
        doc["failures_total"] += 1
        self.assertEqual(check.check_verify(
            self.ref, 7, 1, json.dumps(doc)), [])

    def test_rejects_a_failure_elsewhere(self):
        doc = copy.deepcopy(self.doc)
        doc["seed"] = 7
        doc["identities"][0]["failures"].append("broken")
        doc["failures_total"] += 1
        self.assertTrue(check.check_verify(self.ref, 7, 1, json.dumps(doc)))

    def test_rejects_a_changed_checked_count(self):
        doc = copy.deepcopy(self.doc)
        doc["seed"] = 7
        doc["identities"][0]["checked"] -= 1
        self.assertTrue(check.check_verify(self.ref, 7, 1, json.dumps(doc)))

    def test_rejects_exit_code_2_and_wrong_exit_code(self):
        text = _as_seed(self.ref, 7)
        self.assertEqual(check.check_verify(self.ref, 7, 1, text), [])
        self.assertTrue(check.check_verify(self.ref, 7, 2, text))
        self.assertTrue(check.check_verify(self.ref, 7, 0, text))

    def test_reference_seed_is_compared_byte_for_byte(self):
        reformatted = json.dumps(self.doc)
        self.assertTrue(check.check_verify(
            self.ref, REFERENCE_SEED, 1, reformatted))


class SsCheckTest(unittest.TestCase):
    def test_rejects_one_changed_page_cell(self):
        for name in ("ss-odd", "ss-f2"):
            ref = check.reference_path(name).read_text()
            self.assertEqual(check.check_ss(ref, 0, ref), [])
            doc = json.loads(ref)
            doc[0]["pages"][1]["cells"][0]["dim"] += 1
            self.assertTrue(check.check_ss(ref, 0, json.dumps(doc)))

    def test_rejects_unconverged(self):
        ref = check.reference_path("ss-odd").read_text()
        doc = json.loads(ref)
        doc[-1]["converged"] = False
        self.assertTrue(check.check_ss(ref, 0, json.dumps(doc)))


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"]: w["why"] for w in doc["workloads"]},
                         {n: w["why"] for n, w in WORKLOADS.items()})
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         list(END_TO_END))
        layers = [(m, u) for m, u, _src in tracing.LAYER_METRICS]
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         layers + list(TRACE_METRICS))


TRACED_QM = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {here!r}]
import qmcoh.cli, tracing
from qmcoh import verify, words
argv = ["verify", "--suite", "qm", "--samples", "2"]
plain = io.StringIO()
with contextlib.redirect_stdout(plain):
    qmcoh.cli.main(argv)
originals = [words.mul, verify.pair, verify.m2_chain]
t = tracing.Tracer()
tracing.instrument(t)
left = [m.__name__ for m in tracing._qmcoh_modules()
        for v in vars(m).values() if any(v is f for f in originals)]
traced = io.StringIO()
with contextlib.redirect_stdout(traced):
    qmcoh.cli.main(argv)
print(json.dumps({{"same": plain.getvalue() == traced.getvalue(),
                  "left": left, "calls": t.calls,
                  "suites": list(verify.SUITE_ORDER)}}))
"""


class InstrumentTest(unittest.TestCase):
    def test_traced_run_matches_untraced_and_reaches_every_site(self):
        here = str(Path(__file__).resolve().parent)
        code = TRACED_QM.format(src=str(ROOT / "src"), here=here)
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=120)
        res = json.loads(out.stdout.splitlines()[-1])
        self.assertTrue(res["same"])
        self.assertEqual(res["left"], [])
        self.assertEqual(tuple(res["suites"]), tracing.SUITES)
        for name in ("cli", "verify.run_suite", "verify.suite.qm",
                     "words.mul", "quasimorphism.homogenize"):
            self.assertGreater(res["calls"].get(name, 0), 0, name)


if __name__ == "__main__":
    unittest.main()
