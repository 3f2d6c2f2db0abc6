import json
import tracemalloc

import pytest

from qmcoh import verify, words
from qmcoh.chains import m2_chain, m_chain
from qmcoh.errors import UsageError
from qmcoh.quasimorphism import BrooksQuasimorphism
from qmcoh.verify import (
    DEFAULT_SAMPLES,
    REGISTRY,
    VerifyContext,
    registry_rows,
    report_json,
    run_suite,
    suite_names,
)

ALL = run_suite("all", seed=42)


def by_id(report):
    return {e["id"]: e for e in report["identities"]}


def test_report_shape():
    assert ALL["suite"] == "all"
    assert ALL["seed"] == 42
    assert len(ALL["identities"]) == len(REGISTRY) == 26
    ids = [e["id"] for e in ALL["identities"]]
    assert ids == sorted(ids)
    for e in ALL["identities"]:
        assert set(e) == {
            "id", "suite", "law", "checked", "failures", "max_error_bound",
        }
        assert e["checked"] > 0
    assert ALL["failures_total"] == sum(
        len(e["failures"]) for e in ALL["identities"]
    )
    assert ALL["passed"] == (ALL["failures_total"] == 0)


def test_only_the_plain_kernel_change_fails():
    failing = {
        e["id"] for e in ALL["identities"] if e["failures"]
    }
    assert failing == {"kernel-change"}
    entries = by_id(ALL)
    assert entries["kernel-change-exact"]["failures"] == []
    assert entries["kernel-change-exact"]["max_error_bound"] == "0"


def test_reports_are_byte_identical_across_runs():
    again = run_suite("all", seed=42)
    assert report_json(ALL) == report_json(again)
    parsed = json.loads(report_json(ALL))
    assert parsed["failures_total"] == ALL["failures_total"]


def test_suite_filtering():
    qm = run_suite("qm", seed=1)
    assert {e["suite"] for e in qm["identities"]} == {"qm"}
    assert len(qm["identities"]) == 2
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")
    assert set(suite_names()) == {
        "qm", "chains", "cochains", "kernels", "model", "theta",
        "sections", "spectral", "all",
    }


def test_registry_rows_are_unique_and_tagged():
    rows = registry_rows()
    ids = [r[0] for r in rows]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    for ident, suite, law in rows:
        assert suite in suite_names()
        assert law


def test_finite_fiber_fixture_is_rejected_for_extension_suites():
    with pytest.raises(ValueError, match="free"):
        run_suite("model", fixture="z4-hs", seed=0)
    spec = run_suite("spectral", fixture="z4-hs", seed=0)
    assert spec["passed"]


@pytest.mark.parametrize("suite", [
    "all", "chains", "cochains", "model", "theta", "sections"])
def test_finite_fiber_fixture_is_refused_before_any_identity_runs(
        monkeypatch, suite):
    entered = []

    def spy(spec):
        def run(ctx, rng):
            entered.append(spec.id)
            return spec.run(ctx, rng)
        return spec._replace(run=run)

    monkeypatch.setattr(verify, "REGISTRY", [spy(s) for s in REGISTRY])
    with pytest.raises(UsageError, match="finite fiber"):
        run_suite(suite, fixture="z4-hs", seed=0)
    assert entered == []
    # the suites that read no cocycle still run on the finite fiber
    for ok in ("qm", "kernels"):
        assert run_suite(ok, fixture="z4-hs", seed=0, samples=1)["passed"]
    assert entered


@pytest.mark.parametrize("fixture", ["f2-semidirect-z", "split-swap-dec"])
def test_the_package_multiplies_only_reduced_words(monkeypatch, fixture):
    # words.mul cancels only at the junctions of its factors, so each
    # factor must be reduced; a failed assertion inside a law would end
    # up as an error entry, so the bad factors are collected instead
    real_mul, calls, bad = words.mul, [], []

    def checked_mul(*ws):
        calls.append(len(ws))
        bad.extend(w for w in ws if not words.is_reduced(w))
        return real_mul(*ws)

    monkeypatch.setattr(words, "mul", checked_mul)
    monkeypatch.setattr(words, "_root_cache", {})
    m_chain.cache_clear()
    m2_chain.cache_clear()
    try:
        run_suite("all", fixture=fixture, seed=0, samples=6)
    finally:
        m_chain.cache_clear()
        m2_chain.cache_clear()
    assert calls and bad == []


def test_split_swap_fixture_runs_the_section_suite():
    rep = run_suite("sections", fixture="split-swap-dec", seed=7,
                    samples=3)
    assert rep["passed"]


def test_timings_stay_out_of_the_payload_by_default():
    assert all("wall_time" not in e for e in ALL["identities"])
    timed = run_suite("qm", seed=0, timings=True)
    assert all("wall_time" in e for e in timed["identities"])


def test_parameter_validation():
    with pytest.raises(ValueError, match="samples"):
        run_suite("qm", samples=0)
    with pytest.raises(ValueError, match="fixture"):
        run_suite("qm", fixture="missing")
    for cutoff in (0, 17):
        with pytest.raises(ValueError, match="cutoff"):
            run_suite("qm", cutoff=cutoff)


def test_duality_defect_bound_drops_each_long_power():
    # duality-defect-bound builds the strings of g^P, (gh)^P and h^P
    # with P = 2^16, up to 2^19 letters each, for every sample. Each
    # must go when its sample is done: an evaluator memo keyed by the
    # word would hold all 18 of them to the end, and the peak was 54 MB
    # when one did (with the words also held as tuples).
    tracemalloc.start()
    try:
        run_suite("chains", seed=0, cutoff=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_chains_suite_splits_and_reduces_no_long_string(monkeypatch):
    # duality-defect-bound scans the strings of g^P, (gh)^P and h^P with
    # P = 2^16, up to 2^19 letters each. Their splits come from
    # words.power_chars, read off the splits of g, gh and h, so nothing
    # longer than a sample word is ever split, reduced or parsed
    def short_only(fn):
        def wrapped(x):
            if not isinstance(x, str):
                x = tuple(x)  # reduce takes any iterable of letters
            assert len(x) <= 16, f"{fn.__name__} ran on {len(x)} letters"
            return fn(x)
        return wrapped

    for name in ("cyclic_chars", "reduce", "parse"):
        monkeypatch.setattr(words, name, short_only(getattr(words, name)))
    report = run_suite("chains", cutoff=16)
    assert report["passed"]
    checked = {e["id"]: e["checked"] for e in report["identities"]}
    assert checked["duality-defect-bound"] == 12


def test_duality_defect_bound_scans_each_long_power_once(monkeypatch):
    # b reads phi and phi-bar of each of g^P, (gh)^P and h^P, P = 2^16,
    # off one scan of its core: one scan longer than 4,096 letters per
    # power, three per sample. Scanning the whole word for phi and the
    # two strings of the power line would make nine
    long_scans = []
    eval_string = BrooksQuasimorphism.eval_string

    def counted(self, s):
        if len(s) > 4096:
            long_scans.append(len(s))
        return eval_string(self, s)

    monkeypatch.setattr(BrooksQuasimorphism, "eval_string", counted)
    report = run_suite("chains", cutoff=16)
    assert report["passed"]
    assert len(long_scans) == 3 * DEFAULT_SAMPLES == 18


def test_duality_defect_bound_builds_no_long_tuple(monkeypatch):
    # its long powers exist only as the core strings of the splits that
    # words.power_chars returns: no power tuple and no re-encoding
    # of one, while the identity still holds on every sample
    power, chars = words.power, words.chars

    def short_power(w, n):
        out = power(w, n)
        assert len(out) <= 64, f"power built {len(out)} letters"
        return out

    def short_chars(w):
        assert len(w) <= 64, f"chars encoded {len(w)} letters"
        return chars(w)

    monkeypatch.setattr(words, "power", short_power)
    monkeypatch.setattr(words, "chars", short_chars)
    spec = next(s for s in REGISTRY if s.id == "duality-defect-bound")
    ctx = VerifyContext(seed=0, cutoff=16)
    out = spec.run(ctx, ctx.rng(spec.id))
    assert out.checked == 12 and out.failures == ()
