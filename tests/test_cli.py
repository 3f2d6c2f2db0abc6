import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmcoh.cli
from qmcoh.cli import main
from qmcoh.fixtures import z4_extension
from qmcoh.spectral import (complex_to_json, hs_double_complex,
                            random_filtered_complex)
from qmcoh.words import POWER_CAP, parse


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ----------------------------------------------------------------- words


def test_capital_letters_mean_inverses():
    assert parse("abAB") == parse("aba'b'")
    assert parse("aA") == ()
    assert parse(" a b ") == (1, 2)


def test_bad_character_position_counts_capitals_as_one(capsys):
    rc, out, err = run(capsys, "qm", "eval", "--word", "ab", "--on", "AB?")
    assert rc == 2 and out == "" and "position 2" in err


# -------------------------------------------------------------------- qm


def test_qm_homogenize_commutator(capsys):
    rc, out, _ = run(capsys, "qm", "homogenize", "--word", "ab",
                     "--on", "abAB")
    assert rc == 0 and out == "1\n"


def test_qm_eval_identity(capsys):
    rc, out, _ = run(capsys, "qm", "eval", "--word", "ab", "--on", "")
    assert rc == 0 and out == "0\n"


def test_qm_cocycle_generator_pair(capsys):
    rc, out, _ = run(capsys, "qm", "cocycle", "--word", "ab",
                     "--pair", "a", "b")
    assert rc == 0 and out == "1\n"


def test_qm_eval_capitals_match_apostrophes(capsys):
    rc1, out1, _ = run(capsys, "qm", "eval", "--word", "ab", "--on", "ABab")
    rc2, out2, _ = run(capsys, "qm", "eval", "--word", "ab",
                       "--on", "a'b'ab")
    assert rc1 == rc2 == 0 and out1 == out2


def test_qm_defect_estimate_prints_a_rational(capsys):
    rc, out, _ = run(capsys, "qm", "defect-estimate", "--word", "ab",
                     "--samples", "40", "--seed", "5")
    assert rc == 0
    from fractions import Fraction
    Fraction(out.strip())  # parses


@pytest.mark.parametrize("argv, flag", [
    (["qm", "defect-estimate", "--word", "ab", "--samples", "0"], "--samples"),
    (["qm", "defect-estimate", "--word", "ab", "--samples", "-3"], "--samples"),
    (["qm", "defect-estimate", "--word", "ab", "--size", "-1"], "--size"),
    (["ss", "z4-hs", "--window", "-1"], "--window"),
])
def test_meaningless_counts_are_usage_errors(capsys, argv, flag):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "" and f"qmcoh: {flag} must be >= " in err


def test_qm_defect_estimate_refuses_a_size_beyond_the_power_cap(
        capsys, monkeypatch):
    # refused before any sample word is drawn
    def refuse(*args, **kwargs):
        raise AssertionError("defect_estimate ran")

    monkeypatch.setattr(qmcoh.cli, "defect_estimate", refuse)
    rc, out, err = run(capsys, "qm", "defect-estimate", "--word", "ab",
                       "--size", str(POWER_CAP + 1))
    assert rc == 2 and out == ""
    assert f"--size must be <= {POWER_CAP}, got {POWER_CAP + 1}" in err


def test_qm_missing_argument_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "qm", "cocycle", "--word", "ab")
    assert rc == 2 and "--pair" in err


B11 = "b'" * 11


def test_qm_homogenize_long_word_on_a_short_core(capsys):
    # the first ten power increments of b' are all 0; the slope is 1
    rc, out, _ = run(capsys, "qm", "homogenize", "--word", B11, "--on", "b'")
    assert rc == 0 and out == "1\n"


def test_qm_cocycle_vanishes_on_commuting_powers(capsys):
    rc, out, _ = run(capsys, "qm", "cocycle", "--word", B11,
                     "--pair", "b'", "b'" * 9)
    assert rc == 0 and out == "0\n"


# ---------------------------------------------------------------- verify


@pytest.mark.parametrize("flag", ["--window", "--nmax"])
def test_verify_has_no_stabilization_flags(capsys, flag):
    # psi is exact, so verify has nothing to stabilize; the ss --window
    # of the page tables is a different option
    with pytest.raises(SystemExit) as ex:
        main(["verify", "--suite", "qm", flag, "4"])
    captured = capsys.readouterr()
    assert ex.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {flag} 4" in captured.err


def test_verify_reports_are_deterministic(capsys):
    rc1, out1, _ = run(capsys, "verify", "--suite", "qm", "--seed", "3")
    rc2, out2, _ = run(capsys, "verify", "--suite", "qm", "--seed", "3")
    assert rc1 == rc2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] and report["suite"] == "qm"


def test_verify_exit_code_tracks_failures(capsys):
    # the plain kernel-change comparison keeps honest failures around
    rc, out, _ = run(capsys, "verify", "--suite", "theta", "--seed", "42",
                     "--samples", "4")
    assert rc == 1
    report = json.loads(out)
    failing = [e["id"] for e in report["identities"] if e["failures"]]
    assert failing == ["kernel-change"]


def test_verify_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("x" * 100_000)  # longer than the report it becomes
    rc, out, _ = run(capsys, "verify", "--suite", "chains", "--seed", "1",
                     "--out", str(target))
    assert rc == 0
    assert target.read_text() == out


def test_verify_out_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    rc, _, err = run(capsys, "verify", "--suite", "qm", "--samples", "1",
                     "--out", str(target))
    assert rc == 2 and err.startswith("qmcoh: ") and str(target) in err


def test_verify_out_is_opened_before_any_identity_runs(tmp_path, capsys,
                                                      monkeypatch):
    def no_run(**kwargs):
        raise AssertionError("identities ran for an unwritable path")
    monkeypatch.setattr(qmcoh.cli, "run_suite", no_run)
    target = tmp_path / "missing" / "report.json"
    rc, out, err = run(capsys, "verify", "--suite", "qm",
                       "--out", str(target))
    assert rc == 2 and out == "" and f"cannot write --out {target}" in err


def test_verify_passes_an_io_error_of_the_run_through(tmp_path, capsys,
                                                      monkeypatch):
    def failing_run(**kwargs):
        raise OSError(5, "a read inside the run failed")
    monkeypatch.setattr(qmcoh.cli, "run_suite", failing_run)
    with pytest.raises(OSError, match="a read inside the run failed"):
        main(["verify", "--suite", "qm", "--out", str(tmp_path / "r.json")])
    assert "cannot write" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--fixture", "nope"],
    ["--samples", "0"],
    # the extension identities refuse a finite fiber partway through
    ["--fixture", "z4-hs"],
])
def test_verify_usage_error_keeps_the_out_file(tmp_path, capsys, argv):
    target = tmp_path / "report.json"
    target.write_text("old report\n")
    rc, _, err = run(capsys, "verify", *argv, "--out", str(target))
    assert rc == 2 and err.startswith("qmcoh: ")
    assert target.read_text() == "old report\n"


def test_verify_list_shows_every_identity(capsys):
    rc, out, _ = run(capsys, "verify", "--list")
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 26
    assert any(ln.startswith("cup-leibniz") for ln in lines)


def test_verify_rejects_unknown_fixture(capsys):
    rc, _, err = run(capsys, "verify", "--suite", "qm",
                     "--fixture", "missing")
    assert rc == 2 and "fixture" in err


@pytest.mark.parametrize("cutoff", ["0", "17"])
def test_verify_rejects_a_cutoff_the_chain_layer_refuses(capsys, cutoff):
    rc, out, err = run(capsys, "verify", "--suite", "qm",
                       "--cutoff-n", cutoff)
    assert rc == 2 and out == "" and "cutoff must be in 1..16" in err


# -------------------------------------------------------------------- ss


def test_ss_finite_fixture_converges(capsys):
    rc, out, _ = run(capsys, "ss", "z4-hs")
    assert rc == 0
    assert "converged: yes" in out
    assert "consistency: ok" in out
    assert "field F2, dims [2, 12, 56, 240, 992, 4032]" in out


# F2, d: degree 0 -> 1 an isomorphism, with the one vector of degree 1
# at level 2: a filtration level above its degree
LEVEL_ABOVE_DEGREE = {
    "field": "F2", "dims": [1, 1, 1], "columns": [[[[0, 1]]], [[]]],
    "levels": [[0], [2], [0]]}


def test_ss_takes_a_level_above_its_degree(tmp_path, capsys):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(LEVEL_ABOVE_DEGREE))
    rc, out, _ = run(capsys, "ss", str(path))
    assert rc == 0 and "converged: yes" in out
    # F^2 is nonzero in degree 1, so its cell (2, -1), where d_2 out of
    # (0, 0) lands, is listed with the others
    assert "page r=2: E[0,0]=1 d>1  E[0,1]=0  E[1,0]=0  E[2,-1]=1\n" in out
    assert "page r=3: E[0,0]=0  E[0,1]=0  E[1,0]=0  E[2,-1]=0\n" in out


def test_ss_skips_the_empty_levels_above_a_degree(tmp_path):
    # degree 0 has one coordinate, at level 10^12: only that level is
    # listed above the degree, not the 10^12 empty levels below it
    path = tmp_path / "far.json"
    path.write_text(json.dumps({
        "field": "F2", "dims": [1, 1], "columns": [[[]]],
        "levels": [[10**12], [0]]}))
    env = {**os.environ,
           "PYTHONPATH": str(Path(qmcoh.cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "qmcoh.cli", "ss", str(path)],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[1:6] == [
        f"page r={r}: E[0,0]=0  E[{10**12},{-10**12}]=1" for r in range(5)]
    assert lines[6:] == ["consistency: ok",
                         "degree 0: E_inf total 1, homology 1, ok",
                         "converged: yes"]


def test_ss_random_round_trips_through_json(tmp_path, capsys):
    saved = tmp_path / "complex.json"
    rc, out1, _ = run(capsys, "ss", "random", "--seed", "11",
                      "--out", str(saved))
    assert rc == 0 and saved.exists()
    rc2, out2, _ = run(capsys, "ss", str(saved))
    assert rc2 == 0
    assert out1 == out2


def test_ss_out_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "complex.json"
    rc, _, err = run(capsys, "ss", "random", "--seed", "11",
                     "--out", str(target))
    assert rc == 2 and err.startswith("qmcoh: ") and str(target) in err


def test_ss_out_is_opened_before_the_dump_is_built(tmp_path, capsys,
                                                  monkeypatch):
    def no_dump(*args):
        raise AssertionError("the dump was built for an unwritable path")
    monkeypatch.setattr(qmcoh.cli, "complex_to_json", no_dump)
    target = tmp_path / "missing" / "complex.json"
    rc, _, err = run(capsys, "ss", "random", "--seed", "11",
                     "--out", str(target))
    assert rc == 2 and f"cannot write --out {target}" in err


def test_ss_out_writes_the_indented_dump(tmp_path, capsys):
    target = tmp_path / "complex.json"
    rc, _, _ = run(capsys, "ss", "random", "--seed", "3", "--out", str(target))
    cx, filt, _hom = random_filtered_complex(3)
    want = json.dumps(complex_to_json(cx, filt), indent=2, sort_keys=True)
    assert rc == 0 and target.read_text() == want + "\n"


def test_ss_z4_hs_round_trips_through_its_sparse_document(tmp_path, capsys):
    saved = tmp_path / "z4-hs.json"
    rc, out1, _ = run(capsys, "ss", "z4-hs", "--out", str(saved))
    rc2, out2, _ = run(capsys, "ss", str(saved))
    assert rc == rc2 == 0 and out1 == out2
    # one [row, 1] pair per stored nonzero, and nothing else: a dense
    # writer would list every zero too
    doc = json.loads(saved.read_text())
    pairs = [pair for cols in doc["columns"] for col in cols for pair in col]
    cx, filt, _info = hs_double_complex(z4_extension())
    stored = sum(bin(col).count("1") for cols in cx.diffs for col in cols)
    assert len(pairs) == stored == 20196
    assert {value for _row, value in pairs} == {1}
    assert doc["levels"] == filt.levels


def test_ss_missing_file(capsys):
    rc, _, err = run(capsys, "ss", "no-such-file.json")
    assert rc == 2 and "no such fixture or file" in err


@pytest.mark.parametrize("name", ["directory", ""])
def test_ss_source_that_cannot_be_read_is_a_usage_error(tmp_path, capsys,
                                                        monkeypatch, name):
    # '' names the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "directory").mkdir()
    rc, out, err = run(capsys, "ss", name)
    assert rc == 2 and out == ""
    assert f"qmcoh: cannot read {name!r}: " in err


def test_ss_source_that_is_not_text_names_the_source(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    rc, out, err = run(capsys, "ss", str(path))
    assert rc == 2 and out == ""
    assert f"qmcoh: {path} is not valid JSON: 'utf-8' codec" in err


def test_ss_respects_the_memory_budget(monkeypatch, capsys):
    monkeypatch.setenv("QMCOH_BUDGET_MB", "0")
    rc, _, err = run(capsys, "ss", "z4-hs")
    assert rc == 2 and "QMCOH_BUDGET_MB" in err


@pytest.mark.parametrize("raw", ["lots", "1.5", ""])
def test_ss_budget_must_be_an_integer(monkeypatch, capsys, raw):
    monkeypatch.setenv("QMCOH_BUDGET_MB", raw)
    rc, out, err = run(capsys, "ss", "z4-hs")
    assert rc == 2 and out == ""
    assert f"QMCOH_BUDGET_MB must be an integer, got {raw!r}" in err


def test_ss_rejects_negative_max_r(capsys):
    rc, out, err = run(capsys, "ss", "z4-hs", "--max-r", "-1")
    assert rc == 2 and out == "" and "--max-r must be >= 0" in err


def _doc(field, dims, columns, levels):
    return {"field": field, "dims": dims, "columns": columns,
            "levels": levels}


# F2, dims [1, 2], d = the one column (e0 + e1)
D0 = [[[[0, 1], [1, 1]]]]


def _one_column(pairs, field="F2"):
    """A [1, 2] complex whose one column is ``pairs``."""
    return _doc(field, [1, 2], [[pairs]], [[0], [0, 0]])


@pytest.mark.parametrize("doc, why", [
    ({}, "missing key"),
    (_doc("F4", [1], [], [[0]]), "unknown field 'F4'"),
    ([1, 2], "JSON object"),
    (_doc(["F2"], [1], [], [[0]]), "unhashable"),
    (_doc("F3", ["a"], [], []),
     "dims entry 'a' is not a non-negative integer"),
    (_doc("F3", [1.5], [], []),
     "dims entry 1.5 is not a non-negative integer"),
    (_doc("F2", [True, True], [[[[0, 1]]]], [[0], [0]]),
     "dims entry True is not a non-negative integer"),
    (_doc("Q", [-1], [], []), "dims entry -1 is not a non-negative integer"),
    (_doc("Q", 2, [], []), "dims 2 is not a list"),
    (_doc("F3", [1, 1], [[[[0, 1]]]], [[0]]),
     "one level list per degree required, not 1 for 2 degrees"),
    (_one_column([[2, 1]], "F3"),
     "columns[0][0]: [2, 1] is not a [row, value] pair with -1 < row < 2"),
    (_doc("F2", [1, 2], D0, [[0], [0]]),
     "degree 1 has 1 levels, needs 2"),
    (_doc("Q", [1, 1], [["1"]], [[0], [0]]),
     "columns[0][0] '1' is not a list"),
    ({"field": "F2", "dims": [1, 1], "differentials": [[[1]]],
      "filtration": [[[[1]]], [[[1]]]]}, "missing key(s) columns, levels"),
    (_one_column([[0, 1], [0, 1]]),
     "columns[0][0]: [0, 1] is not a [row, value] pair with 0 < row < 2"),
    (_one_column([[1, 1], [0, 1]]),
     "columns[0][0]: [0, 1] is not a [row, value] pair with 1 < row < 2"),
    (_one_column([[True, 1]]),
     "columns[0][0]: [True, 1] is not a [row, value] pair with -1 < row"),
    (_one_column([[-1, 1]]),
     "columns[0][0]: [-1, 1] is not a [row, value] pair with -1 < row"),
    (_one_column([[0, 1, 1]]),
     "columns[0][0]: [0, 1, 1] is not a [row, value] pair"),
    (_one_column([0]), "columns[0][0]: 0 is not a [row, value] pair"),
    (_doc("F2", [1, 1, 1], [[[[0, 1]]]], [[0], [0], [0]]),
     "columns lists 1 differentials for 3 dims, not one fewer than dims"),
    (_doc("F2", [1, 2], [5], [[0], [0, 0]]), "columns[0] 5 is not a list"),
    (_doc("F2", [1, 2], [[[], []]], [[0], [0, 0]]),
     "degree 0: 2 columns for dimension 1"),
    (_doc("F2", [1, 2], D0, [[-1], [0, 0]]),
     "degree 0 level entry 0: -1 is not a non-negative integer"),
    (_doc("F2", [1, 2], D0, [[0], [0, True]]),
     "degree 1 level entry 1: True is not a non-negative integer"),
    (_doc("F2", [1, 2], D0, 0), "levels 0 is not a list"),
    (_doc("F2", [1, 2], D0, [[0], 0]), "levels[1] 0 is not a list"),
    (_doc("F2", [1, 2], D0, [[1], [0, 1]]), "d leaves F^1 at degree 0"),
    (_doc("F2", [1], [], [[0]]),
     "a complex needs at least two degrees, dims lists 1"),
    (_doc("F2", [], [], []),
     "a complex needs at least two degrees, dims lists 0"),
])
def test_ss_malformed_json_is_a_usage_error(tmp_path, capsys, doc, why):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "ss", str(path))
    assert rc == 2 and out == ""
    assert "is not a complex document" in err and why in err


def _one_entry(field, entry):
    """A two-term complex whose one differential entry is ``entry``."""
    return _doc(field, [1, 1], [[[[0, entry]]]], [[0], [0]])


@pytest.mark.parametrize("doc, why", [
    (_one_entry("F3", 1.5), "entry 1.5 is not exact over F3"),
    (_one_entry("F2", 0.5), "entry 0.5 is not exact over F2"),
    (_one_entry("F2", 2.0), "entry 2.0 is not exact over F2"),
    (_one_entry("F3", "1"), "entry '1' is not exact over F3"),
    (_one_entry("F5", True), "entry True is not exact over F5"),
    (_one_entry("Q", 0.5), "entry 0.5 is not exact over Q"),
    (_one_entry("Q", False), "entry False is not exact over Q"),
    (_one_entry("Q", "1/0"), "entry '1/0' divides by zero"),
    ({**_one_entry("F3", 1), "levels": [[0], [0.5]]},
     "degree 1 level entry 0: 0.5 is not a non-negative integer"),
    (_doc("F2", [1, 1], [[[[0, 1], [1, 1]]]], [[0], [0]]),
     "columns[0][0]: [1, 1] is not a [row, value] pair with 0 < row < 1"),
    (_one_entry("Q", 0), "columns[0][0]: entry 0 is zero in Q"),
    (_one_entry("Q", "0/3"), "columns[0][0]: entry '0/3' is zero in Q"),
    (_one_entry("F3", 3), "columns[0][0]: entry 3 is zero in F3"),
    (_one_entry("F2", 2), "columns[0][0]: entry 2 is zero in F2"),
])
def test_ss_json_entries_must_be_exact(tmp_path, capsys, doc, why):
    path = tmp_path / "inexact.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "ss", str(path))
    assert rc == 2 and out == ""
    assert "is not a complex document" in err and why in err

