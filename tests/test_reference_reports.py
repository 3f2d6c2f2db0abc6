"""The benchmark's reference outputs, checked at tier-1.

``perfbench/ref/`` pins the reports that the benchmark's ``verify``
workloads print at the reference seed, and the page tables of its
``ss`` workloads. Computing the same outputs in-process here catches a
change to any reported figure at tier-1, without waiting for a
benchmark run. The command lines and runs are read from
``perfbench/workloads.py``, and the ``ss`` reports are judged by
``perfbench/check.py``, so the two cannot drift apart.
"""

import importlib.util
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from qmcoh.cli import main
from qmcoh.fixtures import z4_extension
from qmcoh.linalg import FIELDS
from qmcoh.spectral import hs_double_complex, sequence_report

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
# check.py imports its neighbour by its plain module name
with mock.patch.dict(sys.modules, {"workloads": WORKLOADS}):
    CHECK = _load("check")


@pytest.mark.parametrize("name", ["verify-wide", "verify-deep"])
def test_verify_report_matches_the_reference(capsys, name):
    seed = WORKLOADS.REFERENCE_SEED
    rc = main(WORKLOADS.verify_argv(name, seed))
    out = capsys.readouterr().out
    # kernel-change compares against the plain middle term and fails by
    # design, so a faithful report exits 1
    assert rc == 1
    ref = ROOT / "perfbench" / "ref" / f"{name}.seed{seed}.json"
    assert out.encode() == ref.read_bytes()


@pytest.mark.parametrize("name", ["verify-wide", "verify-deep"])
def test_verify_report_passes_the_check_at_another_seed(capsys, name):
    # the benchmark runs verify at seeds other than the reference one;
    # there the check still pins the configuration fields, every
    # identity's checked count and where failures may occur
    seed = WORKLOADS.REFERENCE_SEED + 1
    rc = main(WORKLOADS.verify_argv(name, seed))
    out = capsys.readouterr().out
    ref_text = CHECK.reference_path(name).read_text()
    assert CHECK.check_verify(ref_text, seed, rc, out) == []


@pytest.mark.parametrize("name", ["ss-odd", "ss-f2"])
def test_ss_reports_match_the_reference(name):
    reports = []
    for field, max_total, window in WORKLOADS.WORKLOADS[name]["runs"]:
        cx, filt, _info = hs_double_complex(
            z4_extension(), field=FIELDS[field], max_total=max_total)
        reports.append(sequence_report(cx, filt, window=window,
                                       max_r=WORKLOADS.SS_MAX_R))
    ref_text = CHECK.reference_path(name).read_text()
    assert CHECK.check_ss(ref_text, 0, json.dumps(reports)) == []
