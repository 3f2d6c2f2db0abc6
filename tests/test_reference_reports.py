"""The benchmark's reference outputs, checked at tier-1.

``perfbench/ref/`` pins the reports that the benchmark's ``verify``
workloads print at the reference seed, and the page tables of its
``ss`` workloads. Computing the same outputs in-process here catches a
change to any reported figure at tier-1, without waiting for a
benchmark run. The same reports at seeds 1 to 3 are pinned by their
sha256 digests. The command lines and runs are read from
``perfbench/workloads.py``, and the ``ss`` reports are judged by
``perfbench/check.py``, so the two cannot drift apart.
"""

import hashlib
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


# sha256 of the report that each verify workload prints at seeds 1-3,
# taken before the identities became generators of checks; the seed-0
# reports are pinned whole, by the refs above
REPORT_DIGESTS = {
    ("verify-wide", 1):
        "fece2ebc717d48051d5f6af95378a0440180a522d404615c21410c931acf3478",
    ("verify-wide", 2):
        "1bf8cb057cbfaf9d22c1051bb2d5032ea07b3329af6c55832ea615ecacaea2c2",
    ("verify-wide", 3):
        "73d281c5bc3f95381f03f410d9804140f077074ef9f508721a7b3f76813bd52b",
    ("verify-deep", 1):
        "fb2ee9875c4186d50ff836d77797b5ac22b008a950f49664c860246bafd175cc",
    ("verify-deep", 2):
        "62e721837cc76879621fd3fd23c7727333ea531896b5ae2d3b893c4a1586ba23",
    ("verify-deep", 3):
        "4d810ebe81f95373f62c2f20c3b90ec14514b6e4756961dab96163b4c1586678",
}


@pytest.mark.parametrize("name, seed", sorted(REPORT_DIGESTS))
def test_verify_report_matches_its_digest_beyond_the_reference_seed(
        capsys, name, seed):
    rc = main(WORKLOADS.verify_argv(name, seed))
    out = capsys.readouterr().out
    assert rc == 1
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == REPORT_DIGESTS[name, seed]


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
