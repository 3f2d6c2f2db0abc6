"""The seed-0 ``verify`` reports of the benchmark, byte for byte.

``perfbench/ref/`` pins the reports that the benchmark's ``verify``
workloads print at the reference seed. Running the same command lines
in-process here catches a change to any reported figure at tier-1,
without waiting for a benchmark run. The command lines are read from
``perfbench/workloads.py``, so the two cannot drift apart.
"""

import importlib.util
from pathlib import Path

import pytest

from qmcoh.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


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
