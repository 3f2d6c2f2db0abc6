"""The benchmark's own suite, run from tier-1.

``perfbench/tracing.py`` binds names of the package (``FieldOps`` and
its vector methods, the echelon classes, the subspace functions, ...)
and ``perfbench/check.py`` compares outputs with stored references. A
change under ``src/`` that breaks either should fail here, not first in
a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_unittest_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench",
         "-t", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
