"""Regenerate the reference outputs in perfbench/ref/.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs each workload once at the reference seed through ``worker.py`` and
stores the report exactly as printed. Only regenerate when the program's
output is meant to change; the references pin it.
"""

from __future__ import annotations

import sys

from check import REF_DIR, reference_path
from run import Runner
from workloads import REFERENCE_SEED, WORKLOADS


def main(names) -> int:
    REF_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        res = Runner(name, REFERENCE_SEED).spawn(
            name, str(REFERENCE_SEED), "0")
        if res.get("error") or res["rc"] not in (0, 1):
            print(f"{name}: {res.get('error') or res['rc']}", file=sys.stderr)
            return 1
        reference_path(name).write_text(res["output"])
        print(f"{name}: wrote {reference_path(name).name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
