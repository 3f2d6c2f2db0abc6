"""Benchmark of the qmcoh calculator, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Every iteration runs in a fresh interpreter (``worker.py``),
one after another, so module-level caches start empty as they do for a
CLI user, and every iteration's output is checked (``check.py``).

With ``--trace 0`` the run first spawns a few interpreters that only
import ``qmcoh.cli`` (set-up time), then runs iterations until
``--seconds`` have passed, and reports medians of wall time, CPU time,
set-up time and peak RSS. With ``--trace 1`` it runs one untraced and one
traced iteration of the same input, checks that both print the same
report, and reports the per-module metrics of ``tracing.py`` plus the
tracing overhead. Human-readable lines come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check
from tracing import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15
RUN_LIMIT_S = 170  # every child is stopped by then

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
TRACE_METRICS = (("trace.wall_s", "s"), ("trace.overhead_s", "s"))


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pyc"),
                        PYTHONHASHSEED="0")
        # imports read bytecode from .bench_build, as after an install
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, *args: str) -> dict:
        """Run the worker once; its result plus ``setup_s``, or
        ``error`` when it died."""
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *args],
                capture_output=True, text=True, env=self.env, cwd=ROOT,
                timeout=max(self.deadline - start, 0.001))
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {RUN_LIMIT_S} s"}
        if proc.returncode != 0:
            return {"error": proc.stderr.strip()[-2000:]
                    or f"worker exit code {proc.returncode}"}
        out = json.loads(proc.stdout.splitlines()[-1])
        out["setup_s"] = out["ready"] - start
        return out

    def iteration(self, trace: bool, spans_out=None) -> tuple[dict, list]:
        args = [self.workload, str(self.seed), "1" if trace else "0"]
        res = self.spawn(*args, *([str(spans_out)] if spans_out else []))
        if res.get("error"):
            return res, [res["error"].splitlines()[-1]]
        return res, check(self.workload, self.seed, res["rc"], res["output"])


def median_metrics(iters: list, setups: list) -> dict:
    values = {name: statistics.median(it[name] for it in iters)
              for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setups)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def timed_run(runner: Runner, seconds: int):
    runner.spawn("probe", "0", "0")  # fills the bytecode cache
    setups = [runner.spawn("probe", "0", "0").get("setup_s")
              for _ in range(SETUP_PROBES)]
    setups = [s for s in setups if s is not None]
    results, failed = [], 0
    start = time.monotonic()
    while not results or time.monotonic() - start < seconds:
        res, problems = runner.iteration(trace=False)
        results.append(res)
        failed += bool(problems)
        for p in problems:
            print(f"iteration {len(results)}: {p}")
        if time.monotonic() >= runner.deadline:
            break
    timed = [r for r in results if "wall_s" in r]
    if not timed or not setups:
        return None
    for name, unit in END_TO_END:
        samples = len(setups) if name == "setup_s" else len(timed)
        print(f"{name}: median of {samples} samples, unit {unit}")
    return len(results), failed, median_metrics(timed, setups)


def traced_run(runner: Runner):
    spans_dir = ROOT / ".bench_build" / "trace"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_out = spans_dir / f"{runner.workload}-seed{runner.seed}.json"
    plain, p0 = runner.iteration(trace=False)
    traced, p1 = runner.iteration(trace=True, spans_out=spans_out)
    if not p0 and not p1 and traced["output"] != plain["output"]:
        p1 = ["traced report differs from the untraced one"]
    for p in [f"untraced: {p}" for p in p0] + [f"traced: {p}" for p in p1]:
        print(p)
    if "layers" not in traced or "wall_s" not in plain:
        return None
    values = dict(traced["layers"])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    units = {m: u for m, u, _src in LAYER_METRICS}
    units.update(TRACE_METRICS)
    metrics = {m: {"value": values[m], "unit": units[m]} for m in units}
    print(f"spans written to {spans_out.relative_to(ROOT)}")
    return 2, bool(p0) + bool(p1), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qmcoh" / "cli.py").is_file():
        print(f"no qmcoh sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    runner = Runner(args.workload, args.seed)
    print(f"python {platform.python_version()}, machine {platform.machine()},"
          f" nproc {os.cpu_count()}")
    print(f"workload {args.workload}: {WORKLOADS[args.workload]['why']}")
    print(f"seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    outcome = (traced_run(runner) if args.trace
               else timed_run(runner, args.seconds))
    if outcome is None:
        print("no iteration completed", file=sys.stderr)
        return 1
    attempted, failed, metrics = outcome
    print(f"iterations {attempted}, failed {failed},"
          f" error_rate {failed / attempted} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
