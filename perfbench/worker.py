"""One benchmark iteration, run in a fresh interpreter by ``run.py``.

    python3 perfbench/worker.py WORKLOAD SEED TRACE [SPANS_OUT]

``qmcoh.cli`` is imported first; the monotonic time right after that
import ends the iteration's set-up (``run.py`` takes the start before
spawning). WORKLOAD ``probe`` stops there. Otherwise the wall clock
starts at the first library call and stops when the report is in hand,
and the CPU time of this process over the same interval comes from
``getrusage``. The last line of standard output is one JSON object with
the timings, the peak RSS, the exit code, any traceback, the report
text and, with TRACE 1, the per-module metrics of ``tracing.py``.
"""

import time

import qmcoh.cli

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from qmcoh import fixtures, linalg, spectral, words  # noqa: E402

import tracing  # noqa: E402
from workloads import SS_MAX_R, WORKLOADS, verify_argv  # noqa: E402


def run_verify(name: str, seed: int):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = qmcoh.cli.main(verify_argv(name, seed))
        except SystemExit as ex:  # argparse rejects with exit code 2
            rc = ex.code
    return rc, buf.getvalue()


def run_ss(name: str, seed: int):
    reports = []
    for field, max_total, window in WORKLOADS[name]["runs"]:
        cx, filt, _info = spectral.hs_double_complex(
            fixtures.z4_extension(), field=linalg.FIELDS[field],
            max_total=max_total)
        reports.append(spectral.sequence_report(
            cx, filt, window=window, max_r=SS_MAX_R))
    return 0, reports


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv) -> int:
    name, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
    result = {"ready": READY}
    if name != "probe":
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
        run = run_verify if WORKLOADS[name]["kind"] == "verify" else run_ss
        error = None
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            rc, output = run(name, seed)
        except Exception:
            rc, output, error = None, "", traceback.format_exc()
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if not isinstance(output, str):
            output = json.dumps(output, indent=1, sort_keys=True) + "\n"
        result.update(
            wall_s=wall, cpu_s=cpu,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            rc=rc, error=error, output=output,
        )
        if tracer is not None:
            tracer.high("words.root_cache.size", len(words._root_cache))
            if WORKLOADS[name]["kind"] == "verify":
                tracer.count("cli.report_bytes", len(output))
            result["layers"] = tracing.layer_metrics(tracer)
            if len(argv) > 4:
                tracer.dump(argv[4])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
