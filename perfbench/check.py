"""Output checks for one iteration, against the stored references.

``qmcoh verify --suite all`` is expected to report failures in the
``kernel-change`` identity, and so to exit with code 1: that identity
fails by design (see the package README). Any other failure, a
``checked`` count other than the one ``--samples`` fixes, a report that
disagrees with the exit code, exit code 2 or a traceback is an error.
At the reference seed the report must equal the stored one byte for
byte. An ``ss`` report must have converged and equal the stored one.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS

REF_DIR = Path(__file__).resolve().parent / "ref"
EXPECTED_FAILING = {"kernel-change"}


def reference_path(name: str) -> Path:
    if WORKLOADS[name]["kind"] == "verify":
        return REF_DIR / f"{name}.seed{REFERENCE_SEED}.json"
    return REF_DIR / f"{name}.json"


def check_verify(ref_text: str, seed: int, rc, text: str) -> list[str]:
    """Problems with one verify report; empty when it is correct."""
    if rc not in (0, 1):
        return [f"exit code {rc}"]
    try:
        got = json.loads(text)
    except json.JSONDecodeError as ex:
        return [f"report is not JSON: {ex}"]
    ref = json.loads(ref_text)
    problems = []
    for key in ("suite", "fixture", "samples", "cutoff", "window", "n_max"):
        if got.get(key) != ref[key]:
            problems.append(f"{key} is {got.get(key)!r}, not {ref[key]!r}")
    if got.get("seed") != seed:
        problems.append(f"seed is {got.get('seed')!r}, not {seed}")
    want = {e["id"]: e for e in ref["identities"]}
    entries = got.get("identities", [])
    if [e.get("id") for e in entries] != list(want):
        return problems + ["identity list differs from the reference"]
    total = 0
    for e in entries:
        ident = e["id"]
        failures = e.get("failures", [])
        total += len(failures)
        if (e.get("suite"), e.get("law")) != (want[ident]["suite"],
                                              want[ident]["law"]):
            problems.append(f"{ident}: suite or law changed")
        if e.get("checked") != want[ident]["checked"]:
            problems.append(f"{ident}: checked {e.get('checked')},"
                            f" expected {want[ident]['checked']}")
        if failures and ident not in EXPECTED_FAILING:
            problems.append(f"{ident}: {len(failures)} failures")
        try:
            if Fraction(e.get("max_error_bound")) < 0:
                problems.append(f"{ident}: negative error bound")
        except (TypeError, ValueError):
            problems.append(f"{ident}: error bound is not a rational")
    if got.get("failures_total") != total:
        problems.append("failures_total disagrees with the identities")
    if got.get("passed") is not (total == 0) or rc != (0 if total == 0 else 1):
        problems.append(f"exit code {rc} disagrees with {total} failures")
    if seed == REFERENCE_SEED and text != ref_text:
        problems.append(f"report differs from the seed-{seed} reference")
    return problems


def check_ss(ref_text: str, rc, text: str) -> list[str]:
    """Problems with a list of ss reports; empty when they are correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    got = json.loads(text)
    problems = [f"{r['field']}: not converged" for r in got
                if not r.get("converged")]
    want = json.loads(ref_text)
    if len(got) != len(want):
        return problems + [f"{len(got)} reports, expected {len(want)}"]
    for g, w in zip(got, want):
        for key in sorted(set(g) | set(w)):
            if g.get(key) != w.get(key):
                problems.append(f"{w['field']}: {key} differs from the"
                                " reference")
    return problems


def check(name: str, seed: int, rc, text: str) -> list[str]:
    ref_text = reference_path(name).read_text()
    if WORKLOADS[name]["kind"] == "verify":
        return check_verify(ref_text, seed, rc, text)
    return check_ss(ref_text, rc, text)
