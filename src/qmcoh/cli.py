"""Command line front end.

Three subcommands:

* ``qmcoh qm`` evaluates counting quasimorphisms, their homogenizations
  and coboundary cocycles, printing exact rationals.
* ``qmcoh verify`` runs the identity registry and prints the JSON
  report; exit status 0 means every checked identity held.
* ``qmcoh ss`` prints page tables for a filtered complex: the built-in
  finite fixture, a seeded random complex, or a complex document (sparse
  columns and levels) written by an earlier ``--out``.

Words are written over ``a``, ``b``, ... with inverses as either an
apostrophe (``a'``) or a capital letter (``A``); whitespace is ignored
and the empty string is the identity.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import words
from .errors import ResourceCapExceeded
from .extensions import DEFAULT_CUTOFF
from .fixtures import z4_extension
from .groups import FreeGroup
from .quasimorphism import (
    BrooksQuasimorphism,
    defect_estimate,
    homogeneous_cocycle,
    homogenize,
)
from .spectral import (
    DEFAULT_MAX_R,
    DEFAULT_WINDOW,
    complex_from_json,
    complex_to_json,
    hs_double_complex,
    random_filtered_complex,
    sequence_report,
)
from .verify import (
    DEFAULT_SAMPLES,
    registry_rows,
    report_json,
    run_suite,
    suite_names,
)


class CliError(Exception):
    pass


def _check_at_least(value: int, least: int, flag: str) -> None:
    if value < least:
        raise CliError(f"{flag} must be >= {least}, got {value}")


def _cannot_write(path: str, ex: OSError) -> CliError:
    return CliError(f"cannot write --out {path}: {ex.strerror or ex}")


def _out_writer(path: str | None):
    """A ``write(text)`` function that replaces the contents of the --out
    file, or None when no path is given. The file is opened here, before
    the work that fills it, and without truncating it: a path that
    cannot be written fails before any work runs, and a run that fails
    leaves the old contents. An I/O error opening or writing the file is
    a usage error."""
    if not path:
        return None
    try:
        open(path, "a").close()
    except OSError as ex:
        raise _cannot_write(path, ex) from ex

    def write(text: str) -> None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as ex:
            raise _cannot_write(path, ex) from ex

    return write


# ------------------------------------------------------------------- qm


def _cmd_qm(args) -> int:
    _check_at_least(args.samples, 1, "--samples")
    _check_at_least(args.size, 1, "--size")
    if args.size > words.POWER_CAP:
        raise CliError(f"--size must be <= {words.POWER_CAP}, got {args.size}")
    w = words.parse(args.word)
    if not w:
        raise CliError("--word must be a nonempty reduced word")
    phi = BrooksQuasimorphism(w)
    if args.action == "eval":
        if args.on is None:
            raise CliError("eval needs --on WORD")
        print(Fraction(phi(words.parse(args.on))))
    elif args.action == "homogenize":
        if args.on is None:
            raise CliError("homogenize needs --on WORD")
        print(Fraction(homogenize(phi, words.parse(args.on))))
    elif args.action == "cocycle":
        if args.pair is None:
            raise CliError("cocycle needs --pair G H")
        c = homogeneous_cocycle(phi)
        g, h = (words.parse(t) for t in args.pair)
        print(Fraction(c(g, h)))
    else:  # defect-estimate
        rank = max(2, words.max_generator(w))
        print(Fraction(defect_estimate(
            phi, FreeGroup(rank), samples=args.samples, seed=args.seed,
            size=args.size,
        )))
    return 0


# --------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    if args.list:
        for ident, suite, law in registry_rows():
            print(f"{ident:26} {suite:9} {law}")
        return 0
    write_out = _out_writer(args.out)
    report = run_suite(
        suite=args.suite, fixture=args.fixture, seed=args.seed,
        samples=args.samples, cutoff=args.cutoff_n, timings=args.timings,
    )
    text = report_json(report)
    sys.stdout.write(text)
    if write_out:
        write_out(text)
    return 0 if report["passed"] else 1


# ------------------------------------------------------------------- ss


def _load_complex(args):
    if args.source == "z4-hs":
        cx, filt, _info = hs_double_complex(z4_extension())
        return cx, filt
    if args.source == "random":
        cx, filt, _hom = random_filtered_complex(args.seed)
        return cx, filt
    try:
        doc = json.loads(Path(args.source).read_text())
    except OSError as ex:
        if isinstance(ex, FileNotFoundError):
            raise CliError(f"no such fixture or file: {args.source}") from ex
        raise CliError(
            f"cannot read {args.source!r}: {ex.strerror or ex}") from ex
    except (json.JSONDecodeError, UnicodeDecodeError) as ex:
        raise CliError(f"{args.source} is not valid JSON: {ex}") from ex
    try:
        return complex_from_json(doc)
    except (ValueError, KeyError, TypeError, IndexError) as ex:
        raise CliError(f"{args.source} is not a complex document: {ex}") from ex


def _print_ss(report: dict):
    print(
        f"field {report['field']}, dims {report['dims']},"
        f" window n <= {report['window']}"
    )
    for page in report["pages"]:
        cells = "  ".join(
            f"E[{c['p']},{c['q']}]={c['dim']}"
            + (f" d>{c['d_rank']}" if c.get("d_rank") else "")
            for c in page["cells"]
        )
        print(f"page r={page['r']}: {cells}")
    bad = sum(1 for row in report["consistency"] if not row["ok"])
    print("consistency: " + ("ok" if not bad else f"{bad} violations"))
    for row in report["e_infinity"]:
        verdict = "ok" if row["ok"] else "MISMATCH"
        print(
            f"degree {row['degree']}: E_inf total {row['total']},"
            f" homology {row['homology']}, {verdict}"
        )
    print("converged: " + ("yes" if report["converged"] else "no"))


def _cmd_ss(args) -> int:
    _check_at_least(args.max_r, 0, "--max-r")
    _check_at_least(args.window, 0, "--window")
    cx, filt = _load_complex(args)
    write_out = _out_writer(args.out)
    report = sequence_report(cx, filt, window=args.window, max_r=args.max_r)
    _print_ss(report)
    if write_out:
        write_out(json.dumps(complex_to_json(cx, filt), indent=2,
                             sort_keys=True) + "\n")
    return 0


# ----------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmcoh",
        description="exact quasimorphism and filtered-complex calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    qm = sub.add_parser("qm", help="counting quasimorphism calculator")
    qm.add_argument(
        "action",
        choices=("eval", "homogenize", "cocycle", "defect-estimate"),
    )
    qm.add_argument("--word", required=True,
                    help="pattern word, e.g. ab, aba' or abAB")
    qm.add_argument("--on", help="argument word; '' is the identity")
    qm.add_argument("--pair", nargs=2, metavar=("G", "H"))
    qm.add_argument("--samples", type=int, default=200)
    qm.add_argument("--seed", type=int, default=0)
    qm.add_argument("--size", type=int, default=12,
                    help="sample word length for defect-estimate")
    qm.set_defaults(func=_cmd_qm)

    ver = sub.add_parser("verify", help="run the identity registry")
    ver.add_argument("--suite", default="all", choices=suite_names())
    ver.add_argument("--fixture", default="f2-semidirect-z")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    ver.add_argument("--cutoff-n", type=int, default=DEFAULT_CUTOFF,
                     help="power-series truncation depth")
    ver.add_argument("--out", help="also write the JSON report here")
    ver.add_argument("--timings", action="store_true",
                     help="include wall times (breaks byte-for-byte diffs)")
    ver.add_argument("--list", action="store_true",
                     help="list registered identities and exit")
    ver.set_defaults(func=_cmd_verify)

    ss = sub.add_parser("ss", help="page tables for a filtered complex")
    ss.add_argument("source",
                    help="'z4-hs', 'random', or a complex JSON file")
    ss.add_argument("--seed", type=int, default=0,
                    help="seed for source 'random'")
    ss.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                    help="largest total degree shown")
    ss.add_argument("--max-r", type=int, default=DEFAULT_MAX_R)
    ss.add_argument("--out", help="write the complex as JSON")
    ss.set_defaults(func=_cmd_ss)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as ex:
        print(f"qmcoh: {ex}", file=sys.stderr)
        return 2
    except ResourceCapExceeded as ex:
        print(f"qmcoh: resource cap hit: {ex}", file=sys.stderr)
        return 2
    except ValueError as ex:
        print(f"qmcoh: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
