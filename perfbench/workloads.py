"""The benchmark's workloads: what one iteration runs, and why.

Each iteration runs in a fresh interpreter (see ``worker.py``). The
``verify`` workloads are ``qmcoh verify`` command lines, given the
benchmark's seed as ``--seed``; the ``ss`` workloads build the z4
Hochschild-Serre double complex with ``hs_double_complex`` and summarise
it with ``sequence_report``, the calls ``qmcoh ss z4-hs`` makes, for a
fixed list of (field, max_total, window) and take no seed.
"""

from __future__ import annotations

# reference outputs (perfbench/ref/) hold verify reports at this seed,
# the default of ``qmcoh verify --seed``
REFERENCE_SEED = 0

SS_MAX_R = 4

WORKLOADS = {
    "verify-wide": {
        "kind": "verify",
        "argv": ["verify", "--suite", "all", "--fixture", "f2-semidirect-z",
                 "--samples", "60"],
        "why": "many short words: chain construction and arithmetic, the"
               " pairing and the theta/lambda/T cochains do most of the work",
    },
    "verify-deep": {
        "kind": "verify",
        "argv": ["verify", "--suite", "all", "--cutoff-n", "16"],
        "why": "duality-defect-bound builds g^(2^16) words and scans them:"
               " words.power and the Brooks string scans dominate",
    },
    "ss-odd": {
        "kind": "ss",
        "runs": [("F3", 4, 3), ("Q", 3, 3)],
        "why": "z4-hs spectral sequence over F3 and Q: the dense-tuple"
               " FieldOps backend and the generic-field echelon dominate",
    },
    "ss-f2": {
        "kind": "ss",
        "runs": [("F2", 6, 4)],
        "why": "z4-hs over F2 at max_total 6: the bit-packed GF(2) backend"
               " and the field-independent complex construction;"
               " odd-prime control",
    },
}


def verify_argv(name: str, seed: int) -> list[str]:
    return WORKLOADS[name]["argv"] + ["--seed", str(seed)]
