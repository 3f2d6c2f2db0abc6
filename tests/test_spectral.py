import gc
import hashlib
import itertools
import json
import random
import re
import tracemalloc

import pytest

from qmcoh.errors import BudgetExceeded, InvariantViolation
from qmcoh.extensions import ExtensionData
from qmcoh.fixtures import z4_extension
from qmcoh.groups import FiniteGroup
from qmcoh.linalg import FIELDS, rank_of, solve_coords, vector_ops
from qmcoh.spectral import (DEFAULT_BUDGET_MB, DEFAULT_WINDOW,
                            ENTRY_BYTES_PRIME, ENTRY_BYTES_RATIONAL,
                            FiniteComplex, Filtration, PersistencePairing,
                            SpectralSequence, _orbit_tables,
                            complex_from_json,
                            complex_to_json, e_infinity_check,
                            hs_double_complex, hs_memory_estimate_mb,
                            hs_row_filtration,
                            memory_budget_mb, random_filtered_complex,
                            sequence_report)

CX, FILT, INFO = hs_double_complex(z4_extension())
ENGINE = SpectralSequence(CX, FILT)
PAIRING = PersistencePairing(CX, FILT)

WINDOW_CELLS = [(p, n - p) for n in range(4) for p in range(n + 1)]


def test_block_layout_dimensions():
    assert CX.dims == [2, 12, 56, 240, 992, 4032]
    assert INFO["blocks"][(0, 0)] == 2
    assert INFO["blocks"][(3, 1)] == 64
    # quotient-tuple count times fiber-orbit count per block
    for (p, q), d in INFO["blocks"].items():
        assert d == 2 ** p * 2 * 4 ** q


def test_first_page_counts_fiber_cohomology():
    # E_1^{p,q} should be (quotient cochains) x (fiber cohomology), and
    # the fiber here has one-dimensional cohomology in every degree
    for p, q in WINDOW_CELLS:
        assert ENGINE.dim(1, p, q) == 2 ** p


def test_second_page_all_ones_in_window():
    for p, q in WINDOW_CELLS:
        assert ENGINE.dim(2, p, q) == 1, (p, q)


def test_page_homology_consistency_through_r4():
    for r in range(5):
        for p, q in WINDOW_CELLS:
            assert ENGINE.consistency_ok(r, p, q), (r, p, q)


def test_induced_differential_squares_to_zero():
    for r in range(4):
        for n in range(3):  # both matrices need two degrees of headroom
            for p in range(n + 1):
                assert ENGINE.d_squared_ok(r, p, n - p), (r, p, n)


def test_stable_page_matches_ambient_homology():
    for n in range(4):
        report = e_infinity_check(PAIRING, n)
        assert report["homology"] == 1
        assert report["ok"], report


def test_stationarity_at_predicted_page():
    for p, q in WINDOW_CELLS:
        r0 = PAIRING.stable_r(p, q)
        assert ENGINE.dim(r0, p, q) == ENGINE.dim(r0 + 1, p, q) \
            == PAIRING.e_infinity_dim(p, q)


def test_nonsplit_extension_has_a_transgression():
    # the order-4 total group is detected by a rank-one d_2 off (0, 1)
    assert ENGINE.d_rank(2, 0, 1) == 1
    assert ENGINE.dim(3, 0, 1) == 0


def test_row_filtration_degenerates_immediately():
    # filtering by fiber degree kills everything above the bottom row on
    # the first page: the row coefficients are free over the quotient
    row = hs_row_filtration(CX, INFO)
    engine = SpectralSequence(CX, row)
    for p, q in WINDOW_CELLS:
        if q >= 1:
            assert engine.dim(1, p, q) == 0, (p, q)
    for level in range(4):
        assert engine.dim(1, level, 0) == 4 ** level
        assert engine.dim(2, level, 0) == 1  # ambient-group cohomology


def test_trivial_filtration_collapses_to_homology():
    triv = Filtration(CX, [[0] * d for d in CX.dims])
    engine = SpectralSequence(CX, triv)
    for q in range(4):
        assert engine.dim(0, 0, q) == CX.dims[q]
        assert engine.dim(1, 0, q) == CX.homology_dim(q)
        assert engine.dim(2, 0, q) == CX.homology_dim(q)


def test_page_cell_payload():
    reps = ENGINE.representatives(2, 0, 1)
    cols, target_dim = ENGINE.d_data(2, 0, 1)
    assert len(reps) == 1
    assert target_dim == ENGINE.dim(2, 2, 0)
    assert len(cols) == len(reps)


def test_double_complex_over_odd_characteristic():
    # exercises the sign bookkeeping that GF(2) cannot see; the d.d = 0
    # validation inside the constructor is the assertion
    cx3, filt3, _ = hs_double_complex(z4_extension(), field=FIELDS["F3"],
                                      max_total=3)
    assert cx3.dims == [2, 12, 56, 240]
    engine = SpectralSequence(cx3, filt3)
    assert engine.dim(1, 0, 0) == 1


def _s3_extension():
    """A3 -> S3 -> Z/2, S3 as the Cayley table of the permutations of
    three points, the quotient the sign."""
    perms = list(itertools.permutations(range(3)))  # identity first
    index = {perm: i + 1 for i, perm in enumerate(perms)}
    table = [[index[tuple(a[k] for k in b)] for b in perms] for a in perms]
    rotations = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    include = {k + 1: index[r] for k, r in enumerate(rotations)}
    fiber_of = {x: k for k, x in include.items()}
    return ExtensionData(
        FiniteGroup(table, name="s3"), FiniteGroup.cyclic(2),
        FiniteGroup.cyclic(3),
        sigma=lambda x: 1 if x in fiber_of else 2,
        include=include.__getitem__, fiber_of=fiber_of.__getitem__,
        section={1: 1, 2: index[(1, 0, 2)]}.__getitem__,
        check_samples=(1, 2), name="a3-s3")


def _z6_extension(fiber: int):
    """Z/fiber -> Z/6 -> Z/(6/fiber); element k of a cyclic table is the
    residue k - 1, and the section lifts residue r to residue r."""
    quotient = 6 // fiber
    include = {k: (k - 1) * quotient + 1 for k in range(1, fiber + 1)}
    fiber_of = {x: k for k, x in include.items()}
    return ExtensionData(
        FiniteGroup.cyclic(6), FiniteGroup.cyclic(quotient),
        FiniteGroup.cyclic(fiber),
        sigma=lambda x: (x - 1) % quotient + 1,
        include=include.__getitem__, fiber_of=fiber_of.__getitem__,
        section=lambda alpha: alpha,
        check_samples=tuple(range(1, quotient + 1)), name=f"z{fiber}-z6")


EXTENSIONS = {"a3-s3": _s3_extension,
              "z3-z6": lambda: _z6_extension(3),
              "z2-z6": lambda: _z6_extension(2)}  # three cosets


@pytest.mark.parametrize("ext, name, cohomology", [
    # H^*(S3; F2) is H^*(Z/2; F2); over F3 it is H^*(Z/3; F3)^{Z/2},
    # which starts again in degree 3
    ("a3-s3", "F2", [1, 1, 1, 1]),
    ("a3-s3", "F3", [1, 0, 0, 1]),
    # Z/6 = Z/2 x Z/3, so H^n(Z/6; F_p) = H^n(Z/p; F_p) is a line
    ("z3-z6", "F2", [1, 1, 1, 1]),
    ("z3-z6", "F3", [1, 1, 1, 1]),
    ("z2-z6", "F2", [1, 1, 1, 1]),
    ("z2-z6", "F3", [1, 1, 1, 1]),
])
def test_double_complex_computes_the_cohomology_of_the_ambient_group(
        ext, name, cohomology):
    cx, filt, _ = hs_double_complex(EXTENSIONS[ext](), field=FIELDS[name],
                                    max_total=4)
    assert [cx.homology_dim(n) for n in range(4)] == cohomology
    engine = PersistencePairing(cx, filt)
    for n in range(4):
        assert e_infinity_check(engine, n)["ok"], n


def _pairs(col):
    """A column as sorted (index, str(value)) pairs."""
    if isinstance(col, int):  # a GF(2) column, bit i is coordinate i
        bits = reversed(bin(col)[2:])
        return [[i, "1"] for i, bit in enumerate(bits) if bit == "1"]
    return sorted([i, str(x)] for i, x in col.items())


def _complex_digest(cx, filt):
    """sha256 of the dims, each column as sorted (index, str(value))
    pairs, and the levels."""
    doc = [cx.dims, [[_pairs(col) for col in cols] for cols in cx.diffs],
           filt.levels]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("name, arg, digest", [
    ("F2", 5,
     "65558d037e6261d3485ca0d6d183b032f7aeb9730541f3fe612257ec5a57821e"),
    ("F3", 4,
     "84a313e662584fd68fd98c6862c18f0bc44fcb95b69b304288ff3d3dd42f30cd"),
    ("Q", 3,
     "712e72179b07dcbf9bf9ea2d2d0083aea2a13d54a35ea8d6a6c575e62ede0323"),
    ("random", 0,
     "71d695d987ffcdc6cd7329b7a36b37ca575cec1d7d2b2453af5b790b7d045873"),
    ("random", 1,
     "dbe07e5df6ebbd15156a04296a318f9ebc10b3a5af0e7728e9c804e1ae6fe399"),
    ("random", 2,
     "e1bb013d0568d354b55601c692dc11978b067c8b315b9351c67bcf058fc15d9b"),
    ("random", 3,
     "d5003323ff3606da06e9acab75aef9699e7e3a2b132a27fb9406d20a9567804a"),
    ("random", 4,
     "fd726fc869f1ac53e4cd6520c15a10f96e194b1619dcaca541d6ac16333fcf05"),
    ("random", 5,
     "7914ffe792d9fb1e02954e3f6ac2b5b571593e5581d75bfb0a440623f2024d15"),
    ("random", 6,
     "5e59a129a69599317b3f5fad2f20855b9f7e5ec1ae90c2c2cd33378a612277a9"),
    ("random", 7,
     "5211f31b0185ea2f2309b21794f063708909f924b3e0507ed799686a6403551e"),
])
def test_double_complex_is_pinned_column_by_column(name, arg, digest):
    # the page tables under perfbench/ref/ would not see a column move;
    # arg is max_total for the HS complexes and the seed for the random
    # ones
    if name == "random":
        cx, filt, _ = random_filtered_complex(arg)
    elif name == "F2" and arg == 5:
        cx, filt = CX, FILT
    else:
        cx, filt, _ = hs_double_complex(z4_extension(), field=FIELDS[name],
                                        max_total=arg)
    # Filtration.by_level takes its fast path on ascending levels
    for levels in filt.levels:
        assert levels == sorted(levels)
    assert _complex_digest(cx, filt) == digest


def _d_data_digest(cx, filt):
    """sha256 of (r, p, q, height, columns as pairs) of every induced
    differential of the report window, r = 0..4."""
    engine = SpectralSequence(cx, filt)
    top = min(DEFAULT_WINDOW, cx.max_degree - 2)
    doc = []
    for r in range(5):
        for n in range(top + 1):
            for p in range(n + 1):
                cols, height = engine.d_data(r, p, n - p)
                doc.append([r, p, n - p, height, [_pairs(c) for c in cols]])
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("case, digest", [
    (("F2", 5),
     "d60b47ebd72fc96d876ce34025f4479d245f28d64c6d3122d1b4f299e466b0d1"),
    (("F3", 4),
     "8f72bf2b0cddd867d6449af9013334d0d4fe48fa5e657e326a2fc1963b370639"),
    (("Q", 3),
     "72b8d37e779b8259d260db75b562db39e50bb7209c3f9b685574003763404ab8"),
    (0,
     "820e600f741f006f89524461a756401ec7436e032e6883d57bdbe912dce966c0"),
    (1,
     "d800285adb95b38a64baed77dcf1713a7a9ee29a393efb495971da856e525ddb"),
    (2,
     "c94ae657fbbf402c2c149e95cc05d8d7c10b32d5e9c3dea8ee36762575428313"),
    (3,
     "f7fa710343a90b2299688bc2c939839c71282f9aa33bc6f98aac490a11096738"),
    (4,
     "d63abb0c28e95f2331d5e689b57b0dbe0b9c75f607e6af038119f0bc31b4f924"),
    (5,
     "35f33831ac3efa346af2142d95ffeb52fda310acbcb339fdf08766e618990dfb"),
    (6,
     "406ff8d5c30652146238d8ca8bab2cb63fa7cfd1a279aa86c9a725ebeec14a17"),
    (7,
     "e5cb3ff5c2acac742b19ea81c1be6c6a4048405ce78131e712c0c7111437f088"),
])
def test_induced_differentials_are_pinned_column_by_column(case, digest):
    # d_squared_ok composes these columns, so they are pinned beyond the
    # ranks in the page refs
    if isinstance(case, int):
        cx, filt, _ = random_filtered_complex(case)
    elif case == ("F2", 5):
        cx, filt = CX, FILT
    else:
        cx, filt, _ = hs_double_complex(z4_extension(), field=FIELDS[case[0]],
                                        max_total=case[1])
    assert _d_data_digest(cx, filt) == digest


def test_budget_cap_refuses_oversized_builds(monkeypatch):
    monkeypatch.setenv("QMCOH_BUDGET_MB", "0")
    with pytest.raises(BudgetExceeded):
        hs_double_complex(z4_extension())
    for name in ("F3", "Q"):
        with pytest.raises(BudgetExceeded):
            hs_double_complex(z4_extension(), field=FIELDS[name])


def test_budget_estimate_follows_what_the_backend_stores(monkeypatch):
    ext = z4_extension()
    # GF(2): one bit per entry of the dense matrices
    dense_bits = sum(a * b for a, b in zip(CX.dims, CX.dims[1:]))
    assert hs_memory_estimate_mb(ext, FIELDS["F2"], 5) == \
        dense_bits / 8 / 2 ** 20
    # odd fields: a bound on the stored nonzeros times their unit cost
    for name, max_total, unit in (("F3", 4, ENTRY_BYTES_PRIME),
                                  ("Q", 3, ENTRY_BYTES_RATIONAL)):
        cx, _, _ = hs_double_complex(ext, field=FIELDS[name],
                                     max_total=max_total)
        stored = sum(len(col) for cols in cx.diffs for col in cols)
        bound = hs_memory_estimate_mb(ext, FIELDS[name], max_total) \
            * 2 ** 20 / unit
        assert stored <= bound < 2 * stored, name
    # the default budget admits max_total = 6 over every field; the
    # estimate alone decides, so nothing is built here
    monkeypatch.delenv("QMCOH_BUDGET_MB", raising=False)
    for name in ("F2", "F3", "Q"):
        assert 0 < hs_memory_estimate_mb(ext, FIELDS[name], 6) \
            <= memory_budget_mb() == DEFAULT_BUDGET_MB


@pytest.mark.parametrize("name, max_total", [("F2", 6), ("F3", 5)])
def test_the_build_stays_within_its_memory_estimate(name, max_total):
    # the estimate counts the stored columns; the working set of the
    # build on top of them (action tables, one orbit's faces, one
    # block's stencils) must stay within a quarter of it
    ext, field = z4_extension(), FIELDS[name]
    tracemalloc.start()
    try:
        hs_double_complex(ext, field=field, max_total=max_total)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * hs_memory_estimate_mb(ext, field, max_total)


def test_the_built_complex_retains_no_validation_masks():
    # what stays held once z4-hs F3/5 is built: the complex and its
    # filtration take 1.36 MB; the masks that the filtration check
    # builds are dropped, not cached (they would add 0.66 MB)
    ext = z4_extension()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = hs_double_complex(ext, field=FIELDS["F3"], max_total=5)
        gc.collect()
        held = (tracemalloc.get_traced_memory()[0] - before) / 2 ** 20
    finally:
        tracemalloc.stop()
    assert built[1]._masks == {}
    assert held <= 1.5


def test_random_filtered_complexes_converge():
    widest = 0
    for seed in range(25):
        cx, filt, hom = random_filtered_complex(seed)
        widest = max([widest] + [
            len(cx.ops[n + 1].entries(col))
            for n, cols in enumerate(cx.diffs) for col in cols])
        engine = PersistencePairing(cx, filt)
        for n in range(cx.max_degree):
            report = e_infinity_check(engine, n)
            assert report["homology"] == hom[n], (seed, n)
            assert report["ok"], (seed, n)
    # the adapted basis mixes the normal form's, so columns are not
    # single entries
    assert widest >= 3


def test_random_complexes_page_consistency():
    for seed in (1, 2, 5, 11):
        cx, filt, _ = random_filtered_complex(seed)
        engine = SpectralSequence(cx, filt)
        for r in range(4):
            for n in range(cx.max_degree - 1):
                for p in range(n + 1):
                    assert engine.consistency_ok(r, p, n - p), (seed, r, p, n)


def test_boundaries_are_the_filtered_images():
    # B_r^{p,q} = F^p meet d(F^{p-r}), told apart by ranks alone: inside
    # F^p, inside the images of F^{max(p-r,0)}, and as large as the
    # intersection's dimension formula says
    cases = [random_filtered_complex(seed)[:2] for seed in range(16)]
    cases.append(hs_double_complex(z4_extension(), field=FIELDS["F3"],
                                   max_total=4)[:2])
    for cx, filt in cases:
        engine = SpectralSequence(cx, filt)
        for r in range(5):
            for n in range(min(DEFAULT_WINDOW, cx.max_degree - 1) + 1):
                ops = cx.ops[n]
                for p in range(n + 1):
                    got = engine.boundaries(r, p, n - p)
                    outside = [ops.outside(v, filt.mask_at(p, n)) for v in got]
                    assert all(map(ops.is_zero, outside))
                    src = filt.coordinates(max(p - r, 0), n - 1) if n else []
                    images = [cx.diffs[n - 1][i] for i in src]
                    space = filt.space(p, n)
                    image_rank = rank_of(ops, images)
                    assert rank_of(ops, got + images) == image_rank
                    assert rank_of(ops, got) == len(space) + image_rank \
                        - rank_of(ops, space + images), (r, p, n)


def test_cells_below_the_first_quadrant_take_part():
    # d: degree 0 -> 1 is an isomorphism onto a vector of level 2, so
    # the class of degree 0 dies by d_2 into the cell (2, -1)
    ops = vector_ops(FIELDS["F2"], 1)
    cx = FiniteComplex(FIELDS["F2"], [1, 1, 1], [[ops.basis_vector(0)],
                                                 [ops.zero_vec]])
    engine = SpectralSequence(cx, Filtration(cx, [[0], [2], [0]]))
    assert [engine.dim(r, 0, 0) for r in range(4)] == [1, 1, 1, 0]
    assert engine.d_rank(2, 0, 0) == 1
    for r in range(5):
        assert engine.consistency_ok(r, 0, 0), r
    assert e_infinity_check(PersistencePairing(cx, engine.filt), 1)["ok"]


def test_random_generator_is_deterministic():
    a = complex_to_json(*random_filtered_complex(9)[:2])
    b = complex_to_json(*random_filtered_complex(9)[:2])
    assert a == b


def test_json_round_trip_all_fields():
    for seed in range(4):  # seeds rotate through the supported fields
        cx, filt, hom = random_filtered_complex(seed)
        doc = complex_to_json(cx, filt)
        cx2, filt2 = complex_from_json(json.loads(json.dumps(doc)))
        assert cx2.dims == cx.dims
        # the document holds the columns and levels themselves
        assert cx2.diffs == cx.diffs
        assert filt2.levels == filt.levels
        engine = PersistencePairing(cx2, filt2)
        for n in range(cx2.max_degree):
            assert e_infinity_check(engine, n)["homology"] == hom[n]
    for name in ("F2", "F3", "Q"):
        cx, filt, _ = hs_double_complex(z4_extension(), field=FIELDS[name],
                                        max_total=2)
        cx2, filt2 = complex_from_json(
            json.loads(json.dumps(complex_to_json(cx, filt))))
        assert cx2.diffs == cx.diffs, name
        assert filt2.levels == filt.levels, name


def _conjugated(cx, filt, rng):
    """cx written in the basis g(e_i) of a random invertible g that keeps
    every level: g(e_i) = c e_i + sum a e_j over a few j > i, with c
    nonzero. g is triangular, and it keeps the levels because they
    ascend with the coordinate. Returns the moved complex and the level
    of each g(e_i), the least level on its support."""
    images, levels = [], []
    for n, lv in enumerate(filt.levels):
        assert lv == sorted(lv)
        ops, dim = cx.ops[n], len(lv)
        image = []
        for i in range(dim):
            later = range(i + 1, dim)
            coords = {j: rng.randrange(-2, 3)
                      for j in rng.sample(later, min(2, len(later)))}
            coords[i] = rng.randrange(1, cx.field.p or 5)
            image.append(ops.from_sparse(coords))
        images.append(image)
        levels.append([min(lv[i] for i in ops.entries(v)) for v in image])
    diffs = [solve_coords(cx.ops[n + 1], images[n + 1],
                          [cx.apply(n, v) for v in images[n]])
             for n in range(cx.max_degree)]
    return FiniteComplex(cx.field, cx.dims, diffs), levels


@pytest.mark.parametrize("name, max_total", [
    ("F2", 3), ("F2", 4), ("F3", 3), ("F3", 4), ("Q", 3)])
def test_pages_are_filtered_isomorphism_invariants(name, max_total):
    cx, filt, _ = hs_double_complex(z4_extension(), field=FIELDS[name],
                                    max_total=max_total)
    rng = random.Random(f"conjugate:{name}:{max_total}")
    moved, levels = _conjugated(cx, filt, rng)
    assert moved.diffs != cx.diffs
    assert levels == filt.levels
    assert sequence_report(moved, Filtration(moved, levels)) \
        == sequence_report(cx, filt)


def test_complex_validation_rejects_broken_differential():
    f2 = FIELDS["F2"]
    with pytest.raises(InvariantViolation):
        FiniteComplex(f2, [1, 1, 1], [[1], [1]])  # d.d = identity != 0
    for name in ("F3", "Q"):
        field = FIELDS[name]
        one, two = vector_ops(field, 1), vector_ops(field, 2)
        e = one.from_entries([1])
        with pytest.raises(InvariantViolation):
            FiniteComplex(field, [1, 1, 1], [[e], [e]])
        # d.d = 1 + 1 vanishes over GF(2) only; 1 - 1 vanishes everywhere
        d0 = [two.from_entries([1, 1])]
        with pytest.raises(InvariantViolation):
            FiniteComplex(field, [1, 2, 1], [d0, [e, e]])
        FiniteComplex(field, [1, 2, 1], [d0, [e, one.scale(-1, e)]])


def test_a_bad_level_list_gets_a_short_message():
    # the message names the length or the first bad entry, never the
    # whole list: 4,032 levels once printed as 12 kB
    cx = FiniteComplex(FIELDS["F2"], [4032], [])
    good = [p % 5 for p in range(4032)]
    for levels in (good[:-1], good[:-1] + [-1], good[:-2] + [0.5, "x"]):
        with pytest.raises(ValueError) as info:
            Filtration(cx, [levels])
        assert len(str(info.value).encode()) < 200
    Filtration(cx, [good])


def test_filtration_validation_rejects_unstable_levels():
    f2 = FIELDS["F2"]
    cx = FiniteComplex(f2, [1, 1], [[1]])  # d = identity
    with pytest.raises(InvariantViolation, match="d leaves F"):
        # level 1 contains degree 0 but nothing in degree 1
        Filtration(cx, [[1], [0]])
    Filtration(cx, [[1], [1]])
    with pytest.raises(ValueError, match="one level list per degree"):
        Filtration(cx, [[0]])
    for levels, why in (([[0, 0], [0]], "degree 0 has 2 levels, needs 1"),
                        ([[0], []], "degree 1 has 0 levels, needs 1")):
        with pytest.raises(ValueError, match=why):
            Filtration(cx, levels)
    for bad in (-1, 1.0, "1", True, None):
        with pytest.raises(ValueError, match=re.escape(
                f"degree 0 level entry 0: {bad!r} is not a non-negative")):
            Filtration(cx, [[bad], [1]])

    class Level(int):
        pass

    # one entry per type is tested, and the sign of the least: an
    # offending entry between entries that pass is still found
    wide = FiniteComplex(f2, [3, 1], [[0, 0, 0]])  # d = 0
    for bad in ([0, True, 0], [0, -1, 2], [0, 1.0, 1], [0, "1", 1],
                [Level(1), Level(-1), Level(2)], [0, None, 1]):
        with pytest.raises(ValueError, match=re.escape(
                f"degree 0 level entry 1: {bad[1]!r} is not a non-negative")):
            Filtration(wide, [bad, [0]])
    assert Filtration(wide, [[0, Level(2), 1], [Level(0)]]).u == [2, 0]
    for name in ("F3", "Q"):
        field = FIELDS[name]
        one, two = vector_ops(field, 1), vector_ops(field, 2)
        e = one.from_entries([1])
        cx = FiniteComplex(field, [1, 1], [[e]])
        with pytest.raises(InvariantViolation, match="d leaves F"):
            Filtration(cx, [[1], [0]])
        Filtration(cx, [[1], [1]])
        # d(e) = e0 - e1 has an entry on each coordinate, so it leaves
        # F^1 unless both have level 1
        cx = FiniteComplex(field, [1, 2], [[two.from_entries([1, -1])]])
        for levels in ([[1], [1, 0]], [[1], [0, 1]]):
            with pytest.raises(InvariantViolation, match="d leaves F"):
                Filtration(cx, levels)
        assert Filtration(cx, [[1], [1, 1]]).u == [1, 1]


def test_report_is_convergent_and_ordered():
    report = sequence_report(CX, FILT)
    assert report["converged"]
    assert report["dims"] == CX.dims
    rs = [pg["r"] for pg in report["pages"]]
    assert rs == sorted(rs)
    for row in report["e_infinity"]:
        assert row["total"] == row["homology"] == 1


def _pairing_case(case):
    """(complex, filtration) of a named comparison case."""
    if case == "q<0":
        ops = vector_ops(FIELDS["F2"], 1)
        cx = FiniteComplex(FIELDS["F2"], [1, 1, 1],
                           [[ops.basis_vector(0)], [ops.zero_vec]])
        return cx, Filtration(cx, [[0], [2], [0]])
    if isinstance(case, int):
        return random_filtered_complex(case)[:2]
    name, max_total, direction = case
    if (name, max_total) == ("F2", 5):
        cx, filt, info = CX, FILT, INFO
    else:
        cx, filt, info = hs_double_complex(
            z4_extension(), field=FIELDS[name], max_total=max_total)
    return cx, filt if direction == "column" else hs_row_filtration(cx, info)


@pytest.mark.parametrize("case", [
    (name, max_total, direction)
    for name, max_total in (("F2", 5), ("F3", 4), ("Q", 3))
    for direction in ("column", "row")] + list(range(25)) + ["q<0"],
    ids=lambda case: "-".join(map(str, case)) if isinstance(case, tuple)
    else str(case))
def test_pairing_equals_the_lattice(case):
    # every page dimension and every d_r rank, on every cell the lattice
    # defines; the row filtration's levels descend with the index, so it
    # takes the renumbering path
    cx, filt = _pairing_case(case)
    lattice = SpectralSequence(cx, filt)
    pairing = PersistencePairing(cx, filt)
    for n in range(cx.max_degree):
        for p in range(max(n, filt.level_bound(n)) + 1):
            q = n - p
            for r in range(6):
                assert pairing.dim(r, p, q) == lattice.dim(r, p, q), \
                    (r, p, q)
                if r and n <= cx.max_degree - 2:
                    assert pairing.d_rank(r, p, q) \
                        == lattice.d_rank(r, p, q), (r, p, q)


def test_the_report_never_reaches_the_lattice(monkeypatch):
    def refuse(*args):
        raise AssertionError("the report fell back to the lattice")

    for attr in ("cycles", "boundaries", "representatives", "d_data"):
        monkeypatch.setattr(SpectralSequence, attr, refuse)
    report = sequence_report(CX, FILT)
    assert report["converged"]
    assert all(row["ok"] for row in report["consistency"])


def _tuple_orbit_tables(ext, max_total):
    """The builder's act table, and its faces tabulated as ``vert[q][o]``
    (target, omitted slot) lists, as they were computed before digit
    arithmetic: each tuple is translated entry by entry with
    ``gamma.mul`` and looked up by its least translate."""
    gamma, pi = ext.gamma, ext.pi
    subgroup = [ext.include(x) for x in ext.g.elements()]
    elts = sorted(gamma.elements())
    pi_elts = tuple(sorted(pi.elements()))
    least = {x: min(subgroup, key=lambda h: gamma.mul(h, x)) for x in elts}
    minima = sorted({gamma.mul(least[x], x) for x in elts})
    orbits = {t: list(itertools.product(minima, *[elts] * (t - 1)))
              for t in range(1, max_total + 2)}
    orb_index = {t: {rep: i for i, rep in enumerate(reps)}
                 for t, reps in orbits.items()}

    def orbit_of(t, tup):
        h = least[tup[0]]
        return orb_index[t][tuple(gamma.mul(h, x) for x in tup)]

    act = {q: {alpha: [
        orbit_of(q + 1, tuple(gamma.mul(ext.section(alpha), x) for x in rep))
        for rep in orbits[q + 1]] for alpha in pi_elts}
        for q in range(max_total + 1)}
    vert = {}
    for q in range(max_total):
        t = q + 2
        cols = [[] for _ in orbits[q + 1]]
        for tgt, rep in enumerate(orbits[t]):
            for i in range(t):
                cols[orbit_of(t - 1, rep[:i] + rep[i + 1:])].append((tgt, i))
        vert[q] = cols
    return act, vert


@pytest.mark.parametrize("ext, max_total", [
    ("z4-hs", 6), ("a3-s3", 4), ("z3-z6", 4), ("z2-z6", 4)])
def test_orbit_tables_match_the_tuple_translation(ext, max_total):
    # act entry for entry; the faces of each orbit as a multiset, since
    # the builder sums them into one stencil
    extension = z4_extension() if ext == "z4-hs" else EXTENSIONS[ext]()
    act, faces = _orbit_tables(extension, max_total)
    want_act, vert = _tuple_orbit_tables(extension, max_total)
    assert act == {q: want_act[q] for q in range(max_total)}
    for q, cols in vert.items():
        for o, want in enumerate(cols):
            got = [(tgt, i) for i, targets in enumerate(faces(q, o))
                   for tgt in targets]
            assert sorted(got) == sorted(want), (q, o)


def _entrywise_columns(ext, field, max_total):
    """The differentials of ``hs_double_complex`` as they were computed
    before stencils: every entry of every column is summed on its own,
    and each column is reduced into the field when it is complete. The
    orbits and faces come from ``_tuple_orbit_tables``, so no face
    arithmetic is shared with the builder."""
    pi = ext.pi
    pi_elts = tuple(sorted(pi.elements()))
    act, vert = _tuple_orbit_tables(ext, max_total)
    n_orbits = [len(act[q][pi_elts[0]]) for q in range(max_total + 1)]
    tuples = {p: list(itertools.product(pi_elts, repeat=p))
              for p in range(max_total + 1)}
    tup_index = {p: {tup: i for i, tup in enumerate(tuples[p])}
                 for p in tuples}
    offsets, dims = [], []
    for n in range(max_total + 1):
        offs, total = {}, 0
        for p in range(n + 1):
            offs[p] = total
            total += len(tuples[p]) * n_orbits[n - p]
        offsets.append(offs)
        dims.append(total)
    diffs = []
    for n in range(max_total):
        ops_next = vector_ops(field, dims[n + 1])
        cols = []
        for p in range(n + 1):
            q = n - p
            n_orb, n_orb_up = n_orbits[q], n_orbits[q + 1]
            horiz_base = offsets[n + 1][p + 1]
            vert_base = offsets[n + 1][p]
            up_index = tup_index[p + 1]
            for ta, a in enumerate(tuples[p]):
                for o in range(n_orb):
                    col: dict = {}
                    # horizontal: act on the value, prepend a slot
                    for beta in pi_elts:
                        k = (horiz_base + up_index[(beta,) + a] * n_orb
                             + act[q][beta][o])
                        col[k] = col.get(k, 0) + 1
                    # horizontal: split each slot of the argument tuple
                    for i in range(1, p + 1):
                        for x in pi_elts:
                            y = pi.mul(pi.inv(x), a[i - 1])
                            merged = a[:i - 1] + (x, y) + a[i:]
                            k = horiz_base + up_index[merged] * n_orb + o
                            col[k] = col.get(k, 0) + (-1) ** i
                    # horizontal: drop the trailing slot
                    for beta in pi_elts:
                        k = horiz_base + up_index[a + (beta,)] * n_orb + o
                        col[k] = col.get(k, 0) + (-1) ** (p + 1)
                    # vertical, twisted by the horizontal degree
                    for tgt, i in vert[q][o]:
                        k = vert_base + ta * n_orb_up + tgt
                        col[k] = col.get(k, 0) + (-1) ** (p + i)
                    cols.append(ops_next.from_sparse(col))
        diffs.append(cols)
    return dims, diffs


@pytest.mark.parametrize("ext, name, max_total", [("z4-hs", "F2", 6)] + [
    (ext, name, 4) for ext in EXTENSIONS for name in ("F2", "F3", "Q")])
def test_stencil_columns_match_the_entrywise_sum(ext, name, max_total):
    # the sha256 pins cover z4-hs only; z2-z6 has a quotient of order 3,
    # so two non-identity elements act on each column
    extension = z4_extension() if ext == "z4-hs" else EXTENSIONS[ext]()
    field = FIELDS[name]
    cx, _, _ = hs_double_complex(extension, field=field, max_total=max_total)
    dims, diffs = _entrywise_columns(extension, field, max_total)
    assert cx.dims == dims
    for n, (got, want) in enumerate(zip(cx.diffs, diffs)):
        assert len(got) == len(want), n
        for j, (a, b) in enumerate(zip(got, want)):
            assert a == b, (n, j)


def _with_moved_entry(cx, filt, n, p, i):
    """A copy of cx whose first column of level p in degree n has its
    first nonzero entry moved to coordinate i of degree n + 1; no other
    column changes."""
    ops = cx.ops[n + 1]
    j = filt.levels[n].index(p)
    entries = ops.entries(cx.diffs[n][j])
    x = entries.pop(min(entries))
    entries[i] = x
    broken = FiniteComplex(cx.field, cx.dims, cx.diffs)
    # set after the d.d check, which the moved column would fail; only
    # the filtration check is wanted
    broken.diffs[n][j] = ops.from_sparse(entries)
    return broken


def _interleaved(cx, filt):
    """cx and its levels in the basis that lists the even coordinates of
    each degree before the odd ones, so that no degree's levels are
    sorted and each level occurs in two runs."""
    return _reordered(cx, filt, [sorted(range(d), key=lambda i: (i % 2, i))
                                 for d in cx.dims])


def _reordered(cx, filt, order):
    """cx and its levels in the basis whose k-th vector of degree n is
    the old vector order[n][k]."""
    pos = [{i: k for k, i in enumerate(o)} for o in order]
    diffs = []
    for n, cols in enumerate(cx.diffs):
        ops = cx.ops[n + 1]
        diffs.append([
            ops.from_sparse({pos[n + 1][i]: x
                             for i, x in ops.entries(cols[j]).items()})
            for j in order[n]])
    levels = [[lv[i] for i in o] for lv, o in zip(filt.levels, order)]
    return FiniteComplex(cx.field, cx.dims, diffs), levels


@pytest.mark.parametrize("name", ["F2", "F3"])
def test_filtration_check_reads_the_mask_of_each_level(name):
    # the moved column has level p >= 1, and its entry lands on the
    # first or the last coordinate of level p - 1, outside F^p but inside
    # every level below it. In the built basis the first columns of each
    # degree have level 0 and pass, and the moved one sits after them;
    # in the interleaved basis levels go up and down, so the mask of F^p
    # is read from runs all over it
    cx, filt, _ = hs_double_complex(z4_extension(), field=FIELDS[name],
                                    max_total=4)
    shuffled, levels = _interleaved(cx, filt)
    assert any(lv != sorted(lv) for lv in levels)
    for cx, filt in ((cx, filt), (shuffled, Filtration(shuffled, levels))):
        for n in range(1, 4):
            lv = filt.levels[n + 1]
            for p in range(1, n + 1):
                last = len(lv) - 1 - lv[::-1].index(p - 1)
                for i in (lv.index(p - 1), last):
                    broken = _with_moved_entry(cx, filt, n, p, i)
                    message = f"d leaves F\\^{p} at degree {n}"
                    with pytest.raises(InvariantViolation, match=message):
                        Filtration(broken, filt.levels)


@pytest.mark.parametrize("name", ["F2", "F3"])
def test_filtration_check_builds_one_mask_per_level_in_any_basis(name):
    # z4-hs F2/5 in a shuffled basis took 93 ms to check against 1 ms in
    # its built order when a mask was built whenever the level changed
    # from one column to the next; the columns are visited by level now
    cx, filt, _ = hs_double_complex(z4_extension(), field=FIELDS[name],
                                    max_total=5)
    rng = random.Random(11)
    shuffled, levels = _reordered(
        cx, filt, [rng.sample(range(d), d) for d in cx.dims])
    assert all(lv != sorted(lv) for lv in levels[1:])
    calls = [0] * len(shuffled.ops)

    def counted(n, mask):
        def wrapper(indices):
            calls[n] += 1
            return mask(indices)
        return wrapper

    for n, ops in enumerate(shuffled.ops):
        ops.mask = counted(n, ops.mask)
    shuffled_filt = Filtration(shuffled, levels)
    assert calls[0] == 0 < sum(calls)
    for n in range(len(cx.diffs)):
        assert calls[n + 1] <= len(set(levels[n]) - {0}), n
    # moving an entry of a level-p column onto a coordinate of level
    # p - 1 is still caught, wherever the two sit in the basis
    for n in range(1, 4):
        lv = levels[n + 1]
        for p in range(1, n + 1):
            broken = _with_moved_entry(shuffled, shuffled_filt, n, p,
                                       lv.index(p - 1))
            with pytest.raises(InvariantViolation,
                               match=f"d leaves F\\^{p} at degree {n}"):
                Filtration(broken, levels)
