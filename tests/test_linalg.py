import copy
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qmcoh.linalg import (FIELDS, GF2, QQ, FieldOps, PrimeField,
                          complement_in, in_span, intersect, matmul,
                          matrix_rank, rank_of, relations, solve_coords,
                          span_reduce, subspace_sum, vector_ops,
                          vectors_into_coordspan, vectors_into_span)


def vecs(ops, rows):
    return [ops.from_entries(r) for r in rows]


# ------------------------------------------- dense reference backend
# The generic-field backend as it was before it became sparse: tuple
# vectors, with each entry's arithmetic done on plain ints or Fractions
# and brought back into the field by ``field.of``, so the reference
# borrows no arithmetic from the package. It speaks the same
# coefficient protocol: combos come out, and ``combine`` takes them, as
# canonical {index: nonzero} dicts. The sparse FieldOps must give the
# same answers.


class DenseEchelon:
    def __init__(self, field):
        self.field = field
        self.rows: dict = {}  # pivot index -> (vector list, combo dict)
        self.count = 0

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, v):
        F = self.field
        v = list(v)
        combo: dict = {}
        i = 0
        n = len(v)
        while i < n:
            if v[i] == F.zero:
                i += 1
                continue
            hit = self.rows.get(i)
            if hit is None:
                break
            c = v[i]
            vec, vcombo = hit
            for j in range(i, n):
                v[j] = F.of(v[j] - c * vec[j])
            for k, a in vcombo.items():
                combo[k] = F.of(combo.get(k, F.zero) + c * a)
            i += 1
        return v, combo, i

    def reduce(self, v):
        res, combo, _lead = self._reduce(v)
        zero = self.field.zero
        return tuple(res), {k: a for k, a in combo.items() if a != zero}

    def add(self, v) -> bool:
        F = self.field
        res, combo, lead = self._reduce(v)
        mine = self.count
        self.count += 1
        if lead >= len(res):
            return False
        inv = F.inv(res[lead])
        vec = [F.of(inv * x) for x in res]
        combo = {k: F.of(-inv * a) for k, a in combo.items()}
        combo[mine] = inv
        self.rows[lead] = (vec, combo)
        return True


class DenseOps:
    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.zero_vec = (field.zero,) * width

    def from_entries(self, entries):
        out = list(self.zero_vec)
        for i, x in enumerate(entries):
            out[i] = self.field.of(x)
        return tuple(out)

    def entries(self, v):
        return {i: x for i, x in enumerate(v) if x != self.field.zero}

    def is_zero(self, v):
        z = self.field.zero
        return all(x == z for x in v)

    def shift(self, v, k):
        """v moved up k coordinates; the top k entries fall off."""
        return ((self.field.zero,) * k + tuple(v))[:self.width]

    def combine(self, coeffs, vectors):
        acc = list(self.zero_vec)
        F = self.field
        for k, a in coeffs.items():
            for i, x in enumerate(vectors[k]):
                acc[i] = F.of(acc[i] + a * x)
        return tuple(acc)

    def mask(self, indices):
        return frozenset(indices)

    def outside(self, v, mask):
        z = self.field.zero
        return tuple(z if i in mask else x for i, x in enumerate(v))

    def echelon(self):
        return DenseEchelon(self.field)


def dense_matmul(field, a_cols, b_cols, height: int):
    """The dense-list product ``matmul`` used to be: A by columns of
    length ``height``, B by columns of coefficients over A's columns."""
    out = []
    for bcol in b_cols:
        acc = [field.zero] * height
        for coeff, acol in zip(bcol, a_cols):
            if coeff == field.zero:
                continue
            for i, x in enumerate(acol):
                acc[i] = field.of(acc[i] + field.of(coeff) * x)
        out.append(acc)
    return out


@st.composite
def field_problems(draw):
    """A field, a width in 0..6, entry rows over it that repeat rows and
    hold zero rows, a split point, a target row and a coordinate set."""
    name = draw(st.sampled_from(["F3", "F5", "Q"]))
    width = draw(st.integers(0, 6))
    if name == "Q":
        elt = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        elt = st.integers(-6, 6)
    row = st.lists(st.just(0) | elt, min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=5)) + [[0] * width]
    rows = draw(st.lists(st.sampled_from(pool), max_size=9))
    cut = draw(st.integers(0, len(rows)))
    target = draw(st.sampled_from(pool))
    axes = draw(st.sets(st.integers(0, width - 1)) if width else st.just(set()))
    return FIELDS[name], width, rows, cut, target, axes


@given(field_problems())
@example((FIELDS["F3"], 0, [[], [], []], 1, [], set()))
@example((FIELDS["F5"], 1, [[3], [0], [3], [8]], 2, [2], set()))
@example((QQ, 1, [[0], [Fraction(1, 2)], [Fraction(1, 2)]], 1, [1], {0}))
@settings(max_examples=300)
def test_sparse_backend_matches_the_dense_reference(problem):
    field, width, rows, cut, target, axes = problem
    sparse, dense = vector_ops(field, width), DenseOps(field, width)
    assert isinstance(sparse, FieldOps)
    sv, dv = vecs(sparse, rows), vecs(dense, rows)

    def same(got_sparse, got_dense):
        return [sparse.entries(v) for v in got_sparse] == \
            [dense.entries(v) for v in got_dense]

    assert same(sv, dv)
    assert rank_of(sparse, sv) == rank_of(dense, dv)
    assert same(span_reduce(sparse, sv), span_reduce(dense, dv))
    assert same(complement_in(sparse, sv[:cut], sv[cut:]),
                complement_in(dense, dv[:cut], dv[cut:]))
    assert relations(sparse, sv) == relations(dense, dv)
    ech = dense.echelon()
    independent = [r for r, v in zip(rows, dv) if ech.add(v)]
    for basis in (rows, independent):
        assert solve_coords(sparse, vecs(sparse, basis),
                            vecs(sparse, [target] + rows)) == \
            solve_coords(dense, vecs(dense, basis), vecs(dense, [target] + rows))
    assert vectors_into_coordspan(sparse, sv, sparse.mask(axes)) == \
        vectors_into_coordspan(dense, dv, dense.mask(axes))


@pytest.mark.parametrize("name", ["F3", "F5", "Q"])
def test_sparse_vectors_are_canonical(name):
    ops = vector_ops(FIELDS[name], 3)
    v = ops.from_entries([1, 2, Fraction(1, 2) if name == "Q" else 4])
    assert ops.add(v, ops.scale(-1, v)) == ops.zero_vec == {}
    assert ops.scale(0, v) == {}
    assert ops.outside(v, ops.mask(range(3))) == {}
    cops = vector_ops(FIELDS[name], 2)
    assert ops.combine(cops.from_entries([1, -1]), [v, v]) == {}
    assert ops.combine(cops.zero_vec, [v, v]) == {}
    assert ops.from_sparse({0: 0, 2: ops.field.p or 0}) == {}
    assert ops.entries(ops.zero_vec) == {}
    assert ops.entries(v) == v and ops.entries(v) is not v
    with pytest.raises(IndexError):
        ops.from_entries([1, 0, 0, 1])
    f3 = vector_ops(FIELDS["F3"], 3)
    assert f3.from_entries([0, 3, 0]) == {}
    assert f3.is_zero(f3.from_entries([0, 3, 0]))
    assert f3.from_entries([0, 4, -1]) == {1: 1, 2: 2}


@pytest.mark.parametrize("name", ["F3", "Q"])
def test_sparse_ops_leave_their_arguments_alone(name):
    ops = vector_ops(FIELDS[name], 4)
    u = ops.from_entries([1, 0, 2, 1])
    v = ops.from_entries([2, 1, 1, 0])
    cols = [ops.basis_vector(i) for i in range(4)]
    cops = vector_ops(FIELDS[name], 2)
    one, both = cops.from_entries([1]), cops.from_entries([1, 1])
    args = (u, v, cols, one, both)
    before = copy.deepcopy(args)
    results = [ops.add(u, v), ops.add(u, ops.zero_vec),
               ops.add(ops.zero_vec, v), ops.scale(1, u), ops.scale(2, u),
               ops.combine(one, [u]), ops.combine(both, [u, v]),
               ops.outside(u, ops.mask([3])), ops.combine(u, cols),
               ops.combine(ops.zero_vec, cols)]
    ech = ops.echelon()
    for w in (u, v, u, ops.zero_vec):
        ech.add(w)
        results.append(ech.reduce(w)[1])
    for got in results:
        got[0] = ops.field.one  # results are fresh dicts
    assert (u, v, cols, one, both) == before
    assert ops.zero_vec == {}


@pytest.mark.parametrize("name", ["F2", "F3", "Q"])
def test_shift_matches_the_dense_reference(name):
    field = FIELDS[name]
    rng = random.Random(f"shift:{name}")
    width = 9
    ops, dense = vector_ops(field, width), DenseOps(field, width)
    for k in range(width):
        for _ in range(6):
            # entries only where the shifted vector still fits
            entries = [rng.choice([0, 0, 1, 2, Fraction(1, 2)]
                                  if name == "Q" else [0, 0, 1, 2])
                       for _ in range(width - k)]
            v = ops.from_entries(entries)
            before = copy.deepcopy(v)
            got = ops.shift(v, k)
            assert ops.entries(got) == \
                dense.entries(dense.shift(dense.from_entries(entries), k))
            assert v == before
            if name != "F2":
                assert got is not v
                got[width] = field.one  # a fresh dict
                assert v == before
        zero = ops.shift(ops.zero_vec, k)
        assert ops.is_zero(zero)
        if name != "F2":
            zero[0] = field.one  # not the shared zero_vec
            assert ops.zero_vec == {}


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_gf2_rank_oracle():
    ops = vector_ops(GF2, 4)
    basis = vecs(ops, [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 0, 1]])
    # third row is the sum of the first two
    assert rank_of(ops, basis) == 3


def test_rational_rank_oracle():
    ops = vector_ops(QQ, 3)
    rows = vecs(ops, [[1, Fraction(1, 2), Fraction(1, 3)],
                      [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)],
                      [Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)]])
    assert rank_of(ops, rows) == 3  # Hilbert matrix is invertible


def test_relations_recombine_to_zero():
    for name in ("F2", "F3", "Q"):
        field = FIELDS[name]
        ops = vector_ops(field, 4)
        u = vecs(ops, [[1, 2, 0, 1], [0, 1, 1, 1], [1, 3, 1, 2], [2, 4, 0, 2]])
        cops = vector_ops(field, len(u))
        rels = relations(ops, u)
        assert rels, name
        for rel in rels:
            # a canonical, nonzero vector of u's coefficient space
            assert rel == cops.from_sparse(cops.entries(rel)), name
            assert not cops.is_zero(rel), name
            assert ops.is_zero(ops.combine(rel, u)), name
        # independent as they come, with no reduction
        assert rank_of(cops, rels) == len(rels), name


def test_solve_coords_roundtrip():
    rng = random.Random(7)
    for name in ("F2", "F5", "Q"):
        field = FIELDS[name]
        ops = vector_ops(field, 5)
        basis = span_reduce(ops, vecs(
            ops, [[rng.randrange(5) for _ in range(5)] for _ in range(3)]))
        cops = vector_ops(field, len(basis))
        coeffs = [cops.from_entries([rng.randrange(1, 4) for _ in basis])
                  for _ in range(4)]
        vs = [ops.combine(c, basis) for c in coeffs]
        got = solve_coords(ops, basis, vs)
        assert got == coeffs  # the basis is independent
        assert [ops.combine(c, basis) for c in got] == vs


def test_solve_coords_detects_outsiders():
    ops = vector_ops(GF2, 3)
    basis = vecs(ops, [[1, 0, 0], [0, 1, 0]])
    assert solve_coords(ops, basis, vecs(ops, [[0, 0, 1]])) == [None]
    # a mixed list keeps its order, each outsider None in its own slot
    mixed = vecs(ops, [[1, 1, 0], [0, 1, 1], [0, 0, 0], [1, 1, 1], [0, 1, 0]])
    assert solve_coords(ops, basis, mixed) == [0b11, None, 0, None, 0b10]
    assert solve_coords(ops, basis, []) == []


def test_solve_coords_is_canonical_on_an_independent_prefix():
    # the prefix coefficients do not see whether the tail was reduced
    rng = random.Random(11)
    for name in ("F2", "F3", "Q"):
        field = FIELDS[name]
        ops = vector_ops(field, 5)

        def rand():
            return ops.from_entries([rng.randrange(3) for _ in range(5)])

        prefix = span_reduce(ops, [rand(), rand()])
        a, b = rand(), rand()
        tail = [a, b, ops.add(a, b), a, prefix[0], rand()]
        reduced = span_reduce(ops, tail)
        assert len(reduced) < len(tail), name
        span = prefix + tail
        vs = [ops.combine(vector_ops(field, len(span)).from_entries(
            [rng.randrange(3) for _ in span]), span) for _ in range(6)]

        def on_prefix(basis):
            cops = vector_ops(field, len(basis))
            tail_axes = cops.mask(range(len(prefix), len(basis)))
            return [cops.outside(c, tail_axes)
                    for c in solve_coords(ops, basis, vs)]

        assert on_prefix(span) == on_prefix(prefix + reduced), name


def test_intersection_of_planes_is_a_line():
    ops = vector_ops(QQ, 3)
    u = vecs(ops, [[1, 0, 0], [0, 1, 0]])
    v = vecs(ops, [[0, 1, 1], [1, 1, 1]])
    meet = intersect(ops, u, v)
    assert len(meet) == 1
    assert in_span(ops, u, meet[0]) and in_span(ops, v, meet[0])


def test_dimension_formula_random_subspaces():
    rng = random.Random(19)
    for name in ("F2", "F3", "Q"):
        field = FIELDS[name]
        ops = vector_ops(field, 6)
        for _ in range(20):
            u = span_reduce(ops, vecs(
                ops, [[rng.randrange(3) for _ in range(6)] for _ in range(3)]))
            v = span_reduce(ops, vecs(
                ops, [[rng.randrange(3) for _ in range(6)] for _ in range(3)]))
            lhs = len(u) + len(v)
            rhs = len(subspace_sum(ops, u, v)) + len(intersect(ops, u, v))
            assert lhs == rhs, name


def test_vectors_into_span_is_the_full_preimage():
    ops = vector_ops(GF2, 4)
    u = vecs(ops, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    w = vecs(ops, [[1, 1, 0, 0]])
    coeff_rows = vectors_into_span(ops, u, w)
    cops = vector_ops(GF2, len(u))
    for row in coeff_rows:  # truncated to u's coefficient space
        assert cops.outside(row, cops.mask(range(len(u)))) == cops.zero_vec
    got = span_reduce(ops, [ops.combine(row, u) for row in coeff_rows])
    assert len(got) == 1
    assert in_span(ops, w, got[0])


def test_vectors_into_coordspan_matches_generic():
    rng = random.Random(3)
    for name in ("F2", "F3", "Q"):
        ops = vector_ops(FIELDS[name], 6)
        mask = ops.mask([0, 1, 2])
        w = [ops.basis_vector(i) for i in (0, 1, 2)]
        u = [ops.from_entries([rng.randrange(3) for _ in range(6)])
             for _ in range(5)]
        by_mask = vectors_into_coordspan(ops, u, mask)
        by_span = vectors_into_span(ops, u, w)
        cops = vector_ops(ops.field, len(u))
        assert rank_of(cops, by_mask + by_span) == len(by_mask) \
            == len(by_span), name
        via_mask = span_reduce(ops, [ops.combine(r, u) for r in by_mask])
        via_span = span_reduce(ops, [ops.combine(r, u) for r in by_span])
        assert rank_of(ops, via_mask + via_span) == len(via_mask) \
            == len(via_span), name


def test_complement_extends_basis():
    ops = vector_ops(FIELDS["F3"], 4)
    d = vecs(ops, [[1, 1, 0, 0]])
    z = vecs(ops, [[1, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0]])
    reps = complement_in(ops, d, z)
    assert len(reps) == 2
    assert rank_of(ops, d + reps) == 3


def test_matmul_and_rank():
    f = FIELDS["F3"]
    ops = vector_ops(f, 2)
    a_cols = vecs(ops, [[1, 0], [1, 1]])  # columns of [[1,1],[0,1]]
    b_cols = vecs(ops, [[1, 1], [0, 2]])  # coefficients over a_cols
    prod = matmul(f, a_cols, b_cols, 2)
    assert [ops.entries(c) for c in prod] == [{0: 2, 1: 1}, {0: 2, 1: 2}]
    assert matrix_rank(f, prod, 2) == 2


@st.composite
def matrix_problems(draw):
    """A field, a height in 0..5, the columns of A (0..5 of them) and
    those of B over A's columns, zero columns included."""
    name = draw(st.sampled_from(["F2", "F3", "F5", "Q"]))
    height = draw(st.integers(0, 5))
    inner = draw(st.integers(0, 5))
    if name == "Q":
        elt = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        elt = st.integers(-6, 6)

    def cols(length, count):
        col = st.lists(st.just(0) | elt, min_size=length, max_size=length)
        return st.lists(col | st.just([0] * length), min_size=count,
                        max_size=count)
    a = draw(cols(height, inner))
    b = draw(cols(inner, draw(st.integers(0, 5))))
    return FIELDS[name], height, a, b


@given(matrix_problems())
@example((GF2, 0, [[], []], [[1, 1], [0, 0]]))
@example((GF2, 2, [[1, 1], [1, 1]], [[1, 1], [1, 0]]))
@example((FIELDS["F3"], 2, [[0, 0], [1, 2]], [[0, 0], [3, 1], [0, 4]]))
@example((QQ, 3, [], [[], []]))
@settings(max_examples=300)
def test_matmul_and_rank_match_the_dense_product(problem):
    field, height, a_rows, b_rows = problem
    ops, cops = vector_ops(field, height), vector_ops(field, len(a_rows))
    dense = DenseOps(field, height)
    want = dense_matmul(field, [list(dense.from_entries(c)) for c in a_rows],
                        b_rows, height)
    got = matmul(field, vecs(ops, a_rows), vecs(cops, b_rows), height)
    assert [ops.entries(c) for c in got] == [dense.entries(c) for c in want]
    assert matrix_rank(field, got, height) == rank_of(dense, vecs(dense, want))
    assert matrix_rank(field, vecs(ops, a_rows), height) == \
        rank_of(dense, vecs(dense, a_rows))


def test_outside_masks():
    ops = vector_ops(GF2, 4)
    for m in (ops.mask([1, 3]), ops.mask([3, 1, 3])):  # any order, repeats
        assert ops.outside(ops.from_entries([1, 1, 1, 1]), m) == \
            ops.from_entries([1, 0, 1, 0])
    assert ops.outside(15, ops.mask([])) == 15
    assert ops.outside(15, ops.mask(range(4))) == 0
    fops = vector_ops(FIELDS["F5"], 4)
    fm = fops.mask([1, 3])
    assert fops.outside(fops.from_entries([1, 2, 3, 4]), fm) == \
        fops.from_entries([1, 0, 3, 0])


@pytest.mark.parametrize("name", ["F2", "F3", "Q"])
def test_pivots_are_where_a_column_first_adds_rank(name):
    # a reduced column's pivot is the lowest row i at which the columns
    # up to it have more rank on the rows <= i than the columns before
    # it: the column operations keep every prefix's span, and reduced
    # columns with distinct lowest rows are independent on any such rows
    field = FIELDS[name]
    rng = random.Random(f"pivots:{name}")
    for height in range(1, 7):
        ops = vector_ops(field, height)
        low_rows = [ops.mask(range(i + 1, height)) for i in range(height)]
        for _ in range(20):
            cols = [ops.from_entries([rng.choice([0, 0, 1, 2])
                                      for _ in range(height)])
                    for _ in range(rng.randrange(1, 7))]
            cols.append(ops.add(cols[0], cols[-1]))  # a dependent column

            def rank_low(k, i):
                return rank_of(ops, [ops.outside(c, low_rows[i])
                                     for c in cols[:k]])

            want = [next((i for i in range(height)
                          if rank_low(k + 1, i) > rank_low(k, i)), None)
                    for k in range(len(cols))]
            assert ops.pivots(cols) == want, cols
            if name == "F2":  # the sparse loop agrees with the bit loop
                sparse = FieldOps(GF2, height)
                assert sparse.pivots(
                    [sparse.from_sparse(ops.entries(c)) for c in cols]) \
                    == want
