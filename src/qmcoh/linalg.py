"""Exact linear algebra over the rationals and small prime fields,
organized around subspace-lattice work: spans, intersections,
preimages and quotient coordinates.

Vectors are opaque to callers; every operation goes through a
``VectorOps`` backend. The GF(2) backend stores bit-packed ints (bit i =
coordinate i), which is what makes the larger finite-group complexes
tractable. The generic backend, for odd primes and Q, stores sparse
dicts {coordinate: nonzero element}: a differential of the spectral
sequence complexes has a handful of nonzeros per column, so an add or
an elimination step costs the support of the vectors, not their width.

Coefficients are vectors too. A list of k vectors has a coefficient
space of width k, with the same representation as the vectors (an int
over GF(2), a canonical dict otherwise): the echelon returns its combos
in it, ``relations`` and ``solve_coords`` answer in it, and
``combine(coeffs, vectors)`` maps it onto the vectors' span. A matrix is
its list of columns, each a vector of the target space. At the edges,
``from_sparse`` and ``entries`` convert from and to the nonzeros
{coordinate: element}, and ``from_entries`` reads a dense list. Subspace
bases are plain lists of vectors and never assumed reduced unless a
function says so.
"""

from __future__ import annotations

from fractions import Fraction


class PrimeField:
    """The field mod p; elements are plain ints in [0, p). ``of`` brings
    an int or a Fraction in and ``inv`` inverts; the vector backends do
    the rest inline (``% p``)."""

    def __init__(self, p: int):
        if p < 2 or any(p % k == 0 for k in range(2, p)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1

    def of(self, x) -> int:
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (x.numerator * self.inv(x.denominator % self.p)) % self.p
        return int(x) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverting 0")
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The rationals behind the same protocol; elements are Fractions."""

    p = None
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x) -> Fraction:
        return Fraction(x)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverting 0")
        return 1 / Fraction(a)

    def __repr__(self):
        return "QQ"


QQ = RationalField()
GF2 = PrimeField(2)

FIELDS = {"Q": QQ, "F2": GF2, "F3": PrimeField(3), "F5": PrimeField(5),
          "F7": PrimeField(7)}


def field_name(field) -> str:
    return "Q" if field.p is None else f"F{field.p}"


class _Gf2Echelon:
    """Row echelon over GF(2); rows and coefficient combos are ints."""

    def __init__(self):
        self.rows: dict = {}  # pivot bit -> (vector, combo)
        self.count = 0  # vectors offered so far (width of combos)

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, v: int):
        combo = 0
        rows = self.rows
        while v:
            pivot = v.bit_length() - 1
            hit = rows.get(pivot)
            if hit is None:
                break
            v ^= hit[0]
            combo ^= hit[1]
        return v, combo

    def reduce(self, v: int):
        """(residual, coeffs) with v = sum coeffs_i . offered_i + residual;
        coeffs is a vector of the coefficient space of the offered ones."""
        return self._reduce(v)

    def add(self, v: int) -> bool:
        """Offer a vector; True when it enlarged the span."""
        res, combo = self._reduce(v)
        mine = 1 << self.count
        self.count += 1
        if res == 0:
            return False
        self.rows[res.bit_length() - 1] = (res, combo | mine)
        return True


class _FieldEchelon:
    """Row echelon over a generic field on sparse rows. A row's pivot is
    its lowest stored coordinate, where the row holds 1; the arithmetic
    is inline (``% p`` over GF(p), none over Q)."""

    def __init__(self, field):
        self.field = field
        self.rows: dict = {}  # pivot index -> (row dict, combo dict)
        self.count = 0

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, v):
        """Clear pivots from the lowest stored coordinate up, stopping at
        the first coordinate that has no row; combo values are left
        unreduced mod p and may be zero."""
        p = self.field.p
        rows = self.rows
        v = dict(v)
        combo: dict = {}
        while v:
            lead = min(v)
            hit = rows.get(lead)
            if hit is None:
                break
            c = v[lead]
            row, rcombo = hit
            for j, x in row.items():
                s = v.get(j, 0) - c * x
                if p:
                    s %= p
                if s:
                    v[j] = s
                else:
                    del v[j]
            for k, a in rcombo.items():
                combo[k] = combo.get(k, 0) + c * a
        return v, combo

    def reduce(self, v):
        """(residual, coeffs) with v = sum coeffs_i . offered_i + residual;
        the residual is the zero vector exactly when v is in the span, and
        coeffs is a canonical vector of the offered ones' coefficient
        space."""
        res, combo = self._reduce(v)
        p = self.field.p
        if p:
            return res, {k: r for k, a in combo.items() if (r := a % p)}
        return res, {k: a for k, a in combo.items() if a}

    def add(self, v) -> bool:
        F = self.field
        res, combo = self._reduce(v)
        mine = self.count
        self.count += 1
        if not res:
            return False
        lead = min(res)
        inv = F.inv(res[lead])
        p = F.p
        if p:
            row = {j: inv * x % p for j, x in res.items()}
            combo = {k: -inv * a % p for k, a in combo.items()}
        else:
            row = {j: inv * x for j, x in res.items()}
            combo = {k: -inv * a for k, a in combo.items()}
        combo[mine] = inv
        self.rows[lead] = (row, combo)
        return True


def _check_width(entries, width: int):
    if len(entries) > width:
        raise IndexError(
            f"{len(entries)} entries for a vector of width {width}")


class Gf2Ops:
    """Bit-packed vectors over GF(2)."""

    def __init__(self, width: int):
        self.field = GF2
        self.width = width
        self.zero_vec = 0

    def from_entries(self, entries):
        _check_width(entries, self.width)
        v = 0
        for i, x in enumerate(entries):
            if int(x) % 2:
                v |= 1 << i
        return v

    def entries(self, v):
        """The nonzeros {coordinate: 1}, ascending; ``from_sparse``
        inverts it."""
        out = {}
        while v:
            low = v & -v
            out[low.bit_length() - 1] = 1
            v ^= low
        return out

    def from_sparse(self, coords: dict):
        v = 0
        for i, x in coords.items():
            if int(x) % 2:
                v |= 1 << i
        return v

    def basis_vector(self, i):
        return 1 << i

    def shift(self, v, k):
        """v moved up k coordinates: coordinate i goes to i + k."""
        return v << k

    def add(self, u, v):
        return u ^ v

    def is_zero(self, v):
        return v == 0

    def combine(self, coeffs, vectors):
        """sum coeffs_i . vectors_i, for a coefficient vector coeffs."""
        acc = 0
        while coeffs:
            low = coeffs & -coeffs
            acc ^= vectors[low.bit_length() - 1]
            coeffs ^= low
        return acc

    def mask(self, indices):
        """The masked coordinates, held as the complement of their bits so
        that ``outside`` is one ``&``; built one run of consecutive
        indices at a time, in any order."""
        m = lo = hi = 0  # the run being read is [lo, hi)
        for i in indices:
            if i != hi:
                m |= ((1 << (hi - lo)) - 1) << lo
                lo = i
            hi = i + 1
        m |= ((1 << (hi - lo)) - 1) << lo
        return ~m

    def outside(self, v, mask):
        """The part of v supported off the masked coordinates."""
        return v & mask

    def echelon(self):
        return _Gf2Echelon()

    def pivots(self, columns):
        """Reduce the columns in order, each by the reduced ones before
        it, on its lowest set bit; the pivot bit of each reduced column,
        or None for one that reduced to zero. No combos are kept."""
        reduced: dict = {}  # pivot bit -> reduced column
        out = []
        for v in columns:
            pivot = None
            while v:
                low = (v & -v).bit_length() - 1
                hit = reduced.get(low)
                if hit is None:
                    reduced[low] = v
                    pivot = low
                    break
                v ^= hit
            out.append(pivot)
        return out


class FieldOps:
    """Sparse vectors over an arbitrary exact field.

    A vector is a dict {coordinate: nonzero field element} that stores
    no zeros, so equal vectors are equal dicts and the zero vector is
    ``{}``. No operation mutates its arguments or the shared
    ``zero_vec``, and every result is a fresh dict. The arithmetic is
    inline: ``% p`` over GF(p), plain ``Fraction`` arithmetic over Q.
    ``from_entries`` reads a dense list; ``entries`` is the inverse of
    ``from_sparse``.
    """

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.zero_vec = {}

    def _canonical(self, items):
        of = self.field.of
        return {i: y for i, y in ((i, of(x)) for i, x in items) if y}

    def from_entries(self, entries):
        _check_width(entries, self.width)
        return self._canonical(enumerate(entries))

    def entries(self, v):
        """The nonzeros {coordinate: element}, a fresh dict."""
        return dict(v)

    def from_sparse(self, coords: dict):
        return self._canonical(coords.items())

    def basis_vector(self, i):
        return {i: self.field.one}

    def shift(self, v, k):
        """v moved up k coordinates: coordinate i goes to i + k."""
        return {i + k: x for i, x in v.items()}

    def add(self, u, v):
        p = self.field.p
        out = dict(u)
        for i, b in v.items():
            s = out.get(i, 0) + b
            if p:
                s %= p
            if s:
                out[i] = s
            else:
                del out[i]
        return out

    def scale(self, a, v):
        F = self.field
        a = F.of(a)
        if not a:
            return {}
        if F.p:
            return {i: a * x % F.p for i, x in v.items()}
        return {i: a * x for i, x in v.items()}

    def is_zero(self, v):
        return not v

    def combine(self, coeffs, vectors):
        """sum coeffs_i . vectors_i, for a coefficient vector coeffs."""
        acc: dict = {}
        for k, a in coeffs.items():
            for i, x in vectors[k].items():
                acc[i] = acc.get(i, 0) + a * x
        p = self.field.p
        if p:
            return {i: r for i, s in acc.items() if (r := s % p)}
        return {i: s for i, s in acc.items() if s}

    def mask(self, indices):
        return frozenset(indices)

    def outside(self, v, mask):
        """The part of v supported off the masked coordinates."""
        return {i: x for i, x in v.items() if i not in mask}

    def echelon(self):
        return _FieldEchelon(self.field)

    def pivots(self, columns):
        """Reduce the columns in order, each by the reduced ones before
        it, on its lowest stored coordinate; the pivot coordinate of each
        reduced column, or None for one that reduced to zero. A reduced
        column is stored with 1 at its pivot, as in the echelon, and no
        combos are kept."""
        F = self.field
        p = F.p
        reduced: dict = {}  # pivot coordinate -> reduced column
        out = []
        for v in columns:
            v = dict(v)
            pivot = None
            while v:
                lead = min(v)
                row = reduced.get(lead)
                if row is None:
                    inv = F.inv(v[lead])
                    if p:
                        reduced[lead] = {j: inv * x % p for j, x in v.items()}
                    else:
                        reduced[lead] = {j: inv * x for j, x in v.items()}
                    pivot = lead
                    break
                c = v[lead]
                for j, x in row.items():
                    s = v.get(j, 0) - c * x
                    if p:
                        s %= p
                    if s:
                        v[j] = s
                    else:
                        del v[j]
            out.append(pivot)
        return out


def vector_ops(field, width: int):
    if field.p == 2:
        return Gf2Ops(width)
    return FieldOps(field, width)


# ------------------------------------------------------- subspace algebra


def span_reduce(ops, vectors):
    """An independent subset of the input spanning the same space,
    keeping the original vectors (first occurrence wins)."""
    ech = ops.echelon()
    return [v for v in vectors if ech.add(v)]


def rank_of(ops, vectors) -> int:
    ech = ops.echelon()
    for v in vectors:
        ech.add(v)
    return ech.rank


def relations(ops, vectors):
    """Basis of {a : sum a_i vectors_i = 0}, as vectors of the
    coefficient space of ``vectors``. The relations are independent
    without a further reduction: the one found at a vector that did not
    enlarge the span is the only one with a nonzero entry there."""
    cops = vector_ops(ops.field, len(vectors))
    ech = ops.echelon()
    out = []
    for idx, v in enumerate(vectors):
        if not ech.add(v):
            _, coeffs = ech.reduce(v)
            out.append(cops.add(coeffs, cops.from_sparse({idx: -1})))
    return out


def solve_coords(ops, basis, vectors):
    """The coefficient vector over basis of each of ``vectors``, or None
    for one outside the span; one echelon answers the whole list. Only
    the basis vectors that enlarge the span get coefficients, so the
    answer is canonical on an independent prefix of the basis."""
    ech = ops.echelon()
    for b in basis:
        ech.add(b)
    out = []
    for v in vectors:
        res, coeffs = ech.reduce(v)
        out.append(coeffs if ops.is_zero(res) else None)
    return out


def in_span(ops, basis, v) -> bool:
    return solve_coords(ops, basis, [v])[0] is not None


def subspace_sum(ops, *parts):
    merged = []
    for part in parts:
        merged.extend(part)
    return span_reduce(ops, merged)


def intersect(ops, U, V):
    """Basis of span(U) & span(V)."""
    return span_reduce(
        ops, [ops.combine(a, U) for a in vectors_into_span(ops, U, V)])


def vectors_into_span(ops, vectors, W):
    """{a : sum a_i vectors_i lands in span W}, as coefficient vectors
    over ``vectors``."""
    k, width = len(vectors), len(vectors) + len(W)
    cops = vector_ops(ops.field, width)
    tail = cops.mask(range(k, width))
    return [cops.outside(rel, tail)
            for rel in relations(ops, list(vectors) + list(W))]


def vectors_into_coordspan(ops, vectors, mask):
    """Same, for the coordinate subspace spanned by the masked axes."""
    outside = [ops.outside(v, mask) for v in vectors]
    return relations(ops, outside)


def complement_in(ops, D, Z):
    """Vectors of Z extending a basis of span(D) to span(D)+span(Z);
    their classes form a basis of the quotient."""
    ech = ops.echelon()
    for v in D:
        ech.add(v)
    return [z for z in Z if ech.add(z)]


def matrix_rank(field, columns, height: int) -> int:
    """Rank of the matrix whose columns are vectors of width ``height``."""
    return rank_of(vector_ops(field, height), columns)


def matmul(field, a_cols, b_cols, height: int):
    """Columns of A.B: A's columns are vectors of width ``height``, and
    B's are coefficient vectors over A's columns."""
    ops = vector_ops(field, height)
    return [ops.combine(b, a_cols) for b in b_cols]
