"""Filtered cochain complexes over exact fields and the spectral
sequences they generate.

A ``FiniteComplex`` is a finite tower of based vector spaces with
differentials given column-wise. A ``Filtration`` is a decreasing,
differential-stable chain of subspaces in every degree, with ``F^0``
the whole space and ``F^p = 0`` beyond the regularity bound ``u(n)``,
given as one level per coordinate, so that every subspace below is a
mask projection. So every basis is adapted to its filtration, and
``random_filtered_complex`` draws its complexes in such a basis.

Pages come from the persistence pairing (``PersistencePairing``): one
column reduction of each differential, in an order compatible with the
filtration, pairs a source level s with a target level t, and the pair
lives on the pages E_0 .. E_{t-s} (Basu & Parida, "Spectral sequences,
exact couples and persistent homology of filtrations", Expo. Math. 35,
2017). Every dimension and every d_r rank is a count of pairs, which
is what ``sequence_report``, ``e_infinity_check`` and ``qmcoh ss``
read. A level may exceed its degree: cells with q < 0 are cells like
any other. Everything is exact arithmetic; there is no floating point
anywhere below.

``SpectralSequence`` keeps the classical lattice

    Z_r = F^p  meet  d^{-1}(F^{p+r}),
    B_r = F^p  meet  d(F^{p-r})  =  d(Z_r[p-r]),
    E_r = Z_r / (Z_{r-1}[p+1] + B_{r-1}),

with d_r evaluated on coset representatives, only as the independent
check that the ``page-consistency`` identity of ``verify`` runs.

The double complex of a finite group extension is instantiated with
trivial one-dimensional coefficients: horizontal cochains on the
quotient, vertical cochains built from orbit functions on tuples over
the ambient group. The fiber acts freely, so each orbit is read off
its first entry in closed form; tuples are base-|Gamma| codes, so the
action table and the faces of each orbit are digit arithmetic. The
faces are computed one orbit at a time, never tabulated. A column is
two stencils, one per quotient tuple and one per fiber orbit, each
summed over the integers and reduced into the field once, shifted into
place and added, plus one unit entry per non-identity quotient element.
Its vertical (column) filtration gives block (p, q) level p.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import os
import random
from fractions import Fraction

from .errors import BudgetExceeded, InvariantViolation, UsageError
from .groups import FiniteGroup
from .linalg import (FIELDS, GF2, complement_in, field_name, matmul,
                     matrix_rank, rank_of, solve_coords, span_reduce,
                     vector_ops, vectors_into_coordspan)

DEFAULT_BUDGET_MB = 256
DEFAULT_WINDOW = 3
DEFAULT_MAX_R = 4
# bytes per stored entry of a sparse column, dict slot and key object
# included (deep getsizeof of the z4-hs columns at max_total 5: 64.7
# over F3, whose values are cached small ints; 112.7 over Q, one
# Fraction per entry)
ENTRY_BYTES_PRIME = 65
ENTRY_BYTES_RATIONAL = 113


def memory_budget_mb() -> int:
    raw = os.environ.get("QMCOH_BUDGET_MB")
    if raw is None:
        return DEFAULT_BUDGET_MB
    try:
        return int(raw)
    except ValueError:
        raise UsageError(
            f"QMCOH_BUDGET_MB must be an integer, got {raw!r}") from None


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _are_counts(xs) -> bool:
    """``all(map(_is_count, xs))``, with ``_is_count`` applied to one
    element of each distinct type and the sign read off the minimum."""
    reps = dict(zip(map(type, xs), xs))
    return all(map(_is_count, reps.values())) and min(xs, default=0) >= 0


class FiniteComplex:
    """Cochain complex in degrees 0..max_degree, differentials as column
    lists; d(basis_i of degree n) = diffs[n][i] in degree n+1."""

    def __init__(self, field, dims, diffs):
        if len(diffs) != len(dims) - 1:
            raise ValueError("need exactly one differential per adjacent pair")
        self.field = field
        self.dims = list(dims)
        self.ops = [vector_ops(field, d) for d in self.dims]
        self.diffs = [list(cols) for cols in diffs]
        for n, cols in enumerate(self.diffs):
            if len(cols) != self.dims[n]:
                raise ValueError(f"degree {n}: {len(cols)} columns for "
                                 f"dimension {self.dims[n]}")
        self._rank_cache: dict = {}
        for n in range(len(self.diffs) - 1):
            for i, col in enumerate(self.diffs[n]):
                if not self.ops[n + 2].is_zero(self.apply(n + 1, col)):
                    raise InvariantViolation(
                        f"d.d != 0 on basis vector {i} of degree {n}")

    @property
    def max_degree(self) -> int:
        return len(self.dims) - 1

    def apply(self, n: int, v):
        """Image of a degree-n vector under d."""
        return self.ops[n + 1].combine(v, self.diffs[n])

    def d_rank(self, n: int) -> int:
        if n < 0 or n >= len(self.diffs):
            return 0
        if n not in self._rank_cache:
            self._rank_cache[n] = rank_of(self.ops[n + 1], self.diffs[n])
        return self._rank_cache[n]

    def homology_dim(self, n: int) -> int:
        """dim ker d_n - rank d_{n-1} (d is zero off the stored range)."""
        if n < 0 or n > self.max_degree:
            return 0
        kernel = self.dims[n] - self.d_rank(n)
        return kernel - self.d_rank(n - 1)


class Filtration:
    """``levels[n][i]`` is the largest p with basis vector i of degree n
    in F^p K^n. So F^p K^n is spanned by the coordinates of level at
    least p, a mask, and vanishes beyond ``u[n] = max(levels[n])``; no
    basis is stored."""

    def __init__(self, cx: FiniteComplex, levels):
        if len(levels) != len(cx.dims):
            raise ValueError(f"one level list per degree required, not"
                             f" {len(levels)} for {len(cx.dims)} degrees")
        self.cx = cx
        self.levels = [list(lv) for lv in levels]
        self._masks: dict = {}
        self._validate()
        self.u = [max(lv, default=0) for lv in self.levels]

    def _validate(self):
        cx = self.cx
        for n, lv in enumerate(self.levels):
            if len(lv) != cx.dims[n]:
                raise ValueError(f"degree {n} has {len(lv)} levels,"
                                 f" needs {cx.dims[n]}")
            if not _are_counts(lv):
                i, x = next((i, x) for i, x in enumerate(lv)
                            if not _is_count(x))
                raise ValueError(f"degree {n} level entry {i}: {x!r} is"
                                 f" not a non-negative integer")
        # F^p is spanned by coordinates of level >= p, so d keeps every
        # level exactly when each column stays in its own source level.
        # F^0 is everything, as levels are counts, so level 0 needs no
        # check. The columns are visited in (level, index) order, so the
        # mask of each level is built once, and not cached: the lattice
        # asks for few of these masks
        for n, cols in enumerate(cx.diffs):
            ops = cx.ops[n + 1]
            outside, is_zero = ops.outside, ops.is_zero
            target = self.by_level(n + 1)
            levels, order = self.by_level(n)
            if order is not None:
                cols = map(cols.__getitem__, order)
            level = mask = None
            for col, p in zip(cols, levels):
                if not p:
                    continue
                if p != level:
                    level, mask = p, self._mask(p, n + 1, target)
                if not is_zero(outside(col, mask)):
                    raise InvariantViolation(f"d leaves F^{p} at degree {n}")

    def level_bound(self, n: int) -> int:
        """Regularity bound: F^p vanishes in degree n beyond this."""
        if n < 0 or n >= len(self.u):
            return 0
        return self.u[n]

    def coordinates(self, p: int, n: int):
        """The coordinates spanning F^p K^n, ascending."""
        return [i for i, lv in enumerate(self.levels[n]) if lv >= p]

    def space(self, p: int, n: int):
        """Unit vectors spanning F^p K^n, built on each call."""
        ops = self.cx.ops[n]
        return [ops.basis_vector(i) for i in self.coordinates(p, n)]

    def mask_at(self, p: int, n: int):
        """Coordinate support of F^p K^n, cached."""
        key = (p, n)
        if key not in self._masks:
            self._masks[key] = self._mask(p, n, self.by_level(n))
        return self._masks[key]

    def by_level(self, n: int):
        """(the levels of degree n in (level, index) order, the
        coordinates in that order, or None where they already are)."""
        lv = self.levels[n]
        if all(map(operator.le, lv, itertools.islice(lv, 1, None))):
            return lv, None
        order = sorted(range(len(lv)), key=lv.__getitem__)
        return [lv[i] for i in order], order

    def _mask(self, p: int, n: int, by_level):
        # the coordinates of level >= p are the tail of degree n's
        # ``by_level`` order from the first level >= p on
        levels, order = by_level
        start = bisect.bisect_left(levels, p)
        if order is None:
            return self.cx.ops[n].mask(range(start, len(levels)))
        return self.cx.ops[n].mask(itertools.islice(order, start, None))


class SpectralSequence:
    """The subspace lattice of one filtered complex, with caching. Cells
    are available for p + q <= max_degree - 1; induced differentials
    additionally need p + q <= max_degree - 2.

    Pages are read off ``PersistencePairing``; this lattice stays only
    because ``page-consistency`` checks the induced differentials with
    it (d_r d_r = 0 and the rank bookkeeping), and under the pairing
    that bookkeeping holds by construction. It can leave once that
    identity checks the pairing against ranks of masked submatrices
    instead. Boundaries are read off cached cycles (F^{p-r} is F^0 for
    p < r), d_r is one solve per target cell, and spans are kept as
    lists and reduced only where a basis is read."""

    def __init__(self, cx: FiniteComplex, filt: Filtration):
        if filt.cx is not cx:
            raise ValueError("filtration belongs to a different complex")
        self.cx = cx
        self.filt = filt
        self._z: dict = {}
        self._b: dict = {}
        self._reps: dict = {}
        self._dmat: dict = {}

    # ----------------------------------------------------------- lattice

    def cycles(self, r: int, p: int, q: int):
        """Z_r^{p,q}: vectors of F^p whose differential lies r deeper."""
        n = p + q
        if n < 0 or n > self.cx.max_degree:
            return []
        if r <= 0:
            return self.filt.space(p, n)
        level = min(p + r, self.filt.level_bound(n + 1) + 1)
        key = (p, q, level)
        if key in self._z:
            return self._z[key]
        base = self.filt.space(p, n)
        if not base:
            return base
        if n == self.cx.max_degree:
            raise ValueError("cycle condition needs the next differential")
        cols = self.cx.diffs[n]
        rows = vectors_into_coordspan(
            self.cx.ops[n + 1], [cols[i] for i in self.filt.coordinates(p, n)],
            self.filt.mask_at(level, n + 1))
        # independent relations over distinct unit vectors stay independent
        got = [self.cx.ops[n].combine(row, base) for row in rows]
        self._z[key] = got
        return got

    def boundaries(self, r: int, p: int, q: int):
        """B_r^{p,q} = F^p meet d(F^{p-r}) = d(Z_{p-l}^{l}), l = max(p - r,
        0): the image of the cycles of F^l whose differential lies in
        F^p. d kills some of those cycles, so the images are reduced here,
        once per cell."""
        n = p + q
        if n <= 0 or n > self.cx.max_degree:
            return []
        level = max(p - r, 0)
        key = (p, q, level)
        if key not in self._b:
            z = self.cycles(p - level, level, n - 1 - level)
            self._b[key] = span_reduce(
                self.cx.ops[n], [self.cx.apply(n - 1, v) for v in z])
        return self._b[key]

    def _denominator(self, r: int, p: int, q: int):
        """Z_{r-1}^{p+1} + B_{r-1}^p as a spanning list, unreduced: the
        representatives complement it, so solving over representatives
        then denominator gives canonical coordinates on the former."""
        return (self.cycles(r - 1, p + 1, q - 1)
                + self.boundaries(r - 1, p, q))

    def representatives(self, r: int, p: int, q: int):
        key = (r, p, q)
        if key not in self._reps:
            ops = self.cx.ops[p + q]
            self._reps[key] = complement_in(
                ops, self._denominator(r, p, q), self.cycles(r, p, q))
        return self._reps[key]

    def dim(self, r: int, p: int, q: int) -> int:
        n = p + q
        if p < 0 or n < 0 or n > self.cx.max_degree - 1:
            return 0
        return len(self.representatives(r, p, q))

    # ------------------------------------------------------ differentials

    def d_data(self, r: int, p: int, q: int):
        """(columns, target dimension) of d_r out of the cell; a column is
        a coefficient vector over the target cell's representatives."""
        n = p + q
        if n > self.cx.max_degree - 2:
            raise ValueError("induced differential needs two more degrees")
        key = (r, p, q)
        if key in self._dmat:
            return self._dmat[key]
        tp, tq = p + r, q - r + 1
        tden = self._denominator(r, tp, tq)
        treps = self.representatives(r, tp, tq)
        k, width = len(treps), len(treps) + len(tden)
        cops = vector_ops(self.cx.field, width)
        den = cops.mask(range(k, width))
        images = [self.cx.apply(n, x) for x in self.representatives(r, p, q)]
        coords = solve_coords(self.cx.ops[n + 1], treps + tden, images)
        if None in coords:
            raise InvariantViolation(
                f"d_{r} escaped its target cell at (p={p}, q={q})")
        cols = [cops.outside(c, den) for c in coords]
        got = (cols, k)
        self._dmat[key] = got
        return got

    def d_rank(self, r: int, p: int, q: int) -> int:
        if p < 0:
            return 0
        cols, height = self.d_data(r, p, q)
        return matrix_rank(self.cx.field, cols, height)

    def consistency_ok(self, r: int, p: int, q: int) -> bool:
        """dim E_{r+1} = dim ker d_r - rank of the incoming d_r."""
        lhs = self.dim(r + 1, p, q)
        out_rank = self.d_rank(r, p, q)
        in_rank = self.d_rank(r, p - r, q + r - 1)
        return lhs == self.dim(r, p, q) - out_rank - in_rank

    def d_squared_ok(self, r: int, p: int, q: int) -> bool:
        cols1, _ = self.d_data(r, p, q)
        cols2, h2 = self.d_data(r, p + r, q - r + 1)
        ops = vector_ops(self.cx.field, h2)
        return all(map(ops.is_zero, matmul(self.cx.field, cols2, cols1, h2)))


class PersistencePairing:
    """Every page of one filtered complex, read off one column reduction
    of each differential (Zomorodian & Carlsson, DCG 33, 2005).

    The columns of d_n are reduced by descending (level, index), so a
    column only receives columns of its own level or above, and each
    pivots on its nonzero row of lowest (level, index). A column of
    level s whose pivot row has level t is a pair (s, t): it lives on
    E_0 .. E_{t-s} at level s of degree n, with its target at level t of
    degree n + 1, and d_{t-s} kills both. So dim E_r^{p,q} is the number
    of coordinates of level p in degree p + q less the pairs with an end
    there and a gap below r, and d_r out of (p, q) has rank the number
    of pairs of d_{p+q} at (p, p + r). The pairs do not depend on the
    order of ties, which makes any (level, index) order a valid one.

    Degrees are reduced lowest first, each once. Clearing (Chen &
    Kerber, EuroCG 2011): the pivot rows of d_{n-1} are coordinates of
    degree n whose columns of d_n reduce to zero, since a reduced column
    of d_{n-1} is a cocycle whose other entries sort after its pivot,
    so those columns are skipped."""

    def __init__(self, cx: FiniteComplex, filt: Filtration):
        if filt.cx is not cx:
            raise ValueError("filtration belongs to a different complex")
        self.cx = cx
        self.filt = filt
        self._pairs: list = []  # degree -> {(s, t): count}
        self._cleared: set = set()  # pivot rows of the last reduced degree

    def _reduce(self, n: int) -> dict:
        src_levels, src_order = self.filt.by_level(n)
        tgt_levels, tgt_order = self.filt.by_level(n + 1)
        cols = self.cx.diffs[n]
        if src_order is not None:
            cols = [cols[i] for i in src_order]
        ops = self.cx.ops[n + 1]
        if tgt_order is not None:
            # renumber the rows once, so that a pivot is a lowest index:
            # row i moves to the unit vector of its place in the order
            units = [None] * len(tgt_order)
            for k, i in enumerate(tgt_order):
                units[i] = ops.basis_vector(k)
            cols = [ops.combine(col, units) for col in cols]
        keep = [j for j in reversed(range(len(cols)))
                if j not in self._cleared]
        pairs: dict = {}
        rows = set()
        for j, row in zip(keep, ops.pivots([cols[j] for j in keep])):
            if row is not None:
                key = (src_levels[j], tgt_levels[row])
                pairs[key] = pairs.get(key, 0) + 1
                rows.add(row)
        self._cleared = rows
        return pairs

    def pairs(self, n: int) -> dict:
        """{(s, t): count} over the pairs of d_n; empty for a degree with
        no differential."""
        if n < 0 or n >= len(self.cx.diffs):
            return {}
        while len(self._pairs) <= n:
            self._pairs.append(self._reduce(len(self._pairs)))
        return self._pairs[n]

    def dim(self, r: int, p: int, q: int) -> int:
        n = p + q
        if p < 0 or n < 0 or n > self.cx.max_degree - 1:
            return 0
        born = sum(k for (s, t), k in self.pairs(n).items()
                   if s == p and t - s < r)
        died = sum(k for (s, t), k in self.pairs(n - 1).items()
                   if t == p and t - s < r)
        return self.filt.levels[n].count(p) - born - died

    def d_rank(self, r: int, p: int, q: int) -> int:
        if p < 0:
            return 0
        n = p + q
        if n > self.cx.max_degree - 2:
            raise ValueError("induced differential needs two more degrees")
        return self.pairs(n).get((p, p + r), 0)

    # -------------------------------------------------------- convergence

    def stable_r(self, p: int, q: int) -> int:
        """Past this page the cell no longer moves: the outgoing
        differential has left the filtration range and the incoming one
        starts below level zero."""
        n = p + q
        return max(self.filt.level_bound(n + 1) - p + 1, p + 1)

    def e_infinity_dim(self, p: int, q: int) -> int:
        return self.dim(self.stable_r(p, q), p, q)


def e_infinity_check(engine: PersistencePairing, n: int) -> dict:
    """Compare the stable page total on an antidiagonal against the
    homology of the underlying complex."""
    cx = engine.cx
    if n < 0 or n > cx.max_degree - 1:
        raise ValueError("degree outside the checkable range")
    cells = []
    total = 0
    # a level that no coordinate of degree n has adds nothing, so above
    # min(n, top level) only the levels of degree n are listed
    least = min(n, engine.filt.level_bound(n))
    for p in sorted(set(range(least + 1)).union(engine.filt.levels[n])):
        d = engine.e_infinity_dim(p, n - p)
        cells.append({"p": p, "dim": d})
        total += d
    hom = cx.homology_dim(n)
    return {"degree": n, "cells": cells, "total": total,
            "homology": hom, "ok": total == hom}


# ---------------------------------------------------------------- builders


def hs_memory_estimate_mb(ext, field, max_total: int) -> float:
    """Estimated size of the differentials ``hs_double_complex`` stores.

    Over GF(2) a column is a bit-packed int, so the estimate is one bit
    per entry of the dense matrices. Over other fields a column stores
    only its nonzeros. A column of block (p, q) has at most (p + 2)|pi|
    horizontal entries, pi the quotient, and the vertical entries of the
    block are exactly (q + 2) per orbit of tuples of length q + 2; the
    count is an upper bound, since terms may cancel or merge. Each
    stored entry costs ``ENTRY_BYTES_PRIME`` or ``ENTRY_BYTES_RATIONAL``.
    """
    n_orb = [ext.gamma.order ** t // ext.g.order
             for t in range(1, max_total + 3)]  # orbits of t-tuples
    n_pi = ext.pi.order
    if field.p == 2:
        dims = [sum(n_pi ** p * n_orb[n - p] for p in range(n + 1))
                for n in range(max_total + 1)]
        return sum(dims[n] * dims[n + 1]
                   for n in range(max_total)) / 8 / 2 ** 20
    entries = sum(n_pi ** p * (n_orb[q] * (p + 2) * n_pi
                               + n_orb[q + 1] * (q + 2))
                  for q in range(max_total) for p in range(max_total - q))
    unit = ENTRY_BYTES_RATIONAL if field.p is None else ENTRY_BYTES_PRIME
    return entries * unit / 2 ** 20


def _orbit_tables(ext, max_total: int):
    """(act, faces) of ``hs_double_complex``, by base-|Gamma| digit
    arithmetic on the 1-based elements of the ambient group.

    A t-tuple is the code sum (x_k - 1) |Gamma|^(t - k), so codes ascend
    as the tuples do. The orbit representatives of length t, the tuples
    whose first entry is a coset minimum, are numbered by (minimum,
    rest) in code order. Each element that moves tuples, a fiber element
    or a section image, gets a left-translation table per length, each
    built from the one below by appending a digit. The orbit of a tuple
    is then one lookup: translate its rest by the fiber element that
    takes its first entry to its coset minimum.

    ``act[q][alpha]`` maps representative i of length q + 1 to the orbit
    of s(alpha) times it, for q < max_total: the lengths a differential
    of the complex reads. ``faces(q, o)`` lists, for each omitted slot
    i = 0 .. q + 1, the representatives of length q + 2 whose face i
    lies in orbit o of (q + 1)-tuples; it is computed for one orbit at
    a time and never tabulated. Face 0 drops the first entry, so its
    targets are (any minimum, any of the |G| tuples of the orbit),
    distinct since the fiber acts freely. Face i >= 1 drops a digit of
    the rest and keeps the first entry, so its targets put every digit
    back at that place: |Gamma| of them, evenly spaced."""
    gamma, pi = ext.gamma, ext.pi
    size = gamma.order
    subgroup = [ext.include(x) for x in ext.g.elements()]
    elts = range(1, size + 1)
    # least[d] is the fiber element h that makes h.x least in its coset,
    # for the element x of digit d
    least = [min(subgroup, key=lambda h: gamma.mul(h, x)) for x in elts]
    minima = sorted({gamma.mul(h, x) for h, x in zip(least, elts)})
    rank = {m - 1: k for k, m in enumerate(minima)}  # by digit
    pi_elts = tuple(sorted(pi.elements()))
    section = {alpha: ext.section(alpha) for alpha in pi_elts}

    # translate[h][t][code]: the code of h times a t-tuple, t < max_total
    translate = {}
    for h in set(subgroup) | set(section.values()):
        one = [gamma.mul(h, x) - 1 for x in elts]
        tables = [[0]]
        for _ in range(max_total - 1):
            tables.append([a * size + b for a in tables[-1] for b in one])
        translate[h] = tables

    def orbits_of(t, first, rests):
        """The orbit index of each tuple (first, rest) of length t, for
        rest the code of a (t - 1)-tuple."""
        h = least[first - 1]
        base = rank[gamma.mul(h, first) - 1] * size ** (t - 1)
        moved = translate[h][t - 1]
        return [base + moved[c] for c in rests]

    # quotient action on orbit bases, one permutation per element
    act = {}
    for q in range(max_total):
        table = {}
        for alpha in pi_elts:
            s = section[alpha]
            # s.(m, rest) = (s.m, s.rest)
            table[alpha] = [o for m in minima for o in orbits_of(
                q + 1, gamma.mul(s, m), translate[s][q])]
        for a in pi_elts:
            for b in pi_elts:
                ab = pi.mul(a, b)
                composed = [table[a][i] for i in table[b]]
                if composed != table[ab]:
                    raise InvariantViolation(
                        f"quotient action fails to compose at ({a}, {b})")
        act[q] = table

    # fiber[kk]: (digit of h.m, translation tables of h) for each fiber
    # element h, m the minimum of index kk
    fiber = [[(gamma.mul(h, m) - 1, translate[h]) for h in subgroup]
             for m in minima]

    def faces(q, o):
        below = size ** q
        wide = below * size  # representatives of length q + 2 per minimum
        kk, r = divmod(o, below)
        # face 0: the tuple h.(minima[kk], rest r) behind any minimum
        tuples = [d * below + moved[q][r] for d, moved in fiber[kk]]
        out = [[k * wide + c for k in range(len(minima)) for c in tuples]]
        # face j + 1: any digit put back at place j of the rest
        for j in range(q + 1):
            w = size ** (q - j)
            hi, lo = divmod(r, w)
            start = kk * wide + hi * w * size + lo
            out.append(range(start, start + size * w, w))
        return out

    return act, faces


def hs_double_complex(ext, field=GF2, max_total: int = 5):
    """Total complex and column filtration of the quotient-by-fiber
    double complex of a finite extension, with trivial one-dimensional
    coefficients.

    Horizontal direction: cochains on the quotient in the fiber-orbit
    module; vertical direction: the omit-one differential on orbit
    functions over tuples of the ambient group. An orbit is named by its
    least tuple. The fiber acts freely by left multiplication, so that
    tuple is the translate whose first entry is least, and the orbits of
    length t are (coset minimum, any t - 1 elements) in lexicographic
    order (``_orbit_tables``).

    Column (a, o) of block (p, q), for a quotient p-tuple a and an orbit
    o of (q + 1)-tuples, is ``shift(h_a, horizontal base + o) +
    shift(v_o, vertical base + index(a) * n)``, n the number of orbits of
    (q + 2)-tuples, plus a unit entry for each non-identity quotient
    element acting on o. The horizontal
    stencil h_a holds the split and drop terms of a and the identity's
    action term, at orbit 0; the vertical stencil v_o holds the faces
    lying in o with their signs (-1)^(p + i), computed for o alone. Each
    stencil is summed over the integers, signs included, and
    ``from_sparse`` reduces it into the field once; the stencils live
    only while their block is built. So the build holds the stored
    columns, the action tables and one block's stencils, within 1.25
    times ``hs_memory_estimate_mb`` (pinned in the tests at F2/6 and
    F3/5).
    Returns (complex, filtration, layout info).
    """
    gamma, pi, g = ext.gamma, ext.pi, ext.g
    for grp in (gamma, pi, g):
        if not isinstance(grp, FiniteGroup):
            raise TypeError("double complex needs finite groups throughout")
    pi_elts = tuple(sorted(pi.elements()))

    est_mb = hs_memory_estimate_mb(ext, field, max_total)
    budget = memory_budget_mb()
    if est_mb > budget:
        raise BudgetExceeded(
            f"estimated {est_mb:.0f} MB for the double complex exceeds "
            f"QMCOH_BUDGET_MB={budget}")

    act, faces = _orbit_tables(ext, max_total)
    # orbits of (q + 1)-tuples, the width of a block of fiber degree q
    n_orbits = [gamma.order ** (q + 1) // g.order
                for q in range(max_total + 1)]

    tuples = {p: list(itertools.product(pi_elts, repeat=p))
              for p in range(max_total + 1)}
    tup_index = {p: {tup: i for i, tup in enumerate(tuples[p])}
                 for p in tuples}

    def block_dim(p, q):
        return len(tuples[p]) * n_orbits[q]

    dims = []
    offsets = []
    blocks = {}
    for n in range(max_total + 1):
        offs = {}
        total = 0
        for p in range(n + 1):
            offs[p] = total
            blocks[(p, n - p)] = block_dim(p, n - p)
            total += block_dim(p, n - p)
        offsets.append(offs)
        dims.append(total)

    # a block holds the stencils of its tuples and of one orbit at a time
    moving = [beta for beta in pi_elts if beta != pi.identity]
    diffs = []
    for n in range(max_total):
        ops_next = vector_ops(field, dims[n + 1])
        shift, add, unit = ops_next.shift, ops_next.add, ops_next.basis_vector
        cols = []
        for p in range(n + 1):
            q = n - p
            n_orb = n_orbits[q]
            n_orb_up = n_orbits[q + 1]
            horiz_base = offsets[n + 1][p + 1]
            vert_base = offsets[n + 1][p]
            up_index = tup_index[p + 1]
            per_tuple = []
            for ta, a in enumerate(tuples[p]):
                # horizontal at orbit 0: the identity acts trivially (its
                # section lies in the fiber, which fixes every orbit), so
                # its prepended slot moves with the orbit like the rest
                h = {up_index[(pi.identity,) + a] * n_orb: 1}
                # split each slot of the argument tuple
                for i in range(1, p + 1):
                    for x in pi_elts:
                        y = pi.mul(pi.inv(x), a[i - 1])
                        k = up_index[a[:i - 1] + (x, y) + a[i:]] * n_orb
                        h[k] = h.get(k, 0) + (-1) ** i
                # drop the trailing slot
                for beta in pi_elts:
                    k = up_index[a + (beta,)] * n_orb
                    h[k] = h.get(k, 0) + (-1) ** (p + 1)
                # the other elements act on the value, prepending a slot
                acting = [(horiz_base + up_index[(beta,) + a] * n_orb,
                           act[q][beta]) for beta in moving]
                per_tuple.append((ops_next.from_sparse(h),
                                  vert_base + ta * n_orb_up, acting))
            # vertical, twisted by the horizontal degree: orbit o goes to
            # the targets whose face i lies in o, with sign (-1)^(p + i)
            sign = [(-1) ** (p + i) for i in range(q + 2)]
            block = [None] * (len(per_tuple) * n_orb)
            for o in range(n_orb):
                v: dict = {}
                for s_i, targets in zip(sign, faces(q, o)):
                    for tgt in targets:
                        v[tgt] = v.get(tgt, 0) + s_i
                v = ops_next.from_sparse(v)
                for ta, (h, below, acting) in enumerate(per_tuple):
                    col = add(shift(h, horiz_base + o), shift(v, below))
                    for base, perm in acting:
                        col = add(col, unit(base + perm[o]))
                    block[ta * n_orb + o] = col
            cols += block
        diffs.append(cols)

    cx = FiniteComplex(field, dims, diffs)
    # column filtration: block (p, q) has level p
    levels = [[p for p in range(n + 1) for _ in range(blocks[(p, n - p)])]
              for n in range(max_total + 1)]
    filt = Filtration(cx, levels)
    return cx, filt, {"blocks": blocks}


def hs_row_filtration(cx: FiniteComplex, info: dict) -> Filtration:
    """Filtration of the same total complex by the fiber degree: block
    (p, q) has level q."""
    blocks = info["blocks"]
    levels = [[n - p for p in range(n + 1) for _ in range(blocks[(p, n - p)])]
              for n in range(len(cx.dims))]
    return Filtration(cx, levels)


def random_filtered_complex(seed: int):
    """Seeded filtered complex with known homology, written in the basis
    it is drawn in. Per degree n: a normal form N with basis
    [h | image | source] and prescribed ranks (N sends source j to image
    j), a level per normal-form vector that N never lowers, and a
    unitriangular T_n adding to vector k random multiples of the later
    vectors of no lower level, so that T_n keeps every level. The basis
    is the columns of T_n in (level, index) order, a permutation P_n,
    and d_n is the matrix P^-1 T_{n+1}^-1 N T_n P, from one solve.
    Conjugating everything by a random invertible C_n first would give
    the same matrix, since C cancels; the C_n are still drawn so that
    the seeded stream, and with it every complex, stays the same.
    Returns (complex, filtration, homology dims)."""
    rng = random.Random(f"filtered-complex:{seed}")
    field = (GF2, FIELDS["F3"], FIELDS["F5"], FIELDS["Q"])[seed % 4]
    top = 4
    hom = [rng.randint(0, 2) for _ in range(top + 1)]
    bnd = [rng.randint(0, 2) for _ in range(top)] + [0]
    dims = [hom[n] + (bnd[n - 1] if n > 0 else 0) + bnd[n]
            for n in range(top + 1)]

    # levels per normal-form basis vector, ordered [h | image | source]
    levels = []
    src_levels = [[] for _ in range(top + 1)]
    for n in range(top + 1):
        lv = [rng.randint(0, n) for _ in range(hom[n])]
        if n > 0:
            lv += [rng.randint(lo, n) for lo in src_levels[n - 1]]
        src_levels[n] = [rng.randint(0, n) for _ in range(bnd[n])]
        lv += src_levels[n]
        levels.append(lv)

    # C_n, redrawn until invertible; only the stream reads it
    for dim in dims:
        ops = vector_ops(field, dim)
        while rank_of(ops, [ops.from_entries([rng.randrange(field.p or 5)
                                              for _ in range(dim)])
                            for _ in range(dim)]) < dim:
            pass

    bases = []  # columns of T_n P_n
    for n, lv in enumerate(levels):
        ops = vector_ops(field, dims[n])
        mixed = [ops.from_sparse(
            {k: 1, **{j: rng.randrange(field.p or 5)
                      for j in range(k + 1, dims[n]) if lv[j] >= lv[k]}})
            for k in range(dims[n])]
        bases.append([mixed[k] for k in sorted(range(dims[n]),
                                                 key=lv.__getitem__)])

    diffs = []
    for n in range(top):
        ops = vector_ops(field, dims[n + 1])
        src_start = hom[n] + (bnd[n - 1] if n > 0 else 0)
        # the normal form's d: zero on [h | image], source j -> image j
        normal_d = ([ops.zero_vec] * src_start
                    + [ops.basis_vector(hom[n + 1] + j)
                       for j in range(bnd[n])])
        diffs.append(solve_coords(ops, bases[n + 1], [
            ops.combine(v, normal_d) for v in bases[n]]))

    cx = FiniteComplex(field, dims, diffs)
    return cx, Filtration(cx, [sorted(lv) for lv in levels]), hom


# ----------------------------------------------------------------- reports


def sequence_report(cx: FiniteComplex, filt: Filtration,
                    window: int = DEFAULT_WINDOW,
                    max_r: int = DEFAULT_MAX_R) -> dict:
    """Deterministic summary: page dimension tables, differential ranks,
    page-homology consistency, and the stable-page/homology comparison.
    Total degree n lists the cells p = 0..n and the levels of degree n
    above n, so a filtration level above its degree shows its q < 0
    cell too. The levels between that no coordinate of degree n has are
    left out: such a cell is zero on every page and has no d_r."""
    engine = PersistencePairing(cx, filt)
    window = min(window, cx.max_degree - 1)
    ps = [sorted(set(range(n + 1)).union(filt.levels[n]))
          for n in range(window + 1)]
    pages = []
    for r in range(max_r + 1):
        cells = []
        for n in range(window + 1):
            for p in ps[n]:
                q = n - p
                entry = {"p": p, "q": q, "dim": engine.dim(r, p, q)}
                if n <= cx.max_degree - 2:
                    entry["d_rank"] = engine.d_rank(r, p, q)
                cells.append(entry)
        pages.append({"r": r, "cells": cells})
    consistency = []
    for r in range(max_r):
        for n in range(min(window, cx.max_degree - 2) + 1):
            for p in ps[n]:
                q = n - p
                kept = (engine.dim(r, p, q) - engine.d_rank(r, p, q)
                        - engine.d_rank(r, p - r, q + r - 1))
                consistency.append(
                    {"r": r, "p": p, "q": q,
                     "ok": engine.dim(r + 1, p, q) == kept})
    einf = [e_infinity_check(engine, n) for n in range(window + 1)]
    return {"field": field_name(cx.field),
            "dims": list(cx.dims),
            "window": window,
            "pages": pages,
            "consistency": consistency,
            "e_infinity": einf,
            "converged": all(row["ok"] for row in einf)
            and all(row["ok"] for row in consistency)}


# ------------------------------------------------------------------- JSON


def _encode_entry(field, x):
    return str(x) if field.p is None else int(x)


def _decode_entry(field, x, where: str):
    """A nonzero exact entry: an integer, or over Q a fraction string."""
    exact = int if field.p else (int, str)
    if isinstance(x, bool) or not isinstance(x, exact):
        raise ValueError(
            f"{where}: entry {x!r} is not exact over {field_name(field)}")
    try:
        y = field.of(Fraction(x))
    except ZeroDivisionError:
        raise ValueError(f"{where}: entry {x!r} divides by zero") from None
    if not y:
        raise ValueError(
            f"{where}: entry {x!r} is zero in {field_name(field)}")
    return y


def complex_to_json(cx: FiniteComplex, filt: Filtration) -> dict:
    """The complex as it is held: ``columns[n][j]`` lists the nonzeros of
    column j of d_n as ``[row, value]`` pairs, rows ascending, and
    ``levels`` is ``filt.levels``; ``complex_from_json`` reads it back."""
    return {"field": field_name(cx.field), "dims": list(cx.dims),
            "columns": [[[[i, _encode_entry(cx.field, x)] for i, x in
                          sorted(cx.ops[n + 1].entries(col).items())]
                         for col in cols] for n, cols in enumerate(cx.diffs)],
            "levels": [list(lv) for lv in filt.levels]}


def complex_from_json(doc: dict):
    """(complex, filtration) from the document ``complex_to_json`` writes:
    at least two degrees, rows strictly ascend below the target's width,
    values are exact and nonzero, and the levels go through
    ``Filtration``'s own checks."""
    if not isinstance(doc, dict):
        raise ValueError("the document must be a JSON object")
    missing = [k for k in ("field", "dims", "columns", "levels")
               if k not in doc]
    if missing:
        raise ValueError(f"missing key(s) {', '.join(missing)}")
    field = FIELDS.get(doc["field"])
    if field is None:
        raise ValueError(f"unknown field {doc['field']!r}; expected one of"
                         f" {', '.join(FIELDS)}")
    for key in ("dims", "columns", "levels"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{key} {doc[key]!r} is not a list")
    dims, columns, levels = doc["dims"], doc["columns"], doc["levels"]
    for d in dims:
        if not _is_count(d):
            raise ValueError(f"dims entry {d!r} is not a non-negative integer")
    if len(dims) < 2:
        raise ValueError(f"a complex needs at least two degrees, dims lists"
                         f" {len(dims)}")
    if len(columns) != len(dims) - 1:
        raise ValueError(f"columns lists {len(columns)} differentials for"
                         f" {len(dims)} dims, not one fewer than dims")
    for key, outer in (("columns", columns), ("levels", levels)):
        for n, inner in enumerate(outer):
            if not isinstance(inner, list):
                raise ValueError(f"{key}[{n}] {inner!r} is not a list")
    diffs = []
    for n, cols in enumerate(columns):
        ops, width = vector_ops(field, dims[n + 1]), dims[n + 1]
        diffs.append([])
        for j, pairs in enumerate(cols):
            where, coords, last = f"columns[{n}][{j}]", {}, -1
            if not isinstance(pairs, list):
                raise ValueError(f"{where} {pairs!r} is not a list")
            for pair in pairs:
                if not (isinstance(pair, list) and len(pair) == 2
                        and _is_count(pair[0]) and last < pair[0] < width):
                    raise ValueError(f"{where}: {pair!r} is not a [row, value]"
                                     f" pair with {last} < row < {width}")
                last = pair[0]
                coords[last] = _decode_entry(field, pair[1], where)
            diffs[n].append(ops.from_sparse(coords))
    cx = FiniteComplex(field, dims, diffs)
    return cx, Filtration(cx, levels)
