"""Finite-support chains in the bar complexes of a group model.

Two complexes live here. The inhomogeneous one (class ``Chain``) is
normalized with trivial coefficients: basis tuples [g1|...|gn], tuples
containing the identity are zero, and the degree-1 boundary vanishes. A
chain may carry a *tail*: an exact bound ``tail_bound`` on the l1 mass
of series terms that were cut off, and one flag, ``power_tail``, saying
that all of that mass is same-base power pairs [x^k|x^k]. ``m_chain``
sets the flag, sums keep it only if every summand has it, scalings and
pushforwards keep it, and boundaries clear it; a chain without a tail
has it vacuously. The flag is what makes certified zero-error pairings
against homogeneous cocycles possible downstream.

The homogeneous one (class ``HomogeneousChain``) uses (n+1)-tuples, is
*not* normalized, and has the standard contracting homotopy that
prepends the identity.

Entries of free-group chains may be symbolic powers (``words.Pow``); the
boundary multiplies same-base powers without expanding them.

A ``Chain``'s coefficients are exact integer numerators over one
positive denominator, ``den``, kept in lowest terms (gcd(den,
*numerators) == 1, and the zero chain has den 1). Every coefficient the
m-series produce is dyadic, so their sums, scalings, boundaries and
pairings are integer arithmetic plus one division at the end of a
pairing; chains with other rational coefficients are lifted to the lcm
of their denominators. ``HomogeneousChain`` keeps ``Fraction``
coefficients.

Entries become canonical in one place, the ``Chain`` constructor: free
words and powers are keyed there by primitive root, so that equal
elements share a dict key. User-built chains, ``Chain.basis``,
``m_chain``, the lead term of ``m2_chain`` and ``pushforward`` (a
homomorphism can send a root to a proper power or to the identity) all
pass through it. Sums, differences, scalings and boundaries start from
canonical supports and build their results directly; they and the
constructor share one reduction to lowest terms.

``m_chain`` and ``m2_chain`` are memoized (a bounded LRU cache per
process), so equal arguments return the same ``Chain`` object to every
caller. Every operation builds a new chain and none writes to an
existing one: a ``Chain``'s ``support``, ``den``, ``tail_bound`` and
``power_tail`` are never mutated after construction.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import words
from .errors import ResourceCapExceeded
from .groups import FreeGroup, Group
from .words import Pow

MAX_CUTOFF = 16


def _accumulate(support: dict, pairs) -> dict:
    """Add (tuple, coeff) pairs into ``support``, dropping every key whose
    coefficient cancels to zero; returns ``support``. A key seen for the
    first time takes its coefficient as it is, so no coefficient is ever
    added to a literal 0 (an int 0 plus a Fraction builds a Fraction)."""
    get = support.get
    for t, c in pairs:
        acc = get(t)
        if acc is not None:
            c = acc + c
        if c:
            support[t] = c
        else:
            support.pop(t, None)
    return support


def _lowest_terms(support: dict, den: int) -> tuple[dict, int]:
    """Integer numerators ``support`` over ``den`` > 0, divided by their
    common factor so that gcd(den, *numerators) == 1; the zero chain
    comes back over 1."""
    if den == 1 or not support:
        return support, 1
    g = gcd(den, *support.values())
    if g == 1:
        return support, den
    return {t: n // g for t, n in support.items()}, den // g


def _canonizer(group: Group):
    """Map from a raw tuple to its canonical key, chosen once per group:
    free-word entries and symbolic powers are keyed by primitive root,
    so that equal elements always share a dict key whatever path
    produced them; elements of other models are canonical already."""
    if not isinstance(group, FreeGroup):
        return tuple
    pow_entry = words.pow_entry
    return lambda t: tuple(
        pow_entry(*x) if isinstance(x, Pow) else pow_entry(x, 1) for x in t)


class Chain:
    """Finite rational combination of bar tuples plus a truncation tail.

    Coefficients are integer numerators over one denominator per chain:
    ``support`` maps each canonical tuple to a nonzero ``int`` n, and
    the tuple's coefficient is n / ``den``. The pair is kept in lowest
    terms (``den > 0``, gcd(den, *numerators) == 1, and the zero chain
    has ``den == 1``), so equality compares group, degree, ``den`` and a
    dict of ints. The tail is truncation bookkeeping, not part of the
    chain's value: ``tail_bound`` bounds the l1 mass of the cut terms,
    and ``power_tail`` says all of it is same-base power pairs (always
    true when ``tail_bound`` is 0).

    ``items`` are (tuple, coefficient) pairs or a dict. Without ``den``
    the coefficients may be any rationals, and they are lifted to the
    lcm of their denominators; with ``den`` they are ``int`` numerators
    over it.
    """

    __slots__ = ("group", "degree", "support", "den", "tail_bound",
                 "power_tail")

    def __init__(self, group: Group, degree: int, items=(), tail_bound=0,
                 den=None, power_tail: bool = False):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.group = group
        self.degree = degree
        canon = _canonizer(group)
        e = group.identity

        def terms(pairs):
            for t, coeff in pairs:
                t = canon(t)
                if len(t) != degree:
                    raise ValueError(
                        f"tuple {t!r} has wrong length for degree {degree}")
                if e not in t:  # normalized complex: degenerate tuples vanish
                    yield t, coeff

        pairs = items.items() if isinstance(items, dict) else items
        if den is None:
            kept = [(t, Fraction(c)) for t, c in terms(pairs)]
            den = lcm(*(c.denominator for _, c in kept))
            numerators = ((t, c.numerator * (den // c.denominator))
                          for t, c in kept)
        else:
            den = operator.index(den)
            if den < 1:
                raise ValueError("den must be a positive integer")
            numerators = ((t, operator.index(n)) for t, n in terms(pairs))
        self.support, self.den = _lowest_terms(
            _accumulate({}, numerators), den)
        self.tail_bound = Fraction(tail_bound)
        self.power_tail = power_tail or not self.tail_bound

    @classmethod
    def _of(cls, group: Group, degree: int, support: dict, den: int,
            tail_bound: Fraction, power_tail: bool) -> "Chain":
        """Wrap nonzero int numerators over ``den`` whose keys are
        canonical already: no per-key work, only the reduction to
        lowest terms that ``__init__`` also ends with."""
        z = object.__new__(cls)
        z.group, z.degree = group, degree
        z.support, z.den = _lowest_terms(support, den)
        z.tail_bound = tail_bound
        z.power_tail = power_tail or not tail_bound
        return z

    @classmethod
    def zero(cls, group: Group, degree: int) -> "Chain":
        return cls(group, degree)

    @classmethod
    def basis(cls, group: Group, *entries) -> "Chain":
        return cls(group, len(entries), [(tuple(entries), 1)], den=1)

    def scale(self, a) -> "Chain":
        a = Fraction(a)
        k = a.numerator
        return Chain._of(
            self.group, self.degree,
            {t: k * n for t, n in self.support.items()} if k else {},
            self.den * a.denominator, abs(a) * self.tail_bound,
            self.power_tail,
        )

    def __neg__(self):
        return self.scale(-1)

    def _sum(self, other: "Chain", sign: int) -> "Chain":
        """self + sign * other over the lcm of the two denominators; with
        equal denominators the numerators add as they are."""
        if self.group is not other.group or self.degree != other.degree:
            raise ValueError("chain mismatch")
        if self.den == other.den:
            den, support, k = self.den, dict(self.support), sign
        else:
            den = lcm(self.den, other.den)
            ka = den // self.den
            support = {t: ka * n for t, n in self.support.items()}
            k = sign * (den // other.den)
        pairs = other.support.items() if k == 1 else \
            ((t, k * n) for t, n in other.support.items())
        return Chain._of(self.group, self.degree, _accumulate(support, pairs),
                         den, self.tail_bound + other.tail_bound,
                         self.power_tail and other.power_tail)

    def __add__(self, other: "Chain") -> "Chain":
        return self._sum(other, 1)

    def __sub__(self, other: "Chain") -> "Chain":
        return self._sum(other, -1)

    def __eq__(self, other):
        return (
            isinstance(other, Chain)
            and self.group is other.group
            and self.degree == other.degree
            and self.den == other.den
            and self.support == other.support
        )

    def __hash__(self):
        return hash((id(self.group), self.degree, self.den,
                     frozenset(self.support.items())))

    def __repr__(self):
        n = len(self.support)
        return f"Chain(deg={self.degree}, terms={n}, tail={self.tail_bound})"


def boundary(z: Chain) -> Chain:
    """Bar boundary; the tail bound propagates multiplied by (n+1), and
    the faces of a power pair are not power pairs, so the power-tail
    flag is cleared.

    In degree 1 the two outer terms cancel (trivial coefficients), so
    the result is the zero chain of degree 0. Merged entries come out of
    ``words.entry_mul`` or the group law canonical already, so only the
    tuples that now contain the identity are dropped. The faces keep the
    chain's denominator; cancellation can lower it.
    """
    n = z.degree
    if n < 1:
        raise ValueError("boundary needs degree >= 1")
    group = z.group
    mul = words.entry_mul if isinstance(group, FreeGroup) else group.mul
    e = group.identity

    def faces():
        for t, c in z.support.items():
            yield t[1:], c
            sign = 1
            for i in range(n - 1):
                sign = -sign
                x = mul(t[i], t[i + 1])
                if x != e:
                    yield t[:i] + (x,) + t[i + 2:], sign * c
            yield t[:-1], c if n % 2 == 0 else -c

    return Chain._of(group, n - 1, _accumulate({}, faces()), z.den,
                     (n + 1) * z.tail_bound, False)


@lru_cache(maxsize=256)
def m_chain(group: Group, g, N: int) -> Chain:
    """Truncated telescoping power series for g in degree 2.

    Sum over n = 1..N of 2^-n [g^(2^(n-1)) | g^(2^(n-1))], stored as the
    numerators 2^(N-n) over 2^N. The cut tail has l1 mass exactly 2^-N
    and is all same-base power pairs, so the chain carries
    ``tail_bound`` 2^-N and ``power_tail``. The boundary of
    the full series telescopes; at cutoff N it equals [g] - 2^-N [g^(2^N)].

    For the identity every term is degenerate, so the chain (tail
    included) is exactly zero in the normalized complex.
    """
    if not 1 <= N <= MAX_CUTOFF:
        raise ResourceCapExceeded(f"cutoff N={N} outside 1..{MAX_CUTOFF}")
    if g == group.identity:
        return Chain.zero(group, 2)
    symbolic = isinstance(group, FreeGroup)
    items = []
    for n in range(1, N + 1):
        k = 2 ** (n - 1)
        p = Pow(g, k) if symbolic else group.power(g, k)
        items.append(((p, p), 2 ** (N - n)))
    return Chain(group, 2, items, tail_bound=Fraction(1, 2**N), den=2**N,
                 power_tail=True)


@lru_cache(maxsize=256)
def m2_chain(group: Group, g, h, N: int) -> Chain:
    """[g|h] - m(g) + m(gh) - m(h); support norm at most 4, tail mass at
    most 3 * 2^-N."""
    gh = group.mul(g, h)
    lead = Chain.basis(group, g, h)
    return lead - m_chain(group, g, N) + m_chain(group, gh, N) \
        - m_chain(group, h, N)


def pushforward(aut, z: Chain) -> Chain:
    """Apply a homomorphism entrywise; symbolic powers map base-wise
    (images of powers are powers of images). The image of a root may be
    a proper power or the identity, so the result is canonicalized
    again; power pairs map to power pairs, so the tail is kept as it is.
    The 2N entries of an m-series share one base, so each
    distinct word or base is mapped once per call."""
    images: dict = {}

    def image(w):
        hit = images.get(w)
        if hit is None:
            hit = images[w] = aut(w)
        return hit

    def fwd(x):
        return Pow(image(x.base), x.exp) if isinstance(x, Pow) else image(x)

    return Chain(
        z.group, z.degree,
        [(tuple(map(fwd, t)), n) for t, n in z.support.items()],
        tail_bound=z.tail_bound, den=z.den, power_tail=z.power_tail,
    )


class HomogeneousChain:
    """Rational combination of (n+1)-tuples; not normalized."""

    __slots__ = ("group", "degree", "support")

    def __init__(self, group: Group, degree: int, items=()):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.group = group
        self.degree = degree

        def terms(pairs):
            for t, coeff in pairs:
                t = tuple(t)
                if len(t) != degree + 1:
                    raise ValueError(
                        f"degree-{degree} tuples have {degree + 1} components"
                    )
                yield t, Fraction(coeff)

        pairs = items.items() if isinstance(items, dict) else items
        self.support = _accumulate({}, terms(pairs))

    def __add__(self, other):
        if self.group is not other.group or self.degree != other.degree:
            raise ValueError("chain mismatch")
        return HomogeneousChain(
            self.group, self.degree,
            [*self.support.items(), *other.support.items()],
        )

    def __eq__(self, other):
        return (
            isinstance(other, HomogeneousChain)
            and self.group is other.group
            and self.degree == other.degree
            and self.support == other.support
        )

    def __hash__(self):
        return hash((id(self.group), self.degree,
                     frozenset(self.support.items())))

    def __repr__(self):
        return f"HomogeneousChain(deg={self.degree}, terms={len(self.support)})"


def homogeneous_boundary(z: HomogeneousChain) -> HomogeneousChain:
    """Alternating sum over dropped components; degenerate tuples are
    kept (this complex is not normalized)."""
    if z.degree < 1:
        raise ValueError("boundary needs degree >= 1")
    items = []
    for t, c in z.support.items():
        sign = 1
        for i in range(len(t)):
            items.append((t[:i] + t[i + 1:], sign * c))
            sign = -sign
    return HomogeneousChain(z.group, z.degree - 1, items)


def contracting_homotopy(z: HomogeneousChain) -> HomogeneousChain:
    """Prepend the identity: s(x0,...,xn) = (e,x0,...,xn); satisfies
    s d + d s = id in positive degrees."""
    e = z.group.identity
    return HomogeneousChain(
        z.group, z.degree + 1,
        [((e,) + t, c) for t, c in z.support.items()],
    )
