"""Bounded cochains, coboundaries, cup products, and the duality
pairing against finite-support chains.

Cochains are evaluator-backed: the group is infinite in the main use
case, so a cochain is whatever can be evaluated on tuples, plus an
optional certified sup-norm bound. Finite-support table cochains (for
adjointness tests) are built on top of the same class, and so are the
degree-2 cocycles of :mod:`qmcoh.quasimorphism`, which override
``evaluate`` only.

Values are rationals with the trivial action, or degree-2 chains under
a caller-supplied ``action`` (the chain cochains of
:mod:`qmcoh.extensions`). ``coboundary`` adds and subtracts values with
``+`` and ``-`` and applies the action, when there is one, to the
leading term; ``cup`` and ``pair`` take scalar cochains only.

The pairing returns an exact value plus an error bound. A chain's
truncation tail enters the bound through its ``tail_bound``; against a
cochain flagged ``homogeneous`` a tail flagged ``power_tail`` (all
same-base power pairs, as ``chains.m_chain`` cuts off) contributes
exactly zero, which is what makes certified zero-error pairings
possible.

``InvariantCochain`` (the homogeneous picture, (degree+1)-tuples) is an
evaluator shell only; nothing in the package builds one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from . import words
from .chains import Chain
from .errors import ResourceCapExceeded
from .groups import Group
from .words import Pow

MAX_DEGREE = 6

# cochain values that enter a pairing sum as they are; any other value is
# converted with Fraction first, so a float adds exactly
_EXACT = (int, Fraction)


class BoundedCochain:
    """Evaluator-backed cochain in the non-homogeneous picture.

    ``evaluator`` takes ``degree`` group elements and returns a value:
    a rational, or a chain when ``action(g, value)`` is given, the left
    action of the group on the values. ``norm_bound``, when given, is a
    certified bound on the values' magnitude and feeds pairing error
    bounds.

    Every call goes through ``evaluate``, which a subclass may override
    in place of an evaluator. ``homogeneous`` marks a cochain that
    vanishes on every pair of powers of a common element (the cocycle
    of a homogeneous quasimorphism); a subclass sets it.
    """

    __slots__ = ("group", "degree", "action", "evaluator", "norm_bound",
                 "name")
    homogeneous = False

    def __init__(self, group: Group, degree: int, evaluator: Callable,
                 action: Callable | None = None, norm_bound=None,
                 name: str = "f"):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if degree > MAX_DEGREE:
            raise ResourceCapExceeded(
                f"degree {degree} beyond configured max {MAX_DEGREE}"
            )
        self.group = group
        self.degree = degree
        self.action = action
        self.evaluator = evaluator
        self.norm_bound = None if norm_bound is None else Fraction(norm_bound)
        self.name = name

    def __call__(self, *g):
        if len(g) != self.degree:
            raise ValueError(
                f"{self.name} has degree {self.degree}, got {len(g)} arguments"
            )
        return self.evaluate(g)

    def evaluate(self, entry) -> Fraction:
        """Value on a chain-support tuple; symbolic powers are expanded
        (the expansion cap still applies)."""
        if Pow in map(type, entry):
            entry = map(words.expand_entry, entry)
        return self.evaluator(*entry)

    def __repr__(self):
        return f"BoundedCochain({self.name}, deg={self.degree})"


def table_cochain(group: Group, degree: int, table: dict,
                  name: str = "b") -> BoundedCochain:
    """Finite-support scalar cochain: explicit values on the listed
    tuples, zero elsewhere. The sup-norm bound is exact."""
    data = {tuple(t): Fraction(v) for t, v in table.items()}
    for t in data:
        if len(t) != degree:
            raise ValueError(f"table key {t!r} has wrong length")
    bound = max((abs(v) for v in data.values()), default=Fraction(0))

    def ev(*g):
        return data.get(g, Fraction(0))

    return BoundedCochain(group, degree, ev, norm_bound=bound, name=name)


def coboundary(f: BoundedCochain) -> BoundedCochain:
    """d in the non-homogeneous picture, the action on the leading term:

        d f(g1,...,g_{n+1}) = g1 . f(g2,...) + sum_i (-1)^i f(..gi g_{i+1}..)
                              + (-1)^{n+1} f(g1,...,gn)

    Without an action the first term is f(g2,...) and the formula is the
    plain alternating sum. The norm bound propagates as (n+2) times the
    input bound.
    """
    n = f.degree
    grp = f.group
    act = f.action

    def ev(*g):
        total = f(*g[1:])
        if act is not None:
            total = act(g[0], total)
        sign = 1
        for i in range(n):
            sign = -sign
            merged = f(*g[:i], grp.mul(g[i], g[i + 1]), *g[i + 2:])
            total = total - merged if sign < 0 else total + merged
        last = f(*g[:n])
        return total + last if sign < 0 else total - last

    bound = None if f.norm_bound is None else (n + 2) * f.norm_bound
    return BoundedCochain(grp, n + 1, ev, act,
                          norm_bound=bound, name=f"d{f.name}")


class InvariantCochain:
    """Cochain in the homogeneous picture: an evaluator on
    (degree+1)-tuples. Degree mirrors the chain side."""

    __slots__ = ("group", "degree", "evaluator", "name")

    def __init__(self, group: Group, degree: int, evaluator: Callable,
                 name: str = "F"):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if degree > MAX_DEGREE:
            raise ResourceCapExceeded(
                f"degree {degree} beyond configured max {MAX_DEGREE}"
            )
        self.group = group
        self.degree = degree
        self.evaluator = evaluator
        self.name = name

    def __call__(self, *t):
        if len(t) != self.degree + 1:
            raise ValueError(
                f"{self.name} takes {self.degree + 1}-tuples, got {len(t)}"
            )
        return self.evaluator(*t)

    def __repr__(self):
        return f"InvariantCochain({self.name}, deg={self.degree})"


def cup(f: BoundedCochain, h: BoundedCochain) -> BoundedCochain:
    """Cup product of scalar cochains; other factors raise ValueError:

        (f u h)(g1,...,g_{p+q}) = f(g1..gp) * h(g_{p+1}..g_{p+q})
    """
    if f.group is not h.group:
        raise ValueError("cup factors live over different groups")
    p, q = f.degree, h.degree
    if p + q > MAX_DEGREE:
        raise ResourceCapExceeded(
            f"cup degree {p + q} beyond configured max {MAX_DEGREE}"
        )
    if f.action is not None or h.action is not None:
        raise ValueError("cup needs scalar factors")

    def ev(*g):
        return f(*g[:p]) * h(*g[p:])

    bound = None
    if f.norm_bound is not None and h.norm_bound is not None:
        bound = f.norm_bound * h.norm_bound
    return BoundedCochain(f.group, p + q, ev, norm_bound=bound,
                          name=f"{f.name}u{h.name}")


class PairingResult(NamedTuple):
    """Exact value of a pairing plus a certified bound on the part the
    chain's truncation tail could still contribute."""

    value: Fraction
    error_bound: Fraction

    def __str__(self):
        return f"{self.value} +- {self.error_bound}"


def pair(c: BoundedCochain, z: Chain) -> PairingResult:
    """<c, z>: the sum of n * c(tuple) over the chain's integer
    numerators, divided once by its denominator ``z.den``, with an error
    bound for the truncated tail.

    Values are read with ``c.evaluate``, so a cocycle of
    :mod:`qmcoh.quasimorphism` keeps symbolic powers symbolic. Scalar
    values are required, so a cochain with an ``action`` is refused.
    Bound rules: zero tail gives bound 0; a tail flagged ``power_tail``
    paired against a cochain flagged ``homogeneous`` contributes exactly
    0 (every cut term is a same-base power pair, on which such a cochain
    vanishes); otherwise the bound is norm_bound * tail_bound, and a
    missing norm bound is an error.
    """
    if c.degree != z.degree:
        raise ValueError(
            f"degree mismatch: cochain {c.degree}, chain {z.degree}"
        )
    if c.action is not None:
        raise ValueError("pairing needs trivial scalar coefficients")
    total = 0
    for t, n in z.support.items():
        v = c.evaluate(t)
        total += n * (v if type(v) in _EXACT else Fraction(v))
    if z.tail_bound == 0:
        bound = Fraction(0)
    elif z.power_tail and c.homogeneous:
        bound = Fraction(0)
    elif c.norm_bound is not None:
        bound = c.norm_bound * z.tail_bound
    else:
        raise ValueError(
            "chain has a truncation tail; pairing needs a norm bound or a "
            "homogeneous cochain against a tail of power pairs"
        )
    return PairingResult(Fraction(total, z.den), bound)
