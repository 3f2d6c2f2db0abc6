"""Bounded cochains with coefficients, coboundaries, cup products, and
the duality pairing against finite-support chains.

Cochains are evaluator-backed: the group is infinite in the main use
case, so a cochain is whatever can be evaluated on tuples, plus an
optional certified sup-norm bound. Finite-support table cochains (for
adjointness tests) are built on top of the same class.

Coefficients are rationals with the trivial action (``SCALARS``) or
degree-2 chains under a caller-supplied action (``chain_valued``, for
the chain cochains of :mod:`qmcoh.extensions`); ``cup`` multiplies scalars.

Two pictures are supported. The non-homogeneous one (``BoundedCochain``,
tuples of length n) carries the coboundary d with the module action on
the leading term. The homogeneous one (``InvariantCochain``, tuples of
length n+1, equivariant) carries the alternating-omission coboundary.
``to_homogeneous`` / ``to_inhomogeneous`` translate between them.

The pairing returns an exact value plus an error bound. Chains built by
``chains.m_chain`` carry their truncation tail symbolically; against a
cocycle flagged homogeneous those tails contribute exactly zero, which
is what makes certified zero-error pairings possible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from . import words
from .chains import Chain, MSeriesTail
from .errors import InvariantViolation, ResourceCapExceeded
from .groups import Group

MAX_DEGREE = 6

# cochain values that enter a pairing sum as they are; any other value is
# converted with Fraction first, so a float adds exactly
_EXACT = (int, Fraction)


class CoefficientModule:
    """Coefficient system for cochains: a kind tag, the vector-space
    operations, and a left group action.

    Kinds: ``trivial_scalar`` (exact rationals, trivial action) and
    ``l1_class`` (degree-2 chains, compared only through the pairing;
    the action, typically a pushforward, is supplied by the caller).
    """

    __slots__ = ("kind", "zero", "add", "scale", "act", "name")

    def __init__(self, kind: str, zero, add, scale, act, name: str):
        self.kind = kind
        self.zero = zero
        self.add = add
        self.scale = scale
        self.act = act
        self.name = name

    @classmethod
    def trivial(cls) -> "CoefficientModule":
        return cls(
            "trivial_scalar",
            Fraction(0),
            lambda u, v: u + v,
            lambda a, u: Fraction(a) * u,
            lambda g, u: u,
            name="Q",
        )

    @classmethod
    def chain_valued(cls, group: Group, degree: int,
                     action) -> "CoefficientModule":
        """Values are degree-``degree`` chains over ``group``, acted on
        by ``action(g, chain)``; the module never materializes classes,
        equality is read off through the pairing downstream."""
        return cls(
            "l1_class",
            Chain.zero(group, degree),
            lambda u, v: u + v,
            lambda a, z: z.scale(a),
            action,
            name="chains",
        )

    def __repr__(self):
        return f"CoefficientModule({self.kind}, {self.name})"


SCALARS = CoefficientModule.trivial()


class BoundedCochain:
    """Evaluator-backed cochain in the non-homogeneous picture.

    ``evaluator`` takes ``degree`` group elements and returns a module
    element. ``norm_bound``, when given, is a certified bound on the
    values' magnitude and feeds pairing error bounds.
    """

    __slots__ = ("group", "degree", "module", "evaluator", "norm_bound",
                 "name")

    def __init__(self, group: Group, degree: int,
                 evaluator: Callable, module: CoefficientModule = SCALARS,
                 norm_bound=None, name: str = "f"):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if degree > MAX_DEGREE:
            raise ResourceCapExceeded(
                f"degree {degree} beyond configured max {MAX_DEGREE}"
            )
        self.group = group
        self.degree = degree
        self.module = module
        self.evaluator = evaluator
        self.norm_bound = None if norm_bound is None else Fraction(norm_bound)
        self.name = name

    def __call__(self, *g):
        if len(g) != self.degree:
            raise ValueError(
                f"{self.name} has degree {self.degree}, got {len(g)} arguments"
            )
        return self.evaluator(*g)

    def evaluate(self, entry) -> Fraction:
        """Value on a chain-support tuple; symbolic powers are expanded
        (the expansion cap still applies)."""
        return self(*(words.expand_entry(x) for x in entry))

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

    return BoundedCochain(group, degree, ev, SCALARS,
                          norm_bound=bound, name=name)


def coboundary(f: BoundedCochain) -> BoundedCochain:
    """d in the non-homogeneous picture, module action on the leading
    term:

        d f(g1,...,g_{n+1}) = g1 . f(g2,...) + sum_i (-1)^i f(..gi g_{i+1}..)
                              + (-1)^{n+1} f(g1,...,gn)

    For trivial coefficients the first term loses its action and the
    formula is the plain alternating sum. The norm bound propagates as
    (n+2) times the input bound.
    """
    n = f.degree
    grp = f.group
    mod = f.module

    def ev(*g):
        total = mod.act(g[0], f(*g[1:]))
        sign = 1
        for i in range(n):
            sign = -sign
            merged = g[:i] + (grp.mul(g[i], g[i + 1]),) + g[i + 2:]
            total = mod.add(total, mod.scale(sign, f(*merged)))
        total = mod.add(total, mod.scale(-sign, f(*g[:n])))
        return total

    bound = None if f.norm_bound is None else (n + 2) * f.norm_bound
    return BoundedCochain(grp, n + 1, ev, mod,
                          norm_bound=bound, name=f"d{f.name}")


class InvariantCochain:
    """Cochain in the homogeneous picture: an equivariant function on
    (degree+1)-tuples. Degree mirrors the chain side, so the coboundary
    raises degree by one."""

    __slots__ = ("group", "degree", "module", "evaluator", "name")

    def __init__(self, group: Group, degree: int, evaluator: Callable,
                 module: CoefficientModule = SCALARS, name: str = "F"):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if degree > MAX_DEGREE:
            raise ResourceCapExceeded(
                f"degree {degree} beyond configured max {MAX_DEGREE}"
            )
        self.group = group
        self.degree = degree
        self.module = module
        self.evaluator = evaluator
        self.name = name

    def __call__(self, *t):
        if len(t) != self.degree + 1:
            raise ValueError(
                f"{self.name} takes {self.degree + 1}-tuples, got {len(t)}"
            )
        return self.evaluator(*t)

    def check_invariance(self, samples) -> None:
        """samples: iterable of (g, tuple); requires
        F(g t0, ..., g tn) = g . F(t0, ..., tn) on each."""
        grp = self.group
        for g, t in samples:
            moved = tuple(grp.mul(g, x) for x in t)
            if self(*moved) != self.module.act(g, self(*t)):
                raise InvariantViolation(
                    f"{self.name} not equivariant at g={g!r}, tuple={t!r}"
                )

    def __repr__(self):
        return f"InvariantCochain({self.name}, deg={self.degree})"


def homogeneous_coboundary(F: InvariantCochain,
                           check_samples=()) -> InvariantCochain:
    """Alternating sum over omitted components. ``check_samples`` is
    forwarded to :meth:`InvariantCochain.check_invariance` first, so a
    non-equivariant input fails loudly instead of producing garbage."""
    F.check_invariance(check_samples)
    mod = F.module

    def ev(*t):
        total = mod.zero
        sign = 1
        for i in range(len(t)):
            total = mod.add(total, mod.scale(sign, F(*t[:i] + t[i + 1:])))
            sign = -sign
        return total

    return InvariantCochain(F.group, F.degree + 1, ev, mod, name=f"delta {F.name}")


def to_homogeneous(f: BoundedCochain) -> InvariantCochain:
    """F(t0,...,tn) = t0 . f(t0^-1 t1, t1^-1 t2, ...); the standard
    equivalence of pictures, coboundaries correspond."""
    grp = f.group
    mod = f.module

    def ev(*t):
        steps = tuple(
            grp.mul(grp.inv(t[i]), t[i + 1]) for i in range(len(t) - 1)
        )
        return mod.act(t[0], f(*steps))

    return InvariantCochain(grp, f.degree, ev, mod, name=f"[{f.name}]")


def to_inhomogeneous(F: InvariantCochain) -> BoundedCochain:
    """f(g1,...,gn) = F(e, g1, g1 g2, ..., g1...gn); inverse to
    :func:`to_homogeneous` on equivariant inputs."""
    grp = F.group

    def ev(*g):
        t = [grp.identity]
        for x in g:
            t.append(grp.mul(t[-1], x))
        return F(*t)

    return BoundedCochain(grp, F.degree, ev, F.module, name=f"<{F.name}>")


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
    if f.module.kind != "trivial_scalar" or h.module.kind != "trivial_scalar":
        raise ValueError("cup needs scalar factors")

    def ev(*g):
        return f(*g[:p]) * h(*g[p:])

    bound = None
    if f.norm_bound is not None and h.norm_bound is not None:
        bound = f.norm_bound * h.norm_bound
    return BoundedCochain(f.group, p + q, ev, SCALARS, norm_bound=bound,
                          name=f"{f.name}u{h.name}")


class PairingResult(NamedTuple):
    """Exact value of a pairing plus a certified bound on the part the
    chain's truncation tail could still contribute."""

    value: Fraction
    error_bound: Fraction

    def __str__(self):
        return f"{self.value} +- {self.error_bound}"


def pair(c, z: Chain) -> PairingResult:
    """<c, z>: the sum of n * c(tuple) over the chain's integer
    numerators, divided once by its denominator ``z.den``, with an error
    bound for the truncated tail.

    Accepts any evaluator with ``degree`` and ``evaluate`` (both the
    cocycle classes and :class:`BoundedCochain`); scalar values are
    required. Bound rules: zero tail gives bound 0; a tail made of
    power-series tails paired against a cocycle flagged homogeneous
    contributes exactly 0 (every cut term is a same-base power pair);
    otherwise the bound is norm_bound * tail_bound, and a missing norm
    bound is an error.
    """
    if c.degree != z.degree:
        raise ValueError(
            f"degree mismatch: cochain {c.degree}, chain {z.degree}"
        )
    mod = getattr(c, "module", None)
    if mod is not None and mod.kind != "trivial_scalar":
        raise ValueError("pairing needs trivial scalar coefficients")
    total = 0
    for t, n in z.support.items():
        v = c.evaluate(t)
        total += n * (v if type(v) in _EXACT else Fraction(v))
    if z.tail_bound == 0:
        bound = Fraction(0)
    elif getattr(c, "homogeneous", False) and z.tails \
            and all(isinstance(t, MSeriesTail) for t in z.tails):
        bound = Fraction(0)
    elif getattr(c, "norm_bound", None) is not None:
        bound = c.norm_bound * z.tail_bound
    else:
        raise ValueError(
            "chain has a truncation tail; pairing needs a norm bound or a "
            "homogeneous cochain against power-series tails"
        )
    return PairingResult(Fraction(total, z.den), bound)
