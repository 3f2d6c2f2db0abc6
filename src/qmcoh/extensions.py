"""Abstract kernels, group extensions with sections, and the central
extension attached to a bounded 2-cocycle.

An abstract kernel is a lift of an outer action: a map psi into Aut(G)
plus a defect f on pairs measuring how far psi is from a homomorphism.
Extensions with a chosen set-theoretic section produce kernels
(``ExtensionData.kernel``); the 3-cochain ``obstruction_K`` measures
whether an arbitrary kernel arises that way.

``CentralExtensionModel`` realizes the group of pairs (t, g) with the
law twisted by the coboundary d(phi) of a quasimorphism phi, its
homogenized scalar quasimorphism, and the canonical section s_x with
phi(s_x(g)) = 0. ``lift_automorphism`` extends a G automorphism to the
pairs fixing the center.

The chain-valued cochains at the bottom (``theta_chain``,
``lambda_chain``, ``t_chain``) take values in degree-2 chains over G;
their identities are certified through the duality pairing against
homogeneous cocycles. Each carries its ``action``, the pushforward
along the lift, which :func:`qmcoh.cochains.coboundary` applies to the
leading term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .chains import m2_chain, pushforward
from .cochains import BoundedCochain
from .errors import CentralityViolation, KernelRelationViolation
from .groups import (
    Automorphism,
    Group,
    MapAutomorphism,
    TwistedProduct,
    compose,
    inner_automorphism,
)
from .quasimorphism import drift

DEFAULT_CUTOFF = 8


class AbstractKernel:
    """A lift psi: Pi -> Aut(G) together with its defect f: Pi^2 -> G.

    The pair is expected to satisfy f-normalization and the composition
    law psi(a) psi(b) = i_{f(a,b)} psi(ab); neither is enforced at
    construction (``TwistedProduct.law_defect`` samples the law). Both
    maps are memoized, psi per alpha and f per (alpha, beta), so each
    must be a pure function of its arguments.
    """

    def __init__(self, pi: Group, g: Group, psi, f, name: str = "kernel"):
        self.pi = pi
        self.g = g
        self._psi = psi
        self._f = f
        self._cache: dict = {}
        self._f_cache: dict = {}
        self.name = name

    def psi(self, alpha) -> Automorphism:
        aut = self._cache.get(alpha)
        if aut is None:
            aut = self._psi(alpha)
            self._cache[alpha] = aut
        return aut

    def f(self, alpha, beta):
        value = self._f_cache.get((alpha, beta))
        if value is None:
            value = self._f(alpha, beta)
            self._f_cache[alpha, beta] = value
        return value

    def conjugate_by(self, h) -> "AbstractKernel":
        """The kernel with lift i_{h(a)} . psi(a) and the matching
        defect h(a) psi(a)(h(b)) f(a,b) h(ab)^-1; represents the same
        outer action."""
        G, P = self.g, self.pi

        def psi2(alpha):
            return compose(inner_automorphism(G, h(alpha)), self.psi(alpha))

        def f2(alpha, beta):
            return G.mul(
                h(alpha),
                self.psi(alpha)(h(beta)),
                self.f(alpha, beta),
                G.inv(h(P.mul(alpha, beta))),
            )

        return AbstractKernel(P, G, psi2, f2, name=self.name + "-conj")

    def __repr__(self):
        return f"AbstractKernel({self.name})"


class KernelReport(NamedTuple):
    """Outcome of a sampled identity check; failures carry witnesses."""

    checked: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def check_nonabelian_cocycle(k: AbstractKernel, triples) -> KernelReport:
    """Sampled product rule psi(a)(f(b,c)) f(a,bc) = f(a,b) f(ab,c);
    report-valued, failing triples are returned with both sides."""
    G, P = k.g, k.pi
    failures = []
    checked = 0
    for a, b, c in triples:
        checked += 1
        lhs = G.mul(k.psi(a)(k.f(b, c)), k.f(a, P.mul(b, c)))
        rhs = G.mul(k.f(a, b), k.f(P.mul(a, b), c))
        if lhs != rhs:
            failures.append(((a, b, c), lhs, rhs))
    return KernelReport(checked, tuple(failures))


class ExtensionData:
    """An ambient group with projection to Pi, fiber inclusion of G, and
    a normalized section of the projection.

    ``fiber_of`` inverts the inclusion on its image; the fiber
    coordinate of gamma is h(gamma) = fiber_of(gamma . s(sigma gamma)^-1),
    so gamma = i(h(gamma)) . s(sigma(gamma)) always.
    """

    def __init__(self, gamma: Group, pi: Group, g: Group, sigma, include,
                 fiber_of, section, check_samples=(), name: str = "ext"):
        self.gamma = gamma
        self.pi = pi
        self.g = g
        self.sigma = sigma
        self.include = include
        self.fiber_of = fiber_of
        self.section = section
        self.name = name
        self._kernel = None
        if section(pi.identity) != gamma.identity:
            raise ValueError("section not normalized: s(1) != 1")
        for alpha in check_samples:
            if sigma(section(alpha)) != alpha:
                raise ValueError(f"section does not split sigma at {alpha!r}")
        for x in g.test_elements():
            lifted = include(x)
            if sigma(lifted) != pi.identity:
                raise ValueError(f"inclusion leaves the fiber at {x!r}")
            if self.h(lifted) != x:
                raise ValueError(f"fiber coordinate broken at {x!r}")

    def h(self, elt):
        """Fiber coordinate of an ambient element."""
        back = self.gamma.mul(elt, self.gamma.inv(self.section(self.sigma(elt))))
        return self.fiber_of(back)

    def section_automorphism(self, alpha) -> Automorphism:
        """Conjugation by s(alpha), read inside G."""
        s_a = self.section(alpha)
        if isinstance(self.gamma, TwistedProduct):
            base, dec = s_a
            aut = self.gamma.psi(base)
            if dec == self.g.identity:
                return aut
            return compose(inner_automorphism(self.g, dec), aut)
        inv_s = self.gamma.inv(s_a)

        def func(x):
            return self.fiber_of(self.gamma.mul(s_a, self.include(x), inv_s))

        def ifunc(x):
            return self.fiber_of(self.gamma.mul(inv_s, self.include(x), s_a))

        return MapAutomorphism(self.g, func, ifunc,
                               label=f"conj-s({alpha!r})")

    def kernel(self) -> AbstractKernel:
        """The kernel this section carves out of the extension."""
        if self._kernel is None:
            P, Gm = self.pi, self.gamma

            def f(alpha, beta):
                w = Gm.mul(
                    self.section(alpha), self.section(beta),
                    Gm.inv(self.section(P.mul(alpha, beta))),
                )
                return self.fiber_of(w)

            self._kernel = AbstractKernel(
                P, self.g, self.section_automorphism, f,
                name=self.name + "-section",
            )
        return self._kernel

    def __repr__(self):
        return f"ExtensionData({self.name})"


def obstruction_K(k: AbstractKernel):
    """Evaluator for the center-valued obstruction word

        K(a,b,c) = psi(a)(f(b,c)) f(a,bc) f(ab,c)^-1 f(a,b)^-1.

    Each value is checked to commute with the fiber's test elements;
    a non-central value raises CentralityViolation with the witness.
    Extension-derived kernels give the identity everywhere.
    """
    G, P = k.g, k.pi

    def ev(a, b, c):
        val = G.mul(
            k.psi(a)(k.f(b, c)),
            k.f(a, P.mul(b, c)),
            G.inv(k.f(P.mul(a, b), c)),
            G.inv(k.f(a, b)),
        )
        for t in G.test_elements():
            if G.mul(val, t) != G.mul(t, val):
                raise CentralityViolation(val, t)
        return val

    return ev


class CentralExtensionModel(Group):
    """Pairs (t, g), t an exact rational, with the law

        (t, g)(u, h) = (t + u + c(g, h), g h)

    for the cocycle c(g, h) = phi(gh) - phi(g) - phi(h) of a
    quasimorphism phi (``cocycle.phi``, as a ``DefectCocycle`` or
    ``HomogeneousCocycle`` carries it). The scalar coordinate is an
    unbounded quasimorphism; its homogenization is phi((t,g)) = t +
    shift(g), and the canonical section s_x(g) = (-shift(g), g) is the
    unique one with phi = 0 on it. For a homogeneous phi the shift
    vanishes identically.
    """

    def __init__(self, group: Group, cocycle):
        self.group = group
        self.cocycle = cocycle
        self.identity = (Fraction(0), group.identity)
        self._shift: dict = {}

    def mul(self, *elts):
        acc = self.identity
        for other in elts:
            t, g = acc
            u, h = other
            acc = (t + u + Fraction(self.cocycle(g, h)),
                   self.group.mul(g, h))
        return acc

    def inv(self, elt):
        t, g = elt
        g_inv = self.group.inv(g)
        return (-t - Fraction(self.cocycle(g, g_inv)), g_inv)

    def project(self, elt):
        return elt[1]

    def scalar(self, elt) -> Fraction:
        """The raw (non-homogenized) scalar coordinate."""
        return elt[0]

    def include_center(self, t):
        return (Fraction(t), self.group.identity)

    def shift(self, g) -> Fraction:
        """Homogenization drift of the scalar coordinate over powers of
        g: ``drift(cocycle, g)`` = homogenize(phi, g) - phi(g), exactly,
        since t - phi(g) is a homomorphism of the pairs. Raises
        TypeError for a cocycle that carries no phi."""
        hit = self._shift.get(g)
        if hit is None:
            hit = Fraction(drift(self.cocycle, g))
            self._shift[g] = hit
        return hit

    def phi(self, elt) -> Fraction:
        """Homogenized scalar quasimorphism."""
        return elt[0] + self.shift(elt[1])

    def section(self, g):
        """s_x: the section with phi(s_x(g)) = 0."""
        return (-self.shift(g), g)

    def random_element(self, rng, size: int = 8):
        t = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
        return (t, self.group.random_element(rng, size))

    def __repr__(self):
        return f"CentralExtensionModel({self.group!r})"


def lift_automorphism(model: CentralExtensionModel,
                      aut: Automorphism) -> MapAutomorphism:
    """Extend a G-automorphism to the pairs: the image of (t, g) is the
    canonical section at aut(g) shifted centrally by phi((t, g)). Fixes
    the center pointwise and commutes with phi."""
    sh = model.shift
    inv_aut = aut.inverse()

    def func(elt):
        t, g = elt
        image = aut(g)
        return (t + sh(g) - sh(image), image)

    def ifunc(elt):
        t, g = elt
        image = inv_aut(g)
        return (t + sh(g) - sh(image), image)

    return MapAutomorphism(model, func, ifunc, label="lift")


def lift_deviation(model: CentralExtensionModel, lifted, x, y) -> Fraction:
    """Scalar of lifted(x) lifted(y) lifted(xy)^-1; the multiplicativity
    defect of a lifted automorphism, always central."""
    dev = model.mul(
        lifted(x), lifted(y), model.inv(lifted(model.mul(x, y))),
    )
    if model.project(dev) != model.group.identity:
        raise CentralityViolation(dev, (x, y))
    return model.scalar(dev)


def lifted_obstruction(model: CentralExtensionModel, k: AbstractKernel):
    """Obstruction word combined through the model: defect values are
    lifted by the canonical section and the leading one by the lifted
    automorphism. Its fiber part is the plain obstruction word and its
    homogenized scalar is the composition cochain value."""
    P = k.pi

    def ev(a, b, c):
        lift = lift_automorphism(model, k.psi(a))
        t1 = lift(model.section(k.f(b, c)))
        t2 = model.section(k.f(a, P.mul(b, c)))
        t3 = model.section(k.f(P.mul(a, b), c))
        t4 = model.section(k.f(a, b))
        return model.mul(t1, t2, model.inv(t3), model.inv(t4))

    return ev


def composition_cochain(c2, k: AbstractKernel) -> BoundedCochain:
    """Degree-3 scalar cochain on Pi measuring how the kernel's defect
    interacts with a homogeneous 2-cocycle on G:

        (a, b, c) -> c2(psi(a)(f(b,c)), f(a,bc)) - c2(f(a,b), f(ab,c)).
    """
    if not getattr(c2, "homogeneous", False):
        raise ValueError("composition cochain needs a homogeneous cocycle")
    P = k.pi

    def ev(a, b, c):
        lhs = c2(k.psi(a)(k.f(b, c)), k.f(a, P.mul(b, c)))
        rhs = c2(k.f(a, b), k.f(P.mul(a, b), c))
        return Fraction(lhs) - Fraction(rhs)

    return BoundedCochain(P, 3, ev, name=f"comp({k.name})")


def theta_chain(k: AbstractKernel,
                cutoff: int = DEFAULT_CUTOFF) -> BoundedCochain:
    """Chain-valued refinement of the composition cochain:

        (a, b, c) -> m2(psi(a)(f(b,c)), f(a,bc)) - m2(f(a,b), f(ab,c)).

    Pairing any homogeneous 2-cocycle against a value reproduces the
    composition cochain exactly (the truncation tails are power pairs).
    """
    P, G = k.pi, k.g

    def ev(a, b, c):
        first = m2_chain(G, k.psi(a)(k.f(b, c)), k.f(a, P.mul(b, c)), cutoff)
        second = m2_chain(G, k.f(a, b), k.f(P.mul(a, b), c), cutoff)
        return first - second

    return BoundedCochain(P, 3, ev,
                          action=lambda a, z: pushforward(k.psi(a), z),
                          name=f"theta({k.name})")


def lambda_chain(k: AbstractKernel, k2: AbstractKernel, h,
                 cutoff: int = DEFAULT_CUTOFF, *, adjusted: bool = False,
                 check_alphas=(), check_pairs=()) -> BoundedCochain:
    """Comparison 2-cochain between a kernel and its conjugate by h:

        (a, b) -> m2(h(a), psi(a)(h(b))) + m2(M, f(a,b)) - m2(f2(a,b), h(ab))

    with middle argument M = psi(a)(h(b)), or h(a) psi(a)(h(b)) when
    ``adjusted`` is set (the variant whose coboundary matches the theta
    difference exactly; see the verification registry).

    The adjusted pair chains follow the bracketing of
    f2(a,b) h(ab) = h(a) psi(a)(h(b)) f(a,b), so under the pairing with
    homogeneous cocycles theta_k - theta_k2 = d lambda-hat (the old
    kernel's theta minus the conjugate's). The plain variant equals
    lambda-hat - rho with

        rho(a, b) = m2(h(a) psi(a)(h(b)), f(a,b)) - m2(psi(a)(h(b)), f(a,b)),

    so it leaves the residue <c, d rho>, which is not zero in general.

    Prechecks on the samples: k2's lift must agree with the lift of
    ``k.conjugate_by(h)`` on the fiber's test elements, and k2's defect
    must match that kernel's defect up to a central element. Violations
    raise KernelRelationViolation with a witness.
    """
    G, P = k.g, k.pi
    conj = k.conjugate_by(h)
    for a in check_alphas:
        expect = conj.psi(a)
        for x in G.test_elements():
            if k2.psi(a)(x) != expect(x):
                raise KernelRelationViolation((a, x), k2.psi(a)(x), expect(x))
    for a, b in check_pairs:
        derived = conj.f(a, b)
        diff = G.mul(G.inv(derived), k2.f(a, b))
        central = all(
            G.mul(diff, t) == G.mul(t, diff) for t in G.test_elements()
        )
        if not central:
            raise KernelRelationViolation((a, b), k2.f(a, b), derived)

    def ev(a, b):
        h_a = h(a)
        ph_b = k.psi(a)(h(b))
        mid = G.mul(h_a, ph_b) if adjusted else ph_b
        return (
            m2_chain(G, h_a, ph_b, cutoff)
            + m2_chain(G, mid, k.f(a, b), cutoff)
            - m2_chain(G, k2.f(a, b), h(P.mul(a, b)), cutoff)
        )

    return BoundedCochain(P, 2, ev,
                          action=lambda a, z: pushforward(k.psi(a), z),
                          name=f"lambda({k.name})")


def t_chain(ext: ExtensionData,
            cutoff: int = DEFAULT_CUTOFF) -> BoundedCochain:
    """Degree-2 cochain on the ambient group valued in chains over the
    fiber:

        (y1, y2) -> m2(f(s y1, s y2), h(y1 y2)^-1)
                    - m2(psi(s y1)(h(y2)^-1), h(y1)^-1)

    where f and psi come from the extension's section kernel and h is
    the fiber coordinate. Restricting both arguments to the fiber
    recovers the telescoping pair chain up to inversion of arguments;
    its coboundary trivializes the pulled-back theta (both facts
    certified through the pairing).
    """
    k = ext.kernel()
    G, Gm = ext.g, ext.gamma

    def ev(y1, y2):
        a1 = ext.sigma(y1)
        a2 = ext.sigma(y2)
        first = m2_chain(
            G, k.f(a1, a2), G.inv(ext.h(Gm.mul(y1, y2))), cutoff,
        )
        second = m2_chain(
            G, k.psi(a1)(G.inv(ext.h(y2))), G.inv(ext.h(y1)), cutoff,
        )
        return first - second

    return BoundedCochain(
        Gm, 2, ev, action=lambda y, z: pushforward(k.psi(ext.sigma(y)), z),
        name=f"T({ext.name})")
