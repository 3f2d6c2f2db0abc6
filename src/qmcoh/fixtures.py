"""Canonical extension fixtures used by the test-suite and the verify
CLI.

Three extensions ship in-repo:

* ``f2-semidirect-z`` -- F2 twisted by the automorphism u: a -> aba',
  b -> a over an infinite cyclic base. u satisfies u^2 = i_ab and
  u(ab) = ab (checked at construction), so powers of u stay short. The
  default section is decorated, s(n) = (n, a^(n mod 3)), which makes the
  section defect nontrivial.
* ``z4-hs`` -- the honest Cayley-table extension Z/2 -> Z/4 -> Z/2,
  exercising the non-twisted-product code paths.
* ``split-swap`` -- F2 x| Z/2 by the generator swap; the decorated
  variant uses s = (., a) on the nontrivial base element.

``corrupted_kernel`` deliberately breaks the product rule at one pair so
negative paths have a deterministic witness.
"""

from __future__ import annotations

from . import words
from .extensions import AbstractKernel, ExtensionData
from .groups import (
    FiniteGroup,
    FreeAutomorphism,
    FreeGroup,
    TwistedProduct,
    inner_automorphism,
)
from .quasimorphism import (
    BrooksQuasimorphism,
    HomogeneousCocycle,
    SumQuasimorphism,
)

_AB = (1, 2)


def twist_automorphism(G: FreeGroup) -> FreeAutomorphism:
    """u: a -> aba', b -> a, with u^2 = i_ab and u(ab) = ab."""
    u = FreeAutomorphism(
        G,
        (words.parse("aba'"), words.parse("a")),
        (words.parse("b"), words.parse("b'ab")),
    )
    u2 = u.compose(u)
    i_ab = inner_automorphism(G, _AB)
    if any(u2(g) != i_ab(g) for g in G.generators) or u(_AB) != _AB:
        raise RuntimeError("twist automorphism broke its defining relations")
    return u


def semidirect_f2_z(decorated: bool = True) -> ExtensionData:
    """F2 x|_u Z with the decorated section s(n) = (n, a^(n mod 3))."""
    P = FreeGroup(1)
    G = FreeGroup(2)
    u = twist_automorphism(G)
    u_inv = u.inverse()
    pows = {0: inner_automorphism(G, G.identity)}

    def u_pow(n: int) -> FreeAutomorphism:
        aut = pows.get(n)
        if aut is None:
            if n > 0:
                aut = u.compose(u_pow(n - 1))
            else:
                aut = u_inv.compose(u_pow(n + 1))
            pows[n] = aut
        return aut

    def psi(alpha):
        return u_pow(words.exponent_sum(alpha, 1))

    gen = P.generators[0]
    triples = [(gen, gen, gen), (gen, words.inv(gen), (1, 1))]
    gamma = TwistedProduct(P, G, psi, lambda a, b: (),
                           precheck_triples=triples)

    if decorated:
        def section(alpha):
            return (alpha, words.power((1,), words.exponent_sum(alpha, 1) % 3))
        name = "f2-semidirect-z"
    else:
        def section(alpha):
            return (alpha, ())
        name = "f2-semidirect-z-plain"

    samples = tuple(words.power(gen, n) for n in range(-6, 7))
    return ExtensionData(
        gamma, P, G,
        sigma=gamma.project_base,
        include=gamma.include_fiber,
        fiber_of=gamma.fiber_part,
        section=section,
        check_samples=samples,
        name=name,
    )


def z4_extension() -> ExtensionData:
    """Z/2 -> Z/4 -> Z/2 with the section picking an order-4 element."""
    gamma = FiniteGroup.cyclic(4, name="z4")
    pi = FiniteGroup.cyclic(2, name="z2")
    g = FiniteGroup.cyclic(2, name="z2-fiber")

    include_map = {1: 1, 2: 3}
    back_map = {1: 1, 3: 2}
    sigma_map = {1: 1, 3: 1, 2: 2, 4: 2}

    def fiber_of(x):
        got = back_map.get(x)
        if got is None:
            raise ValueError(f"{x!r} is not in the fiber")
        return got

    return ExtensionData(
        gamma, pi, g,
        sigma=sigma_map.__getitem__,
        include=include_map.__getitem__,
        fiber_of=fiber_of,
        section={1: 1, 2: 2}.__getitem__,
        check_samples=(1, 2),
        name="z4-hs",
    )


def split_swap(decorated: bool = False) -> ExtensionData:
    """F2 x| Z/2 by the generator swap; f == 1 for the plain section."""
    P = FiniteGroup.cyclic(2, name="z2")
    G = FreeGroup(2)
    swap = FreeAutomorphism(G, ((2,), (1,)), ((2,), (1,)))
    auts = {1: inner_automorphism(G, G.identity), 2: swap}

    gamma = TwistedProduct(P, G, auts.__getitem__, lambda a, b: (),
                           precheck_triples=[(2, 2, 2), (1, 2, 2)])

    if decorated:
        sections = {1: gamma.identity, 2: (2, (1,))}
        name = "split-swap-dec"
    else:
        sections = {1: gamma.identity, 2: (2, ())}
        name = "split-swap"

    return ExtensionData(
        gamma, P, G,
        sigma=gamma.project_base,
        include=gamma.include_fiber,
        fiber_of=gamma.fiber_part,
        section=sections.__getitem__,
        check_samples=(1, 2),
        name=name,
    )


def corrupted_kernel() -> AbstractKernel:
    """The decorated semidirect kernel with f poisoned at (gen, gen);
    the mismatch is non-central, so the product rule fails with a
    witness and the obstruction word trips the centrality check."""
    k = semidirect_f2_z().kernel()
    gen = k.pi.generators[0]

    def bad_f(alpha, beta):
        val = k.f(alpha, beta)
        if alpha == gen and beta == gen:
            return k.g.mul(val, (1,))
        return val

    return AbstractKernel(k.pi, k.g, k.psi, bad_f, name="corrupted")


FIXTURES = {
    "f2-semidirect-z": semidirect_f2_z,
    "f2-semidirect-z-plain": lambda: semidirect_f2_z(decorated=False),
    "z4-hs": z4_extension,
    "split-swap": split_swap,
    "split-swap-dec": lambda: split_swap(decorated=True),
}


def pi_elements(pi, bound: int = 6):
    """Sampling universe for a base group: all elements when finite,
    generator powers |n| <= bound when free."""
    if isinstance(pi, FreeGroup):
        gen = pi.generators[0]
        return tuple(words.power(gen, n) for n in range(-bound, bound + 1))
    return tuple(pi.elements())


def swap_invariant_cocycle(group: FreeGroup) -> HomogeneousCocycle:
    """Homogeneous cocycle over ``group`` of brooks(ab) + brooks(ba);
    the sum is fixed pointwise by the generator swap, hence by the
    split-swap action."""
    phi = SumQuasimorphism(
        [BrooksQuasimorphism(words.parse("ab")),
         BrooksQuasimorphism(words.parse("ba"))],
        name="sym",
    )
    return HomogeneousCocycle(group, phi)
