"""Identity registry behind ``qmcoh verify``.

Every entry re-derives one algebraic law on freshly sampled inputs and
reports how many samples were checked, which ones failed, and the
largest certified pairing error bound it saw.  Reports are plain dicts
of JSON-safe values and are deterministic for a fixed (fixture, suite,
seed, sampling parameters): each identity draws from its own
``random.Random(f"{seed}:{identity}")`` stream, so registry edits never
shift another identity's samples, and wall-clock timings stay out of
the payload unless explicitly requested.

A law is a generator ``law(ctx, rng)`` registered with ``_spec``. It
draws its inputs from ``rng`` and yields one check per comparison: a
tuple ``(ok, failure_text, *pairing_bounds)``, where ``_pairing``
builds the check that a pairing is exact. The ``run`` that ``_spec``
registers drains the generator and tallies the checks into an
``IdentityOutcome``: the checked count, the texts of the failed checks,
and the largest bound. A law that raises keeps the checks it yielded
and adds one failed check, ``error: <ExceptionName>: <message>``; the
other identities still run, so the report is printed and ``verify``
exits 1. Two kinds of exception say that the run as configured cannot
go, not that a law failed, and the runner passes them on, so ``verify``
exits 2: ``UsageError`` (a malformed ``QMCOH_BUDGET_MB``, or a fixture
that does not fit the identity) and ``ResourceCapExceeded`` (a cap or
the memory budget hit).

The extension-based suites (kernels, model, theta, sections, plus the
fixture-backed chains/cochains entries) need a fixture with a free
fiber and raise ``UsageError`` on a finite one; the spectral suite
always runs on the finite fixture and the seeded random complexes and
ignores the fixture argument.

The registry is honest by design: identities that are expected to fail
(the plain kernel-change comparison keeps a non-telescoping middle
term) record their failures like any other, and the report's ``passed``
flag simply says whether the failure list is empty.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from . import words
from .chains import (
    MAX_CUTOFF,
    Chain,
    HomogeneousChain,
    boundary,
    contracting_homotopy,
    homogeneous_boundary,
    m2_chain,
    m_chain,
    pushforward,
)
from .cochains import coboundary, cup, pair, table_cochain
from .errors import CentralityViolation, ResourceCapExceeded, UsageError
from .extensions import (
    DEFAULT_CUTOFF,
    CentralExtensionModel,
    cocycle_sides,
    composition_cochain,
    lambda_chain,
    lift_automorphism,
    lift_deviation,
    lifted_obstruction,
    obstruction_K,
    t_chain,
    theta_chain,
)
from .fixtures import (
    FIXTURES,
    corrupted_kernel,
    pi_elements,
    swap_invariant_cocycle,
    z4_extension,
)
from .groups import FreeGroup
from .quasimorphism import (
    BrooksQuasimorphism,
    DefectCocycle,
    Homogenization,
    HomogeneousCocycle,
    PulledBackCocycle,
    homogeneous_representative,
)
from .spectral import (
    PersistencePairing,
    SpectralSequence,
    e_infinity_check,
    hs_double_complex,
    hs_row_filtration,
    random_filtered_complex,
    sequence_report,
)

DEFAULT_SAMPLES = 6

SUITE_ORDER = (
    "qm", "chains", "cochains", "kernels", "model", "theta", "sections",
    "spectral",
)


class VerifyContext:
    """Shared fixture state for a verification run, built lazily."""

    def __init__(self, fixture: str = "f2-semidirect-z", seed: int = 0,
                 samples: int = DEFAULT_SAMPLES, cutoff: int = DEFAULT_CUTOFF):
        if fixture not in FIXTURES:
            raise ValueError(
                f"unknown fixture {fixture!r}; pick from {sorted(FIXTURES)}"
            )
        if samples < 1:
            raise ValueError("samples must be >= 1")
        if not 1 <= cutoff <= MAX_CUTOFF:
            raise ValueError(f"cutoff must be in 1..{MAX_CUTOFF}")
        self.fixture = fixture
        self.seed = seed
        self.samples = samples
        self.cutoff = cutoff
        self._ext = None
        self._cocycle = None
        self._model = None
        self._hs = None

    def rng(self, identity: str) -> random.Random:
        return random.Random(f"{self.seed}:{identity}")

    @property
    def ext(self):
        if self._ext is None:
            self._ext = FIXTURES[self.fixture]()
        return self._ext

    @property
    def kernel(self):
        return self.ext.kernel()

    @property
    def cocycle(self):
        if self._cocycle is None:
            if self.fixture.startswith("split-swap"):
                # the swap action needs a cocycle it fixes pointwise
                self._cocycle = swap_invariant_cocycle(self.ext.g)
            elif isinstance(self.ext.g, FreeGroup):
                self._cocycle = HomogeneousCocycle(
                    self.ext.g, BrooksQuasimorphism(words.parse("ab"))
                )
            else:
                raise UsageError(
                    f"fixture {self.fixture!r} has a finite fiber; the"
                    " extension identities need a free one"
                )
        return self._cocycle

    @property
    def phi(self):
        """The homogeneous quasimorphism underlying ``cocycle``."""
        return self.cocycle.phi

    @property
    def model(self):
        if self._model is None:
            self._model = CentralExtensionModel(self.cocycle)
        return self._model

    def pi_pool(self, bound: int = 4):
        return pi_elements(self.ext.pi, bound=bound)

    def conjugating_map(self) -> Callable:
        """A base-to-fiber map vanishing at 1, for kernel comparison."""
        pi = self.ext.pi
        if isinstance(pi, FreeGroup):
            return lambda alpha: words.power(
                (2,), words.exponent_sum(alpha, 1)
            )
        e = pi.identity
        return lambda alpha: () if alpha == e else (2,)

    def hs(self):
        if self._hs is None:
            self._hs = hs_double_complex(z4_extension())
        return self._hs


class IdentityOutcome(NamedTuple):
    checked: int
    failures: tuple
    max_error_bound: Fraction


class IdentitySpec(NamedTuple):
    id: str
    suite: str
    law: str
    run: Callable


REGISTRY: list[IdentitySpec] = []


def _spec(ident: str, suite: str, law: str):
    """Register a generator of checks as identity ``ident``; its
    ``run`` drains the generator and tallies what it yields."""
    if suite not in SUITE_ORDER:
        raise ValueError(f"unknown suite {suite!r}")

    def wrap(checks):
        def run(ctx, rng) -> IdentityOutcome:
            checked, failures, bound = 0, [], Fraction(0)
            try:
                for ok, text, *bounds in checks(ctx, rng):
                    checked += 1
                    if not ok:
                        failures.append(text)
                    if bounds:
                        bound = max(bound, *bounds)
            except (UsageError, ResourceCapExceeded):
                raise
            except Exception as ex:
                checked += 1
                failures.append(f"error: {type(ex).__name__}: {ex}")
            return IdentityOutcome(checked, tuple(failures), bound)

        REGISTRY.append(IdentitySpec(ident, suite, law, run))
        return checks

    return wrap


def _pairing(got, desc: str, want=0):
    """The check that a pairing is exactly ``want``, with its bound."""
    return (
        got.value == want and got.error_bound == 0,
        f"{desc}: value {got.value}, bound {got.error_bound},"
        f" wanted {want}",
        got.error_bound,
    )


# ------------------------------------------------------------------- qm


@_spec("homogenize-conjugation", "qm",
       "phi(h g h^-1) = phi(g) and phi(g^n) = n phi(g)")
def _homogenize_conjugation(ctx, rng):
    F2 = FreeGroup(2)
    phi = Homogenization(BrooksQuasimorphism(words.parse("ab")))
    for _ in range(ctx.samples):
        g = F2.random_element(rng, 6)
        h = F2.random_element(rng, 4)
        n = rng.choice((-3, -2, 2, 3))
        base = phi(g)
        yield (
            phi(F2.conj(h, g)) == base,
            f"conjugation moved the value at g={words.fmt(g)},"
            f" h={words.fmt(h)}",
        )
        yield (
            phi(words.power(g, n)) == n * base,
            f"phi(g^{n}) != {n} phi(g) at g={words.fmt(g)}",
        )


@_spec("homogeneous-representative", "qm",
       "c + d(psi) is the homogeneous cocycle in the class of c")
def _homogeneous_representative(ctx, rng):
    F2 = FreeGroup(2)
    phi = BrooksQuasimorphism(words.parse("ab"))
    triples = [
        tuple(F2.random_element(rng, 3) for _ in range(3))
        for _ in range(3)
    ]
    rep = homogeneous_representative(DefectCocycle(F2, phi),
                                     sample_triples=triples)
    direct = HomogeneousCocycle(F2, phi)
    for _ in range(ctx.samples):
        g = F2.random_element(rng, 5)
        h = F2.random_element(rng, 5)
        yield (
            rep(g, h) == direct(g, h),
            f"representative disagrees at ({words.fmt(g)}, {words.fmt(h)})",
        )


# --------------------------------------------------------------- chains


@_spec("power-pair-vanishing", "chains",
       "<c, m(g, N)> = 0 exactly for homogeneous c")
def _power_pair_vanishing(ctx, rng):
    F2 = FreeGroup(2)
    c = HomogeneousCocycle(F2, BrooksQuasimorphism(words.parse("ab")))
    for _ in range(ctx.samples):
        g = F2.random_element(rng, 6)
        yield _pairing(
            pair(c, m_chain(F2, g, ctx.cutoff)),
            f"m({words.fmt(g)}, {ctx.cutoff})",
        )


@_spec("duality-defect-bound", "chains",
       "<d phi, m2(g,h,N)> - c(g,h) ="
       " 2^-N (b(g^P) - b((gh)^P) + b(h^P)), P = 2^N, b = phi-bar - phi")
def _duality_defect_bound(ctx, rng):
    F2 = FreeGroup(2)
    phi = BrooksQuasimorphism(words.parse("ab"))
    # |d phi| <= 3 D(phi) and D <= 2 for a two-letter counting word; 6
    # is a safe certified sup bound for the tail estimate
    c_d = DefectCocycle(F2, phi, norm_bound=Fraction(6))
    c_x = HomogeneousCocycle(F2, phi)
    N = ctx.cutoff
    P = 2 ** N

    def b(g):
        # phi-bar(x) - phi(x) at x = g^P, both read off one full scan of
        # x's core (up to 2^19 letters) and short scans of its junctions
        # (``line`` with k0 = 1, as |core| >= P >= 2 > |ab| - 1); every
        # letter of x is scanned, and x's split is read off g's, so the
        # string of x is never assembled, split or reduced
        _k0, f0, slope, *_ = phi.line(*words.power_chars(g, P))
        return Fraction(slope) - Fraction(f0)

    for _ in range(ctx.samples):
        g = F2.random_element(rng, 4)
        h = F2.random_element(rng, 4)
        gh = F2.mul(g, h)
        got = pair(c_d, m2_chain(F2, g, h, N))
        corr = Fraction(1, P) * (
            b(g) - b(gh) + b(h)
        )
        want = Fraction(c_x(g, h)) + corr
        yield (
            got.value == want,
            f"residual formula off at ({words.fmt(g)}, {words.fmt(h)}):"
            f" {got.value} != {want}",
            got.error_bound,
        )
        yield (
            abs(corr) <= got.error_bound,
            f"certified bound {got.error_bound} below residual"
            f" {abs(corr)} at ({words.fmt(g)}, {words.fmt(h)})",
        )


@_spec("invariant-pairing", "chains",
       "<c, u_* m2(u^-1 g, u^-1 h, N) - m2(g, h, N)> = 0")
def _invariant_pairing(ctx, rng):
    G = ctx.ext.g
    ker = ctx.kernel
    e = ctx.ext.pi.identity
    pool = [a for a in ctx.pi_pool(3) if a != e]
    for _ in range(ctx.samples):
        aut = ker.psi(rng.choice(pool))
        back = aut.inverse()
        g = G.random_element(rng, 5)
        h = G.random_element(rng, 5)
        moved = pushforward(aut, m2_chain(G, back(g), back(h), ctx.cutoff))
        yield _pairing(
            pair(ctx.cocycle, moved - m2_chain(G, g, h, ctx.cutoff)),
            f"orbit move at ({words.fmt(g)}, {words.fmt(h)})",
        )


@_spec("bar-homotopy", "chains",
       "s d + d s = id on positive-degree homogeneous chains")
def _bar_homotopy(ctx, rng):
    F2 = FreeGroup(2)
    for _ in range(ctx.samples):
        degree = rng.choice((1, 2, 3))
        items = [
            (
                tuple(F2.random_element(rng, 2) for _ in range(degree + 1)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            )
            for _ in range(3)
        ]
        z = HomogeneousChain(F2, degree, items)
        lhs = contracting_homotopy(homogeneous_boundary(z)) \
            + homogeneous_boundary(contracting_homotopy(z))
        yield lhs == z, f"homotopy identity failed in degree {degree}"


# -------------------------------------------------------------- cochains


@_spec("cup-leibniz", "cochains",
       "d(f u h) = df u h + (-1)^|f| f u dh")
def _cup_leibniz(ctx, rng):
    F2 = FreeGroup(2)

    def rand_cochain(degree):
        table = {
            tuple(
                F2.random_element(rng, rng.randint(1, 3))
                for _ in range(degree)
            ): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(5)
        }
        return table_cochain(F2, degree, table)

    for fdeg, hdeg in ((1, 1), (1, 2), (2, 1)):
        f = rand_cochain(fdeg)
        h = rand_cochain(hdeg)
        lhs = coboundary(cup(f, h))
        sign = -1 if fdeg % 2 else 1
        rhs_a = cup(coboundary(f), h)
        rhs_b = cup(f, coboundary(h))
        for _ in range(ctx.samples):
            tup = tuple(
                F2.random_element(rng, 2) for _ in range(fdeg + hdeg + 1)
            )
            yield (
                lhs(*tup) == rhs_a(*tup) + sign * rhs_b(*tup),
                f"product rule off for degrees ({fdeg}, {hdeg})",
            )


@_spec("duality-normalization", "cochains", "<c, [g|h]> = c(g, h)")
def _duality_normalization(ctx, rng):
    G = ctx.ext.g
    c = ctx.cocycle
    for _ in range(ctx.samples):
        g = G.random_element(rng, 5)
        h = G.random_element(rng, 5)
        z = Chain(G, 2, [((g, h), Fraction(1))])
        yield _pairing(
            pair(c, z),
            f"[{words.fmt(g)}|{words.fmt(h)}]",
            want=Fraction(c(g, h)),
        )


@_spec("duality-adjointness", "cochains", "<d b, z> = <b, d z>")
def _duality_adjointness(ctx, rng):
    F2 = FreeGroup(2)
    for _ in range(ctx.samples):
        table = {
            (F2.random_element(rng, rng.randint(1, 2)),):
            Fraction(rng.randint(-3, 3), 2)
            for _ in range(4)
        }
        b = table_cochain(F2, 1, table)
        items = [
            (
                tuple(F2.random_element(rng, 2) for _ in range(2)),
                Fraction(rng.randint(-3, 3), 2),
            )
            for _ in range(5)
        ]
        z = Chain(F2, 2, items)
        lhs = pair(coboundary(b), z)
        rhs = pair(b, boundary(z))
        yield (
            lhs.value == rhs.value
            and lhs.error_bound == rhs.error_bound == 0,
            f"adjointness off: {lhs.value} vs {rhs.value}",
            lhs.error_bound, rhs.error_bound,
        )


# --------------------------------------------------------------- kernels


@_spec("kernel-cocycle-law", "kernels",
       "psi_a(f(b,c)) f(a, bc) = f(a, b) f(ab, c)")
def _kernel_cocycle_law(ctx, rng):
    pool = ctx.pi_pool(4)
    triples = [
        tuple(rng.choice(pool) for _ in range(3))
        for _ in range(ctx.samples)
    ]
    ker = ctx.kernel
    for a, b, c in triples:
        lhs, rhs = cocycle_sides(ker, a, b, c)
        yield (
            lhs == rhs,
            f"product rule fails at ({a}, {b}, {c}): {lhs} != {rhs}",
        )
    bad = corrupted_kernel()
    gen = bad.pi.generators[0]
    lhs, rhs = cocycle_sides(bad, gen, gen, gen)
    yield lhs != rhs, "corrupted kernel slipped through the product rule"


@_spec("obstruction-triviality", "kernels",
       "K(a,b,c) = 1 on section kernels; non-central values refuse")
def _obstruction_triviality(ctx, rng):
    K = obstruction_K(ctx.kernel)
    G = ctx.ext.g
    pool = ctx.pi_pool(4)
    for _ in range(ctx.samples):
        a, b, c = (rng.choice(pool) for _ in range(3))
        yield (
            K(a, b, c) == G.identity,
            f"obstruction nontrivial at ({a}, {b}, {c})",
        )
    bad = corrupted_kernel()
    gen = bad.pi.generators[0]
    try:
        val = obstruction_K(bad)(gen, gen, gen)
    except CentralityViolation:
        yield True, "corrupted obstruction refused, as it should"
    else:
        yield (
            val != bad.g.identity,
            "corrupted obstruction evaluated to the identity",
        )


# ----------------------------------------------------------------- model


@_spec("lift-deviation", "model",
       "dev(lift u)(x, y) = (u* c - c)(proj x, proj y)")
def _lift_deviation(ctx, rng):
    model = ctx.model
    c = ctx.cocycle
    e = ctx.ext.pi.identity
    pool = [a for a in ctx.pi_pool(2) if a != e]
    for _ in range(ctx.samples):
        aut = ctx.kernel.psi(rng.choice(pool))
        lifted = lift_automorphism(model, aut)
        pulled = PulledBackCocycle(aut, c)
        x = model.random_element(rng, 5)
        y = model.random_element(rng, 5)
        dev = lift_deviation(model, lifted, x, y)
        g, h = model.project(x), model.project(y)
        yield (
            dev == Fraction(pulled(g, h)) - Fraction(c(g, h)),
            f"deviation differs from the pulled-back difference at"
            f" ({words.fmt(g)}, {words.fmt(h)})",
        )


@_spec("obstruction-center-split", "model",
       "lifted K = i_Z(comp) with fiber part K = 1")
def _obstruction_center_split(ctx, rng):
    model, ker = ctx.model, ctx.kernel
    K = obstruction_K(ker)
    K_bar = lifted_obstruction(model, ker)
    comp = composition_cochain(ctx.cocycle, ker)
    pool = ctx.pi_pool(3)
    for _ in range(ctx.samples):
        a, b, c = (rng.choice(pool) for _ in range(3))
        val = K_bar(a, b, c)
        want = comp(a, b, c)
        ok = (
            model.project(val) == K(a, b, c) == ker.g.identity
            and model.phi(val) == want
            and val == model.include_center(want)
        )
        yield ok, f"lifted obstruction fails to split at ({a}, {b}, {c})"


@_spec("section-power-conj", "model",
       "s(g)^n = s(g^n), s(h) s(g) s(h)^-1 = s(h g h^-1), phi(s(g)) = 0")
def _section_power_conj(ctx, rng):
    model = ctx.model
    G = ctx.ext.g
    for _ in range(ctx.samples):
        g = G.random_element(rng, 5)
        h = G.random_element(rng, 4)
        n = rng.choice((-3, -2, 2, 3))
        sg = model.section(g)
        ok = (
            model.shift(g) == 0
            and model.phi(sg) == 0
            and model.power(sg, n) == model.section(G.power(g, n))
            and model.conj(model.section(h), sg)
            == model.section(G.conj(h, g))
        )
        yield ok, f"canonical section broke a law at g={words.fmt(g)}"


# ----------------------------------------------------------------- theta


@_spec("composition-cochain-eval", "theta",
       "comp(a,b,c) = -phi(psi_a f(b,c)) - phi(f(a,bc))"
       " + phi(f(a,b)) + phi(f(ab,c))")
def _composition_cochain_eval(ctx, rng):
    ker = ctx.kernel
    P = ker.pi
    phi = ctx.phi
    comp = composition_cochain(ctx.cocycle, ker)
    pool = ctx.pi_pool(4)
    for _ in range(ctx.samples):
        a, b, c = (rng.choice(pool) for _ in range(3))
        want = (
            -Fraction(phi(ker.psi(a)(ker.f(b, c))))
            - Fraction(phi(ker.f(a, P.mul(b, c))))
            + Fraction(phi(ker.f(a, b)))
            + Fraction(phi(ker.f(P.mul(a, b), c)))
        )
        yield comp(a, b, c) == want, f"closed form off at ({a}, {b}, {c})"


@_spec("composition-coboundary", "theta",
       "(d comp)(a,b,c,z) = comp(b,c,z) - comp_pulled_by_a(b,c,z)")
def _composition_coboundary(ctx, rng):
    ker = ctx.kernel
    direct = composition_cochain(ctx.cocycle, ker)
    d_comp = coboundary(direct)
    pool = ctx.pi_pool(4)
    for _ in range(ctx.samples):
        a, b, c, z = (rng.choice(pool) for _ in range(4))
        pulled = composition_cochain(
            PulledBackCocycle(ker.psi(a), ctx.cocycle), ker,
        )
        yield (
            d_comp(a, b, c, z) == direct(b, c, z) - pulled(b, c, z),
            f"coboundary does not swap in the pulled-back cocycle at"
            f" ({a}, {b}, {c}, {z})",
        )


@_spec("theta-pairing", "theta", "<c, theta(a,b,c)> = comp(a,b,c) exactly")
def _theta_pairing(ctx, rng):
    ker = ctx.kernel
    comp = composition_cochain(ctx.cocycle, ker)
    theta = theta_chain(ker, ctx.cutoff)
    pool = ctx.pi_pool(4)
    for _ in range(ctx.samples):
        a, b, c = (rng.choice(pool) for _ in range(3))
        yield _pairing(
            pair(ctx.cocycle, theta(a, b, c)),
            f"theta at ({a}, {b}, {c})",
            want=comp(a, b, c),
        )


@_spec("outer-cocycle-pairing", "theta", "<c, (d theta)(a,b,c,z)> = 0")
def _outer_cocycle_pairing(ctx, rng):
    d_theta = coboundary(theta_chain(ctx.kernel, ctx.cutoff))
    pool = ctx.pi_pool(4)
    for _ in range(ctx.samples):
        tup = tuple(rng.choice(pool) for _ in range(4))
        yield _pairing(pair(ctx.cocycle, d_theta(*tup)), f"d theta at {tup}")


def _lambda_setup(ctx, adjusted: bool):
    ker = ctx.kernel
    h = ctx.conjugating_map()
    k2 = ker.conjugate_by(h)
    pool = ctx.pi_pool(3)
    e = ctx.ext.pi.identity
    pairs = [(a, a) for a in pool if a != e][:1]
    lam = lambda_chain(
        ker, k2, h, ctx.cutoff, adjusted=adjusted,
        check_alphas=pool, check_pairs=pairs,
    )
    return ker, k2, pool, lam


@_spec("kernel-change", "theta",
       "<c, theta' - theta - d lambda> = 0 with the plain middle term")
def _kernel_change_plain(ctx, rng):
    # the unadjusted middle term does not telescope in general; failures
    # here are recorded honestly rather than patched over
    ker, k2, pool, lam = _lambda_setup(ctx, adjusted=False)
    d_lam = coboundary(lam)
    theta = theta_chain(ker, ctx.cutoff)
    theta2 = theta_chain(k2, ctx.cutoff)
    for _ in range(ctx.samples):
        a, b, c = (rng.choice(pool) for _ in range(3))
        z = theta2(a, b, c) - theta(a, b, c) - d_lam(a, b, c)
        yield _pairing(
            pair(ctx.cocycle, z), f"plain comparison at ({a}, {b}, {c})",
        )


@_spec("kernel-change-exact", "theta",
       "<c, theta - theta' - d lambda-hat> = 0 with the adjusted term")
def _kernel_change_exact(ctx, rng):
    ker, k2, pool, lam = _lambda_setup(ctx, adjusted=True)
    d_lam = coboundary(lam)
    theta = theta_chain(ker, ctx.cutoff)
    theta2 = theta_chain(k2, ctx.cutoff)
    for _ in range(ctx.samples):
        a, b, c = (rng.choice(pool) for _ in range(3))
        z = theta(a, b, c) - theta2(a, b, c) - d_lam(a, b, c)
        yield _pairing(
            pair(ctx.cocycle, z), f"adjusted comparison at ({a}, {b}, {c})",
        )


# -------------------------------------------------------------- sections


@_spec("section-trivialization", "sections",
       "<c, T(y1,y2)> = -phi(f(a1,a2)) + phi(h(y1 y2))"
       " - phi(psi_a1 h(y2)) - phi(h(y1))")
def _section_trivialization(ctx, rng):
    ext, ker = ctx.ext, ctx.kernel
    phi = ctx.phi
    T = t_chain(ext, ctx.cutoff)
    Gm = ext.gamma
    for _ in range(ctx.samples):
        y1 = Gm.random_element(rng, 4)
        y2 = Gm.random_element(rng, 4)
        a1, a2 = ext.sigma(y1), ext.sigma(y2)
        want = (
            -Fraction(phi(ker.f(a1, a2)))
            + Fraction(phi(ext.h(Gm.mul(y1, y2))))
            - Fraction(phi(ker.psi(a1)(ext.h(y2))))
            - Fraction(phi(ext.h(y1)))
        )
        yield _pairing(
            pair(ctx.cocycle, T(y1, y2)),
            f"closed form at ({y1}, {y2})",
            want=want,
        )


@_spec("section-coboundary", "sections",
       "<c, theta(sigma y1, sigma y2, sigma y3) - (d T)(y1,y2,y3)> = 0")
def _section_coboundary(ctx, rng):
    ext = ctx.ext
    theta = theta_chain(ext.kernel(), ctx.cutoff)
    dT = coboundary(t_chain(ext, ctx.cutoff))
    for _ in range(ctx.samples):
        gs = tuple(ext.gamma.random_element(rng, 4) for _ in range(3))
        sigma_theta = theta(*[ext.sigma(y) for y in gs])
        z = sigma_theta - dT(*gs)
        yield _pairing(pair(ctx.cocycle, z), f"trivialization at {gs}")


@_spec("section-restriction", "sections",
       "<c, T(i g1, i g2) - m2(g1, g2, N)> = 0 and <c, T(y, 1)> = 0")
def _section_restriction(ctx, rng):
    ext = ctx.ext
    G = ext.g
    T = t_chain(ext, ctx.cutoff)
    for _ in range(ctx.samples):
        g1 = G.random_element(rng, 5)
        g2 = G.random_element(rng, 5)
        z = T(ext.include(g1), ext.include(g2)) \
            - m2_chain(G, g1, g2, ctx.cutoff)
        yield _pairing(
            pair(ctx.cocycle, z),
            f"fiber restriction at ({words.fmt(g1)}, {words.fmt(g2)})",
        )
    y = ext.gamma.random_element(rng, 5)
    yield _pairing(
        pair(ctx.cocycle, T(y, ext.gamma.identity)),
        "degenerate second argument",
    )


# -------------------------------------------------------------- spectral


@_spec("page-consistency", "spectral",
       "dim E_{r+1} = dim E_r - rank d_r(out) - rank d_r(in),"
       " d_r d_r = 0")
def _page_consistency(ctx, rng):
    cx, filt, _ = ctx.hs()
    engine = SpectralSequence(cx, filt)
    cells = [(p, n - p) for n in range(4) for p in range(n + 1)]
    for r in range(1, 5):
        for p, q in cells:
            yield (
                engine.consistency_ok(r, p, q),
                f"rank bookkeeping off at r={r}, (p,q)=({p},{q})",
            )
    for r in range(1, 4):
        for p, q in cells:
            if p + q <= 2:
                yield (
                    engine.d_squared_ok(r, p, q),
                    f"d_{r} twice is nonzero from ({p},{q})",
                )


@_spec("e-infinity", "spectral",
       "sum_p dim E_inf^(p, n-p) = dim H^n; random complexes converge")
def _e_infinity(ctx, rng):
    cx, filt, _ = ctx.hs()
    engine = PersistencePairing(cx, filt)
    for n in range(4):
        rep = e_infinity_check(engine, n)
        yield (
            rep["ok"] and rep["homology"] == 1,
            f"abutment off in degree {n}: total {rep['total']},"
            f" homology {rep['homology']}",
        )
    for _ in range(5):
        seed = rng.randrange(1_000_000)
        rcx, rfilt, _hom = random_filtered_complex(seed)
        report = sequence_report(rcx, rfilt)
        ok = (
            report["converged"]
            and all(row["ok"] for row in report["consistency"])
            and all(row["ok"] for row in report["e_infinity"])
        )
        yield ok, f"random complex seed {seed} did not converge cleanly"


@_spec("hs-degeneration", "spectral",
       "fiber-degree first page vanishes for q >= 1;"
       " bottom row carries the invariants")
def _hs_degeneration(ctx, rng):
    cx, _filt, info = ctx.hs()
    engine = PersistencePairing(cx, hs_row_filtration(cx, info))
    for n in range(4):
        for level in range(n + 1):
            q = n - level
            if q >= 1:
                yield (
                    engine.dim(1, level, q) == 0,
                    f"first page nonzero at ({level},{q})",
                )
    for level in range(4):
        yield (
            engine.dim(1, level, 0) == 4 ** level,
            f"invariant count off at level {level}",
        )
        yield engine.dim(2, level, 0) == 1, f"second page off at level {level}"


# ---------------------------------------------------------------- runner


def suite_names() -> tuple:
    return SUITE_ORDER + ("all",)


def registry_rows():
    """(id, suite, law) for every identity, sorted by id."""
    return [(s.id, s.suite, s.law) for s in sorted(REGISTRY)]


def run_suite(suite: str = "all", fixture: str = "f2-semidirect-z",
              seed: int = 0, samples: int = DEFAULT_SAMPLES,
              cutoff: int = DEFAULT_CUTOFF, timings: bool = False) -> dict:
    """Run one suite (or all of them) and return the report dict."""
    if suite not in suite_names():
        raise ValueError(
            f"unknown suite {suite!r}; pick from {list(suite_names())}"
        )
    ctx = VerifyContext(fixture=fixture, seed=seed, samples=samples,
                        cutoff=cutoff)
    chosen = sorted(
        (s for s in REGISTRY if suite in ("all", s.suite)),
        key=lambda s: s.id,
    )
    identities = []
    for spec in chosen:
        start = time.perf_counter()
        out = spec.run(ctx, ctx.rng(spec.id))
        entry = {
            "id": spec.id,
            "suite": spec.suite,
            "law": spec.law,
            "checked": out.checked,
            "failures": list(out.failures),
            "max_error_bound": str(out.max_error_bound),
        }
        if timings:
            entry["wall_time"] = round(time.perf_counter() - start, 3)
        identities.append(entry)
    total = sum(len(e["failures"]) for e in identities)
    return {
        "suite": suite,
        "fixture": fixture,
        "seed": seed,
        "samples": samples,
        "cutoff": cutoff,
        # fixed values that configure nothing (psi is exact, see
        # ``quasimorphism.drift``); the benchmark's check and the seed-0
        # refs pin them, and they leave when ROADMAP item 2 regenerates
        # the refs
        "window": 4,
        "n_max": 64,
        "identities": identities,
        "failures_total": total,
        "passed": total == 0,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
