"""Kernels, extensions, the central-extension model, and the derived
chain-valued cochains, exercised on the shipped fixtures."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from qmcoh import words
from qmcoh.chains import m2_chain, pushforward
from qmcoh.cochains import BoundedCochain, coboundary, pair
from qmcoh.errors import CentralityViolation, KernelRelationViolation
from qmcoh.extensions import (
    DEFAULT_CUTOFF,
    AbstractKernel,
    CentralExtensionModel,
    check_nonabelian_cocycle,
    composition_cochain,
    lambda_chain,
    lift_automorphism,
    lift_deviation,
    lifted_obstruction,
    obstruction_K,
    t_chain,
    theta_chain,
)
from qmcoh.fixtures import (
    FIXTURES,
    corrupted_kernel,
    pi_elements,
    semidirect_f2_z,
    split_swap,
    swap_invariant_cocycle,
    z4_extension,
)
from qmcoh.groups import TwistedProduct, inner_automorphism
from qmcoh.quasimorphism import (
    BrooksQuasimorphism,
    DefectCocycle,
    HomogeneousCocycle,
    PulledBackCocycle,
    homogenize,
)

EXT = semidirect_f2_z()
KER = EXT.kernel()
F2 = KER.g
GEN = (1,)

CX = HomogeneousCocycle(F2, BrooksQuasimorphism(words.parse("ab")))
MODEL = CentralExtensionModel(CX)


def random_triples(ext, rng, count):
    pool = pi_elements(ext.pi)
    return [tuple(rng.choice(pool) for _ in range(3)) for _ in range(count)]


# ---------------------------------------------------------------- kernels


def test_section_defect_oracles():
    assert KER.f(GEN, GEN) == words.parse("aaba'a'a'")
    assert z4_extension().kernel().f(2, 2) == 2
    assert split_swap(decorated=True).kernel().f(2, 2) == (1, 2)
    plain = split_swap().kernel()
    assert plain.f(2, 2) == ()


def test_fiber_coordinate_decomposes_every_element():
    rng = random.Random(7)
    for ext in (EXT, z4_extension(), split_swap(decorated=True)):
        for _ in range(20):
            gamma = ext.gamma.random_element(rng, 5)
            rebuilt = ext.gamma.mul(
                ext.include(ext.h(gamma)), ext.section(ext.sigma(gamma)),
            )
            assert rebuilt == gamma


def test_section_normalization_enforced():
    ext = z4_extension()
    with pytest.raises(ValueError, match="not normalized"):
        type(ext)(
            ext.gamma, ext.pi, ext.g, ext.sigma, ext.include,
            ext.fiber_of, {1: 2, 2: 2}.__getitem__,
        )


def test_product_rule_passes_on_derived_kernels():
    rng = random.Random(1)
    for name in ("f2-semidirect-z", "z4-hs", "split-swap-dec"):
        ext = FIXTURES[name]()
        k = ext.kernel()
        rep = check_nonabelian_cocycle(k, random_triples(ext, rng, 25))
        assert rep.passed and rep.checked == 25


def test_product_rule_fails_on_corrupted_kernel():
    bad = corrupted_kernel()
    # the poisoned pair sits at (gen, gen); this triple hits it on both
    # sides of the rule
    rep = check_nonabelian_cocycle(bad, [(GEN, GEN, GEN)])
    assert not rep.passed
    (triple, lhs, rhs), = rep.failures
    assert triple == (GEN, GEN, GEN) and lhs != rhs


def test_composition_law_and_normalization():
    rng = random.Random(2)
    pool = pi_elements(EXT.pi)
    e = EXT.pi.identity
    for a in pool:
        assert KER.f(a, e) == KER.f(e, a) == F2.identity
    twisted = TwistedProduct(KER.pi, KER.g, KER.psi, KER.f)
    for a, b, c in random_triples(EXT, rng, 10):
        assert twisted.law_defect(a, b, c) is None
    swd = split_swap(decorated=True).kernel()
    # psi_s(2)^2 = i_{f(2,2)} = i_ab on the generators
    sq = swd.psi(2)
    for g in F2.generators:
        assert sq(sq(g)) == F2.conj((1, 2), g)


def _section_defect(ext):
    """f(a, b) = fiber_of(s(a) s(b) s(ab)^-1), evaluated afresh."""
    G, P = ext.gamma, ext.pi

    def f(a, b):
        return ext.fiber_of(G.mul(ext.section(a), ext.section(b),
                                  G.inv(ext.section(P.mul(a, b)))))
    return f


def test_kernel_defect_is_evaluated_once_per_pair():
    raw = _section_defect(EXT)
    calls = Counter()

    def counted(a, b):
        calls[a, b] += 1
        return raw(a, b)

    k = AbstractKernel(EXT.pi, EXT.g, EXT.section_automorphism, counted)
    pool = pi_elements(EXT.pi, bound=3)
    pairs = [(a, b) for a in pool for b in pool]
    for _ in range(3):
        for a, b in pairs:
            assert k.f(a, b) == raw(a, b)
    assert calls == Counter(dict.fromkeys(pairs, 1))


def test_conjugated_defect_is_evaluated_once_per_pair():
    # each evaluation of the conjugated defect reads h at a, b and ab
    raw = _section_defect(EXT)
    base = AbstractKernel(EXT.pi, EXT.g, EXT.section_automorphism, raw)
    h = _conjugating_map()
    calls = Counter()

    def counted(alpha):
        calls[alpha] += 1
        return h(alpha)

    k2 = base.conjugate_by(counted)
    G, P = EXT.g, EXT.pi
    pool = pi_elements(EXT.pi, bound=2)
    pairs = [(a, b) for a in pool for b in pool]
    for _ in range(3):
        for a, b in pairs:
            assert k2.f(a, b) == G.mul(
                h(a), EXT.section_automorphism(a)(h(b)), raw(a, b),
                G.inv(h(P.mul(a, b))))
    assert sum(calls.values()) == 3 * len(pairs)


def test_conjugated_kernel_still_satisfies_product_rule():
    rng = random.Random(3)

    def h(alpha):
        return words.power((2,), words.exponent_sum(alpha, 1))

    k2 = KER.conjugate_by(h)
    rep = check_nonabelian_cocycle(k2, random_triples(EXT, rng, 15))
    assert rep.passed
    twisted = TwistedProduct(k2.pi, k2.g, k2.psi, k2.f)
    for a, b in [(GEN, GEN), (GEN, words.inv(GEN))]:
        assert twisted.law_defect(a, b, GEN) is None


def test_product_rule_is_twisted_associativity():
    bad = corrupted_kernel()
    twisted = TwistedProduct(bad.pi, bad.g, bad.psi, bad.f)
    x = (GEN, ())
    left = twisted.mul(twisted.mul(x, x), x)
    right = twisted.mul(x, twisted.mul(x, x))
    assert left != right
    good = TwistedProduct(KER.pi, KER.g, KER.psi, KER.f)
    gl = good.mul(good.mul(x, x), x)
    gr = good.mul(x, good.mul(x, x))
    assert gl == gr


def test_obstruction_identity_on_derived_kernels():
    rng = random.Random(4)
    for name in ("f2-semidirect-z", "z4-hs", "split-swap-dec"):
        ext = FIXTURES[name]()
        k = ext.kernel()
        K = obstruction_K(k)
        for a, b, c in random_triples(ext, rng, 15):
            assert K(a, b, c) == k.g.identity


def test_obstruction_centrality_violation_on_corrupted_kernel():
    K = obstruction_K(corrupted_kernel())
    with pytest.raises(CentralityViolation):
        K(GEN, GEN, GEN)


# ------------------------------------------------------------------ model


def test_model_group_laws():
    rng = random.Random(5)
    for _ in range(15):
        x = MODEL.random_element(rng, 5)
        y = MODEL.random_element(rng, 5)
        z = MODEL.random_element(rng, 5)
        assert MODEL.mul(MODEL.mul(x, y), z) == MODEL.mul(x, MODEL.mul(y, z))
        assert MODEL.mul(x, MODEL.inv(x)) == MODEL.identity
        assert MODEL.mul(MODEL.identity, x) == x


def test_center_is_central():
    rng = random.Random(6)
    j = MODEL.include_center(Fraction(3, 2))
    for _ in range(10):
        x = MODEL.random_element(rng, 5)
        assert MODEL.mul(j, x) == MODEL.mul(x, j)


def test_section_kills_phi_and_shift_vanishes_for_homogeneous_base():
    rng = random.Random(7)
    for _ in range(15):
        g = F2.random_element(rng, 8)
        assert MODEL.shift(g) == 0
        assert MODEL.phi(MODEL.section(g)) == 0


def test_the_model_lives_over_its_cocycle_group():
    phi = BrooksQuasimorphism(words.parse("ab"))
    swap = split_swap()
    for c in (CX, DefectCocycle(F2, phi), swap_invariant_cocycle(swap.g)):
        model = CentralExtensionModel(c)
        assert model.group is c.group
        assert model.identity == (0, c.group.identity)


def test_shift_matches_homogenization_on_defect_model():
    phi = BrooksQuasimorphism(words.parse("ab"))
    model = CentralExtensionModel(DefectCocycle(F2, phi))
    rng = random.Random(8)
    for _ in range(12):
        g = F2.random_element(rng, 8)
        assert model.shift(g) == homogenize(phi, g) - phi(g)
        # raw scalar minus homogenized scalar stays small
        assert abs(model.phi((Fraction(0), g)) - phi(g)) <= 6


def test_shift_is_exact_where_power_values_settle_late():
    # w = b'^11 and g = b': phi_w(g) = 0 but every period of g^Z holds
    # one occurrence of w, so the shift is 1; the values c(g^n, g) only
    # settle from n = 10 on
    phi = BrooksQuasimorphism(words.parse("b'" * 11))
    model = CentralExtensionModel(DefectCocycle(F2, phi))
    g = words.parse("b'")
    assert model.shift(g) == 1
    assert model.phi(model.section(g)) == 0
    assert model.shift(words.parse("a")) == 0
    with pytest.raises(TypeError, match="phi"):
        CentralExtensionModel(PulledBackCocycle(KER.psi(GEN), CX)).shift(g)


def test_section_power_and_conjugation_laws():
    rng = random.Random(9)
    for _ in range(10):
        g = F2.random_element(rng, 6)
        h = F2.random_element(rng, 6)
        for n in range(-5, 6):
            assert MODEL.power(MODEL.section(g), n) == MODEL.section(
                F2.power(g, n)
            )
        assert MODEL.conj(MODEL.section(g), MODEL.section(h)) == MODEL.section(
            F2.conj(g, h)
        )


# ------------------------------------------------------------------- lift


def test_lift_of_identity_is_identity():
    lifted = lift_automorphism(MODEL, inner_automorphism(F2, ()))
    rng = random.Random(10)
    for _ in range(10):
        x = MODEL.random_element(rng, 5)
        assert lifted(x) == x


def test_lift_projection_and_phi_invariance():
    rng = random.Random(11)
    aut = KER.psi(words.power(GEN, 2))
    lifted = lift_automorphism(MODEL, aut)
    for _ in range(20):
        x = MODEL.random_element(rng, 6)
        y = lifted(x)
        assert MODEL.project(y) == aut(MODEL.project(x))
        assert MODEL.phi(y) == MODEL.phi(x)
        assert lifted.inverse()(y) == x


def test_lift_fixes_center_and_splits_off_central_factors():
    rng = random.Random(12)
    aut = KER.psi(GEN)
    lifted = lift_automorphism(MODEL, aut)
    j = MODEL.include_center(Fraction(5, 4))
    assert lifted(j) == j
    for _ in range(10):
        x = MODEL.random_element(rng, 5)
        assert lifted(MODEL.mul(x, j)) == MODEL.mul(lifted(x), j)


def test_lift_intertwines_inner_automorphisms():
    rng = random.Random(13)
    aut = KER.psi(GEN)
    lifted = lift_automorphism(MODEL, aut)
    for _ in range(10):
        x = MODEL.random_element(rng, 5)
        y = MODEL.random_element(rng, 5)
        assert lifted(MODEL.conj(y, x)) == MODEL.conj(lifted(y), lifted(x))


def test_lift_composition_defect_is_section_of_f():
    rng = random.Random(14)
    pool = pi_elements(EXT.pi, bound=4)
    for _ in range(8):
        a, b = rng.choice(pool), rng.choice(pool)
        la = lift_automorphism(MODEL, KER.psi(a))
        lb = lift_automorphism(MODEL, KER.psi(b))
        lab = lift_automorphism(MODEL, KER.psi(EXT.pi.mul(a, b)))
        s_f = MODEL.section(KER.f(a, b))
        for _ in range(5):
            x = MODEL.random_element(rng, 5)
            assert la(lb(x)) == MODEL.conj(s_f, lab(x))


def test_lift_deviation_is_cocycle_pullback_difference():
    rng = random.Random(15)
    for a_pow in (1, 2, -1, 3):
        aut = KER.psi(words.power(GEN, a_pow))
        lifted = lift_automorphism(MODEL, aut)
        pulled = PulledBackCocycle(aut, CX)
        for _ in range(12):
            x = MODEL.random_element(rng, 6)
            y = MODEL.random_element(rng, 6)
            dev = lift_deviation(MODEL, lifted, x, y)
            g, h = MODEL.project(x), MODEL.project(y)
            assert dev == pulled(g, h) - CX(g, h)


def test_lifted_obstruction_decomposition():
    rng = random.Random(16)
    K_bar = lifted_obstruction(MODEL, KER)
    K = obstruction_K(KER)
    comp = composition_cochain(CX, KER)
    for a, b, c in random_triples(EXT, rng, 10):
        val = K_bar(a, b, c)
        assert MODEL.project(val) == K(a, b, c) == F2.identity
        assert MODEL.phi(val) == comp(a, b, c)
        assert val == MODEL.include_center(comp(a, b, c))


# -------------------------------------------------- composition and theta


def test_composition_cochain_requires_homogeneous_cocycle():
    phi = BrooksQuasimorphism(words.parse("ab"))
    with pytest.raises(ValueError, match="homogeneous"):
        composition_cochain(DefectCocycle(F2, phi), KER)


def test_composition_cochain_vanishes_for_split_section():
    plain = semidirect_f2_z(decorated=False).kernel()
    comp = composition_cochain(CX, plain)
    rng = random.Random(17)
    for a, b, c in random_triples(EXT, rng, 8):
        assert comp(a, b, c) == 0


def test_theta_pairing_reproduces_composition_cochain():
    rng = random.Random(18)
    comp = composition_cochain(CX, KER)
    theta = theta_chain(KER)
    for a, b, c in random_triples(EXT, rng, 12):
        got = pair(CX, theta(a, b, c))
        assert got.error_bound == 0
        assert got.value == comp(a, b, c)


def test_composition_coboundary_swaps_in_the_pulled_back_cocycle():
    rng = random.Random(19)
    comp = coboundary(composition_cochain(CX, KER))
    pool = pi_elements(EXT.pi, bound=4)
    for _ in range(6):
        a, b, c, z = (rng.choice(pool) for _ in range(4))
        pulled = composition_cochain(PulledBackCocycle(KER.psi(a), CX), KER)
        direct = composition_cochain(CX, KER)
        assert comp(a, b, c, z) == direct(b, c, z) - pulled(b, c, z)


def test_theta_coboundary_pairs_to_zero():
    rng = random.Random(20)
    d_theta = coboundary(theta_chain(KER))
    pool = pi_elements(EXT.pi, bound=4)
    for _ in range(5):
        tup = tuple(rng.choice(pool) for _ in range(4))
        got = pair(CX, d_theta(*tup))
        assert got.value == 0 and got.error_bound == 0


# ----------------------------------------------------------------- lambda


def _conjugating_map():
    def h(alpha):
        return words.power((2,), words.exponent_sum(alpha, 1))

    return h


def test_lambda_prechecks_reject_wrong_kernel():
    h = _conjugating_map()
    k2 = KER.conjugate_by(h)

    def other(alpha):
        return words.power((1,), words.exponent_sum(alpha, 1))

    with pytest.raises(KernelRelationViolation):
        lambda_chain(KER, k2, other, check_alphas=[GEN])
    wrong_f = AbstractKernel(
        KER.pi, KER.g, k2.psi,
        lambda a, b: KER.g.mul(k2.f(a, b), (2,)),
    )
    with pytest.raises(KernelRelationViolation):
        lambda_chain(KER, wrong_f, h, check_pairs=[(GEN, GEN)])
    # the unconjugated lift and defect are wrong too
    with pytest.raises(KernelRelationViolation):
        lambda_chain(KER, KER, h, check_alphas=[GEN])
    plain_f = AbstractKernel(KER.pi, KER.g, k2.psi, KER.f)
    with pytest.raises(KernelRelationViolation):
        lambda_chain(KER, plain_f, h, check_pairs=[(GEN, GEN)])


def test_adjusted_lambda_cobounds_theta_difference():
    rng = random.Random(21)
    h = _conjugating_map()
    k2 = KER.conjugate_by(h)
    pool = pi_elements(EXT.pi, bound=3)
    lam = lambda_chain(
        KER, k2, h, adjusted=True,
        check_alphas=pool, check_pairs=[(GEN, GEN)],
    )
    d_lam = coboundary(lam)
    theta = theta_chain(KER)
    theta2 = theta_chain(k2)
    for _ in range(6):
        a, b, c = (rng.choice(pool) for _ in range(3))
        z = theta(a, b, c) - theta2(a, b, c) - d_lam(a, b, c)
        got = pair(CX, z)
        assert got.error_bound == 0
        assert got.value == 0


def test_plain_lambda_leaves_a_residue():
    # the plain middle argument psi(a)(h(b)) drops h(a): the plain lambda
    # is lambda-hat - rho with
    #     rho(a,b) = m2(h(a) psi(a)(h(b)), f(a,b)) - m2(psi(a)(h(b)), f(a,b))
    # so theta - theta2 - d lambda leaves exactly <c, d rho>
    rng = random.Random(22)
    h = _conjugating_map()
    k2 = KER.conjugate_by(h)
    pool = pi_elements(EXT.pi, bound=3)
    lam = lambda_chain(KER, k2, h)

    def rho_ev(a, b):
        ph_b = KER.psi(a)(h(b))
        return (
            m2_chain(F2, F2.mul(h(a), ph_b), KER.f(a, b), DEFAULT_CUTOFF)
            - m2_chain(F2, ph_b, KER.f(a, b), DEFAULT_CUTOFF)
        )

    rho = BoundedCochain(EXT.pi, 2, rho_ev,
                         action=lambda a, z: pushforward(KER.psi(a), z))
    d_lam, d_rho = coboundary(lam), coboundary(rho)
    theta = theta_chain(KER)
    theta2 = theta_chain(k2)
    residues = []
    for _ in range(8):
        a, b, c = (rng.choice(pool) for _ in range(3))
        got = pair(CX, theta(a, b, c) - theta2(a, b, c) - d_lam(a, b, c))
        want = pair(CX, d_rho(a, b, c))
        assert got.error_bound == 0 and want.error_bound == 0
        assert got.value == want.value, (a, b, c)
        residues.append(got.value)
    assert any(r != 0 for r in residues)


# ---------------------------------------------------------------- t-chain


def test_t_chain_restricts_to_the_pair_chain():
    rng = random.Random(23)
    T = t_chain(EXT)
    for _ in range(10):
        g1 = F2.random_element(rng, 6)
        g2 = F2.random_element(rng, 6)
        z = T(EXT.include(g1), EXT.include(g2)) - m2_chain(F2, g1, g2, 8)
        got = pair(CX, z)
        assert got.value == 0 and got.error_bound == 0


def test_t_chain_degenerate_argument_pairs_to_zero():
    T = t_chain(EXT)
    rng = random.Random(24)
    gamma = EXT.gamma.random_element(rng, 5)
    got = pair(CX, T(gamma, EXT.gamma.identity))
    assert got.value == 0 and got.error_bound == 0


def test_t_chain_cobounds_the_pulled_back_theta():
    rng = random.Random(25)
    swap = split_swap(decorated=True)
    for ext, cocycle in ((EXT, CX), (swap, swap_invariant_cocycle(swap.g))):
        k = ext.kernel()
        theta = theta_chain(k)
        T = t_chain(ext)
        dT = coboundary(T)
        for _ in range(6):
            gs = tuple(ext.gamma.random_element(rng, 4) for _ in range(3))
            sigma_theta = theta(*[ext.sigma(y) for y in gs])
            z = sigma_theta - dT(*gs)
            got = pair(cocycle, z)
            assert got.error_bound == 0
            assert got.value == 0


def test_pair_chain_class_is_invariant():
    rng = random.Random(26)
    for n in (1, 2, -2):
        aut = KER.psi(words.power(GEN, n))
        back = aut.inverse()
        for _ in range(10):
            g = F2.random_element(rng, 6)
            h = F2.random_element(rng, 6)
            moved = pushforward(aut, m2_chain(F2, back(g), back(h), 8))
            got = pair(CX, moved - m2_chain(F2, g, h, 8))
            assert got.value == 0 and got.error_bound == 0


def test_swap_symmetrized_cocycle_is_invariant_for_the_split_kernel():
    rng = random.Random(27)
    ext = split_swap(decorated=True)
    c = swap_invariant_cocycle(ext.g)
    k = ext.kernel()
    for alpha in (1, 2):
        pulled = PulledBackCocycle(k.psi(alpha), c)
        for _ in range(15):
            g = F2.random_element(rng, 8)
            h = F2.random_element(rng, 8)
            assert pulled(g, h) == c(g, h)
