"""Whole-package acceptance checks.

Each test pins its own sampling (seeded rng, sample counts, cutoffs)
and its tolerance; almost every assertion is exact equality of
rationals.  test_c12 checks the kernel comparison in the orientation
theta_k - theta_k2 = d lambda-hat, with the adjusted middle argument
h(a) psi(a)(h(b)) (the form the verification registry runs as
kernel-change-exact), and pins the plain middle argument psi(a)(h(b))
exactly: its residue is <c, d rho>, where rho is the difference of the
two middle pair chains, and that residue is nonzero on some sample.
"""

import random
import subprocess
import sys
from fractions import Fraction

from qmcoh import words
from qmcoh.chains import (
    Chain,
    HomogeneousChain,
    boundary,
    contracting_homotopy,
    homogeneous_boundary,
    m2_chain,
    m_chain,
    pushforward,
)
from qmcoh.cochains import (
    BoundedCochain,
    coboundary,
    cup,
    pair,
    table_cochain,
)
from qmcoh.extensions import (
    DEFAULT_CUTOFF,
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
from qmcoh.groups import FreeGroup
from qmcoh.quasimorphism import (
    BrooksQuasimorphism,
    DefectCocycle,
    Homogenization,
    HomogeneousCocycle,
    PulledBackCocycle,
)
from qmcoh.spectral import (
    PersistencePairing,
    SpectralSequence,
    e_infinity_check,
    hs_double_complex,
    random_filtered_complex,
)

F2 = FreeGroup(2)
WORD_TRIPLE = ("ab", "abb", "aba'")


def cocycle_for(text):
    return HomogeneousCocycle(F2, BrooksQuasimorphism(words.parse(text)))


def exact_zero(got, context):
    assert got.error_bound == 0, context
    assert got.value == 0, context


# ------------------------------------------------------------ criterion 1


def test_c01_homogeneous_cocycles_kill_power_pairs():
    rng = random.Random("c01")
    for text in WORD_TRIPLE:
        c = cocycle_for(text)
        for _ in range(200):
            g = F2.random_element(rng, rng.randint(1, 12))
            if g == ():
                g = (1,)
            powers = {n: words.power(g, n) for n in range(-6, 7)}
            for n in range(-6, 7):
                for m in range(-6, 7):
                    assert c(powers[n], powers[m]) == 0, (text, g, n, m)


# ------------------------------------------------------------ criterion 2


def test_c02_homogeneous_cocycles_satisfy_the_cocycle_law():
    rng = random.Random("c02")
    for text in WORD_TRIPLE:
        dc = coboundary(cocycle_for(text))
        for _ in range(500):
            g, h, k = (F2.random_element(rng, 6) for _ in range(3))
            assert dc(g, h, k) == 0, (text, g, h, k)


# ------------------------------------------------------------ criterion 3


def test_c03_pairing_against_the_pair_chain_reproduces_the_cocycle():
    rng = random.Random("c03")
    c_x = cocycle_for("ab")
    N = 12
    for _ in range(300):
        g = F2.random_element(rng, 5)
        h = F2.random_element(rng, 5)
        got = pair(c_x, m2_chain(F2, g, h, N))
        assert got.error_bound == 0, (g, h)
        assert got.value == c_x(g, h), (g, h)

    # a non-homogeneous defect cocycle picks up an explicit correction
    # from b = homogenization - base on the N-th powers
    phi = BrooksQuasimorphism(words.parse("ab"))
    hom = Homogenization(phi)
    c_d = DefectCocycle(F2, phi, norm_bound=Fraction(6))
    sampled_norm = max(
        abs(Fraction(c_d(F2.random_element(rng, 6),
                         F2.random_element(rng, 6))))
        for _ in range(100)
    )
    tol = 3 * Fraction(1, 2 ** N) * sampled_norm

    def b(x):
        return Fraction(hom(x)) - Fraction(phi(x))

    P = 2 ** N
    for _ in range(40):
        g = F2.random_element(rng, 4)
        h = F2.random_element(rng, 4)
        gh = F2.mul(g, h)
        got = pair(c_d, m2_chain(F2, g, h, N))
        corr = Fraction(1, P) * (
            b(words.power(g, P))
            - b(words.power(gh, P))
            + b(words.power(h, P))
        )
        resid = got.value - Fraction(c_x(g, h)) - corr
        assert abs(resid) <= tol, (g, h)
        assert resid == 0, (g, h)


# ------------------------------------------------------------ criterion 4


def test_c04_m_chain_boundary_telescopes_exactly():
    rng = random.Random("c04")
    done = 0
    while done < 50:
        g = F2.random_element(rng, rng.randint(1, 8))
        if g == ():
            continue
        done += 1
        for N in (4, 8, 12):
            out = boundary(m_chain(F2, g, N))
            expect = Chain(F2, 1, [
                ((g,), Fraction(1)),
                ((words.pow_entry(g, 2 ** N),), Fraction(-1, 2 ** N)),
            ])
            assert out == expect, (g, N)


# ------------------------------------------------------------ criterion 5


def test_c05_contracting_homotopy_splits_the_identity():
    rng = random.Random("c05")
    for degree in (1, 2, 3):
        for _ in range(100):
            items = [
                (
                    tuple(F2.random_element(rng, 2)
                          for _ in range(degree + 1)),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                )
                for _ in range(3)
            ]
            z = HomogeneousChain(F2, degree, items)
            lhs = contracting_homotopy(homogeneous_boundary(z)) \
                + homogeneous_boundary(contracting_homotopy(z))
            assert lhs == z


# ------------------------------------------------------------ criterion 6


def test_c06_cup_product_obeys_leibniz_and_associativity():
    rng = random.Random("c06")

    def rand_cochain(degree):
        table = {
            tuple(
                F2.random_element(rng, rng.randint(1, 3))
                for _ in range(degree)
            ): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(6)
        }
        return table_cochain(F2, degree, table)

    for fdeg, hdeg in ((1, 1), (1, 2), (2, 2)):
        f = rand_cochain(fdeg)
        h = rand_cochain(hdeg)
        lhs = coboundary(cup(f, h))
        sign = -1 if fdeg % 2 else 1
        rhs_a = cup(coboundary(f), h)
        rhs_b = cup(f, coboundary(h))
        for _ in range(200):
            tup = tuple(
                F2.random_element(rng, 2) for _ in range(fdeg + hdeg + 1)
            )
            assert lhs(*tup) == rhs_a(*tup) + sign * rhs_b(*tup), \
                (fdeg, hdeg, tup)

    for degs in ((1, 1, 1), (1, 1, 2)):
        f, h, k = (rand_cochain(d) for d in degs)
        left = cup(cup(f, h), k)
        right = cup(f, cup(h, k))
        for _ in range(200):
            tup = tuple(
                F2.random_element(rng, 2) for _ in range(sum(degs))
            )
            assert left(*tup) == right(*tup), (degs, tup)


# ------------------------------------------------------------ criterion 7


def test_c07_kernel_product_rule_holds_on_every_fixture():
    rng = random.Random("c07")
    for name in sorted(FIXTURES):
        ext = FIXTURES[name]()
        ker = ext.kernel()
        pool = pi_elements(ext.pi, bound=4)
        triples = [
            tuple(rng.choice(pool) for _ in range(3)) for _ in range(60)
        ]
        rep = check_nonabelian_cocycle(ker, triples)
        assert rep.checked == 60
        assert rep.passed, (name, rep.failures[:1])

    bad = corrupted_kernel()
    gen = bad.pi.generators[0]
    rep = check_nonabelian_cocycle(bad, [(gen, gen, gen)])
    assert not rep.passed
    (witness, lhs, rhs), = rep.failures
    assert witness == (gen, gen, gen)
    assert lhs != rhs


# ------------------------------------------------------------ criterion 8


def test_c08_obstruction_word_is_trivial_on_every_fixture():
    rng = random.Random("c08")
    for name in sorted(FIXTURES):
        ext = FIXTURES[name]()
        ker = ext.kernel()
        K = obstruction_K(ker)
        pool = pi_elements(ext.pi, bound=4)
        for _ in range(40):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert K(a, b, c) == ext.g.identity, (name, a, b, c)


# ------------------------------------------------------------ criterion 9


def test_c09_lifted_automorphisms_satisfy_the_action_laws():
    rng = random.Random("c09")
    ext = semidirect_f2_z()
    ker = ext.kernel()
    c_x = cocycle_for("ab")
    model = CentralExtensionModel(c_x)
    pool = [a for a in pi_elements(ext.pi, bound=3) if a != ()]
    for _ in range(200):
        alpha = rng.choice(pool)
        beta = rng.choice(pool)
        aut = ker.psi(alpha)
        lifted = lift_automorphism(model, aut)
        x = model.random_element(rng, 5)
        y = model.random_element(rng, 5)
        tval = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        central = model.include_center(tval)

        # the central line is fixed pointwise
        assert lifted(central) == central
        # projection compatibility
        assert model.project(lifted(x)) == aut(model.project(x))
        # the homogenized scalar is preserved
        assert model.phi(lifted(x)) == model.phi(x)
        # conjugation is intertwined
        assert lifted(model.conj(x, y)) == model.conj(lifted(x), lifted(y))
        # composing two lifts conjugates the lift of the product by the
        # section of the defect
        lift_b = lift_automorphism(model, ker.psi(beta))
        lift_ab = lift_automorphism(
            model, ker.psi(ext.pi.mul(alpha, beta)),
        )
        f_ab = model.section(ker.f(alpha, beta))
        assert lifted(lift_b(x)) == model.conj(f_ab, lift_ab(x)), \
            (alpha, beta, x)
        # multiplicativity against central factors
        assert lifted(model.mul(x, central)) \
            == model.mul(lifted(x), central)

        # canonical section laws
        g = model.project(x)
        h = model.project(y)
        n = rng.choice((-3, -2, 2, 3))
        assert model.phi(model.section(g)) == 0
        assert model.power(model.section(g), n) \
            == model.section(F2.power(g, n))
        assert model.conj(model.section(g), model.section(h)) \
            == model.section(F2.conj(g, h))

        # the deviation of a lifted automorphism is the pulled-back
        # cocycle minus the original
        pulled = PulledBackCocycle(aut, c_x)
        dev = lift_deviation(model, lifted, x, y)
        assert dev == Fraction(pulled(g, h)) - Fraction(c_x(g, h)), \
            (alpha, g, h)


# ----------------------------------------------------------- criterion 10


def test_c10_composition_cochain_routes_agree():
    rng = random.Random("c10")
    ext = semidirect_f2_z()
    ker = ext.kernel()
    c_x = cocycle_for("ab")
    comp = composition_cochain(c_x, ker)
    theta = theta_chain(ker)
    pool = pi_elements(ext.pi, bound=4)
    for _ in range(100):
        a, b, c = (rng.choice(pool) for _ in range(3))
        got = pair(c_x, theta(a, b, c))
        assert got.error_bound == 0, (a, b, c)
        assert got.value == comp(a, b, c), (a, b, c)

    d_comp = coboundary(comp)
    for _ in range(50):
        a, b, c, z = (rng.choice(pool) for _ in range(4))
        pulled = composition_cochain(
            PulledBackCocycle(ker.psi(a), c_x), ker,
        )
        assert d_comp(a, b, c, z) == comp(b, c, z) - pulled(b, c, z), \
            (a, b, c, z)

    model = CentralExtensionModel(c_x)
    K_bar = lifted_obstruction(model, ker)
    for _ in range(50):
        a, b, c = (rng.choice(pool) for _ in range(3))
        val = K_bar(a, b, c)
        assert model.project(val) == F2.identity, (a, b, c)
        assert val == model.include_center(comp(a, b, c)), (a, b, c)


# ----------------------------------------------------------- criterion 11


def test_c11_theta_coboundary_pairs_to_zero():
    rng = random.Random("c11")
    ext = semidirect_f2_z()
    ker = ext.kernel()
    d_theta = coboundary(theta_chain(ker))
    pool = pi_elements(ext.pi, bound=4)
    for text in WORD_TRIPLE:
        c_x = cocycle_for(text)
        for _ in range(50):
            tup = tuple(rng.choice(pool) for _ in range(4))
            exact_zero(pair(c_x, d_theta(*tup)), (text, tup))


# ----------------------------------------------------------- criterion 12


def test_c12_kernel_comparison_with_the_plain_middle_term():
    # conjugate_by gives f2(a,b) h(ab) = h(a) psi(a)(h(b)) f(a,b).  The
    # comparison cochain telescopes when its pair chains follow that
    # bracketing, i.e. with the adjusted middle argument h(a) psi(a)(h(b)):
    # then <c, theta - theta2 - d lambda-hat> = 0 (the kernel comparison
    # runs from the old kernel to the conjugate one).  The plain middle
    # argument psi(a)(h(b)) drops h(a); it differs from lambda-hat by
    #     rho(a,b) = m2(h(a) psi(a)(h(b)), f(a,b)) - m2(psi(a)(h(b)), f(a,b))
    # so its residue <c, theta - theta2 - d lambda> is exactly <c, d rho>,
    # which is not zero in general.
    rng = random.Random("c12")
    ext = semidirect_f2_z()
    ker = ext.kernel()
    G = ker.g
    c_x = cocycle_for("ab")

    def h(alpha):
        return words.power((2,), words.exponent_sum(alpha, 1))

    k2 = ker.conjugate_by(h)
    pool = pi_elements(ext.pi, bound=4)
    lam, lam_hat = (
        lambda_chain(
            ker, k2, h, adjusted=adjusted,
            check_alphas=pool, check_pairs=[((1,), (1,))],
        )
        for adjusted in (False, True)
    )

    def rho_ev(a, b):
        ph_b = ker.psi(a)(h(b))
        return (
            m2_chain(G, G.mul(h(a), ph_b), ker.f(a, b), DEFAULT_CUTOFF)
            - m2_chain(G, ph_b, ker.f(a, b), DEFAULT_CUTOFF)
        )

    rho = BoundedCochain(ext.pi, 2, rho_ev,
                         action=lambda a, z: pushforward(ker.psi(a), z))
    d_lam, d_lam_hat, d_rho = (coboundary(f) for f in (lam, lam_hat, rho))
    theta = theta_chain(ker)
    theta2 = theta_chain(k2)
    residues = []
    for _ in range(50):
        a, b, c = (rng.choice(pool) for _ in range(3))
        diff = theta(a, b, c) - theta2(a, b, c)
        exact_zero(pair(c_x, diff - d_lam_hat(a, b, c)), (a, b, c))
        got = pair(c_x, diff - d_lam(a, b, c))
        want = pair(c_x, d_rho(a, b, c))
        assert got.error_bound == 0, (a, b, c)
        assert want.error_bound == 0, (a, b, c)
        assert got.value == want.value, (a, b, c, got.value, want.value)
        residues.append(got.value)
    assert any(r != 0 for r in residues)


# ----------------------------------------------------------- criterion 13


def test_c13_section_cochain_trivializes_restricts_and_is_invariant():
    rng = random.Random("c13")
    ext = semidirect_f2_z()
    ker = ext.kernel()
    G = ext.g
    c_x = cocycle_for("ab")
    theta = theta_chain(ker)
    T = t_chain(ext)
    dT = coboundary(T)
    for _ in range(100):
        gs = tuple(ext.gamma.random_element(rng, 4) for _ in range(3))
        z = theta(*[ext.sigma(y) for y in gs]) - dT(*gs)
        exact_zero(pair(c_x, z), gs)

    for _ in range(100):
        g1 = G.random_element(rng, 5)
        g2 = G.random_element(rng, 5)
        z = T(ext.include(g1), ext.include(g2)) - m2_chain(G, g1, g2, 8)
        exact_zero(pair(c_x, z), (g1, g2))

    for _ in range(100):
        n = rng.choice((1, 2, -2, 3))
        aut = ker.psi(words.power((1,), n))
        back = aut.inverse()
        g = G.random_element(rng, 5)
        h = G.random_element(rng, 5)
        moved = pushforward(aut, m2_chain(G, back(g), back(h), 8))
        got = pair(c_x, moved - m2_chain(G, g, h, 8))
        exact_zero(got, (n, g, h))


# ----------------------------------------------------------- criterion 14


def test_c14_invariant_cocycle_gives_a_closed_composition_cochain():
    rng = random.Random("c14")
    ext = split_swap(decorated=True)
    ker = ext.kernel()
    c_sym = swap_invariant_cocycle(ext.g)
    pool = tuple(ext.pi.elements())

    # sampled invariance under the base action
    for _ in range(50):
        alpha = rng.choice(pool)
        pulled = PulledBackCocycle(ker.psi(alpha), c_sym)
        g = F2.random_element(rng, 5)
        h = F2.random_element(rng, 5)
        assert pulled(g, h) == c_sym(g, h), (alpha, g, h)

    comp = composition_cochain(c_sym, ker)
    d_comp = coboundary(comp)
    for _ in range(50):
        tup = tuple(rng.choice(pool) for _ in range(4))
        assert d_comp(*tup) == 0, tup


# ----------------------------------------------------------- criterion 15


def test_c15_spectral_pages_match_the_finite_oracle():
    cx, filt, info = hs_double_complex(z4_extension())
    engine = SpectralSequence(cx, filt)
    cells = [(p, n - p) for n in range(4) for p in range(n + 1)]
    for p, q in cells:
        assert engine.dim(2, p, q) == 1, (p, q)
    for r in range(1, 5):
        for p, q in cells:
            assert engine.consistency_ok(r, p, q), (r, p, q)
    pairing = PersistencePairing(cx, filt)
    for n in range(4):
        rep = e_infinity_check(pairing, n)
        assert rep["ok"], rep
        assert rep["total"] == rep["homology"] == 1, rep

    for seed in range(25):
        rcx, rfilt, hom = random_filtered_complex(seed)
        reng = PersistencePairing(rcx, rfilt)
        for n in range(rcx.max_degree):
            rep = e_infinity_check(reng, n)
            assert rep["ok"], (seed, n, rep)
            assert rep["homology"] == hom[n], (seed, n)


# ----------------------------------------------------------- criterion 16


def test_c16_verification_reports_are_byte_identical():
    cmd = [
        sys.executable, "-m", "qmcoh.cli",
        "verify", "--suite", "all", "--seed", "42",
    ]
    first = subprocess.run(cmd, capture_output=True, timeout=600)
    second = subprocess.run(cmd, capture_output=True, timeout=600)
    assert first.stdout
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode
    assert first.returncode in (0, 1)
