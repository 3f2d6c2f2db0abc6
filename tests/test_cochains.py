import random
from fractions import Fraction

import pytest

from qmcoh import words
from qmcoh.chains import Chain, boundary, m2_chain, pushforward
from qmcoh.cochains import (
    BoundedCochain,
    CoefficientModule,
    InvariantCochain,
    coboundary,
    cup,
    homogeneous_coboundary,
    pair,
    table_cochain,
    to_homogeneous,
    to_inhomogeneous,
)
from qmcoh.errors import InvariantViolation, ResourceCapExceeded
from qmcoh.groups import FiniteGroup, FreeAutomorphism, FreeGroup
from qmcoh.quasimorphism import BrooksQuasimorphism, homogeneous_cocycle

F2 = FreeGroup(2)
p = words.parse


def rand_tuples(rng, n, k, size=3):
    return [
        tuple(F2.random_element(rng, rng.randint(0, size)) for _ in range(n))
        for _ in range(k)
    ]


def rand_table(rng, degree, terms=6):
    table = {
        tuple(F2.random_element(rng, rng.randint(1, 3)) for _ in range(degree)):
        Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for _ in range(terms)
    }
    return table_cochain(F2, degree, table)


def test_coboundary_of_zero_is_zero():
    f = BoundedCochain(F2, 2, lambda g, h: Fraction(0))
    df = coboundary(f)
    assert df(p("a"), p("b"), p("ab")) == 0


def test_homomorphism_is_a_cocycle():
    f = BoundedCochain(F2, 1, lambda g: Fraction(words.exponent_sum(g, 1)))
    df = coboundary(f)
    rng = random.Random(3)
    for g, h in rand_tuples(rng, 2, 40):
        assert df(g, h) == 0


def test_coboundary_squared_zero():
    rng = random.Random(7)
    for _ in range(5):
        f = rand_table(rng, 2)
        ddf = coboundary(coboundary(f))
        for t in rand_tuples(rng, 4, 40, size=2):
            assert ddf(*t) == 0


def test_coboundary_module_action_on_leading_term():
    # Z/2 acting on chains over F2 by pushforward along the generator
    # swap; d of a constant v is g.v - v.
    z2 = FiniteGroup.cyclic(2)
    swap = FreeAutomorphism(F2, [p("b"), p("a")], [p("b"), p("a")])
    mod = CoefficientModule.chain_valued(
        F2, 2, action=lambda g, z: z if g == 1 else pushforward(swap, z)
    )
    v = Chain.basis(F2, p("a"), p("ab"))
    f = BoundedCochain(z2, 0, lambda: v, module=mod)
    df = coboundary(f)
    assert df(2) == Chain.basis(F2, p("b"), p("ba")) - v
    assert df(1) == Chain.zero(F2, 2)


def test_coboundary_norm_bound_propagates():
    f = table_cochain(F2, 1, {(p("a"),): Fraction(3, 2)})
    assert coboundary(f).norm_bound == Fraction(9, 2)


def test_chain_valued_coboundary_formula():
    mod = CoefficientModule.chain_valued(F2, 1, action=lambda g, z: z)
    f = BoundedCochain(
        F2, 1, lambda g: Chain.basis(F2, g), module=mod, name="j"
    )
    df = coboundary(f)
    out = df(p("a"), p("b"))
    # trivial action: [b] - [ab] + [a]
    expect = Chain(F2, 1, [
        ((p("b"),), 1), ((p("ab"),), -1), ((p("a"),), 1),
    ])
    assert out == expect


def test_homogeneous_constant_degree0():
    c = InvariantCochain(F2, 0, lambda t: Fraction(5))
    dc = homogeneous_coboundary(c)
    assert dc(p("a"), p("b")) == 0


def test_homogeneous_coboundary_squared_zero():
    rng = random.Random(11)
    f = BoundedCochain(
        F2, 1, lambda g: Fraction(words.exponent_sum(g, 2) ** 2)
    )
    F = to_homogeneous(f)
    ddF = homogeneous_coboundary(homogeneous_coboundary(F))
    for t in rand_tuples(rng, 4, 25, size=2):
        assert ddF(*t) == 0


def test_picture_correspondence():
    # non-homogeneous d computed through the homogeneous picture
    rng = random.Random(13)
    f = rand_table(rng, 2)
    df = coboundary(f)
    via = to_inhomogeneous(homogeneous_coboundary(to_homogeneous(f)))
    for t in rand_tuples(rng, 3, 60, size=2):
        assert df(*t) == via(*t)


def test_invariance_precheck():
    # depends on the absolute first component, not on differences
    F = InvariantCochain(
        F2, 1, lambda x, y: Fraction(len(x)), name="len0"
    )
    samples = [(p("a"), (p("b"), p("ab")))]
    with pytest.raises(InvariantViolation):
        homogeneous_coboundary(F, check_samples=samples)
    G = to_homogeneous(table_cochain(F2, 1, {(p("b"),): Fraction(2)}))
    homogeneous_coboundary(G, check_samples=samples)  # fine


def test_cup_unit():
    rng = random.Random(17)
    one = BoundedCochain(F2, 0, lambda: Fraction(1), name="1")
    h = rand_table(rng, 2)
    fh = cup(one, h)
    for t in rand_tuples(rng, 2, 30):
        assert fh(*t) == h(*t)


def test_cup_leibniz():
    rng = random.Random(19)
    for fdeg, hdeg in [(1, 1), (1, 2), (2, 1)]:
        f = rand_table(rng, fdeg)
        h = rand_table(rng, hdeg)
        lhs = coboundary(cup(f, h))
        sign = -1 if fdeg % 2 else 1
        rhs_a = cup(coboundary(f), h)
        rhs_b = cup(f, coboundary(h))
        for t in rand_tuples(rng, fdeg + hdeg + 1, 70, size=2):
            assert lhs(*t) == rhs_a(*t) + sign * rhs_b(*t)


def test_cup_associative():
    rng = random.Random(23)
    f, h, k = (rand_table(rng, 1) for _ in range(3))
    left = cup(cup(f, h), k)
    right = cup(f, cup(h, k))
    for t in rand_tuples(rng, 3, 60, size=2):
        assert left(*t) == right(*t)


def test_cup_degree_cap():
    f = rand_table(random.Random(1), 3)
    with pytest.raises(ResourceCapExceeded):
        cup(cup(f, f), f)
    # only scalar factors multiply
    mod = CoefficientModule.chain_valued(F2, 1, action=lambda g, z: z)
    j = BoundedCochain(F2, 1, lambda g: Chain.basis(F2, g), module=mod)
    with pytest.raises(ValueError, match="scalar"):
        cup(j, f)
    with pytest.raises(ValueError, match="scalar"):
        cup(f, j)


def test_pair_zero_chain():
    c = table_cochain(F2, 2, {})
    res = pair(c, Chain.zero(F2, 2))
    assert res.value == 0 and res.error_bound == 0


def test_pair_homogeneous_cocycle_with_m2_is_exact():
    cx = homogeneous_cocycle(BrooksQuasimorphism(p("ab")))
    rng = random.Random(29)
    for _ in range(12):
        g = F2.random_element(rng, rng.randint(1, 4))
        h = F2.random_element(rng, rng.randint(1, 4))
        res = pair(cx, m2_chain(F2, g, h, N=6))
        assert res.error_bound == 0
        assert res.value == cx(g, h)


def test_pair_coboundary_with_m2_small():
    rng = random.Random(31)
    b = rand_table(rng, 1)
    db = coboundary(b)
    for _ in range(8):
        g = F2.random_element(rng, 3)
        h = F2.random_element(rng, 3)
        res = pair(db, m2_chain(F2, g, h, N=10))
        assert abs(res.value) <= res.error_bound


def test_pair_requires_bound_for_tails():
    c = BoundedCochain(F2, 2, lambda g, h: Fraction(0))
    z = m2_chain(F2, p("a"), p("b"), N=4)
    with pytest.raises(ValueError):
        pair(c, z)


def test_pair_adjoint_to_boundary():
    rng = random.Random(37)
    for _ in range(6):
        b = rand_table(rng, 1)
        items = [
            (tuple(F2.random_element(rng, 2) for _ in range(2)),
             Fraction(rng.randint(-3, 3), 2))
            for _ in range(5)
        ]
        z = Chain(F2, 2, items)
        lhs = pair(coboundary(b), z)
        rhs = pair(b, boundary(z))
        assert lhs.value == rhs.value
        assert lhs.error_bound == rhs.error_bound == 0


def test_degree_mismatch_rejected():
    c = table_cochain(F2, 1, {})
    with pytest.raises(ValueError):
        pair(c, Chain.zero(F2, 2))
