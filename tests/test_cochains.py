import random
from fractions import Fraction

import pytest

from qmcoh import words
from qmcoh.chains import Chain, boundary, m2_chain, m_chain, pushforward
from qmcoh.cochains import (
    BoundedCochain,
    coboundary,
    cup,
    pair,
    table_cochain,
)
from qmcoh.errors import ResourceCapExceeded
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
    v = Chain.basis(F2, p("a"), p("ab"))
    f = BoundedCochain(
        z2, 0, lambda: v,
        action=lambda g, z: z if g == 1 else pushforward(swap, z),
    )
    df = coboundary(f)
    assert df(2) == Chain.basis(F2, p("b"), p("ba")) - v
    assert df(1) == Chain.zero(F2, 2)


def test_coboundary_norm_bound_propagates():
    f = table_cochain(F2, 1, {(p("a"),): Fraction(3, 2)})
    assert coboundary(f).norm_bound == Fraction(9, 2)


def test_chain_valued_coboundary_formula():
    f = BoundedCochain(
        F2, 1, lambda g: Chain.basis(F2, g), action=lambda g, z: z, name="j"
    )
    df = coboundary(f)
    out = df(p("a"), p("b"))
    # trivial action: [b] - [ab] + [a]
    expect = Chain(F2, 1, [
        ((p("b"),), 1), ((p("ab"),), -1), ((p("a"),), 1),
    ])
    assert out == expect


# ------------------------------------------ the homogeneous picture
# A reference copy of the homogeneous cochain picture: F(t0,...,tn) =
# f(t0^-1 t1, ..., t_{n-1}^-1 tn) for trivial coefficients, with the
# alternating-omission coboundary. Through it, the non-homogeneous
# ``coboundary`` is checked against an independent formula.


def ref_to_homogeneous(f):
    def F(*t):
        return f(*(F2.mul(F2.inv(x), y) for x, y in zip(t, t[1:])))
    return F


def ref_to_inhomogeneous(F):
    def f(*g):
        t = [F2.identity]
        for x in g:
            t.append(F2.mul(t[-1], x))
        return F(*t)
    return f


def ref_homogeneous_coboundary(F):
    def dF(*t):
        return sum((-1) ** i * F(*t[:i], *t[i + 1:]) for i in range(len(t)))
    return dF


def test_homogeneous_constant_degree0():
    dc = ref_homogeneous_coboundary(lambda t: Fraction(5))
    assert dc(p("a"), p("b")) == 0


def test_homogeneous_coboundary_squared_zero():
    rng = random.Random(11)
    F = ref_to_homogeneous(lambda g: Fraction(words.exponent_sum(g, 2) ** 2))
    ddF = ref_homogeneous_coboundary(ref_homogeneous_coboundary(F))
    for t in rand_tuples(rng, 4, 25, size=2):
        assert ddF(*t) == 0


def test_picture_correspondence():
    # non-homogeneous d computed through the homogeneous picture
    rng = random.Random(13)
    f = rand_table(rng, 2)
    df = coboundary(f)
    via = ref_to_inhomogeneous(
        ref_homogeneous_coboundary(ref_to_homogeneous(f)))
    for t in rand_tuples(rng, 3, 60, size=2):
        assert df(*t) == via(*t)


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
    j = BoundedCochain(F2, 1, lambda g: Chain.basis(F2, g),
                       action=lambda g, z: z)
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


def test_pair_certifies_a_tail_only_when_it_is_all_power_pairs():
    # m carries a tail of power pairs; y a tail of unknown shape. The sum
    # inherits y's, so a homogeneous cocycle cannot certify it as 0.
    cx = homogeneous_cocycle(BrooksQuasimorphism(p("ab")))
    m = m_chain(F2, p("ab"), 4)
    y = Chain(F2, 2, [((p("a"), p("b")), 1)], tail_bound=1)
    assert pair(cx, m) == (0, 0)
    for z in (y, m + y, y - m, (m + y).scale(2)):
        with pytest.raises(ValueError, match="tail"):
            pair(cx, z)
    bounded = BoundedCochain(F2, 2, cx, norm_bound=2)
    assert pair(bounded, m + y) == (1, 2 * (1 + Fraction(1, 16)))
    # a chain-valued cochain is refused whatever the chain
    j = BoundedCochain(F2, 2, lambda g, h: m, action=lambda g, z: z)
    with pytest.raises(ValueError, match="scalar"):
        pair(j, Chain.zero(F2, 2))


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
