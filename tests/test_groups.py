import random

import pytest
from hypothesis import given, strategies as st

from qmcoh import words
from qmcoh.errors import NotACocycle
from qmcoh.fixtures import twist_automorphism
from qmcoh.groups import (
    FiniteGroup,
    FreeAutomorphism,
    FreeGroup,
    TwistedProduct,
    compose,
    inner_automorphism,
)
from qmcoh.words import parse

F2 = FreeGroup(2)


def test_free_group_ops():
    assert F2.mul(parse("ab"), parse("b'a")) == parse("aa")
    assert F2.inv(parse("ab")) == parse("b'a'")
    assert F2.power(parse("aba'"), 3) == parse("abbba'")
    assert F2.conj(parse("a"), parse("b")) == parse("aba'")


def test_free_group_contains():
    assert F2.contains(parse("ab"))
    assert not F2.contains(parse("abc"))
    assert not F2.contains((1, -1))


def test_cyclic_group():
    z4 = FiniteGroup.cyclic(4)
    assert z4.order == 4
    assert z4.mul(2, 2) == 3  # class 1 + class 1 = class 2
    assert z4.inv(2) == 4
    assert z4.power(2, 5) == 2


def test_finite_group_rejects_bad_tables():
    with pytest.raises(ValueError, match="not a permutation"):
        FiniteGroup([[1, 2], [2, 2]])
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup([[2, 1], [1, 2]])
    # a Latin square with identity that is not associative (order-5 loop)
    loop = [
        [1, 2, 3, 4, 5],
        [2, 1, 4, 5, 3],
        [3, 4, 5, 1, 2],
        [4, 5, 2, 3, 1],
        [5, 3, 1, 2, 4],
    ]
    with pytest.raises(ValueError, match="associativity"):
        FiniteGroup(loop)


def u_aut():
    # a -> a b a^-1, b -> a ; inverse: a -> b, b -> b^-1 a b
    return FreeAutomorphism(
        F2, [parse("aba'"), parse("a")], [parse("b"), parse("b'ab")]
    )


def test_free_automorphism_apply_and_inverse():
    u = u_aut()
    assert u(parse("ab")) == parse("ab")
    assert u(parse("ba")) == words.mul(parse("a"), parse("aba'"))
    v = u.inverse()
    for w in (parse("a"), parse("b"), parse("abab'a")):
        assert v(u(w)) == w
        assert u(v(w)) == w


def test_inverse_is_built_once_and_linked_both_ways():
    for u in (twist_automorphism(F2), inner_automorphism(F2, parse("ab"))):
        v = u.inverse()
        assert u.inverse() is v
        assert v.inverse() is u
        assert v.images == u.inverse_images
        assert v.inverse_images == u.images


def test_free_automorphism_witness_validation():
    with pytest.raises(ValueError, match="witness"):
        FreeAutomorphism(F2, [parse("aba'"), parse("a")], [parse("b"), parse("ab")])


def test_u_squared_is_inner():
    u = u_aut()
    uu = u.compose(u)
    i_ab = inner_automorphism(F2, parse("ab"))
    for g in (parse("a"), parse("b"), parse("ab'a")):
        assert uu(g) == i_ab(g)


def test_u_fixes_ab():
    assert u_aut()(parse("ab")) == parse("ab")


def test_inner_automorphism_free():
    i = inner_automorphism(F2, parse("ab"))
    assert i(parse("a")) == parse("abab'a'")
    j = i.inverse()
    assert j(i(parse("ab'ab"))) == parse("ab'ab")


def _twist_powers():
    """u^n for n in -6..6, u the twist automorphism, by composition."""
    u = twist_automorphism(F2)
    powers = {0: inner_automorphism(F2, ())}
    for n in range(1, 7):
        powers[n] = u.compose(powers[n - 1])
        powers[-n] = u.inverse().compose(powers[1 - n])
    return [powers[n] for n in range(-6, 7)]


_LETTER_TABLE_MAPS = _twist_powers() + [inner_automorphism(F2, parse("ab'a"))]
_LETTER_TABLE_MAPS += [m.inverse() for m in _LETTER_TABLE_MAPS]


def _substitute(aut, w):
    """Each letter replaced by its image (an inverse letter by the
    inverse of its image), then one reduction of the whole."""
    out = []
    for k in w:
        img = aut.images[abs(k) - 1]
        out.extend(img if k > 0 else words.inv(img))
    return words.reduce(out)


@given(st.sampled_from(_LETTER_TABLE_MAPS),
       st.lists(st.sampled_from([1, -1, 2, -2]), max_size=20).map(
           words.reduce))
def test_free_automorphism_applies_its_letter_table(aut, w):
    assert aut(w) == _substitute(aut, w)


def test_identity_automorphism():
    for grp, elt in ((F2, parse("ab'a")), (FiniteGroup.cyclic(6), 4)):
        identity = inner_automorphism(grp, grp.identity)
        assert identity(elt) == elt
        assert identity.inverse()(elt) == elt


def test_compose_mixed():
    u = u_aut()
    i = inner_automorphism(F2, parse("b"))
    c = compose(u, i)
    g = parse("ab")
    assert c(g) == u(i(g))
    assert c.inverse()(c(g)) == g


def semidirect_f2_z():
    """F2 twisted by powers of the substitution u over an infinite cyclic
    base (modeled as the rank-1 free group)."""
    z = FreeGroup(1)
    u = u_aut()
    cache = {0: inner_automorphism(F2, ()), 1: u, -1: u.inverse()}

    def psi(n_word):
        n = words.exponent_sum(n_word, 1)
        while n not in cache:
            if n > 0:
                top = max(k for k in cache if k >= 0)
                cache[top + 1] = u.compose(cache[top])
            else:
                bot = min(cache)
                cache[bot - 1] = u.inverse().compose(cache[bot])
        return cache[n]

    f = lambda a, b: ()
    return TwistedProduct(z, F2, psi, f)


def test_twisted_product_semidirect_laws():
    gamma = semidirect_f2_z()
    rng = random.Random(3)
    e = gamma.identity
    for _ in range(25):
        g = gamma.random_element(rng, 5)
        h = gamma.random_element(rng, 5)
        k = gamma.random_element(rng, 5)
        assert gamma.mul(g, gamma.inv(g)) == e
        assert gamma.mul(gamma.inv(g), g) == e
        assert gamma.mul(gamma.mul(g, h), k) == gamma.mul(g, gamma.mul(h, k))


def test_twisted_product_with_genuine_twist_is_z4_like():
    z2 = FiniteGroup.cyclic(2)
    psi = lambda a: inner_automorphism(z2, 1)
    f = lambda a, b: 2 if (a == 2 and b == 2) else 1
    gamma = TwistedProduct(z2, z2, psi, f)
    c = (2, 1)
    sq = gamma.mul(c, c)
    assert sq == (1, 2)
    assert gamma.mul(sq, sq) == gamma.identity
    assert gamma.inv(c) == gamma.power(c, 3)


def test_twisted_product_precheck_catches_bad_f():
    z2 = FiniteGroup.cyclic(2)
    psi = lambda a: inner_automorphism(z2, 1)
    bad_f = lambda a, b: 2 if (a, b) == (2, 1) else 1  # not normalized-compatible
    triples = [(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)]
    with pytest.raises(NotACocycle):
        TwistedProduct(z2, z2, psi, bad_f, precheck_triples=triples)
