import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmcoh import words
from qmcoh.chains import (
    Chain,
    HomogeneousChain,
    MSeriesTail,
    boundary,
    contracting_homotopy,
    homogeneous_boundary,
    m2_chain,
    m_chain,
    pushforward,
)
from qmcoh.cochains import pair, table_cochain
from qmcoh.errors import ResourceCapExceeded
from qmcoh.extensions import AbstractKernel, chain_module
from qmcoh.fixtures import semidirect_f2_z
from qmcoh.groups import FiniteGroup, FreeGroup, FreeAutomorphism, MapAutomorphism
from qmcoh.quasimorphism import BrooksQuasimorphism, homogeneous_cocycle
from qmcoh.words import Pow, parse

F2 = FreeGroup(2)
p = parse


def test_degenerate_tuples_vanish():
    z = Chain(F2, 2, [((p("a"), ()), 1), (((), p("b")), 2)])
    assert z.support == {}
    assert z == Chain.zero(F2, 2)


def test_chain_add_cancels():
    a = Chain.basis(F2, p("a"), p("b"))
    b = a.scale(-1)
    assert (a + b).support == {}
    assert (a + a).support == {(p("a"), p("b")): Fraction(2)}


def test_boundary_degree2():
    z = Chain.basis(F2, p("a"), p("b"))
    expect = Chain(F2, 1, [
        ((p("b"),), 1), ((p("ab"),), -1), ((p("a"),), 1),
    ])
    assert boundary(z) == expect


def test_boundary_degree1_vanishes():
    z = Chain.basis(F2, p("ab'"))
    out = boundary(z)
    assert out.degree == 0 and out.support == {}


def test_boundary_squared_zero_random():
    rng = random.Random(2)
    for _ in range(15):
        items = [
            (
                tuple(F2.random_element(rng, rng.randint(1, 4))
                      for _ in range(3)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            )
            for _ in range(4)
        ]
        z = Chain(F2, 3, items)
        assert boundary(boundary(z)).support == {}


def test_boundary_squared_zero_on_merge_collision():
    # x equals y*z, so one association path of the double boundary
    # merges two equal entries while the other multiplies distinct
    # ones; both must land on the same canonical key.
    y, z = p("ab"), p("a")
    x = words.mul(y, z)
    c = Chain(F2, 3, [((x, y, z), Fraction(1))])
    assert boundary(boundary(c)).support == {}


def test_boundary_norm_inequality():
    rng = random.Random(9)
    for _ in range(15):
        items = [
            (
                tuple(F2.random_element(rng, 3) for _ in range(2)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            )
            for _ in range(5)
        ]
        z = Chain(F2, 2, items)
        mass = sum(map(abs, z.support.values()))
        assert sum(map(abs, boundary(z).support.values())) <= 3 * mass


def test_m_chain_structure():
    g = p("ab")
    m = m_chain(F2, g, 3)
    assert m.support == {
        (g, g): Fraction(1, 2),
        (Pow(g, 2), Pow(g, 2)): Fraction(1, 4),
        (Pow(g, 4), Pow(g, 4)): Fraction(1, 8),
    }
    assert m.tail_bound == Fraction(1, 8)
    assert m.tails == (MSeriesTail(g, 3, Fraction(1)),)
    assert sum(map(abs, m.support.values())) + m.tail_bound == 1


def test_m_chain_identity_is_zero():
    m = m_chain(F2, (), 5)
    assert m.support == {} and m.tail_bound == 0


def test_m_chain_cutoff_cap():
    with pytest.raises(ResourceCapExceeded):
        m_chain(F2, p("a"), 17)


def test_m_chain_finite_group():
    z4 = FiniteGroup.cyclic(4)
    m = m_chain(z4, 2, 3)
    # powers of the generator: 2^1=cls1, 2^2=cls2, 2^4=cls0 -> degenerate
    assert m.support == {
        (2, 2): Fraction(1, 2),
        (3, 3): Fraction(1, 4),
    }


def test_boundary_of_m_chain_telescopes():
    g = p("ab'a")
    for N in (1, 3, 4):
        out = boundary(m_chain(F2, g, N))
        expect = Chain(F2, 1, [
            ((g,), 1),
            ((words.pow_entry(g, 2**N),), Fraction(-1, 2**N)),
        ])
        assert out == expect
        assert out.tail_bound == 3 * Fraction(1, 2**N)


def test_m2_chain_norm_and_boundary():
    g, h = p("ab"), p("ba")
    z = m2_chain(F2, g, h, 4)
    assert sum(map(abs, z.support.values())) + z.tail_bound <= 4
    assert z.tail_bound == Fraction(3, 16)
    out = boundary(z)
    gh = F2.mul(g, h)
    expect = Chain(F2, 1, [
        ((words.pow_entry(g, 16),), Fraction(1, 16)),
        ((words.pow_entry(gh, 16),), Fraction(-1, 16)),
        ((words.pow_entry(h, 16),), Fraction(1, 16)),
    ])
    assert out == expect


def test_m2_chain_with_inverse_pair():
    g = p("ab")
    z = m2_chain(F2, g, words.inv(g), 3)
    # gh is the identity: its m chain is zero and [g|g^-1] survives
    assert z.support[(g, words.inv(g))] == 1


def test_pushforward_commutes_with_m2():
    swap = FreeAutomorphism(F2, [p("b"), p("a")], [p("b"), p("a")])
    g, h = p("ab"), p("a'b")
    z = pushforward(swap, m2_chain(F2, g, h, 4))
    w = m2_chain(F2, swap(g), swap(h), 4)
    assert z == w
    assert z.tails == w.tails


def _entrywise_image(aut, z):
    """pushforward written out entry by entry, without any sharing."""
    def fwd(x):
        return Pow(aut(x.base), x.exp) if isinstance(x, Pow) else aut(x)

    return Chain(
        z.group, z.degree,
        [(tuple(map(fwd, t)), c) for t, c in z.support.items()],
        tails=tuple(t._replace(base=aut(t.base)) for t in z.tails),
        tail_bound=z.tail_bound,
    )


@pytest.mark.parametrize("aut, g, h", [
    (FreeAutomorphism(F2, [p("ab"), p("b")], [p("ab'"), p("b")]),
     p("ab"), p("a'b")),
    (FreeAutomorphism(F2, [p("b"), p("a")], [p("b"), p("a")]),
     p("aba"), p("b'")),
    (MapAutomorphism(FiniteGroup.cyclic(4), FiniteGroup.cyclic(4).inv,
                     FiniteGroup.cyclic(4).inv), 2, 3),
])
def test_pushforward_maps_each_distinct_word_once(aut, g, h):
    z = m2_chain(aut.group, g, h, 5)
    calls = []

    def counted(x):
        calls.append(x)
        return aut(x)

    out = pushforward(counted, z)
    distinct = {
        x.base if isinstance(x, Pow) else x for t in z.support for x in t
    } | {t.base for t in z.tails}
    assert len(calls) == len(distinct) and set(calls) == distinct
    want = _entrywise_image(aut, z)
    assert out.support == want.support
    assert out.tails == want.tails
    assert out.tail_bound == want.tail_bound


def test_homogeneous_boundary_and_homotopy_low_degree():
    e = ()
    g = p("ab")
    z = HomogeneousChain(F2, 1, [((e, g), 1)])
    dz = homogeneous_boundary(z)
    assert dz.support == {(g,): Fraction(1), (e,): Fraction(-1)}
    s = contracting_homotopy(HomogeneousChain(F2, 0, [((g,), 1)]))
    assert s.support == {(e, g): Fraction(1)}


def test_homogeneous_complex_keeps_degenerates():
    z = HomogeneousChain(F2, 1, [(((), ()), 1)])
    assert z.support != {}


def test_homotopy_identity_random():
    rng = random.Random(4)
    for degree in (1, 2, 3):
        for _ in range(10):
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


def test_homogeneous_boundary_squared_zero():
    rng = random.Random(6)
    for _ in range(10):
        items = [
            (tuple(F2.random_element(rng, 2) for _ in range(4)), 1)
            for _ in range(3)
        ]
        z = HomogeneousChain(F2, 3, items)
        assert homogeneous_boundary(homogeneous_boundary(z)).support == {}


# ------------------------------------------- canonical entries at the edge

Z4 = FiniteGroup.cyclic(4)


def _endomorphism(images):
    """Substitution homomorphism of F2; may send a generator to a proper
    power or to the identity."""
    def apply(w):
        return words.mul(*(images[k - 1] if k > 0 else words.inv(images[-k - 1])
                           for k in w))
    return apply


# self-overlapping (aba, abab...) and non-primitive ((ab)^2, a^3) words
# alongside random ones, so equal elements reach the support by
# different paths
f2_elements = st.sampled_from(
    [p(s) for s in ("a", "b'", "ab", "aba", "abab", "aaa", "ab'ab'", "aba'b'")]
) | st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=6).map(
    words.reduce).filter(bool)
f2_maps = st.sampled_from([
    _endomorphism([p("b"), p("a")]),
    _endomorphism([p("ab"), p("b")]),
    _endomorphism([p("aa"), p("b")]),
    _endomorphism([p("a"), ()]),
])
z4_maps = st.sampled_from([lambda x: x, lambda x: Z4.power(x, 2),
                           lambda x: Z4.inv(x)])


@st.composite
def edge_chains(draw, group, elements, maps):
    kind = draw(st.sampled_from(["m", "m2", "push"]))
    g, h = draw(elements), draw(elements)
    N = draw(st.integers(1, 5))
    if kind == "m":
        return m_chain(group, g, N)
    z = m2_chain(group, g, h, N)
    return pushforward(draw(maps), z) if kind == "push" else z


def _rebuilt(z):
    return Chain(z.group, z.degree, list(z.support.items()))


def _check_results_are_canonical(a, b, q):
    results = [a + b, a - a, a.scale(q), boundary(a)]
    for r in results:
        assert r.support == _rebuilt(r).support
    assert (a - a).support == {}
    assert a + b == Chain(a.group, 2, [*a.support.items(), *b.support.items()])
    assert boundary(boundary(a)).support == {}


fractions = st.sampled_from([0, 1, -1]) | st.fractions(max_denominator=8)


@settings(max_examples=60, deadline=None)
@given(edge_chains(F2, f2_elements, f2_maps),
       edge_chains(F2, f2_elements, f2_maps), fractions)
def test_free_group_arithmetic_keeps_entries_canonical(a, b, q):
    _check_results_are_canonical(a, b, q)


@settings(max_examples=40, deadline=None)
@given(edge_chains(Z4, st.integers(1, 4), z4_maps),
       edge_chains(Z4, st.integers(1, 4), z4_maps), fractions)
def test_finite_group_arithmetic_keeps_entries_canonical(a, b, q):
    _check_results_are_canonical(a, b, q)


# ------------------------------------------------- one-pass difference


def _check_difference(a, b):
    d, ref = a - b, a + (-b)
    assert d.support == ref.support
    assert d.tails == ref.tails
    assert d.tail_bound == ref.tail_bound
    zero = a - a
    assert zero.support == {} and zero == Chain.zero(a.group, a.degree)


@settings(max_examples=60, deadline=None)
@given(edge_chains(F2, f2_elements, f2_maps),
       edge_chains(F2, f2_elements, f2_maps))
def test_free_group_difference_is_the_sum_with_the_negative(a, b):
    _check_difference(a, b)


@settings(max_examples=40, deadline=None)
@given(edge_chains(Z4, st.integers(1, 4), z4_maps),
       edge_chains(Z4, st.integers(1, 4), z4_maps))
def test_finite_group_difference_is_the_sum_with_the_negative(a, b):
    _check_difference(a, b)


def test_difference_negates_the_subtrahend_tails():
    g, h = p("ab"), p("b'")
    d = m_chain(F2, g, 3) - m_chain(F2, h, 4)
    assert d.tails == (MSeriesTail(g, 3, Fraction(1)),
                       MSeriesTail(h, 4, Fraction(-1)))
    assert d.tail_bound == Fraction(1, 8) + Fraction(1, 16)


def test_difference_rejects_a_group_or_degree_mismatch():
    a = Chain.basis(F2, p("a"), p("b"))
    for other in (Chain.basis(FreeGroup(2), p("a"), p("b")),
                  Chain.basis(F2, p("a")),
                  Chain.basis(Z4, 2, 3)):
        with pytest.raises(ValueError, match="chain mismatch"):
            a - other


# ------------------------------------------------------ shared m-chains


def _sharing_case(kind):
    """(group, g, h, automorphism, kernel over the group, base element,
    scalar 2-cochain) for the free group and for Z/4."""
    if kind == "free":
        kernel = semidirect_f2_z().kernel()
        swap = FreeAutomorphism(F2, ((2,), (1,)), ((2,), (1,)))
        cocycle = homogeneous_cocycle(BrooksQuasimorphism(p("ab")))
        return F2, p("aab"), p("ba'"), swap, kernel, (1,), cocycle
    z2 = FiniteGroup.cyclic(2)
    flip = MapAutomorphism(Z4, Z4.inv, Z4.inv)
    auts = {1: MapAutomorphism(Z4, lambda x: x, lambda x: x), 2: flip}
    kernel = AbstractKernel(z2, Z4, auts.__getitem__, lambda a, b: 1)
    cocycle = table_cochain(Z4, 2, {(2, 2): 1, (3, 2): -2, (4, 4): 3})
    return Z4, 2, 3, flip, kernel, 2, cocycle


def _snapshot(z):
    return dict(z.support), z.tails, z.tail_bound


@pytest.mark.parametrize("kind", ["free", "finite"])
def test_m_chains_are_built_once(kind):
    group, g, h, *_ = _sharing_case(kind)
    for N in (1, 6):
        assert m_chain(group, g, N) is m_chain(group, g, N)
        assert m2_chain(group, g, h, N) is m2_chain(group, g, h, N)


@pytest.mark.parametrize("kind", ["free", "finite"])
def test_using_a_shared_chain_leaves_it_as_it_was(kind):
    group, g, h, aut, kernel, alpha, cocycle = _sharing_case(kind)
    shared = [m_chain(group, g, 6), m2_chain(group, g, h, 6)]
    before = [_snapshot(z) for z in shared]
    module = chain_module(kernel)
    other = m2_chain(group, h, g, 5)
    for z in shared:
        results = [z + other, other + z, z - other, other - z, z - z, -z,
                   z.scale(Fraction(-3, 2)), z.scale(1), z.scale(0),
                   boundary(z), pushforward(aut, z),
                   module.act(alpha, z), module.add(z, other),
                   module.scale(2, z)]
        pair(cocycle, z)
        for r in results:
            assert r is not z and r.support is not z.support
    assert [_snapshot(z) for z in shared] == before
    assert m_chain(group, g, 6) is shared[0]
    assert m2_chain(group, g, h, 6) is shared[1]
