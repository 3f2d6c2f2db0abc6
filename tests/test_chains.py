import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

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
from qmcoh.cochains import BoundedCochain, coboundary, pair, table_cochain
from qmcoh.errors import ResourceCapExceeded
from qmcoh.extensions import AbstractKernel
from qmcoh.fixtures import semidirect_f2_z
from qmcoh.groups import FiniteGroup, FreeGroup, FreeAutomorphism, MapAutomorphism
from qmcoh.quasimorphism import BrooksQuasimorphism, HomogeneousCocycle
from qmcoh.words import Pow, parse

F2 = FreeGroup(2)
p = parse


def basis(group, *entries):
    """The chain 1 * [entries], one basis tuple with coefficient 1."""
    return Chain(group, len(entries), [(entries, 1)])


def coefficients(z):
    """The rational coefficient of each tuple: numerator over z.den."""
    return {t: Fraction(n, z.den) for t, n in z.support.items()}


def l1(z):
    return Fraction(sum(map(abs, z.support.values())), z.den)


def test_degenerate_tuples_vanish():
    z = Chain(F2, 2, [((p("a"), ()), 1), (((), p("b")), 2)])
    assert z.support == {}
    assert z == Chain.zero(F2, 2)


def test_chain_add_cancels():
    a = basis(F2, p("a"), p("b"))
    b = a.scale(-1)
    assert (a + b).support == {} and (a + b).den == 1
    assert (a + a).support == {(p("a"), p("b")): 2} and (a + a).den == 1


def test_boundary_degree2():
    z = basis(F2, p("a"), p("b"))
    expect = Chain(F2, 1, [
        ((p("b"),), 1), ((p("ab"),), -1), ((p("a"),), 1),
    ])
    assert boundary(z) == expect


def test_boundary_degree1_vanishes():
    z = basis(F2, p("ab'"))
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
        assert l1(boundary(z)) <= 3 * l1(z)


def test_m_chain_structure():
    g = p("ab")
    m = m_chain(F2, g, 3)
    items = [
        ((g, g), Fraction(1, 2)),
        ((Pow(g, 2), Pow(g, 2)), Fraction(1, 4)),
        ((Pow(g, 4), Pow(g, 4)), Fraction(1, 8)),
    ]
    assert coefficients(m) == dict(items)
    assert m == Chain(F2, 2, items)
    # numerators 2^(N-n) over 2^N
    assert m.den == 8 and sorted(m.support.values()) == [1, 2, 4]
    assert m.tail_bound == Fraction(1, 8)
    assert m.power_tail
    assert l1(m) + m.tail_bound == 1


def test_m_chain_identity_is_zero():
    m = m_chain(F2, (), 5)
    assert m.support == {} and m.den == 1 and m.tail_bound == 0


def test_m_chain_cutoff_cap():
    with pytest.raises(ResourceCapExceeded):
        m_chain(F2, p("a"), 17)


def test_m_chain_finite_group():
    z4 = FiniteGroup.cyclic(4)
    m = m_chain(z4, 2, 3)
    # powers of the generator: 2^1=cls1, 2^2=cls2, 2^4=cls0 -> degenerate,
    # so the numerators 4, 2 over 8 come down to 2, 1 over 4
    assert coefficients(m) == {
        (2, 2): Fraction(1, 2),
        (3, 3): Fraction(1, 4),
    }
    assert m.support == {(2, 2): 2, (3, 3): 1} and m.den == 4


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
    assert l1(z) + z.tail_bound <= 4
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
    assert coefficients(z)[(g, words.inv(g))] == 1


def test_pushforward_commutes_with_m2():
    swap = FreeAutomorphism(F2, [p("b"), p("a")], [p("b"), p("a")])
    g, h = p("ab"), p("a'b")
    z = pushforward(swap, m2_chain(F2, g, h, 4))
    w = m2_chain(F2, swap(g), swap(h), 4)
    assert z == w
    assert (z.tail_bound, z.power_tail) == (w.tail_bound, w.power_tail)


def _entrywise_image(aut, z):
    """pushforward written out entry by entry, without any sharing."""
    def fwd(x):
        return Pow(aut(x.base), x.exp) if isinstance(x, Pow) else aut(x)

    return Chain(
        z.group, z.degree,
        [(tuple(map(fwd, t)), n) for t, n in z.support.items()],
        tail_bound=z.tail_bound, den=z.den, power_tail=z.power_tail,
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
    }
    assert len(calls) == len(distinct) and set(calls) == distinct
    want = _entrywise_image(aut, z)
    assert out.support == want.support and out.den == want.den
    assert out.tail_bound == want.tail_bound
    assert out.power_tail == want.power_tail


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
    return Chain(z.group, z.degree, list(z.support.items()), den=z.den)


def _check_results_are_canonical(a, b, q):
    results = [a + b, a - a, a.scale(q), boundary(a)]
    for r in results:
        assert r.support == _rebuilt(r).support and r.den == _rebuilt(r).den
    assert (a - a).support == {}
    assert a + b == Chain(a.group, 2, [*coefficients(a).items(),
                                       *coefficients(b).items()])
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
    assert d.support == ref.support and d.den == ref.den
    assert d.tail_bound == ref.tail_bound
    assert d.power_tail == ref.power_tail
    zero = a - a
    assert zero.support == {} and zero.den == 1
    assert zero == Chain.zero(a.group, a.degree)


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


def test_difference_adds_the_tail_bounds():
    g, h = p("ab"), p("b'")
    d = m_chain(F2, g, 3) - m_chain(F2, h, 4)
    assert d.tail_bound == Fraction(1, 8) + Fraction(1, 16)
    assert d.power_tail
    y = Chain(F2, 2, [((g, h), 1)], tail_bound=Fraction(1, 2))
    assert not y.power_tail
    for e in (d - y, y - d):
        assert e.tail_bound == Fraction(1, 8) + Fraction(1, 16) \
            + Fraction(1, 2)
        assert not e.power_tail


def test_difference_rejects_a_group_or_degree_mismatch():
    a = basis(F2, p("a"), p("b"))
    for other in (basis(FreeGroup(2), p("a"), p("b")),
                  basis(F2, p("a")),
                  basis(Z4, 2, 3)):
        with pytest.raises(ValueError, match="chain mismatch"):
            a - other


# ------------------------------------------------------ shared m-chains


def _sharing_case(kind):
    """(group, g, h, automorphism, kernel over the group, base element,
    scalar 2-cochain) for the free group and for Z/4."""
    if kind == "free":
        kernel = semidirect_f2_z().kernel()
        swap = FreeAutomorphism(F2, ((2,), (1,)), ((2,), (1,)))
        cocycle = HomogeneousCocycle(F2, BrooksQuasimorphism(p("ab")))
        return F2, p("aab"), p("ba'"), swap, kernel, (1,), cocycle
    z2 = FiniteGroup.cyclic(2)
    flip = MapAutomorphism(Z4, Z4.inv, Z4.inv)
    auts = {1: MapAutomorphism(Z4, lambda x: x, lambda x: x), 2: flip}
    kernel = AbstractKernel(z2, Z4, auts.__getitem__, lambda a, b: 1)
    cocycle = table_cochain(Z4, 2, {(2, 2): 1, (3, 2): -2, (4, 4): 3})
    return Z4, 2, 3, flip, kernel, 2, cocycle


def _snapshot(z):
    return dict(z.support), z.den, z.tail_bound, z.power_tail


@pytest.mark.parametrize("kind", ["free", "finite"])
def test_m_chains_are_built_once(kind):
    group, g, h, *_ = _sharing_case(kind)
    for N in (1, 6):
        assert m_chain(group, g, N) is m_chain(group, g, N)
        assert m2_chain(group, g, h, N) is m2_chain(group, g, h, N)


def test_m_chains_and_pushforwards_key_each_entry_once(monkeypatch):
    inits, keyed = [], []
    real_init, real_pow_entry = Chain.__init__, words.pow_entry

    def init(self, *args, **kwargs):
        inits.append(args)
        real_init(self, *args, **kwargs)

    def pow_entry(*args):
        keyed.append(args)
        return real_pow_entry(*args)

    monkeypatch.setattr(Chain, "__init__", init)
    monkeypatch.setattr(words, "pow_entry", pow_entry)
    m_chain.cache_clear()
    m2_chain.cache_clear()
    aut = FreeAutomorphism(F2, [p("ab"), p("b")], [p("ab'"), p("b")])
    try:
        for g, h in [(p("ab"), p("a'b")), (p("abab"), p("b'")),
                     (p("aab'a'"), p("ab'a'"))]:
            for N in (1, 5, 16):
                keyed.clear()
                m_chain(F2, g, N)
                assert len(keyed) <= N
                z = m2_chain(F2, g, h, N)
                keyed.clear()
                pushforward(aut, z)
                distinct = {x for t in z.support for x in t}
                assert len(keyed) <= len(distinct)
        m2_chain(Z4, 2, 3, 5)
        assert inits == []
    finally:
        m_chain.cache_clear()
        m2_chain.cache_clear()


@pytest.mark.parametrize("kind", ["free", "finite"])
def test_using_a_shared_chain_leaves_it_as_it_was(kind):
    group, g, h, aut, kernel, alpha, cocycle = _sharing_case(kind)
    shared = [m_chain(group, g, 6), m2_chain(group, g, h, 6)]
    before = [_snapshot(z) for z in shared]
    other = m2_chain(group, h, g, 5)
    for z in shared:
        # d of the constant z under the kernel's action: alpha . z - z
        d_const = coboundary(BoundedCochain(
            kernel.pi, 0, lambda: z,
            action=lambda a, w: pushforward(kernel.psi(a), w)))
        results = [z + other, other + z, z - other, other - z, z - z, -z,
                   z.scale(Fraction(-3, 2)), z.scale(1), z.scale(0),
                   boundary(z), pushforward(aut, z), d_const(alpha)]
        pair(cocycle, z)
        for r in results:
            assert r is not z and r.support is not z.support
    assert [_snapshot(z) for z in shared] == before
    assert m_chain(group, g, 6) is shared[0]
    assert m2_chain(group, g, h, 6) is shared[1]


# ------------------------------------------ Fraction reference chains
# The chain layer as it was before coefficients became integer
# numerators over one denominator: a dict of nonzero Fractions, with
# every operation written out term by term. The package's Chain must
# give the same rational coefficients, tail bound and power-tail flag,
# and the same pairings. The flag rules: m-chains set it, sums AND it,
# scalings and pushforwards keep it, boundaries clear it, and a chain
# without a tail has it.


def _ref_key(group):
    if not isinstance(group, FreeGroup):
        return tuple
    return lambda t: tuple(
        words.pow_entry(*x) if isinstance(x, Pow) else words.pow_entry(x, 1)
        for x in t)


class RefChain:
    def __init__(self, group, degree, items=(), tail_bound=0,
                 power_tail=False):
        key, e = _ref_key(group), group.identity
        support: dict = {}
        for t, c in items:
            t = key(t)
            if e not in t:
                support[t] = support.get(t, Fraction(0)) + Fraction(c)
        self.group, self.degree = group, degree
        self.support = {t: c for t, c in support.items() if c}
        self.tail_bound = Fraction(tail_bound)
        self.power_tail = power_tail or self.tail_bound == 0

    def __add__(self, other):
        return RefChain(self.group, self.degree,
                        [*self.support.items(), *other.support.items()],
                        self.tail_bound + other.tail_bound,
                        self.power_tail and other.power_tail)

    def scale(self, a):
        a = Fraction(a)
        return RefChain(self.group, self.degree,
                        [(t, a * c) for t, c in self.support.items()],
                        abs(a) * self.tail_bound, self.power_tail)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)


def ref_boundary(z):
    n, group = z.degree, z.group
    mul = words.entry_mul if isinstance(group, FreeGroup) else group.mul
    items = []
    for t, c in z.support.items():
        items.append((t[1:], c))
        for i in range(n - 1):
            items.append((t[:i] + (mul(t[i], t[i + 1]),) + t[i + 2:],
                          (-1) ** (i + 1) * c))
        items.append((t[:-1], (-1) ** n * c))
    return RefChain(group, n - 1, items, (n + 1) * z.tail_bound, False)


def ref_m_chain(group, g, N):
    if g == group.identity:
        return RefChain(group, 2)
    symbolic = isinstance(group, FreeGroup)
    items = []
    for n in range(1, N + 1):
        k = 2 ** (n - 1)
        x = Pow(g, k) if symbolic else group.power(g, k)
        items.append(((x, x), Fraction(1, 2**n)))
    return RefChain(group, 2, items, Fraction(1, 2**N), True)


def ref_m2_chain(group, g, h, N):
    return RefChain(group, 2, [((g, h), 1)]) - ref_m_chain(group, g, N) \
        + ref_m_chain(group, group.mul(g, h), N) - ref_m_chain(group, h, N)


def ref_pushforward(aut, z):
    def fwd(x):
        return Pow(aut(x.base), x.exp) if isinstance(x, Pow) else aut(x)

    return RefChain(z.group, z.degree,
                    [(tuple(map(fwd, t)), c) for t, c in z.support.items()],
                    z.tail_bound, z.power_tail)


def ref_pair(c, z):
    total = Fraction(0)
    for t, coeff in z.support.items():
        total += coeff * Fraction(c.evaluate(t))
    if z.tail_bound == 0:
        bound = Fraction(0)
    elif getattr(c, "homogeneous", False) and z.power_tail:
        bound = Fraction(0)
    else:
        bound = c.norm_bound * z.tail_bound
    return total, bound


def assert_canonical(z):
    assert type(z.den) is int and z.den > 0
    assert all(type(n) is int and n != 0 for n in z.support.values())
    assert gcd(z.den, *z.support.values()) == 1
    if not z.support:
        assert z.den == 1


def assert_matches(z, ref):
    assert_canonical(z)
    assert z.degree == ref.degree
    assert coefficients(z) == ref.support
    assert z.tail_bound == ref.tail_bound
    assert z.power_tail == ref.power_tail


SCALES = [0, 1, -1, Fraction(3, 2), Fraction(1, 3), Fraction(-2, 5)]
user_coeffs = st.sampled_from(
    [Fraction(1, 3), Fraction(1, 2), -1, 2, Fraction(-3, 4)]
) | st.fractions(max_denominator=12)


@st.composite
def twin_chains(draw, group, elements, maps):
    """A package chain and its reference twin, built from the same
    arguments: an m-chain, an m2-chain, its pushforward, or a user chain
    with arbitrary rational coefficients and a tail of unknown shape."""
    kind = draw(st.sampled_from(["m", "m2", "push", "user"]))
    g, h = draw(elements), draw(elements)
    N = draw(st.sampled_from([1, 6, 16]))
    if kind == "m":
        return m_chain(group, g, N), ref_m_chain(group, g, N)
    if kind == "user":
        items = draw(st.lists(
            st.tuples(st.tuples(elements, elements), user_coeffs),
            max_size=4))
        tail = draw(st.sampled_from([0, Fraction(1, 3), 1]))
        return (Chain(group, 2, items, tail_bound=tail),
                RefChain(group, 2, items, tail))
    z, ref = m2_chain(group, g, h, N), ref_m2_chain(group, g, h, N)
    if kind == "push":
        f = draw(maps)
        return pushforward(f, z), ref_pushforward(f, ref)
    return z, ref


def _check_against_reference(a, b, f):
    (za, ra), (zb, rb) = a, b
    cases = [(za, ra), (zb, rb), (za + zb, ra + rb), (za - zb, ra - rb),
             (zb - za, rb - ra), (-za, -ra),
             *((za.scale(q), ra.scale(q)) for q in SCALES),
             (boundary(za), ref_boundary(ra)),
             (boundary(boundary(za)), ref_boundary(ref_boundary(ra))),
             (pushforward(f, za), ref_pushforward(f, ra))]
    for z, ref in cases:
        assert_matches(z, ref)
    # equal chains reached by different paths are equal and hash equal
    zero = Chain.zero(za.group, 2)
    for x, y in [((za + zb) - zb, za), (za - za, zero), (-(-za), za),
                 (za.scale(Fraction(1, 3)).scale(3), za),
                 (za + zb, zb + za), (za.scale(0), zero)]:
        assert x == y and hash(x) == hash(y)
        assert x.support == y.support and x.den == y.den


@settings(max_examples=60, deadline=None)
@given(twin_chains(F2, f2_elements, f2_maps),
       twin_chains(F2, f2_elements, f2_maps), f2_maps)
def test_free_group_chains_match_the_fraction_reference(a, b, f):
    _check_against_reference(a, b, f)


@settings(max_examples=40, deadline=None)
@given(twin_chains(Z4, st.integers(1, 4), z4_maps),
       twin_chains(Z4, st.integers(1, 4), z4_maps), z4_maps)
def test_finite_group_chains_match_the_fraction_reference(a, b, f):
    _check_against_reference(a, b, f)


def test_constructor_lifts_rationals_to_the_lcm_and_lowest_terms():
    g, h = p("ab"), p("b'")
    z = Chain(F2, 2, [((g, h), Fraction(1, 3)), ((h, g), Fraction(1, 2)),
                      ((g, g), "-5/6")])
    assert z.den == 6 and z.support == {(g, h): 2, (h, g): 3, (g, g): -5}
    # common factors of the numerators and den cancel
    w = Chain(F2, 2, [((g, h), 6), ((h, g), -4)], den=8)
    assert w.den == 4 and w.support == {(g, h): 3, (h, g): -2}
    assert w == Chain(F2, 2, [((g, h), Fraction(3, 4)),
                              ((h, g), Fraction(-1, 2))])
    half = Chain(F2, 2, [((g, h), Fraction(1, 2))])
    assert (half + half).den == 1 and (half + half).support == {(g, h): 1}
    for bad in (0, -2):
        with pytest.raises(ValueError, match="den"):
            Chain(F2, 2, [((g, h), 1)], den=bad)
    with pytest.raises(TypeError):
        Chain(F2, 2, [((g, h), Fraction(1, 2))], den=2)


def test_pairing_matches_the_fraction_reference():
    g, h = p("ab"), p("ab'")
    m = m_chain(F2, g, 16)
    assert m.den == 2**16
    items = [((g, h), Fraction(1, 3)), ((h, g), Fraction(1, 2)),
             ((g, g), Fraction(1, 3))]
    user = Chain(F2, 2, items)
    assert user.den == 6
    ref_m, ref_user = ref_m_chain(F2, g, 16), RefChain(F2, 2, items)
    cases = [(m, ref_m), (user, ref_user), (m - user, ref_m - ref_user)]
    g2 = words.power(g, 2)
    table = table_cochain(F2, 2, {
        (g, g): Fraction(2, 3), (g2, g2): Fraction(-5, 7),
        (g, h): 3, (h, g): Fraction(1, 5),
    })
    brooks = HomogeneousCocycle(F2, BrooksQuasimorphism(p("ab")))
    # a float value enters the sum exactly, as Fraction(0.375) = 3/8
    floats = BoundedCochain(F2, 2, lambda x, y: 0.375, norm_bound=1)
    for c in (table, brooks, floats):
        for z, ref in cases:
            got = pair(c, z)
            assert (got.value, got.error_bound) == ref_pair(c, ref)
            assert type(got.value) is Fraction
            assert type(got.error_bound) is Fraction
    got = pair(table, m)
    assert got.value == Fraction(1, 2) * Fraction(2, 3) \
        + Fraction(1, 4) * Fraction(-5, 7)
    assert got.error_bound == 3 * Fraction(1, 2**16)
    assert pair(brooks, m).error_bound == 0
