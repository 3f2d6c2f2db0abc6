import random

import pytest
from hypothesis import example, given, settings, strategies as st

from qmcoh import words
from qmcoh.cochains import BoundedCochain, coboundary
from qmcoh.errors import NotACocycle
from qmcoh.fixtures import swap_invariant_cocycle
from qmcoh.groups import FreeGroup, inner_automorphism
from qmcoh.quasimorphism import (
    BrooksQuasimorphism,
    DefectCocycle,
    Homogenization,
    HomogeneousCocycle,
    PulledBackCocycle,
    SumQuasimorphism,
    count_occurrences,
    defect_estimate,
    drift,
    homogeneous_representative,
    homogenize,
)
from qmcoh.words import Pow, parse

F2 = FreeGroup(2)
p = parse


def test_count_occurrences_overlapping():
    assert count_occurrences("ab", "abab") == 2
    assert count_occurrences("aa", "aaa") == 2
    assert count_occurrences("ab", "") == 0
    assert count_occurrences("aba", "ababa") == 2
    # the same counts on the letter encoding of reduced words
    c = words.chars
    assert count_occurrences(c(p("ab")), c(p("abab"))) == 2
    assert count_occurrences(c(p("ab")), c(())) == 0
    assert count_occurrences(c(p("aa")), c(p("aaa"))) == 2


def test_brooks_evaluation():
    phi = BrooksQuasimorphism(p("ab"))
    assert phi(p("abab")) == 2
    assert phi(p("b'a'")) == -1
    assert phi(()) == 0
    assert phi(p("aba'b'")) == 1  # one ab, no b'a'


letters2 = st.integers(min_value=-2, max_value=2).filter(lambda k: k != 0)
small_words = st.lists(letters2, max_size=10).map(words.reduce)
# short cores with conjugators, so the Brooks word is often longer than
# the core and the base is often not cyclically reduced
conjugated_words = st.builds(
    lambda u, c: words.mul(u, c, words.inv(u)),
    st.lists(letters2, max_size=4).map(words.reduce),
    st.lists(letters2, max_size=3).map(words.reduce),
)
brooks_words = (
    st.sampled_from(["aba", "aaaa", "abab", "a'a'a'", "abba'", "ab"]).map(p)
    | st.lists(letters2, min_size=1, max_size=8).map(words.reduce).filter(bool)
)


# small_words keeps cyclic cores of up to 10 letters, often longer than
# the Brooks word, so k0 = 1 and the slope window is mostly core
@given(brooks_words, conjugated_words | small_words | st.just(()),
       st.integers(min_value=-40, max_value=40))
@settings(max_examples=300)
def test_eval_power_matches_direct(w, g, n):
    phi = BrooksQuasimorphism(w)
    # n + 1 is served by the line cached for the same base
    for m in (n, n + 1):
        step = g if m >= 0 else words.inv(g)
        assert phi.eval_power(g, m) == phi(words.mul(*[step] * abs(m)))


needles = (
    st.sampled_from(["aba", "aa", "abab", "aab", "ab", "abA"])
    | st.text(alphabet="abA", min_size=1, max_size=5)
)


@given(needles, st.data())
def test_count_occurrences_matches_naive_overlapping_count(needle, data):
    pieces = st.sampled_from(["a", "b", "A", needle, needle[:-1]])
    hay = "".join(data.draw(st.lists(pieces, max_size=12)))
    naive = sum(hay.startswith(needle, i) for i in range(len(hay)))
    assert count_occurrences(needle, hay) == naive


# long and self-overlapping Brooks words against short cores: k0(g) is
# often far above 1, where a run of equal power increments can settle
# on a wrong value before the count turns affine
long_brooks_words = brooks_words | st.sampled_from(
    ["b'" * 11, "a" * 7, "ababa", "bab'"]).map(p)
short_cores = st.sampled_from(["b'", "b'b'", "a", "ab", "ab'"]).map(p)


@given(long_brooks_words,
       conjugated_words | short_cores | small_words | st.just(()))
@settings(max_examples=200)
def test_homogenize_is_the_slope_of_powers(w, g):
    phi = BrooksQuasimorphism(w)
    n = 200
    slope = phi(words.power(g, 2 * n)) - phi(words.power(g, n))
    assert n * homogenize(phi, g) == slope


@given(brooks_words, st.lists(letters2, max_size=12),
       st.integers(min_value=-40, max_value=40))
def test_power_line_reduces_raw_letter_lists(w, ls, n):
    # the raw list often holds an inverse pair; its values are those of
    # its reduced word, read off a separate evaluator
    phi = BrooksQuasimorphism(w)
    ref = BrooksQuasimorphism(w)
    g = words.reduce(ls)
    assert homogenize(phi, tuple(ls)) == homogenize(ref, g)
    assert phi.eval_power(tuple(ls), n) == ref.eval_power(g, n)


@pytest.mark.parametrize("base", [(1, 0, 2), (27,), (2, -27, 1)])
def test_power_line_rejects_letters_without_a_name(base):
    phi = BrooksQuasimorphism(p("ab"))
    with pytest.raises(ValueError):
        homogenize(phi, base)
    with pytest.raises(ValueError):
        phi.eval_power(base, 3)


# counted words with borders, whose occurrences overlap one another
# across the ends of a core
bordered_words = st.sampled_from(["aa", "aba", "abab", "aBaB"]).map(p)


@given(bordered_words | long_brooks_words,
       conjugated_words | short_cores | small_words,
       st.integers(min_value=-12, max_value=12))
@example(p("b'" * 11), p("a"), 3)  # k0 = 10
@example(p("aBaB"), p("baBaB"), 1)  # k0 = 1, |core| = |w| - 1 = 3
@example(p("a"), p("ba'b'"), 1)  # |w| = 1: empty head and tail
@settings(max_examples=300)
def test_line_is_the_scan_of_its_two_strings(w, g, n):
    # with k0 = 1, line reads f0 and the slope off one scan of the core
    # and scans of its ends; with k0 > 1 it scans the two strings. Either
    # way they are the counts on the base string and on the slope window
    phi = BrooksQuasimorphism(w)
    cc, uc = words.power_chars(g, n)
    k0, f0, slope, core, conj, conj_inv = phi.line(cc, uc)
    assert (core, conj) == (cc, uc)
    if not cc:
        assert (k0, f0, slope) == (1, 0, 0)
        return
    span = len(w) - 1
    assert k0 == max(1, -(-span // len(cc)))
    assert f0 == phi.eval_string(uc + cc * k0 + conj_inv)
    assert slope == phi.eval_string((cc * (k0 + 1))[:len(cc) + span])


def test_long_power_line_runs_no_letter_loop(monkeypatch):
    g = p("baaba'b'")  # (ba) . ab . (ba)^-1
    x = words.power(g, 2**16)
    phi = BrooksQuasimorphism(p("ab"))
    cyclic_chars = words.cyclic_chars

    def refuse(letters):
        raise AssertionError("a letter loop ran on a reduced word")

    def short_only(s):
        assert len(s) <= 16, f"cyclic_chars split {len(s)} letters"
        return cyclic_chars(s)

    # parse is where an unreduced string would go, and reduce is the
    # loop behind it: a long reduced word is split without either
    monkeypatch.setattr(words, "reduce", refuse)
    monkeypatch.setattr(words, "parse", refuse)
    assert homogenize(phi, x) == 2**16
    # the line of a long power is read off the split of its base, so
    # its string is not even split
    monkeypatch.setattr(words, "cyclic_chars", short_only)
    k0, f0, slope, core, conj, conj_inv = phi.line(
        *words.power_chars(g, 2**16))
    assert (core, conj, conj_inv) == ("ab" * 2**16, "ba", "AB")
    assert slope == 2**16


def test_homogenize_oracles():
    phi = BrooksQuasimorphism(p("ab"))
    assert homogenize(phi, p("ab")) == 1
    assert homogenize(phi, p("abab")) == 2
    assert homogenize(phi, p("a")) == 0
    assert homogenize(phi, ()) == 0
    # commutator witness: the homogenization is not a homomorphism
    assert homogenize(phi, p("aba'b'")) == 1
    # a word much longer than the core: k0 = 10 for b' and its conjugates
    long_phi = BrooksQuasimorphism(p("b'" * 11))
    assert homogenize(long_phi, p("b'")) == 1
    assert homogenize(long_phi, p("ab'a'")) == 1
    assert homogenize(long_phi, p("b")) == -1
    # a sum homogenizes part by part
    both = SumQuasimorphism([phi, long_phi])
    assert homogenize(both, p("ab")) == 1 + 0
    assert homogenize(both, p("b'")) == 0 + 1


def test_homogenize_conjugation_invariance():
    phi = BrooksQuasimorphism(p("ab"))
    rng = random.Random(7)
    for _ in range(20):
        g = F2.random_element(rng, 8)
        k = F2.random_element(rng, 6)
        assert homogenize(phi, F2.conj(k, g)) == homogenize(phi, g)


def test_homogenize_is_homogeneous():
    phi = BrooksQuasimorphism(p("abb"))
    hom = Homogenization(phi)
    rng = random.Random(13)
    for _ in range(10):
        g = F2.random_element(rng, 7)
        v = homogenize(phi, g)
        for n in (-3, -1, 2, 4):
            assert homogenize(phi, words.power(g, n)) == n * v
        # a homogeneous phi is its own homogenization
        assert homogenize(hom, g) == v


def test_defect_estimate_is_deterministic_lower_bound():
    phi = BrooksQuasimorphism(p("ab"))
    d1 = defect_estimate(phi, F2, samples=80, seed=3)
    d2 = defect_estimate(phi, F2, samples=80, seed=3)
    assert d1 == d2 >= 1


def test_homogeneous_cocycle_oracles():
    c = HomogeneousCocycle(F2, BrooksQuasimorphism(p("ab")))
    assert c(p("a"), p("b")) == 1
    assert c(p("a"), p("a")) == 0
    # phi(ba): (ba)^n contains ab exactly n-1 times and b'a' never,
    # so the increment is 1 and c(b,a) = 1 - 0 - 0.
    assert c(p("b"), p("a")) == 1


def test_cocycle_law_sampled():
    c = HomogeneousCocycle(F2, BrooksQuasimorphism(p("ab")))
    dc = coboundary(c)
    rng = random.Random(23)
    for _ in range(30):
        g, h, k = (F2.random_element(rng, 6) for _ in range(3))
        assert dc(g, h, k) == 0


def test_defect_cocycles_are_closed_under_coboundary():
    # d(d phi) = 0 for a non-homogeneous phi, and the swap-invariant
    # cocycle of the sum brooks(ab) + brooks(ba) is closed too
    cocycles = [DefectCocycle(F2, BrooksQuasimorphism(p(w)))
                for w in ("ab", "aab", "abAB")]
    cocycles.append(swap_invariant_cocycle(F2))
    rng = random.Random(41)
    for c in cocycles:
        dc = coboundary(c)
        assert dc.degree == 3 and dc.group is F2
        for _ in range(40):
            g, h, k = (F2.random_element(rng, 6) for _ in range(3))
            assert dc(g, h, k) == 0, (c.name, g, h, k)


def test_power_pair_shortcut_never_expands():
    c = HomogeneousCocycle(F2, BrooksQuasimorphism(p("ab")))
    g = p("ab'a")
    # exponents far beyond the expansion cap: only the shortcut can answer
    assert c.evaluate((Pow(g, 2**30), Pow(g, 2**30))) == 0
    assert c.evaluate((Pow(g, 2**30), Pow(words.inv(g), 2**20))) == 0
    assert c.evaluate((g, Pow(g, 2**30))) == 0


def test_homogeneous_cocycle_on_power_pairs_honestly():
    c = HomogeneousCocycle(F2, BrooksQuasimorphism(p("ab")))
    g = p("aab")
    for n, m in ((1, 1), (2, 3), (-2, 2), (3, -1)):
        gn = words.power(g, n)
        gm = words.power(g, m)
        assert c(gn, gm) == 0


def test_defect_cocycle_pow_entries():
    phi = BrooksQuasimorphism(p("ab"))
    c = DefectCocycle(F2, phi)
    g = p("ab")
    direct = phi(words.power(g, 4)) - 2 * phi(words.power(g, 2))
    assert c.evaluate((Pow(g, 2), Pow(g, 2))) == direct


def test_pullback_by_inner_fixes_homogeneous():
    c = HomogeneousCocycle(F2, BrooksQuasimorphism(p("ab")))
    i = inner_automorphism(F2, p("ab'"))
    cc = PulledBackCocycle(i, c)
    rng = random.Random(5)
    for _ in range(15):
        g = F2.random_element(rng, 6)
        h = F2.random_element(rng, 6)
        assert cc(g, h) == c(g, h)
    assert cc.homogeneous


def test_pullback_keeps_powers_symbolic():
    c = HomogeneousCocycle(F2, BrooksQuasimorphism(p("ab")))
    i = inner_automorphism(F2, p("b"))
    cc = PulledBackCocycle(i, c)
    g = p("ab")
    assert cc.evaluate((Pow(g, 2**30), Pow(g, 2**30))) == 0


def test_homogeneous_representative_matches_direct():
    phi = BrooksQuasimorphism(p("ab"))
    c = DefectCocycle(F2, phi)
    rng = random.Random(31)
    triples = [
        tuple(F2.random_element(rng, 5) for _ in range(3)) for _ in range(10)
    ]
    rep = homogeneous_representative(c, sample_triples=triples)
    cx = HomogeneousCocycle(F2, phi)
    for _ in range(20):
        g = F2.random_element(rng, 6)
        h = F2.random_element(rng, 6)
        assert rep(g, h) == cx(g, h)


def test_psi_is_exact_where_power_values_settle_late():
    # phi_w(b'^n) = max(0, n - 10), so c(b'^n, b') reads 0 for
    # n = 1..9 before it settles on the drift 1 from n = 10 on
    phi = BrooksQuasimorphism(p("b'" * 11))
    c = DefectCocycle(F2, phi)
    assert drift(c, p("b'")) == 1
    assert drift(c, p("ab'a'")) == 1
    assert drift(c, p("b")) == -1
    assert drift(c, ()) == 0
    # the representative adds d(drift) to c: c(b'^10, b') = 1 - 0 - 0,
    # and the drift terms 10 - 10 - 1 cancel it on this power pair
    rep = homogeneous_representative(c)
    b10 = words.power(p("b'"), 10)
    assert c(b10, p("b'")) == 1
    assert rep(b10, p("b'")) == 0


@given(long_brooks_words, short_cores | conjugated_words,
       short_cores | conjugated_words)
@settings(max_examples=150)
def test_homogeneous_representative_is_exact_on_long_words(w, g, h):
    phi = BrooksQuasimorphism(w)
    rep = homogeneous_representative(DefectCocycle(F2, phi))
    assert rep(g, h) == HomogeneousCocycle(F2, phi)(g, h)


def test_psi_vanishes_for_a_homogeneous_cocycle():
    c = HomogeneousCocycle(F2, BrooksQuasimorphism(p("abb")))
    rep = homogeneous_representative(c)
    rng = random.Random(17)
    for _ in range(15):
        g = F2.random_element(rng, 7)
        h = F2.random_element(rng, 7)
        assert drift(c, g) == 0
        assert rep(g, h) == c(g, h)


def test_psi_needs_a_cocycle_with_a_phi():
    c = HomogeneousCocycle(F2, BrooksQuasimorphism(p("ab")))
    pulled = PulledBackCocycle(inner_automorphism(F2, p("b")), c)
    rep = homogeneous_representative(pulled)
    with pytest.raises(TypeError, match="phi"):
        drift(pulled, p("ab"))
    with pytest.raises(TypeError, match="phi"):
        rep(p("ab"), p("b"))


def test_homogeneous_representative_rejects_non_cocycle():
    junk = BoundedCochain(F2, 2, lambda x, y: 1 if (x != () and y != ()) else 0)
    triples = [(p("a"), p("a'"), p("b"))]
    # dc(a, a', b) = c(a', b) - c(1, b) + c(a, a'b) - c(a, a') = 1
    with pytest.raises(NotACocycle) as err:
        homogeneous_representative(junk, sample_triples=triples)
    assert (err.value.witness, err.value.value) == (triples[0], 1)


def test_homogeneous_representative_rejects_unnormalized():
    junk = BoundedCochain(F2, 2, lambda x, y: len(x))
    triples = [(p("a"), p("b"), p("ab"))]
    with pytest.raises(ValueError, match="normalized"):
        homogeneous_representative(junk, sample_triples=triples)
