import random

import pytest
from hypothesis import given, settings, strategies as st

from qmcoh import words
from qmcoh.errors import ResourceCapExceeded
from qmcoh.quasimorphism import BrooksQuasimorphism
from qmcoh.words import (
    chars,
    cyclic_chars,
    cyclic_reduce,
    exponent_sum,
    fmt,
    inv,
    is_reduced,
    mul,
    parse,
    power,
    power_chars,
    reduce,
)

letters = st.integers(min_value=-3, max_value=3).filter(lambda k: k != 0)
raw_words = st.lists(letters, max_size=24)
reduced_words = raw_words.map(reduce)


def test_parse_basics():
    assert parse("") == ()
    assert parse("ab") == (1, 2)
    assert parse("a'b") == (-1, 2)
    assert parse("Ab") == (-1, 2)
    assert parse("abAB") == (1, 2, -1, -2)
    assert parse("a a") == (1, 1)


def test_parse_cancels():
    assert parse("aa'b") == (2,)
    assert parse("aA") == ()


def test_parse_errors():
    with pytest.raises(ValueError, match="position 0"):
        parse("'a")
    with pytest.raises(ValueError, match="position 1"):
        parse("a1b")


def test_fmt_apostrophe_form():
    assert fmt((-1, 2, -2, 1)) == "a'bb'a" or fmt((-1, 2)) == "a'b"
    assert fmt(()) == ""
    assert fmt((1, 2, -1, -2)) == "aba'b'"


def test_chars_encoding():
    assert chars(parse("aba'b'")) == "abAB"
    assert chars(()) == ""
    assert chars((26, -26, 1)) == "zZa"


def test_reduce_examples():
    assert reduce([1, -1, 2]) == (2,)
    assert reduce([1, 2, -2, -1]) == ()
    assert reduce([1, 2, -2, 1]) == (1, 1)


def test_mul_cancellation_at_seam():
    assert mul(parse("ab"), parse("b'a")) == (1, 1)
    assert mul(parse("ab"), parse("b'a'")) == ()
    assert mul((), parse("ab"), ()) == (1, 2)


factor_lists = st.lists(reduced_words | st.just(()), max_size=8)


@given(factor_lists)
def test_mul_of_reduced_factors_reduces_their_concatenation(factors):
    got = mul(*factors)
    assert got == reduce([k for w in factors for k in w])
    assert is_reduced(got)


@given(factor_lists, st.data())
def test_mul_cancels_across_several_factors(factors, data):
    # the inverse of the product, cut into pieces, cancels it piece by
    # piece, each piece reaching back over the factors before it
    w = mul(*factors)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(w)), max_size=4)))
    ends = [0, *cuts, len(w)]
    pieces = [inv(w[i:j]) for i, j in zip(ends, ends[1:])][::-1]
    assert mul(*factors, *pieces) == ()
    tail = data.draw(reduced_words)
    assert mul(*factors, *pieces, tail) == tail
    assert mul(*factors, (), *pieces, (), tail, ()) == tail


def test_inv():
    assert inv(parse("ab")) == parse("b'a'")
    assert inv(()) == ()


def test_power_examples():
    w = parse("aba'")
    assert power(w, 3) == parse("abbba'")
    assert power(w, 0) == ()
    assert power(w, -2) == parse("ab'b'a'")
    assert power(parse("ab"), 4) == parse("abababab")


def test_power_cap():
    power(parse("a"), words.POWER_CAP)
    with pytest.raises(ResourceCapExceeded):
        power(parse("a"), words.POWER_CAP + 1)


def test_cyclic_reduce_examples():
    assert cyclic_reduce(parse("aaba'")) == (parse("ab"), parse("a"))
    assert cyclic_reduce(parse("aba'")) == (parse("b"), parse("a"))
    assert cyclic_reduce(parse("abab")) == (parse("abab"), ())
    assert cyclic_reduce(()) == ((), ())
    # single letter words are their own core
    assert cyclic_reduce(parse("a")) == (parse("a"), ())


def test_exponent_sum():
    assert exponent_sum(parse("abAB"), 1) == 0
    assert exponent_sum(parse("aab'"), 1) == 2
    assert exponent_sum(parse("aab'"), 2) == -1


@given(raw_words)
def test_reduce_is_reduced_and_idempotent(ls):
    w = reduce(ls)
    assert is_reduced(w)
    assert reduce(w) == w


@given(reduced_words, reduced_words)
def test_mul_inverse_law(u, v):
    assert mul(u, inv(u)) == ()
    assert inv(mul(u, v)) == mul(inv(v), inv(u))


@given(reduced_words, reduced_words, reduced_words)
def test_mul_associative(u, v, w):
    assert mul(mul(u, v), w) == mul(u, mul(v, w))


@given(raw_words, st.sampled_from([0, 1, -1]) | st.integers(-30, 30))
def test_power_matches_iterated_mul(ls, n):
    # unreduced input too: power reduces it first
    step = reduce(ls) if n >= 0 else inv(reduce(ls))
    got = power(tuple(ls), n)
    assert got == mul(*[step] * abs(n))
    assert is_reduced(got)


@given(reduced_words, st.integers(words.POWER_CAP + 1, 4 * words.POWER_CAP),
       st.sampled_from([1, -1]))
def test_power_refuses_exponents_beyond_the_cap(w, n, sign):
    with pytest.raises(ResourceCapExceeded):
        power(w, sign * n)


@given(reduced_words, st.integers(27, 500), st.sampled_from([1, -1]))
def test_chars_refuses_generators_beyond_rank_26(w, k, sign):
    with pytest.raises(ValueError, match=f"generator {k} "):
        chars(w + (sign * k,))


@given(reduced_words)
def test_cyclic_reduce_reassembles(w):
    core, conj = cyclic_reduce(w)
    assert mul(conj, core, inv(conj)) == w
    # the core really is cyclically reduced
    assert not (len(core) >= 2 and core[0] == -core[-1])


@given(reduced_words)
def test_parse_fmt_roundtrip(w):
    assert parse(fmt(w)) == w


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=4))
def test_random_reduced_exact_length(length, rank):
    rng = random.Random(11)
    w = words.random_reduced(rng, rank, length)
    assert len(w) == length
    assert is_reduced(w)


def test_random_reduced_deterministic():
    a = words.random_reduced(random.Random(5), 2, 30)
    b = words.random_reduced(random.Random(5), 2, 30)
    assert a == b


def test_primitive_root_oracles():
    assert words.primitive_root(parse("abab")) == (parse("ab"), 2)
    assert words.primitive_root(parse("ab")) == (parse("ab"), 1)
    # conjugates of powers root through the conjugate: (aba')^3 = ab^3a'
    assert words.primitive_root(parse("abbba'")) == (parse("aba'"), 3)
    with pytest.raises(ValueError):
        words.primitive_root(())


def test_pow_entry_canonicalizes_roots():
    ab = parse("ab")
    assert words.pow_entry(parse("abab"), 3) == words.Pow(ab, 6)
    assert words.pow_entry(ab, -1) == words.inv(ab)
    assert words.pow_entry(parse("abab"), -1) == words.Pow(words.inv(ab), 2)
    assert words.pow_entry(ab, 0) == ()


def test_entry_mul_inverse_base_stays_symbolic():
    ab = parse("ab")
    big = words.Pow(ab, 2**40)
    out = words.entry_mul(big, words.Pow(words.inv(ab), 2**40 - 2))
    assert out == words.Pow(ab, 2)
    # a plain product that lands on a proper power is re-rooted
    assert words.entry_mul(ab, parse("abab")) == words.Pow(ab, 3)


@given(reduced_words, st.integers(-5, 5), st.integers(-40, 40))
def test_entry_pow_of_a_canonical_entry_is_the_canonical_power(w, k, n):
    assert words.entry_pow(words.pow_entry(w, k), n) == \
        words.pow_entry(w, k * n)


@given(raw_words)
def test_cyclic_chars_is_cyclic_reduce_on_the_encoding(ls):
    # unreduced input too: chars encodes letter by letter, so the string
    # keeps every inverse pair and the check sends it through reduce
    core, conj = cyclic_reduce(tuple(ls))
    assert cyclic_chars(chars(tuple(ls))) == (chars(core), chars(conj))


def conjugated(ws):
    return st.builds(lambda u, c: mul(u, c, inv(u)), ws, ws)


@given(reduced_words | conjugated(reduced_words), st.integers(-40, 40),
       st.lists(letters, min_size=1, max_size=5).map(reduce).filter(bool),
       st.integers(1, 3))
def test_power_chars_is_the_split_of_power(w, n, counted, extra):
    core, conj = power_chars(w, n)
    x = chars(power(w, n))
    assert (core, conj) == cyclic_chars(x)
    conj_inv = conj.swapcase()[::-1]
    assert conj + core + conj_inv == x
    phi = BrooksQuasimorphism(counted)
    assert phi.line(core, conj) == phi.line(*cyclic_chars(x))
    for sign in (1, -1):
        with pytest.raises(ResourceCapExceeded):
            power_chars(w, sign * (words.POWER_CAP + extra))


short_words = st.lists(letters, max_size=6).map(reduce)


@given(short_words | conjugated(short_words), st.sampled_from([1, -1]))
@settings(max_examples=20)
def test_power_chars_at_the_cap(w, sign):
    n = sign * words.POWER_CAP
    assert power_chars(w, n) == cyclic_chars(chars(power(w, n)))
    with pytest.raises(ResourceCapExceeded):
        power_chars(w, n + sign)
