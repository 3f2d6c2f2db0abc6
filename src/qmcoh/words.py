"""Reduced words in finitely generated free groups.

A word is a tuple of nonzero ints: ``k > 0`` is the k-th generator, ``-k``
its inverse. Generators are 1-indexed so that negation is inversion and 0
never appears. The empty tuple is the identity. Public functions return
reduced words.

Text syntax: generators are lowercase letters ``a, b, c, ...``; an
apostrophe inverts the letter before it (``"a'b"``), and uppercase letters
are accepted as inverses on input (``"Ab"`` parses to the same word).
``fmt`` always emits the apostrophe form. The empty string is the
identity.

``chars`` re-encodes a word as one character per letter (lowercase for
generators, uppercase for inverses), which makes occurrence counting of
subwords a plain substring scan. In that encoding the inverse of a
letter is its ``swapcase``, so ``cyclic_chars`` takes such a string,
tests its reducedness and splits off the conjugator with string
operations alone. ``power_chars`` gives the split of a power w^n
straight from the split of w, by string repetition: the string of w^n
is never scanned, reduced or split, and the tuple of ``power`` is never
made.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from typing import NamedTuple

from .errors import ResourceCapExceeded

Word = tuple[int, ...]


class Pow(NamedTuple):
    """Symbolic power base^exp of a reduced word, left unexpanded.

    Chain supports hold these so that series entries like g^(2^n) never
    materialize unless an evaluator actually needs the letters. Use
    ``expand_entry`` to force one.
    """

    base: tuple
    exp: int


def expand_entry(x):
    """Force a Pow to its explicit word; everything else passes through."""
    if isinstance(x, Pow):
        return power(x.base, x.exp)
    return x


_root_cache: dict = {}


def primitive_root(w: Word) -> tuple[Word, int]:
    """(r, k) with w = r^k, r primitive and k >= 1; w must be nonempty.

    Roots are unique in free groups, so this is a canonical form. The
    cyclic core's smallest word period gives the root of the core, and
    conjugating back gives the root of w.
    """
    hit = _root_cache.get(w)
    if hit is not None:
        return hit
    core, conj = cyclic_reduce(w)
    n = len(core)
    if n == 0:
        raise ValueError("the identity has no primitive root")
    # smallest period of the core via the prefix function
    pi = [0] * n
    k = 0
    for i in range(1, n):
        while k and core[i] != core[k]:
            k = pi[k - 1]
        if core[i] == core[k]:
            k += 1
        pi[i] = k
    p = n - pi[n - 1]
    if n % p:
        p = n
    root = mul(conj, core[:p], inv(conj))
    out = (root, n // p)
    if len(_root_cache) < 65536:
        _root_cache[w] = out
    return out


def pow_entry(base: Word, exp: int):
    """Canonical power entry for the element base^exp.

    The stored base is always a primitive root and the stored exponent
    is >= 2 (negative totals invert the root); exponents that collapse
    to 0 or +-1 come back as plain words. Two entries built through
    this function, or from its entries by ``entry_pow`` and
    ``entry_mul``, are equal exactly when they name the same element.
    """
    if exp == 0 or base == ():
        return ()
    root, j = primitive_root(base)
    return _root_entry(root, j * exp)


def _root_entry(root: Word, e: int):
    """The canonical entry of root^e, root primitive and e nonzero."""
    if e < 0:
        root, e = inv(root), -e
    return root if e == 1 else Pow(root, e)


def entry_pow(x, n: int):
    """x^n for a canonical entry x, canonical again: the root of x is
    the root of x^n, so nothing is rooted or expanded again."""
    if isinstance(x, Pow):
        return _root_entry(x.base, x.exp * n) if n else ()
    return _root_entry(x, n) if n and x else ()


def entry_mul(x, y):
    """Product of two canonical free-word entries, canonical again.

    Same-root products (inverse roots included) never expand their
    symbolic powers.
    """
    bx, ex = (x.base, x.exp) if isinstance(x, Pow) else (x, 1)
    by, ey = (y.base, y.exp) if isinstance(y, Pow) else (y, 1)
    if bx == () or by == ():
        return x if by == () else y
    if bx == by:
        return pow_entry(bx, ex + ey)
    if bx == inv(by):
        return pow_entry(bx, ex - ey)
    out = mul(expand_entry(x), expand_entry(y))
    return pow_entry(out, 1) if out else ()

# Exponent cap for power(): words of length |g| * 2**16 are the largest
# anything downstream is allowed to materialize.
POWER_CAP = 2**16

# chars() encodes generator k as the k-th lowercase letter.
_MAX_CHAR_RANK = 26


def reduce(letters: Iterable[int]) -> Word:
    """Freely reduce a letter sequence (single stack pass)."""
    out: list[int] = []
    for k in letters:
        if k == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def is_reduced(letters: Iterable[int]) -> bool:
    prev = 0
    for k in letters:
        if k == 0 or k == -prev:
            return False
        prev = k
    return True


def mul(*words: Word) -> Word:
    """Product of reduced words, reduced.

    Every factor must be reduced: only the letters that meet at the
    junction of the product so far and the next factor cancel, and the
    rest of that factor is copied as it stands. A factor that is not
    reduced leaves its own cancellations in the result.
    """
    out: list[int] = []
    for w in words:
        i, n = 0, len(w)
        while i < n and out and out[-1] == -w[i]:
            out.pop()
            i += 1
        out.extend(w[i:] if i else w)
    return tuple(out)


def inv(w: Word) -> Word:
    return tuple(-k for k in reversed(w))


def conjugate(w: Word, by: Word) -> Word:
    """by . w . by^-1"""
    return mul(by, w, inv(by))


def power(w: Word, n: int) -> Word:
    """w^n as an explicit reduced word.

    With w = u . c . u^-1 from ``cyclic_reduce``, w^n is u . c^n . u^-1
    and needs no cancellation, since c is cyclically reduced; negative
    n use c^-1. So the result is one tuple concatenation, not a chain
    of reducing products. Exponents beyond +-POWER_CAP are refused: the
    result could not be stored as a plain tuple anyway.
    """
    _check_exponent(n)
    core, conj = cyclic_reduce(w)
    if n < 0:
        core, n = inv(core), -n
    if n == 0:
        return ()
    return conj + core * n + inv(conj)


def _check_exponent(n: int) -> None:
    if abs(n) > POWER_CAP:
        raise ResourceCapExceeded(
            f"exponent {n} exceeds cap {POWER_CAP} for explicit words"
        )


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w as conj . core . conj^-1 with core cyclically reduced.

    Returns (core, conj). Examples: a a b a' -> (ab, a); abab -> (abab, e).
    """
    w = reduce(w)
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return w[lo:hi], w[:lo]


def exponent_sum(w: Word, gen: int) -> int:
    """Signed count of occurrences of generator gen (gen >= 1)."""
    return sum(1 if k == gen else -1 if k == -gen else 0 for k in w)


def max_generator(w: Word) -> int:
    return max((abs(k) for k in w), default=0)


def parse(text: str) -> Word:
    """Parse the letter syntax; raises ValueError with the bad position."""
    out: list[int] = []
    for pos, ch in enumerate(text):
        if ch.isspace():
            continue
        if ch == "'":
            if not out:
                raise ValueError(f"dangling apostrophe at position {pos}")
            out[-1] = -out[-1]
        elif "a" <= ch <= "z":
            out.append(ord(ch) - ord("a") + 1)
        elif "A" <= ch <= "Z":
            out.append(-(ord(ch) - ord("A") + 1))
        else:
            raise ValueError(f"bad character {ch!r} at position {pos}")
    return reduce(out)


def fmt(w: Word) -> str:
    """Canonical text form, apostrophes for inverses."""
    parts = []
    for k in w:
        if abs(k) > _MAX_CHAR_RANK:
            raise ValueError(f"generator {abs(k)} has no letter name")
        ch = chr(ord("a") + abs(k) - 1)
        parts.append(ch if k > 0 else ch + "'")
    return "".join(parts)


_CHAR_OF = {
    sign * k: chr((ord("a") if sign > 0 else ord("A")) + k - 1)
    for k in range(1, _MAX_CHAR_RANK + 1) for sign in (1, -1)
}


def chars(w: Word) -> str:
    """One-character-per-letter encoding (uppercase = inverse)."""
    try:
        return "".join(map(_CHAR_OF.__getitem__, w))
    except KeyError as ex:
        raise ValueError(
            f"generator {abs(ex.args[0])} has no letter name"
        ) from None


def cyclic_chars(s: str) -> tuple[str, str]:
    """``cyclic_reduce`` on the ``chars`` encoding: (core, conj) of the
    word whose string is s, as strings, for the same split
    w = conj . core . conj^-1.

    A word is reduced exactly when its string holds no pair
    x + x.swapcase(), so one substring search per distinct letter, at C
    speed, replaces the stack loop of ``reduce``; only a string that
    fails the search is parsed, reduced and encoded again.
    """
    if any(x + x.swapcase() in s for x in set(s)):
        s = chars(parse(s))
    lo, hi = 0, len(s)
    while hi - lo >= 2 and s[lo] == s[hi - 1].swapcase():
        lo += 1
        hi -= 1
    return s[lo:hi], s[:lo]


def power_chars(w: Word, n: int) -> tuple[str, str]:
    """The split (core, conj) of w^n on the ``chars`` encoding, equal to
    ``cyclic_chars(chars(power(w, n)))``.

    With w = conj . c . conj^-1 and c cyclically reduced, w^n is
    conj . c^n . conj^-1, reduced as it stands, and c^n is cyclically
    reduced; negative n use c^-1. So the core is the string of c
    repeated |n| times and the conjugator is w's own: only w is split.
    Exponents beyond +-POWER_CAP are refused, as by ``power``.
    """
    _check_exponent(n)
    if n == 0:
        return "", ""
    core, conj = cyclic_chars(chars(w))
    if n < 0:
        core, n = core.swapcase()[::-1], -n
    return core * n, conj


def random_reduced(rng: random.Random, rank: int, length: int) -> Word:
    """Uniform reduced word of exactly the requested length.

    Each letter is drawn uniformly from the choices that do not cancel
    the previous one (no backtracking), so the word is reduced by
    construction.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    letters: list[int] = []
    alphabet = [k for g in range(1, rank + 1) for k in (g, -g)]
    for _ in range(length):
        if letters:
            banned = -letters[-1]
            k = rng.choice([x for x in alphabet if x != banned])
        else:
            k = rng.choice(alphabet)
        letters.append(k)
    return tuple(letters)
