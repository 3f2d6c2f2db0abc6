"""Counting quasimorphisms on free groups, exact homogenization, and the
associated degree-2 cocycles.

All values are exact rationals (ints where possible). Homogenization
is in closed form: a Brooks count on powers of g is affine in the
exponent from k0(g) on (see ``BrooksQuasimorphism.eval_power``), and
its slope, the per-period count on the periodic word core(g)^Z, is the
exact limit of phi(g^n)/n. Nothing here is floating point and nothing
is truncated.

The cocycles (``DefectCocycle``, ``HomogeneousCocycle``,
``PulledBackCocycle``, ``CorrectedCocycle``) are degree-2
:class:`qmcoh.cochains.BoundedCochain`s over the group they are given,
so ``coboundary``, ``cup`` and ``pair`` take them like any other
cochain. Each overrides ``evaluate`` only, so its calls and its
pairings share one formula and one cache. The primitive psi that makes
a defect cocycle d(phi) homogeneous is the same closed form as the
homogenization: ``drift`` is homogenize(phi) - phi.

Counting is done on the one-character-per-letter string encoding (see
``words.chars``), so an occurrence count is a substring scan. Brooks
counts on powers u . c^k . u^-1 are affine in k once c^k is longer than
the counted word, so ``BrooksQuasimorphism.eval_power`` scans two short
strings per base and extrapolates exactly; it never materializes c^k
for large k. That line is read off the split (c, u) of the base, as
strings, by ``BrooksQuasimorphism.line``, and cached per word by
``_power_line``, which splits the word itself. A caller that already
holds the split of a long word, such as the split of g^(2^16) that
``words.power_chars`` reads off g's, hands it to ``line`` directly,
uncached, so the long string is never split or reduced. ``line`` reads
both phi(base) and the slope off one scan of a core at least |w| - 1
letters long, plus scans of the few letters around its two ends, so a
long core is scanned once and never joined to its conjugators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import words
from .cochains import BoundedCochain, coboundary
from .errors import NotACocycle
from .groups import Group
from .words import Pow, Word


@lru_cache(maxsize=1024)
def _has_border(s: str) -> bool:
    """True if some nonempty proper prefix of s is also a suffix."""
    return any(s[:i] == s[-i:] for i in range(1, len(s)))


def count_occurrences(needle: str, hay: str) -> int:
    """Occurrences of needle in hay, overlapping ones included.

    Two occurrences at distance d < len(needle) make the needle's
    prefix of length len(needle) - d a suffix too. A needle without
    such a border therefore never overlaps itself, and the
    non-overlapping ``str.count`` is exact for it.
    """
    if not needle:
        raise ValueError("empty needle")
    if not _has_border(needle):
        return hay.count(needle)
    n = 0
    i = hay.find(needle)
    while i != -1:
        n += 1
        i = hay.find(needle, i + 1)
    return n


def _inv_chars(s: str) -> str:
    return s.swapcase()[::-1]


class Quasimorphism:
    """Base of the evaluators: ``phi(g)`` is the value at g and
    ``phi.eval_power(g, n)`` the value at g^n. ``homogeneous`` marks
    maps that already satisfy phi(g^n) = n phi(g).
    """

    homogeneous = False

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


class BrooksQuasimorphism(Quasimorphism):
    """phi_w(g) = (occurrences of w in g) - (occurrences of w^-1 in g),
    overlapping occurrences counted."""

    def __init__(self, w: Word, name: str | None = None):
        if w == ():
            raise ValueError("Brooks word must be nonempty")
        super().__init__(name or f"brooks({words.fmt(w)})")
        self.word = tuple(w)
        self._w = words.chars(w)
        self._winv = _inv_chars(self._w)
        self._cyclic: dict = {}
        self._power_cache: dict = {}

    def eval_string(self, s: str) -> int:
        return count_occurrences(self._w, s) - count_occurrences(self._winv, s)

    def __call__(self, g):
        return self.eval_string(words.chars(g))

    def line(self, cc: str, uc: str) -> tuple:
        """(k0, phi(base^k0), slope, core, conj, conj^-1) for the base
        uc + cc + uc^-1, all strings in the ``chars`` encoding; see
        ``eval_power``. Nothing is cached.

        Precondition, not checked: cc is cyclically reduced and
        uc + cc + uc^-1 is reduced, as for a split made by
        ``words.cyclic_chars`` or ``words.power_chars``.

        When k0 = 1 (|cc| >= span = L - 1, L = |w|), cc is scanned once
        and both values are read off that scan, mid = E(cc), plus scans
        of the junctions head = cc[:span] and tail = the last span
        letters of cc:

            f0 = mid + E(uc + head) + E(tail + ui),
            slope = mid + E(tail + head).

        Proof. Sort the length-L windows of uc + cc + ui. A window that
        meets uc ends within the first L - 1 letters after it, so it
        lies in uc + head; a window that meets ui but not uc lies in
        tail + ui, by the mirror argument. No window meets both, since
        that takes |cc| + 2 > L letters. The rest lie inside cc, and
        are counted by mid. Conversely every window of uc + head meets
        uc, and every one of tail + ui meets ui, because head and tail
        are shorter than L and hold no window by themselves. The slope
        counts the windows at offsets 0 .. |cc| - 1 of cc + head
        (``eval_power``): those inside cc, counted by mid, and those
        that cross into head, which are exactly the windows of
        tail + head. Cores with k0 > 1 are shorter than L - 1, and
        their two strings are scanned directly.
        """
        ui = _inv_chars(uc)
        if not cc:  # the identity: phi = 0 on every power
            return (1, 0, 0, cc, uc, ui)
        span = len(self._w) - 1
        if len(cc) < span:
            k0 = -(-span // len(cc))
            f0 = self.eval_string(uc + cc * k0 + ui)
            slope = self.eval_string((cc * (k0 + 1))[:len(cc) + span])
            return (k0, f0, slope, cc, uc, ui)
        mid = self.eval_string(cc)
        head, tail = cc[:span], cc[len(cc) - span:]
        f0 = mid + self.eval_string(uc + head) + self.eval_string(tail + ui)
        slope = mid + self.eval_string(tail + head)
        return (1, f0, slope, cc, uc, ui)

    def _power_line(self, base: Word) -> tuple:
        """``line`` of the word base, encoded once by ``words.chars``,
        split (and reduced, if it is not) by ``words.cyclic_chars``, and
        cached per word."""
        line = self._cyclic.get(base)
        if line is None:
            line = self._cyclic[base] = self.line(
                *words.cyclic_chars(words.chars(base)))
        return line

    def eval_power(self, g: Word, n: int) -> int:
        """phi(g^n), exactly, without building g^n for large n.

        Write the base (g, or g^-1 when n < 0) as u . c . u^-1 with c
        cyclically reduced, and let k = |n|. Then base^k is the reduced
        word u . c^k . u^-1, whose string is U + C*k + U' for the
        character strings U, C, U' of u, c, u^-1. Let L = |w| (w and
        w^-1 have the same length) and p = |c|.

        Claim: f(k) = phi(u . c^k . u^-1) is affine in k for k >= k0,
        where k0 = max(1, ceil((L - 1) / p)).

        Proof. Take k with k p >= L - 1 and split the length-L windows
        of U + C*k + U' that spell w or w^-1 into three kinds:

        * windows that meet U. They start before |U| and so end before
          |U| + L - 1 <= |U| + k p, the start of U'. They lie in U
          followed by the first L - 1 letters of C*k, and those letters
          are the same for every such k. So their count does not
          depend on k.
        * windows that meet U' but not U. By the mirror argument their
          count does not depend on k either.
        * windows inside C*k, at offsets 0 .. k p - L. A window at
          offset j spells the same letters as one at j + p, by
          periodicity. Passing from k to k + 1 adds the offsets
          k p - L + 1 .. (k + 1) p - L. These are p consecutive offsets,
          all >= 0 because k p >= L - 1, so they cover each residue
          mod p once. The count therefore grows by the same amount s
          at every step: the count over the windows at offsets
          0 .. p - 1 of the periodic word C C C ..., which are exactly
          the windows of its prefix of length p + L - 1.

        Hence f(k) = f(k0) + (k - k0) s for all k >= k0, where s is the
        value on that prefix. Below k0, k p < L - 1, so the string is
        shorter than 2|u| + L and is scanned directly. The identity
        (empty c) gives 0. Per base the cost is one scan of length
        2|u| + k0 p < 2|u| + L + p and one of length p + L - 1, whatever
        k is.
        """
        key = (g, n)
        hit = self._power_cache.get(key)
        if hit is not None:
            return hit
        if n == 0:
            val = 0
        else:
            # g^-k is counted honestly as (g^-1)^k; no homogeneity assumed.
            base, k = (g, n) if n > 0 else (words.inv(g), -n)
            k0, f0, slope, cc, uc, ui = self._power_line(base)
            if k >= k0:
                val = f0 + (k - k0) * slope
            else:
                val = self.eval_string(uc + cc * k + ui)
        self._power_cache[key] = val
        return val


class SumQuasimorphism(Quasimorphism):
    """A sum of quasimorphisms, held as its parts. It has no pointwise
    value: ``homogenize`` homogenizes it part by part, and a
    ``HomogeneousCocycle`` of a sum reads it only that way, through the
    ``Homogenization`` it wraps the sum in."""

    def __init__(self, parts, name: str | None = None):
        parts = tuple(parts)
        if not parts:
            raise ValueError("empty sum")
        super().__init__(name or "+".join(repr(p) for p in parts))
        self.parts = parts


def defect_estimate(phi, group, samples: int = 200, seed: int = 0,
                    size: int = 12) -> Fraction:
    """Sampled max of |phi(gh) - phi(g) - phi(h)|.

    This is a lower bound for the true defect (the sup over all pairs);
    callers that need an upper bound must supply one from structure.
    """
    import random

    rng = random.Random(seed)
    best = Fraction(0)
    for _ in range(samples):
        g = group.random_element(rng, size)
        h = group.random_element(rng, size)
        d = abs(phi(group.mul(g, h)) - phi(g) - phi(h))
        if d > best:
            best = Fraction(d)
    return best


def homogenize(phi: Quasimorphism, g: Word):
    """Exact value of the homogenization lim phi(g^n)/n of phi at g.

    A homogeneous phi is its own homogenization. For a Brooks count the
    value is the slope of its power line (see ``eval_power``): the
    occurrences of w, minus those of w^-1, per period of the periodic
    word core(g)^Z (Brooks 1981; Calegari, *scl*, section 2.3.2). A sum
    homogenizes part by part.
    """
    if phi.homogeneous:
        return phi(g)
    if isinstance(phi, BrooksQuasimorphism):
        _k0, _f0, slope, *_ = phi._power_line(g)
        return slope
    if isinstance(phi, SumQuasimorphism):
        return sum(homogenize(part, g) for part in phi.parts)
    raise TypeError(f"no closed-form homogenization for {phi!r}")


class Homogenization(Quasimorphism):
    """The homogenization of another quasimorphism, as a callable."""

    homogeneous = True

    def __init__(self, phi: Quasimorphism):
        super().__init__(f"homog({phi!r})")
        self.base = phi
        self._values = {}

    def __call__(self, g):
        try:
            return self._values[g]
        except KeyError:
            val = homogenize(self.base, g)
            self._values[g] = val
            return val

    def eval_power(self, g, n):
        return n * self(g)


def _entry_chain_value(phi: Quasimorphism, x):
    """phi on a chain entry that may be a symbolic power."""
    if isinstance(x, Pow):
        return phi.eval_power(x.base, x.exp)
    return phi(x)


def _same_power_base(x, y) -> bool:
    bx = x.base if isinstance(x, Pow) else x
    by = y.base if isinstance(y, Pow) else y
    return bx == by or bx == words.inv(by)


class DefectCocycle(BoundedCochain):
    """c(g,h) = phi(gh) - phi(g) - phi(h) over ``group`` for a not
    necessarily homogeneous phi. Bounded by three times any bound on
    phi's defect; set ``norm_bound`` explicitly when a certified pairing
    bound is needed. Values are cached per pair of chain entries."""

    def __init__(self, group: Group, phi: Quasimorphism,
                 name: str | None = None, norm_bound=None):
        super().__init__(group, 2, None, norm_bound=norm_bound,
                         name=name or f"defect({phi!r})")
        self.phi = phi
        self._cache: dict = {}

    def evaluate(self, entry):
        x, y = entry
        key = (x, y)
        hit = self._cache.get(key)
        if hit is None:
            phi = self.phi
            hit = (
                _entry_chain_value(phi, words.entry_mul(x, y))
                - _entry_chain_value(phi, x)
                - _entry_chain_value(phi, y)
            )
            self._cache[key] = hit
        return hit


class HomogeneousCocycle(DefectCocycle):
    """c(g,h) = phi(gh) - phi(g) - phi(h) for the homogenization of phi
    (phi itself when it is homogeneous).

    Vanishes identically on pairs of powers of a common element; the
    evaluator short-circuits that case so symbolic powers never expand.
    """

    homogeneous = True

    def __init__(self, group: Group, phi: Quasimorphism,
                 name: str | None = None):
        if not phi.homogeneous:
            phi = Homogenization(phi)
        super().__init__(group, phi, name)

    def evaluate(self, entry):
        x, y = entry
        # Same-base symbolic powers vanish by homogeneity; the shortcut
        # is deliberately limited to them so that plain word pairs are
        # always evaluated honestly.
        if (isinstance(x, Pow) or isinstance(y, Pow)) and _same_power_base(x, y):
            return 0
        return super().evaluate(entry)


class PulledBackCocycle(BoundedCochain):
    """c(aut(g), aut(h)) over c's group; keeps symbolic powers symbolic
    since automorphisms send powers to powers."""

    def __init__(self, aut, c: BoundedCochain):
        super().__init__(c.group, 2, None, norm_bound=c.norm_bound,
                         name=f"pullback({c.name})")
        self.aut = aut
        self.inner = c
        self.homogeneous = c.homogeneous

    def _map(self, x):
        if isinstance(x, Pow):
            return words.pow_entry(self.aut(x.base), x.exp)
        return self.aut(x)

    def evaluate(self, entry):
        return self.inner.evaluate(tuple(self._map(x) for x in entry))


def drift(c, g):
    """homogenize(phi, g) - phi(g), exactly, for the quasimorphism phi
    that the defect cocycle c = d(phi) carries as ``c.phi``; 0 when phi
    is homogeneous. Adding the coboundary of this primitive to c gives
    d(homogenization of phi). Raises TypeError for a cocycle that
    carries no phi."""
    if not isinstance(c, DefectCocycle):
        raise TypeError(f"drift needs a cocycle that carries a phi, got {c!r}")
    return homogenize(c.phi, g) - c.phi(g)


class CorrectedCocycle(BoundedCochain):
    """c(g, h) + psi(gh) - psi(g) - psi(h) with psi = ``drift(c, .)``,
    over c's group: for c = d(phi) this is d(homogenization of phi), the
    homogeneous representative of c's class, computed term by term from
    c."""

    homogeneous = True

    def __init__(self, c: BoundedCochain):
        super().__init__(c.group, 2, None, name=f"homog-rep({c.name})")
        self.base = c

    def evaluate(self, entry):
        c = self.base
        g, h = map(words.expand_entry, entry)
        gh = self.group.mul(g, h)
        return c(g, h) + drift(c, gh) - drift(c, g) - drift(c, h)


def homogeneous_representative(c: BoundedCochain,
                               sample_triples=()) -> CorrectedCocycle:
    """Homogeneous cocycle cohomologous to the defect cocycle c.

    Prechecks on the supplied samples: c must vanish against the
    identity (normalization precondition) and satisfy the cocycle law,
    dc = 0 (NotACocycle with a witness otherwise). The primitive psi(g)
    is ``drift(c, g)``, exact; a c that carries no phi raises TypeError
    when the representative is first evaluated.
    """
    e = c.group.identity
    dc = coboundary(c)
    for (g, h, k) in sample_triples:
        if c(g, e) != 0 or c(e, g) != 0:
            raise ValueError(f"c is not normalized at the identity on {g!r}")
        d = dc(g, h, k)
        if d != 0:
            raise NotACocycle((g, h, k), d)
    return CorrectedCocycle(c)
