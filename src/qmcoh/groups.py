"""Group models with exact element arithmetic.

Elements are plain hashable data and the model object owns the
operations: reduced word tuples for free groups, 1-based ints for finite
groups given by Cayley tables, (base, fiber) pairs for twisted products.
Using plain data keeps elements usable as dict keys throughout the chain
and cochain layers.

Automorphisms are small callable objects that keep their own inverse:
free-group ones by an explicit inverse-image witness, all others by a
pair of functions.
"""

from __future__ import annotations

import random

from . import words
from .errors import NotACocycle
from .words import Word


class Group:
    """Base model. Subclasses set ``identity`` and implement mul/inv."""

    identity = None

    def mul(self, *elts):
        raise NotImplementedError

    def inv(self, g):
        raise NotImplementedError

    def conj(self, g, h):
        """g . h . g^-1"""
        return self.mul(g, h, self.inv(g))

    def power(self, g, n: int):
        """g^n by repeated squaring, one reduction per product."""
        if abs(n) > words.POWER_CAP:
            from .errors import ResourceCapExceeded

            raise ResourceCapExceeded(
                f"exponent {n} exceeds cap {words.POWER_CAP}"
            )
        if n < 0:
            g, n = self.inv(g), -n
        acc = self.identity
        base = g
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return acc

    def random_element(self, rng: random.Random, size: int = 8):
        raise NotImplementedError

    def test_elements(self):
        """Small generating/probing set used by sampled law checks."""
        raise NotImplementedError


class FreeGroup(Group):
    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.identity: Word = ()
        self.generators = tuple((k,) for k in range(1, rank + 1))

    def mul(self, *elts):
        return words.mul(*elts)

    def inv(self, g):
        return words.inv(g)

    def power(self, g, n):
        return words.power(g, n)

    def contains(self, g) -> bool:
        return (
            isinstance(g, tuple)
            and words.is_reduced(g)
            and words.max_generator(g) <= self.rank
        )

    def random_element(self, rng, size: int = 8):
        return words.random_reduced(rng, self.rank, size)

    def test_elements(self):
        return self.generators

    def __repr__(self):
        return f"FreeGroup({self.rank})"


class FiniteGroup(Group):
    """Cayley-table group; elements are 1-based ints, 1 the identity.

    The table is validated on construction: shape, 1-based entries, the
    identity row and column, Latin-square rows and columns, and (for
    orders small enough to afford it) associativity.
    """

    def __init__(self, table, name: str | None = None):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0:
            raise ValueError("empty table")
        for row in table:
            if len(row) != n:
                raise ValueError("table is not square")
            for v in row:
                if not (1 <= v <= n):
                    raise ValueError(f"entry {v} out of range 1..{n}")
        e = 1
        full = set(range(1, n + 1))
        for i in range(1, n + 1):
            if table[e - 1][i - 1] != i or table[i - 1][e - 1] != i:
                raise ValueError("identity row/column incorrect")
            if set(table[i - 1]) != full:
                raise ValueError(f"row {i} is not a permutation")
            if {table[j - 1][i - 1] for j in range(1, n + 1)} != full:
                raise ValueError(f"column {i} is not a permutation")
        if n <= 64:
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    ab = table[a - 1][b - 1]
                    for c in range(1, n + 1):
                        if table[ab - 1][c - 1] != table[a - 1][table[b - 1][c - 1] - 1]:
                            raise ValueError(
                                f"associativity fails at ({a},{b},{c})"
                            )
        self.table = table
        self.order = n
        self.identity = e
        self.name = name
        inv = [0] * (n + 1)
        for g in range(1, n + 1):
            inv[g] = table[g - 1].index(e) + 1
        self._inv = inv

    @classmethod
    def cyclic(cls, n: int, name: str | None = None) -> "FiniteGroup":
        table = [
            [((i + j) % n) + 1 for j in range(n)] for i in range(n)
        ]
        return cls(table, name=name or f"Z/{n}")

    def mul(self, *elts):
        acc = self.identity
        for g in elts:
            acc = self.table[acc - 1][g - 1]
        return acc

    def inv(self, g):
        return self._inv[g]

    def elements(self):
        return range(1, self.order + 1)

    def random_element(self, rng, size: int = 8):
        return rng.randint(1, self.order)

    def test_elements(self):
        return tuple(self.elements()) if self.order <= 64 else (self.identity,)

    def __repr__(self):
        return self.name or f"FiniteGroup(order={self.order})"


class Automorphism:
    """Callable group automorphism with an inverse."""

    def __init__(self, group: Group):
        self.group = group

    def __call__(self, g):
        raise NotImplementedError

    def inverse(self) -> "Automorphism":
        raise NotImplementedError


class MapAutomorphism(Automorphism):
    """Function-backed automorphism; the inverse function is the witness."""

    def __init__(self, group, func, inv_func, label: str | None = None):
        super().__init__(group)
        self._func = func
        self._inv = inv_func
        self.label = label

    def __call__(self, g):
        return self._func(g)

    def inverse(self):
        return MapAutomorphism(
            self.group, self._inv, self._func,
            label=None if self.label is None else f"({self.label})^-1",
        )

    def __repr__(self):
        return self.label or "MapAutomorphism"


class FreeAutomorphism(Automorphism):
    """Substitution endomorphism with an explicit inverse-image witness.

    ``images[k-1]`` is the image word of generator k. Construction checks
    the witness in both directions (the composites fix every generator),
    which is exactly invertibility for substitution endomorphisms.
    """

    def __init__(self, group: FreeGroup, images, inverse_images):
        super().__init__(group)
        self.images = tuple(tuple(w) for w in images)
        self.inverse_images = tuple(tuple(w) for w in inverse_images)
        if len(self.images) != group.rank or len(self.inverse_images) != group.rank:
            raise ValueError("need one image word per generator")
        for w in self.images + self.inverse_images:
            if not group.contains(w):
                raise ValueError(f"image {w!r} not in {group!r}")
        for k in range(1, group.rank + 1):
            if self(self.inverse_images[k - 1]) != (k,):
                raise ValueError(f"inverse witness fails on generator {k}")
            if self._apply(self.inverse_images, self.images[k - 1]) != (k,):
                raise ValueError(f"witness fails in reverse on generator {k}")
        self._inverse = None

    @staticmethod
    def _apply(images, w: Word) -> Word:
        parts = []
        for k in w:
            img = images[abs(k) - 1]
            parts.append(img if k > 0 else words.inv(img))
        return words.mul(*parts)

    def __call__(self, g):
        return self._apply(self.images, g)

    def inverse(self):
        """The inverse, built and checked on first use; the two
        automorphisms then point at each other."""
        if self._inverse is None:
            inv = FreeAutomorphism(self.group, self.inverse_images, self.images)
            inv._inverse = self
            self._inverse = inv
        return self._inverse

    def compose(self, other: "FreeAutomorphism") -> "FreeAutomorphism":
        """self after other, as an explicit substitution."""
        images = tuple(self(w) for w in other.images)
        inv_images = tuple(other.inverse()(w) for w in self.inverse_images)
        return FreeAutomorphism(self.group, images, inv_images)

    def __repr__(self):
        return "FreeAutomorphism(%s)" % ", ".join(
            f"{words.fmt((k,))}->{words.fmt(w)}"
            for k, w in enumerate(self.images, start=1)
        )


def inner_automorphism(group: Group, k) -> Automorphism:
    """Conjugation g -> k g k^-1 as an automorphism object."""
    if isinstance(group, FreeGroup):
        images = tuple(words.conjugate(g, k) for g in group.generators)
        k_inv = words.inv(k)
        inv_images = tuple(
            words.conjugate(g, k_inv) for g in group.generators
        )
        return FreeAutomorphism(group, images, inv_images)
    k_inv = group.inv(k)
    return MapAutomorphism(
        group,
        lambda g: group.conj(k, g),
        lambda g: group.conj(k_inv, g),
        label=f"inner({k!r})",
    )


def compose(outer: Automorphism, inner: Automorphism) -> Automorphism:
    """outer after inner."""
    if isinstance(outer, FreeAutomorphism) and isinstance(inner, FreeAutomorphism):
        return outer.compose(inner)
    out_inv = outer.inverse()
    in_inv = inner.inverse()
    return MapAutomorphism(
        outer.group,
        lambda g: outer(inner(g)),
        lambda g: in_inv(out_inv(g)),
    )


class TwistedProduct(Group):
    """Product set Pi x G with multiplication twisted by (psi, f).

    ``psi`` maps a base element to an automorphism of the fiber and ``f``
    maps a base pair to a fiber element. The law is

        (a, x)(b, y) = (ab, x . psi(a)(y) . f(a, b))

    which is associative exactly when (psi, f) satisfies the standard
    compatibility laws; ``precheck_triples`` spot-checks them at
    construction (pass sampled triples; raises NotACocycle with a
    witness).
    """

    def __init__(self, base: Group, fiber: Group, psi, f,
                 precheck_triples=()):
        self.base = base
        self.fiber = fiber
        self.psi = psi
        self.f = f
        self.identity = (base.identity, fiber.identity)
        for a in (base.identity,):
            if f(a, a) != fiber.identity:
                raise ValueError("f is not normalized at the identity")
        for (a, b, c) in precheck_triples:
            w = self.law_defect(a, b, c)
            if w is not None:
                raise NotACocycle((a, b, c), w)

    def law_defect(self, a, b, c):
        """None if both kernel laws hold at (a, b, c), else a witness."""
        psi, f, G, P = self.psi, self.f, self.fiber, self.base
        lhs = G.mul(psi(a)(f(b, c)), f(a, P.mul(b, c)))
        rhs = G.mul(f(a, b), f(P.mul(a, b), c))
        if lhs != rhs:
            return ("product-rule", lhs, rhs)
        comp = compose(psi(a), psi(b))
        target = compose(inner_automorphism(G, f(a, b)), psi(P.mul(a, b)))
        for g in G.test_elements():
            if comp(g) != target(g):
                return ("composition-rule", g, comp(g), target(g))
        return None

    def mul(self, *elts):
        acc = self.identity
        for g in elts:
            a, x = acc
            b, y = g
            acc = (
                self.base.mul(a, b),
                self.fiber.mul(x, self.psi(a)(y), self.f(a, b)),
            )
        return acc

    def inv(self, g):
        a, x = g
        a_inv = self.base.inv(a)
        fx = self.fiber.mul(self.fiber.inv(x), self.fiber.inv(self.f(a, a_inv)))
        return (a_inv, self.psi(a).inverse()(fx))

    def random_element(self, rng, size: int = 8):
        return (
            self.base.random_element(rng, size),
            self.fiber.random_element(rng, size),
        )

    def include_fiber(self, x):
        return (self.base.identity, x)

    def project_base(self, g):
        return g[0]

    def fiber_part(self, g):
        """Read a fiber element back out of (identity, x)."""
        a, x = g
        if a != self.base.identity:
            raise ValueError(f"{g!r} is not in the fiber")
        return x
