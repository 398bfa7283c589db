"""Flag calculus over red/blue colored complete graphs on at most 5 vertices.

A rooted flag is a host graph with an ordered tuple of root vertices; its
type is the colored graph induced on the roots in root order.  Products,
the unlabeling average, and pattern expansion all use exact rational
probabilities, with coefficients living in polynomial rings over Q(sqrt2).
Lifting an unrooted k-vertex combination L to l > k vertices is its product
with the unit 1, the sum of every (l - k)-vertex class:
flag_product(L, basis_combo(l - k, names), l).

Conventions (fixed by the verified reference tables):

* product: for type-sigma flags f1, f2 on k1, k2 vertices, the coefficient of
  a k-vertex sigma-flag F (k = k1 + k2 - r) is the probability that a uniform
  (k1 - r)-subset S of F's non-roots induces f1 on roots+S and f2 on the rest.
* unlabeling: a rooted flag F maps to its underlying class scaled by the
  probability that a uniform ordered r-tuple of F's vertices induces the type
  and reproduces F up to root-preserving isomorphism.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, perm
from typing import NamedTuple

from . import UnsupportedSizeError
from .exactalg import Poly
from .graphs import (
    HostGraph,
    PatternGraph,
    _graph_classes,
    _min_placements,
    canonical_host,
)
from .counting import count_injections

# A flag basis labels every rooted ordering of every k-vertex class, a cost
# that no work estimate covers; the certificates need k <= 5.
MAX_FLAG_K = 5


class FlagTypeError(ValueError):
    pass


class _RootedFlag(NamedTuple):
    graph: HostGraph
    roots: tuple[int, ...]


class RootedFlag(_RootedFlag):
    """A host graph with an ordered tuple of distinct root vertices.  Equal
    flags compare and hash equal."""

    __slots__ = ()

    def __new__(cls, graph: HostGraph, roots: tuple[int, ...] = ()):
        if len(set(roots)) != len(roots):
            raise ValueError("roots must be distinct")
        for v in roots:
            if not 0 <= v < graph.n:
                raise ValueError("root out of range")
        return tuple.__new__(cls, (graph, roots))

    @property
    def k(self) -> int:
        return self.graph.n

    @property
    def r(self) -> int:
        return len(self.roots)

    def type_colors(self) -> tuple[bool, ...]:
        """Colors of root pairs in root order, lexicographic over positions."""
        rs = self.roots
        return tuple(
            self.graph.red(rs[i], rs[j])
            for i in range(len(rs))
            for j in range(i + 1, len(rs))
        )

    def code(self) -> str:
        return f"{self.graph.to_text()} r={len(self.roots)}"


@lru_cache(maxsize=None)
def rooted_canonical(f: RootedFlag) -> RootedFlag:
    """Canonical representative under root-preserving isomorphism: roots are
    relabeled to 0..r-1 in order and the non-roots minimize the color string."""
    placement = _min_placements((f.graph.masks,), fixed=f.roots)[0]
    rep = f.graph.relabel(placement)
    return RootedFlag(rep, tuple(range(len(f.roots))))


@lru_cache(maxsize=None)
def _rooted_counts(k: int, r: int, type_colors: tuple) -> dict:
    """{canonical flag: number of ordered root tuples of its class that give
    it} over the k-vertex flags with r roots of the given type.  A tuple's
    type is read off the masks before any flag is built."""
    if k > MAX_FLAG_K:
        raise UnsupportedSizeError(f"flag bases are capped at k <= {MAX_FLAG_K}")
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    counts: dict = {}
    for g in _graph_classes(k):
        masks = g.masks
        for tup in permutations(range(k), r):
            if tuple(masks[tup[i]] >> tup[j] & 1 == 1 for i, j in pairs) != type_colors:
                continue
            rep = rooted_canonical(RootedFlag(g, tup))
            counts[rep] = counts.get(rep, 0) + 1
    return counts


@lru_cache(maxsize=None)
def flags_of_type(k: int, r: int, type_colors: tuple) -> tuple[RootedFlag, ...]:
    """All canonical flags on k vertices whose ordered root type matches."""
    return tuple(sorted(_rooted_counts(k, r, type_colors), key=RootedFlag.code))


@lru_cache(maxsize=None)
def _splits(F: RootedFlag, k1: int) -> dict:
    """{(f1, f2): the number of (k1 - r)-subsets S of the canonical flag F's
    non-roots such that the roots and S induce f1, and the roots and the
    other non-roots induce f2}."""
    roots = tuple(range(F.r))
    non_roots = range(F.r, F.k)
    tally: dict = {}
    for S in combinations(non_roots, k1 - F.r):
        rest = tuple(v for v in non_roots if v not in S)
        f1 = rooted_canonical(RootedFlag(F.graph.induced(roots + S), roots))
        f2 = rooted_canonical(RootedFlag(F.graph.induced(roots + rest), roots))
        tally[f1, f2] = tally.get((f1, f2), 0) + 1
    return tally


class GraphCombo(NamedTuple):
    """Linear combination of canonical k-vertex flags of one fixed type with
    polynomial coefficients.  r = 0 gives plain unrooted combinations."""

    k: int
    r: int
    type_colors: tuple
    names: tuple
    terms: dict

    @staticmethod
    def build(k, r, type_colors, names, items) -> "GraphCombo":
        combo = GraphCombo(k, r, tuple(type_colors), tuple(names), {})
        for flag, coeff in items:
            combo.add_term(flag, coeff)
        return combo

    def _coerce(self, coeff) -> Poly:
        if isinstance(coeff, Poly):
            if coeff.names != self.names:
                raise ValueError("coefficient variable mismatch")
            return coeff
        return Poly.const(self.names, coeff)

    def add_term(self, flag: RootedFlag, coeff):
        if flag.k != self.k or flag.r != self.r:
            raise FlagTypeError("flag size/roots mismatch")
        if flag.type_colors() != self.type_colors:
            raise FlagTypeError("flag type mismatch")
        rep = rooted_canonical(flag)
        poly = self.terms.get(rep, Poly.const(self.names, 0)) + self._coerce(coeff)
        if poly.is_zero():
            self.terms.pop(rep, None)
        else:
            self.terms[rep] = poly

    def _like(self) -> "GraphCombo":
        return GraphCombo(self.k, self.r, self.type_colors, self.names, {})

    def __add__(self, other: "GraphCombo") -> "GraphCombo":
        if (self.k, self.r, self.type_colors, self.names) != (
            other.k,
            other.r,
            other.type_colors,
            other.names,
        ):
            raise FlagTypeError("combo shape mismatch")
        out = self._like()
        for src in (self, other):
            for flag, poly in src.terms.items():
                out.add_term(flag, poly)
        return out

    def __sub__(self, other: "GraphCombo") -> "GraphCombo":
        return self + other.scale(-1)

    def scale(self, factor) -> "GraphCombo":
        out = self._like()
        if not isinstance(factor, Poly):
            factor = Poly.const(self.names, factor)
        for flag, poly in self.terms.items():
            out.add_term(flag, poly * factor)
        return out


def unit_flag(graph: HostGraph, roots=(), names=("a",)) -> GraphCombo:
    f = rooted_canonical(RootedFlag(graph, tuple(roots)))
    return GraphCombo.build(f.k, f.r, f.type_colors(), names, [(f, 1)])


def basis_combo(k: int, names, coeff=1) -> GraphCombo:
    """Sum of every unrooted k-class with the given constant coefficient; the
    all-ones combination represents the constant 1."""
    items = [(RootedFlag(g), coeff) for g in _graph_classes(k)]
    return GraphCombo.build(k, 0, (), names, items)


def flag_product(c1: GraphCombo, c2: GraphCombo, target_k: int) -> GraphCombo:
    """Bilinear product of two same-type combos, expanded on target_k flags.

    Each target flag's sub-flag pairs are tallied as ints, and each distinct
    pair of coefficients is multiplied once."""
    if (c1.r, c1.type_colors, c1.names) != (c2.r, c2.type_colors, c2.names):
        raise FlagTypeError("operands must share type and variables")
    r = c1.r
    if target_k != c1.k + c2.k - r:
        raise ValueError("target_k must equal k1 + k2 - |type|")
    zero = Poly.const(c1.names, 0)
    scale = Fraction(1, comb(target_k - r, c1.k - r))
    out = GraphCombo(target_k, r, c1.type_colors, c1.names, {})
    products: dict = {}  # (f1, f2) -> c1's coefficient of f1 times c2's of f2
    for F in flags_of_type(target_k, r, c1.type_colors):
        acc = zero
        for pair, n in _splits(F, c1.k).items():
            prod = products.get(pair)
            if prod is None:
                p1, p2 = c1.terms.get(pair[0]), c2.terms.get(pair[1])
                prod = products[pair] = zero if p1 is None or p2 is None else p1 * p2
            if prod.terms:
                acc = acc + prod * n
        if not acc.is_zero():
            out.add_term(F, acc * scale)
    return out


def combo_square(c: GraphCombo) -> GraphCombo:
    return flag_product(c, c, 2 * c.k - c.r)


def unlabel(c: GraphCombo) -> GraphCombo:
    """Averaging over uniform root placements; the result is unrooted."""
    out = GraphCombo(c.k, 0, (), c.names, {})
    counts = _rooted_counts(c.k, c.r, c.type_colors)
    placements = perm(c.k, c.r)
    for flag, poly in c.terms.items():
        good = counts.get(flag)
        if good:
            out.add_term(RootedFlag(canonical_host(flag.graph)), poly * Fraction(good, placements))
    return out


def expand_pattern(h: PatternGraph, k: int, names=("a",)) -> GraphCombo:
    """Pattern as a combination of the k-vertex classes, for any k >= h.h: the
    class G carries the constraint-respecting injections of h into G over
    C(k, h.h).  At k = h.h that is the integer count of bijections into G."""
    if k < h.h:
        raise ValueError("k must be at least the pattern's vertex count")
    items = []
    for g in _graph_classes(k):
        c = count_injections(h, g)
        if c:
            items.append((RootedFlag(g), Fraction(c, comb(k, h.h))))
    return GraphCombo.build(k, 0, (), tuple(names), items)
