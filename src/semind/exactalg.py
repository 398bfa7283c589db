"""Exact algebra used by the certificate verifiers.

Three layers, all free of floating point:

* ``Q2`` -- the real quadratic field Q(sqrt(2)), stored as one reduced int
  triple (a, b, d) meaning (a + b*sqrt(2)) / d.  Comparisons are decided by
  exact sign analysis, so Q2 values can serve as interval endpoints, and the
  triple is also the form in which the Sturm layer evaluates points.
* ``Poly`` -- sparse multivariate polynomials with Q2 coefficients over a
  fixed tuple of variable names.
* ``sign_cells`` -- the one exact sign routine for a univariate polynomial
  on [lo, hi] with endpoints in Q2.  It clears denominators once and runs on
  ints: one fraction-free Sturm chain over Z[sqrt2] per polynomial,
  evaluated at points (r + s*sqrt2) / t.  One bisection isolates the roots
  inside the interval, and the result holds the signs at both ends and on
  each cell between roots; `Signs.nonpositive` decides "p <= 0 there".
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping, NamedTuple, Sequence


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _sign(u, v) -> int:
    """Sign of u + v*sqrt2 for rational u, v."""
    if u >= 0 and v >= 0:
        return 1 if u or v else 0
    if u <= 0 and v <= 0:
        return -1
    # mixed signs: compare |u| against |v|*sqrt2 by squaring; the squares
    # differ because sqrt2 is irrational
    s = u * u - 2 * v * v
    if u > 0:  # v < 0
        return 1 if s > 0 else -1
    return -1 if s > 0 else 1  # u < 0 < v


def _triple(x) -> tuple[int, int, int]:
    """(a, b, d) of an int, Fraction or Q2 x."""
    if isinstance(x, Q2):
        return x.a, x.b, x.d
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    raise TypeError(f"expected int, Fraction or Q2, got {type(x).__name__}")


class Q2:
    """(a + b*sqrt(2)) / d with ints a, b, d, where d > 0 and gcd(a, b, d) = 1,
    so that equal values are equal triples.  Values are never mutated.

    `Q2(p, q)` is p + q*sqrt(2) for ints or Fractions p, q, which the
    properties `p` and `q` give back."""

    __slots__ = ("a", "b", "d")

    def __init__(self, p=0, q=0):
        if isinstance(p, int) and isinstance(q, int):
            self.a, self.b, self.d = int(p), int(q), 1
            return
        p, q = _frac(p), _frac(q)
        d = lcm(p.denominator, q.denominator)
        # lowest terms already: a prime dividing d divides the denominator
        # of p or of q with its full power, and then not that numerator
        self.a = p.numerator * (d // p.denominator)
        self.b = q.numerator * (d // q.denominator)
        self.d = d

    @staticmethod
    def of(x) -> "Q2":
        if isinstance(x, Q2):
            return x
        return _raw(*_triple(x))

    @property
    def p(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def q(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other):
        if isinstance(other, int):
            # a + other*d keeps gcd(a, b, d) = 1
            return _raw(self.a + other * self.d, self.b, self.d)
        a, b, d = _triple(other)
        e = self.d
        if d == e:
            return _reduced(self.a + a, self.b + b, d)
        return _reduced(self.a * d + a * e, self.b * d + b * e, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return Q2.of(other) - self

    def __neg__(self):
        return _raw(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if isinstance(other, int):
            return _reduced(self.a * other, self.b * other, self.d)
        a, b, d = _triple(other)
        return _reduced(self.a * a + 2 * self.b * b, self.a * b + self.b * a, self.d * d)

    __rmul__ = __mul__

    def sign(self) -> int:
        return _sign(self.a, self.b)

    def __bool__(self):
        return bool(self.a or self.b)

    def _cmp(self, other) -> int:
        """Sign of self - other."""
        a, b, d = _triple(other)
        return _sign(self.a * d - a * self.d, self.b * d - b * self.d)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, Q2):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            a, _, d = _triple(other)
            return self.b == 0 and self.a == a and self.d == d
        return NotImplemented

    def __hash__(self):
        # a rational value hashes as the equal int or Fraction does
        if self.b == 0:
            return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __float__(self):
        # as float(p) + float(q)*sqrt2: int true division rounds correctly
        return self.a / self.d + self.b / self.d * 1.4142135623730951

    def __str__(self):
        p, q = self.p, self.q
        if q == 0:
            return str(p)
        if q == 1:
            qs = "sqrt2"
        elif q == -1:
            qs = "-sqrt2"
        else:
            qs = f"{q}*sqrt2"
        if p == 0:
            return qs
        sep = "+" if not qs.startswith("-") else ""
        return f"{p}{sep}{qs}"

    __repr__ = __str__


_new = object.__new__


def _raw(a: int, b: int, d: int) -> Q2:
    """The Q2 of a triple already in lowest terms with d > 0."""
    x = _new(Q2)
    x.a, x.b, x.d = a, b, d
    return x


def _reduced(a: int, b: int, d: int) -> Q2:
    """(a + b*sqrt2) / d in lowest terms, for d != 0."""
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    if g == 1:
        return _raw(a, b, d)
    return _raw(a // g, b // g, d // g)


ZERO = Q2()
ONE = Q2.of(1)
SQRT2 = Q2(0, 1)
HALF_SQRT2 = Q2(0, Fraction(1, 2))  # 1/sqrt(2)


class Poly:
    """Sparse polynomial over Q(sqrt2) in a fixed tuple of named variables.

    Terms map exponent tuples to Q2 coefficients; zero coefficients are never
    stored, so the zero polynomial has empty support.
    """

    __slots__ = ("names", "terms")

    def __init__(self, names: Sequence[str], terms: Mapping[tuple, Q2] | None = None):
        self.names = tuple(names)
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = Q2.of(c)
                if c:
                    if len(exps) != len(self.names):
                        raise ValueError("exponent arity mismatch")
                    clean[tuple(exps)] = c
        self.terms = clean

    @staticmethod
    def const(names, c) -> "Poly":
        names = tuple(names)
        return Poly(names, {(0,) * len(names): Q2.of(c)})

    def _check(self, other: "Poly"):
        if self.names != other.names:
            raise ValueError(f"variable mismatch: {self.names} vs {other.names}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.names, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            prev = out.get(e)
            out[e] = c if prev is None else prev + c
        return _poly(self.names, out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.names, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _poly(self.names, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return _poly(self.names, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                prev = out.get(e)
                out[e] = c1 * c2 if prev is None else prev + c1 * c2
        return _poly(self.names, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.names == other.names and self.terms == other.terms

    def __hash__(self):
        return hash((self.names, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def substitute(self, **values) -> "Poly":
        """Replace some variables with Q2 values; result keeps all names."""
        idx = {n: i for i, n in enumerate(self.names)}
        out: dict = {}
        for exps, c in self.terms.items():
            coeff = c
            new = list(exps)
            for name, val in values.items():
                e = new[idx[name]]
                if e:
                    coeff = coeff * _q2_pow(Q2.of(val), e)
                    new[idx[name]] = 0
            key = tuple(new)
            prev = out.get(key)
            out[key] = coeff if prev is None else prev + coeff
        return _poly(self.names, out)

    def univariate(self, name: str) -> list[Q2]:
        """Coefficient list (ascending degree) in `name`; other vars must be gone."""
        i = self.names.index(name)
        coeffs: dict[int, Q2] = {}
        for exps, c in self.terms.items():
            if any(e and j != i for j, e in enumerate(exps)):
                raise ValueError("polynomial is not univariate in " + name)
            coeffs[exps[i]] = coeffs.get(exps[i], ZERO) + c
        if not coeffs:
            return []
        out = [ZERO] * (max(coeffs) + 1)
        for e, c in coeffs.items():
            out[e] = c
        return poly_trim(out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            c = self.terms[exps]
            mono = "*".join(
                f"{n}^{e}" if e > 1 else n
                for n, e in zip(self.names, exps)
                if e
            )
            cs = str(c)
            if mono:
                if cs == "1":
                    parts.append(mono)
                elif cs == "-1":
                    parts.append("-" + mono)
                else:
                    need_paren = ("+" in cs[1:]) or ("-" in cs[1:])
                    parts.append((f"({cs})" if need_paren else cs) + "*" + mono)
            else:
                parts.append(f"({cs})" if ("+" in cs[1:] or "-" in cs[1:]) else cs)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


def _poly(names: tuple, terms: dict) -> Poly:
    """The Poly of names and terms from Poly's own arithmetic, whose keys are
    exponent tuples of the right arity and whose values are Q2s: only the
    zero coefficients are dropped."""
    out = _new(Poly)
    out.names = names
    out.terms = {e: c for e, c in terms.items() if c.a or c.b}
    return out


def _q2_pow(x: Q2, e: int) -> Q2:
    out = ONE
    base = x
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# univariate machinery: coefficient lists over Q2, ascending degree


def poly_trim(cs: Sequence[Q2]) -> list[Q2]:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


# The sign analysis runs on plain ints.  An element u + v*sqrt2 of Z[sqrt2] is
# the pair (u, v); a polynomial is a list of pairs in ascending degree whose
# last pair is nonzero; a point (r + s*sqrt2) / t with t > 0 is the triple
# (r, s, t) in lowest terms, so equal points are equal triples: the triple of
# a Q2.


def _int_poly(cs: Sequence[Q2]) -> list[tuple[int, int]]:
    """The Q2 polynomial cs times the positive rational that makes its
    coefficients coprime pairs of ints."""
    cs = poly_trim(cs)
    den = lcm(*(c.d for c in cs))
    return _primitive([(c.a * (den // c.d), c.b * (den // c.d)) for c in cs])


def _primitive(cs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """cs divided by the gcd of all its ints, which is positive."""
    g = gcd(*(x for c in cs for x in c))
    return [(u // g, v // g) for u, v in cs] if g > 1 else cs


def _midpoint(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    (r1, s1, t1), (r2, s2, t2) = a, b
    r, s, t = r1 * t2 + r2 * t1, s1 * t2 + s2 * t1, 2 * t1 * t2
    g = gcd(r, s, t)
    return r // g, s // g, t // g


def _sign_at(cs: list[tuple[int, int]], x: tuple[int, int, int]) -> int:
    """Sign of cs at the point x = (r + s*sqrt2) / t, which is the sign of
    t^deg * cs(x), by Horner's rule on the homogenized polynomial."""
    r, s, t = x
    u, v = cs[-1]
    tk = 1
    for cu, cv in reversed(cs[:-1]):
        tk *= t
        u, v = u * r + 2 * v * s + cu * tk, u * s + v * r + cv * tk
    return _sign(u, v)


def _remainders(cs: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Signed remainder sequence of cs and cs', each element a positive int
    multiple of the one over Q(sqrt2), so their signs agree everywhere.

    Each elimination step multiplies the remainder by the divisor's leading
    coefficient lc, so the pseudo-remainder is lc^steps times the remainder:
    it is negated when that power is negative, and then made primitive."""
    chain = [cs, _primitive([(i * u, i * v) for i, (u, v) in enumerate(cs) if i])]
    while True:
        num, den = chain[-2], chain[-1]
        lu, lv = den[-1]
        rem = num
        steps = 0
        while len(rem) >= len(den):
            au, av = rem[-1]
            k = len(rem) - len(den)
            rem = [(u * lu + 2 * v * lv, u * lv + v * lu) for u, v in rem[:k]] + [
                (u * lu + 2 * v * lv - au * du - 2 * av * dv, u * lv + v * lu - au * dv - av * du)
                for (u, v), (du, dv) in zip(rem[k:-1], den)
            ]
            while rem and rem[-1] == (0, 0):
                rem.pop()
            steps += 1
        if not rem:
            return chain
        flip = 1 if steps % 2 and _sign(lu, lv) < 0 else -1  # the Sturm chain takes -rem
        chain.append(_primitive([(flip * u, flip * v) for u, v in rem]))


def _exact_quotient(num: list[tuple[int, int]], den: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """A primitive int polynomial that is a nonzero multiple of num / den,
    for den dividing num.

    den is first multiplied by the conjugate of its leading coefficient, so
    that the coefficient becomes the nonzero int norm L, and negated if L < 0.
    Then L^(deg num - deg den + 1) * num / den has int coefficients, and long
    division finds them with exact int division by L."""
    u, v = den[-1]
    flip = -1 if u * u - 2 * v * v < 0 else 1
    den = _primitive([(flip * (a * u - 2 * b * v), flip * (b * u - a * v)) for a, b in den])
    lead = den[-1][0]
    d = len(num) - len(den)
    scale = lead ** (d + 1)
    rem = [(a * scale, b * scale) for a, b in num]
    quot = [(0, 0)] * (d + 1)
    for k in range(d, -1, -1):
        a, b = rem[k + len(den) - 1]
        qu, qv = quot[k] = a // lead, b // lead
        for i, (du, dv) in enumerate(den):
            a, b = rem[k + i]
            rem[k + i] = (a - qu * du - 2 * qv * dv, b - qu * dv - qv * du)
    return _primitive(quot)


def sturm_chain(cs: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Sturm chain of the square-free part of cs, an int polynomial (see
    `_int_poly`) of degree >= 1.

    When cs has repeated roots, its remainder sequence ends in their gcd g
    of degree >= 1, and the chain of cs / g, which is square-free, is built
    instead."""
    chain = _remainders(cs)
    if len(chain[-1]) > 1:
        chain = _remainders(_exact_quotient(cs, chain[-1]))
    return chain


def _variations(signs: Iterable[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)


def _root_counter(cs: list[tuple[int, int]]):
    """count(a, b): the number of distinct real roots of the int polynomial
    cs in the open interval (a, b) between points a < b, from one Sturm chain.

    With zeros left out of the sign sequences, V(a) - V(b) counts the roots
    in (a, b] also when a or b is a root, so a root at b is taken off.  Each
    point's sign variations are computed once."""
    if len(cs) <= 1:
        return lambda a, b: 0
    chain = sturm_chain(cs)
    seen: dict[tuple[int, int, int], tuple[int, bool]] = {}

    def at(x):
        if x not in seen:
            signs = [_sign_at(p, x) for p in chain]
            seen[x] = (_variations(signs), signs[0] == 0)
        return seen[x]

    def count(a, b) -> int:
        (va, _), (vb, b_is_root) = at(a), at(b)
        return va - vb - b_is_root

    return count


class Signs(NamedTuple):
    """The signs of a polynomial p on [lo, hi]: at lo, on each open cell that
    the distinct roots of p inside (lo, hi) cut the interval into, and at hi.

    `roots` holds those roots in increasing order, each isolated as an exact
    point (x, x) or as an interval (x, y) that holds it alone and whose ends
    are not roots.  `cells` has one sign more than `roots`, or none when
    lo >= hi."""

    at_lo: int
    cells: tuple
    at_hi: int
    roots: tuple

    def nonpositive(self) -> bool:
        """Whether p <= 0 on [lo, hi].  When lo < hi, an end where p > 0 also
        makes the cell next to it positive, so the verdict on an interval
        open at an end is the same."""
        return all(s <= 0 for s in (self.at_lo, *self.cells, self.at_hi))


def sign_cells(cs: Sequence[Q2], lo: Q2, hi: Q2) -> Signs:
    """The exact `Signs` of the Q2 polynomial cs on [lo, hi], from one Sturm
    chain over Z[sqrt2] and no floating point.

    One bisection of (lo, hi) isolates the roots: a root that a midpoint hits
    is an exact point, and a piece that holds one root is halved once more
    and its half kept, or halved again while an end of that half is a root.
    Each cell is then sampled once, midway between the ends of the isolating
    intervals that bound it."""
    p = _int_poly(cs)
    if not p:
        return Signs(0, (0,) if lo < hi else (), 0, ())
    sign = lambda x: _sign_at(p, x)
    a, b = _triple(lo), _triple(hi)
    if not lo < hi:
        return Signs(sign(a), (), sign(b), ())
    count = _root_counter(p)
    roots = []

    def isolate(a, b, k: int, depth: int):
        # the k >= 1 roots inside (a, b), appended in increasing order
        if depth > 200:  # pragma: no cover - structural safeguard
            raise RuntimeError("root isolation failed to converge")
        m = _midpoint(a, b)
        left, m_is_root = count(a, m), sign(m) == 0
        if k == 1 and not m_is_root:
            half = (a, m) if left else (m, b)
            if sign(half[0]) and sign(half[1]):
                roots.append(half)
            else:
                isolate(*half, 1, depth + 1)
            return
        if left:
            isolate(a, m, left, depth + 1)
        if m_is_root:
            roots.append((m, m))
        if k - left - m_is_root:
            isolate(m, b, k - left - m_is_root, depth + 1)

    k = count(a, b)
    if k:
        isolate(a, b, k, 0)
    ends = [a, *(x for root in roots for x in root), b]
    cells = tuple(sign(_midpoint(x, y)) for x, y in zip(ends[::2], ends[1::2]))
    return Signs(sign(a), cells, sign(b), tuple((_raw(*x), _raw(*y)) for x, y in roots))
