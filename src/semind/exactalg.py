"""Exact algebra used by the certificate verifiers.

Three layers, all free of floating point:

* ``Q2`` -- the real quadratic field Q(sqrt(2)), stored as an exact pair
  (p, q) meaning p + q*sqrt(2).  Comparisons are decided by exact sign
  analysis, so Q2 values can serve as interval endpoints.
* ``Poly`` -- sparse multivariate polynomials with Q2 coefficients over a
  fixed tuple of variable names.
* univariate helpers -- square-free reduction, Sturm chains and an exact
  decision procedure for "p <= 0 on [lo, hi]" with endpoints in Q2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class Q2:
    """p + q*sqrt(2) with exact rational p, q."""

    p: Fraction = Fraction(0)
    q: Fraction = Fraction(0)

    @staticmethod
    def of(x) -> "Q2":
        if isinstance(x, Q2):
            return x
        return Q2(_frac(x), Fraction(0))

    def __add__(self, other):
        o = Q2.of(other)
        return Q2(self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __sub__(self, other):
        o = Q2.of(other)
        return Q2(self.p - o.p, self.q - o.q)

    def __rsub__(self, other):
        return Q2.of(other) - self

    def __neg__(self):
        return Q2(-self.p, -self.q)

    def __mul__(self, other):
        o = Q2.of(other)
        return Q2(self.p * o.p + 2 * self.q * o.q, self.p * o.q + self.q * o.p)

    __rmul__ = __mul__

    def inverse(self) -> "Q2":
        # (p + q*sqrt2)^-1 = (p - q*sqrt2) / (p^2 - 2 q^2); the norm is
        # nonzero for any nonzero element because sqrt2 is irrational.
        norm = self.p * self.p - 2 * self.q * self.q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        return Q2(self.p / norm, -self.q / norm)

    def __truediv__(self, other):
        return self * Q2.of(other).inverse()

    def __rtruediv__(self, other):
        return Q2.of(other) * self.inverse()

    def sign(self) -> int:
        p, q = self.p, self.q
        if p == 0 and q == 0:
            return 0
        if p >= 0 and q >= 0:
            return 1
        if p <= 0 and q <= 0:
            return -1
        # mixed signs: compare |p| against |q|*sqrt2 by squaring
        s = p * p - 2 * q * q
        assert s != 0, "sqrt2 cannot be rational"
        if p > 0:  # q < 0
            return 1 if s > 0 else -1
        return -1 if s > 0 else 1  # p < 0 < q

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __lt__(self, other):
        return (self - Q2.of(other)).sign() < 0

    def __le__(self, other):
        return (self - Q2.of(other)).sign() <= 0

    def __gt__(self, other):
        return (self - Q2.of(other)).sign() > 0

    def __ge__(self, other):
        return (self - Q2.of(other)).sign() >= 0

    def __eq__(self, other):
        if isinstance(other, (Q2, int, Fraction)):
            o = Q2.of(other)
            return self.p == o.p and self.q == o.q
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.q))

    def __float__(self):
        return float(self.p) + float(self.q) * 1.4142135623730951

    def __str__(self):
        if self.q == 0:
            return str(self.p)
        if self.q == 1:
            qs = "sqrt2"
        elif self.q == -1:
            qs = "-sqrt2"
        else:
            qs = f"{self.q}*sqrt2"
        if self.p == 0:
            return qs
        sep = "+" if not qs.startswith("-") else ""
        return f"{self.p}{sep}{qs}"

    __repr__ = __str__


ZERO = Q2()
ONE = Q2.of(1)
SQRT2 = Q2(Fraction(0), Fraction(1))
HALF_SQRT2 = Q2(Fraction(0), Fraction(1, 2))  # 1/sqrt(2)


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

    @staticmethod
    def var(names, name, power: int = 1) -> "Poly":
        names = tuple(names)
        exps = [0] * len(names)
        exps[names.index(name)] = power
        return Poly(names, {tuple(exps): ONE})

    def _check(self, other: "Poly"):
        if self.names != other.names:
            raise ValueError(f"variable mismatch: {self.names} vs {other.names}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.names, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return Poly(self.names, out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.names, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly(self.names, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.names, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, ZERO) + c1 * c2
        return Poly(self.names, out)

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
            prev = out.get(key, ZERO)
            out[key] = prev + coeff
        return Poly(self.names, out)

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


def poly_eval(cs: Sequence[Q2], x: Q2) -> Q2:
    acc = ZERO
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def poly_deriv(cs: Sequence[Q2]) -> list[Q2]:
    return poly_trim([cs[i] * i for i in range(1, len(cs))])


def poly_divmod(num: Sequence[Q2], den: Sequence[Q2]) -> tuple[list[Q2], list[Q2]]:
    num = poly_trim(num)
    den = poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [ZERO] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    inv_lead = den[-1].inverse()
    while len(rem) >= len(den):
        k = len(rem) - len(den)
        f = rem[-1] * inv_lead
        q[k] = f
        for i, dc in enumerate(den):
            rem[k + i] = rem[k + i] - f * dc
        rem = poly_trim(rem)
        if not rem:
            break
    return poly_trim(q), rem


def poly_gcd(a: Sequence[Q2], b: Sequence[Q2]) -> list[Q2]:
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def poly_squarefree(cs: Sequence[Q2]) -> list[Q2]:
    cs = poly_trim(cs)
    if len(cs) <= 1:
        return list(cs)
    g = poly_gcd(cs, poly_deriv(cs))
    if len(g) <= 1:
        return list(cs)
    return poly_divmod(cs, g)[0]


def sturm_chain(cs: Sequence[Q2]) -> list[list[Q2]]:
    """Sturm sequence of a square-free polynomial."""
    chain = [poly_trim(cs), poly_deriv(cs)]
    while chain[-1]:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        chain.append([-c for c in rem])
    chain.pop()
    return chain


def _variations(signs: Iterable[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)


def _root_counter(cs: Sequence[Q2]):
    """count(a, b): the number of distinct real roots of cs in the open
    interval (a, b), for a < b, from one square-free part and one Sturm chain.

    With zeros left out of the sign sequences, V(a) - V(b) counts the roots
    in (a, b] also when a or b is a root, so a root at b is taken off.  Each
    point's sign variations are computed once."""
    sf = poly_squarefree(cs)
    if len(sf) <= 1:
        return lambda a, b: 0
    chain = sturm_chain(sf)
    seen: dict[Q2, tuple[int, bool]] = {}

    def at(x: Q2) -> tuple[int, bool]:
        if x not in seen:
            signs = [poly_eval(p, x).sign() for p in chain]
            seen[x] = (_variations(signs), signs[0] == 0)
        return seen[x]

    def count(a: Q2, b: Q2) -> int:
        (va, _), (vb, b_is_root) = at(a), at(b)
        return va - vb - b_is_root

    return count


def _no_positive_inside(cs, count, lo: Q2, hi: Q2, depth: int = 0) -> bool:
    """True iff cs(x) <= 0 for all x in the open interval (lo, hi).

    count is the `_root_counter` of cs."""
    if depth > 200:  # pragma: no cover - structural safeguard
        raise RuntimeError("root separation failed to converge")
    k = count(lo, hi)
    if k == 1:  # with neither end a root, each side of the one root has its end's sign
        ends = poly_eval(cs, lo).sign(), poly_eval(cs, hi).sign()
        if 0 not in ends:
            return ends == (-1, -1)
    mid = (lo + hi) * Q2.of(Fraction(1, 2))
    smid = poly_eval(cs, mid).sign()
    if k == 0:
        # constant sign throughout; mid cannot be a root here
        return smid < 0 if smid != 0 else True
    if smid > 0:
        return False
    return _no_positive_inside(cs, count, lo, mid, depth + 1) and _no_positive_inside(
        cs, count, mid, hi, depth + 1
    )


def sign_and_roots(
    cs: Sequence[Q2],
    lo: Q2,
    hi: Q2,
    include_lo: bool = True,
    include_hi: bool = True,
) -> tuple[bool, int]:
    """Exact decision of `p(x) <= 0 for all x in the interval [lo, hi]`,
    together with the number of distinct roots of p in the open (lo, hi).

    Both come from one square-free part and one Sturm chain.  Endpoint
    inclusion is controlled by the flags; the interior is always checked.
    No floating point is involved.
    """
    cs = poly_trim(cs)
    if not cs:
        return True, 0
    ok = not (include_lo and poly_eval(cs, lo).sign() > 0)
    ok = ok and not (include_hi and poly_eval(cs, hi).sign() > 0)
    if lo >= hi:
        return ok, 0
    count = _root_counter(cs)
    return ok and _no_positive_inside(cs, count, lo, hi), count(lo, hi)


def poly_nonpositive_on(
    cs: Sequence[Q2],
    lo: Q2,
    hi: Q2,
    include_lo: bool = True,
    include_hi: bool = True,
) -> bool:
    """Exact decision of `p(x) <= 0 for all x in the interval [lo, hi]`; see
    `sign_and_roots`."""
    return sign_and_roots(cs, lo, hi, include_lo, include_hi)[0]


def poly_nonnegative_on(cs, lo, hi, include_lo=True, include_hi=True) -> bool:
    return poly_nonpositive_on([-c for c in cs], lo, hi, include_lo, include_hi)


def isolate_roots(cs: Sequence[Q2], lo: Q2, hi: Q2) -> list[tuple[Q2, Q2]]:
    """Isolating intervals (or exact points as (x, x)) for the distinct roots
    of cs inside the open interval (lo, hi)."""
    count = _root_counter(cs)
    out: list[tuple[Q2, Q2]] = []

    def rec(a: Q2, b: Q2, depth: int):
        if depth > 200:  # pragma: no cover
            raise RuntimeError("root isolation failed to converge")
        k = count(a, b)
        if k == 0:
            return
        m = (a + b) * Q2.of(Fraction(1, 2))
        if not poly_eval(cs, m):
            out.append((m, m))
        elif k == 1:
            # a single root strictly inside (a, m) or (m, b)
            out.append((a, m) if count(a, m) else (m, b))
            return
        rec(a, m, depth + 1)
        rec(m, b, depth + 1)

    if lo < hi:
        rec(lo, hi, 0)
    out.sort(key=lambda ab: (float(ab[0]), float(ab[1])))
    return out
