"""Closed-form density-profile curves.

Scalar curve math lives in double precision with 1e-10 root/optimum
tolerances; exact rational arithmetic is reserved for the certificate
verifiers.  Evaluating a curve outside its validity interval returns a
flagged value instead of clamping, so figures can restrict drawing to the
valid range.

Every curve tag is declared once, in `_CURVES`.  `profile` and `figure`
evaluate curves on one grid (`figures.series_rows`): every lo + i*step at
most hi, a point past hi dropped (one within 1e-12 of hi is set to hi).

Everything is plain Python floats; the module needs no third-party package.
The three-part programs are maximized over the roots of their critical
polynomial, isolated by Descartes' rule of signs on its Bernstein
coefficients (`_falls`); the s21 program boundary is the square of a
quintic's root isolated the same way, and crossovers are found by bisection.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

from . import UsageError


class BracketError(ValueError):
    pass


class CurveSpecError(UsageError):
    pass


def _form(tag: str) -> str:
    names = _CURVES[tag].params
    return f"{tag}:" + ",".join(f"<{p}>" for p in names) if names else tag


def known_curves() -> str:
    """Every curve tag with its parameters, as in 'ap4, ..., ds:<s>, ...'."""
    return ", ".join(map(_form, _CURVES))


def _entry(tag: str) -> _Curve:
    entry = _CURVES.get(tag)
    if entry is None:
        raise CurveSpecError(f"unknown curve tag {tag!r}; known: {known_curves()}")
    return entry


class CurveId:
    """Identifier of a closed-form profile curve plus its integer parameters."""

    __slots__ = ("tag", "params")

    def __init__(self, tag: str, params: tuple[int, ...] = ()):
        entry = _entry(tag)
        if len(params) != len(entry.params):
            raise CurveSpecError(f"{tag} takes {len(entry.params)} parameters")
        if any(p < 1 for p in params):
            raise CurveSpecError(f"{tag} needs {', '.join(entry.params)} >= 1")
        if entry.rule and not entry.rule[1](*params):
            raise CurveSpecError(f"{tag} expects {entry.rule[0]}")
        self.tag, self.params = tag, params

    def __eq__(self, other):
        if not isinstance(other, CurveId):
            return NotImplemented
        return (self.tag, self.params) == (other.tag, other.params)

    def __hash__(self):
        return hash((self.tag, self.params))

    def __repr__(self):
        return f"CurveId({self.tag!r}, {self.params!r})"

    def label(self) -> str:
        return f"{self.tag}:{','.join(map(str, self.params))}" if self.params else self.tag

    @property
    def work(self) -> float:
        """Estimated work of one evaluation, in `check_work`'s unit."""
        work = _CURVES[self.tag].work
        return work(*self.params) if callable(work) else work


def curve(text: str) -> CurveId:
    """Parse 'ap4', 'ds:2', 'ell:2,1', 'rw_star:3', ..."""
    tag, sep, rest = text.partition(":")
    names = _entry(tag).params
    try:
        values = tuple(int(v) for v in rest.split(",")) if sep else ()
    except ValueError:
        values = None
    if values is None or len(values) != len(names):
        with_ints = f" with integer {' and '.join(names)}" if names else ""
        raise CurveSpecError(f"bad curve {text!r}: expected {_form(tag)}{with_ints}")
    return CurveId(tag, values)


class CurveValue(NamedTuple):
    value: float
    in_range: bool


def _ap4(beta: float) -> float:
    return beta * beta * (1 - beta)


def _peenn_hi(beta: float) -> float:
    return beta ** 1.5 - beta**2


def _peenn_lo(beta: float) -> float:
    return (1 - beta) ** 1.5 - (1 - beta) ** 2


def _s21(beta: float) -> float:
    return beta / 4 if beta <= 0.5 else _ap4(beta)


def _conj_s21(beta: float) -> float:
    return solve_prog_s(beta, 2, 1)[2] if beta <= 0.25 else _s21(beta)


def _rw_star(beta: float, k: int) -> float:
    eta = 1 - math.sqrt(1 - beta)
    return max(beta ** ((k + 1) / 2), eta + (1 - eta) * eta**k)


def _c(beta: float, a: int, b: int) -> float:
    rt = math.sqrt(beta)
    return rt * beta ** (a / 2) * (1 - rt) ** b


def _cc(beta: float, a: int, b: int) -> float:
    rt = math.sqrt(1 - beta)
    return rt * (1 - rt) ** a * (1 - beta) ** (b / 2)


class _Curve(NamedTuple):
    params: tuple[str, ...]  # parameter names
    value: Callable[..., float]  # value(beta, *params)
    interval: Callable[..., tuple[float, float]] | None  # interval(*params); None is [0, 1]
    # one value with its CSV row, in `check_work`'s unit (a number, or a
    # function of the params); timed on a 2-core Xeon at 4.2-4.6 for the
    # closed forms, 7.5 ac4_cliques, 38 conj_s21, and 190-240 the programs
    # up to a + b = 8, growing as (a + b)^2 to 2,800 at a = b = 30
    work: float | Callable[..., float] = 5
    rule: tuple[str, Callable[..., bool]] | None = None  # a check besides params >= 1


_AB = ("a", "b")
_A_GE_B = ("a >= b", lambda a, b: a >= b)


def _prog_work(a: int, b: int) -> float:
    return 200 + (a + b) ** 2


# The one declaration of every curve tag; nothing else branches on a tag.
_CURVES = {
    "ap4": _Curve((), _ap4, None),
    "ac4": _Curve((), _ap4, None),
    "peenn": _Curve((), lambda beta: max(_peenn_hi(beta), _peenn_lo(beta)), None),
    "peenn_hi": _Curve((), _peenn_hi, None),
    "peenn_lo": _Curve((), _peenn_lo, None),
    "s21": _Curve((), _s21, lambda: (0.25, 1.0)),
    "ac4_cliques": _Curve(
        (), lambda beta: ac4_clique_value(min(beta, 1 - beta))[2] if 0 < beta < 1 else 0.0,
        lambda: (0.0, 0.5), work=16,
    ),
    "conj_s21": _Curve((), _conj_s21, None, work=40),
    "ds": _Curve(
        ("s",), lambda beta, s: beta ** (2 * s) * (1 - beta), lambda s: (1 - 1 / (2 * s), 1.0)
    ),
    "rw_star": _Curve(("k",), _rw_star, None),
    "ell": _Curve(
        _AB,
        lambda beta, a, b: beta * (a - 1) ** (a - 1) * b**b / (a + b - 1) ** (a + b - 1),
        lambda a, b: ((a - 1) ** 2 / (a + b - 1) ** 2, (a - 1) / (a + b - 1)),
        rule=_A_GE_B,
    ),
    "ellc": _Curve(
        _AB,
        lambda beta, a, b: (1 - beta) * a**a * (b - 1) ** (b - 1) / (a + b - 1) ** (a + b - 1),
        lambda a, b: (1 - (b - 1) / (a + b - 1), 1 - (b - 1) ** 2 / (a + b - 1) ** 2),
        rule=_A_GE_B,
    ),
    "r": _Curve(_AB, lambda beta, a, b: beta**a * (1 - beta) ** b, None),
    "c": _Curve(_AB, _c, None),
    "cc": _Curve(_AB, _cc, None),
    "prog_s": _Curve(_AB, lambda beta, a, b: solve_prog_s(beta, a, b)[2], None, work=_prog_work),
    "prog_cs": _Curve(_AB, lambda beta, a, b: solve_prog_cs(beta, a, b)[2], None, work=_prog_work),
}


def validity_interval(cid: CurveId) -> tuple[float, float]:
    interval = _CURVES[cid.tag].interval
    return (0.0, 1.0) if interval is None else interval(*cid.params)


def _raw_value(cid: CurveId, beta: float) -> float:
    return _CURVES[cid.tag].value(beta, *cid.params)


def eval_curve(cid: CurveId, beta: float) -> CurveValue:
    """Exact closed-form value plus an in-range flag (never clamps)."""
    if not 0 <= beta <= 1:
        raise ValueError("beta must lie in [0, 1]")
    lo, hi = validity_interval(cid)
    return CurveValue(_raw_value(cid, beta), lo - 1e-12 <= beta <= hi + 1e-12)


# ---------------------------------------------------------------------------
# disjoint-clique optimizer for the alternating 4-cycle


def ac4_clique_value(beta: float) -> tuple[float, float, float]:
    """Optimal clique-partition value for the alternating 4-cycle at red
    density beta <= 1/2.

    Uses k = ceil(1/beta) parts: k-1 cliques of vertex fraction u and one of
    fraction w with (k-1)u + w = 1, (k-1)u^2 + w^2 = beta, 0 <= w <= u.
    Returns (u, w, beta^2 - ((k-1)u^4 + w^4)).
    """
    if not 0 < beta <= 0.5:
        raise ValueError("beta must lie in (0, 1/2]")
    j = math.ceil(1 / beta - 1e-12) - 1  # k - 1; the guard absorbs float noise at beta = 1/k
    disc = j * j - j * (j + 1) * (1 - beta)
    if disc < 0:
        if disc < -1e-12:
            raise ValueError("no feasible clique split at this beta")
        disc = 0.0
    u = (j + math.sqrt(disc)) / (j * (j + 1))
    w = 1 - j * u
    if w < -1e-12 or w > u + 1e-12:
        raise ValueError("no feasible clique split at this beta")
    w = min(max(w, 0.0), u)
    value = beta * beta - (j * u**4 + w**4)
    return (u, w, value)


# ---------------------------------------------------------------------------
# bisection and root isolation


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """num >= 2 evenly spaced points from lo to hi, computed as numpy.linspace
    computes them: i * step + lo, with the last point set to hi."""
    step = (hi - lo) / (num - 1)
    xs = [i * step + lo for i in range(num)]
    xs[-1] = hi
    return xs


def _bisect(above, lo: float, hi: float, steps: int) -> float:
    """Bisection of [lo, hi]: keep lo where above(mid) holds, else hi, for at
    most `steps` halvings; stops once the midpoint rounds onto an endpoint
    (further halvings would not move it).  Returns the final midpoint."""
    for _ in range(steps):
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _times(p: list[float], q: list[float]) -> list[float]:
    """Product of two polynomials in the scaled Bernstein basis
    t^k (1-t)^(n-k) of one interval, which is their convolution.  A linear
    factor's two coefficients are its values at the interval's ends."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def _power(p: list[float], e: int) -> list[float]:
    if len(p) == 2:  # a linear factor: C(e, k) p0^(e-k) p1^k
        return [math.comb(e, k) * p[0] ** (e - k) * p[1] ** k for k in range(e + 1)]
    out = [1.0]
    for _ in range(e):
        out = _times(out, p)
    return out


def _sum(*terms: tuple[float, list[float]]) -> list[float]:
    """The sum of weight * polynomial over equal-degree terms."""
    return [sum(w * c for (w, _), c in zip(terms, col)) for col in zip(*(p for _, p in terms))]


def _halves(bs: list[float]) -> tuple[list[float], list[float]]:
    """Bernstein coefficients of both halves of the interval (de Casteljau)."""
    left, right = [bs[0]], [bs[-1]]
    while len(bs) > 1:
        bs = [(u + v) * 0.5 for u, v in zip(bs, bs[1:])]
        left.append(bs[0])
        right.append(bs[-1])
    return left, right[::-1]


def _falls(bs: list[float], lo: float, hi: float, g) -> list[float]:
    """The points of (lo, hi) where a polynomial falls through zero, from its
    Bernstein coefficients bs on [lo, hi]; g evaluates it.

    The sign changes of bs bound its roots there (Descartes' rule), so a
    cell with none is dropped, a cell with one holds one root, which is
    bisected with g down to adjacent doubles when g falls there, and any
    other cell is halved by de Casteljau.  A cell too narrow to halve gives
    its midpoint, and so does a midpoint where the coefficients vanish."""
    signs = [c > 0 for c in bs if c]
    changes = sum(u != v for u, v in zip(signs, signs[1:]))
    if not changes:
        return []
    if changes == 1:
        return [_bisect(lambda y: g(y) > 0, lo, hi, 80)] if signs[0] else []
    mid = (lo + hi) / 2
    if not lo < mid < hi:
        return [mid]
    left, right = _halves(bs)
    return _falls(left, lo, mid, g) + [mid] * (right[0] == 0) + _falls(right, mid, hi, g)


# ---------------------------------------------------------------------------
# one-variable polynomial programs for the three-part star constructions


def _prog_objective(y: float, beta: float, a: int, b: int) -> float:
    x = (beta - y * y) / (2 * y)
    z = 1 - x - y
    return x * y**a * (1 - y) ** b + y * (x + y) ** a * (z if z > 0 else 0.0) ** b


def _prog_critical(beta: float, a: int, b: int, lo: float, hi: float):
    """G = y P' - (a+b) P, whose sign is that of the derivative of
    `_prog_objective` = P(y) / (2y)^(a+b), as (its Bernstein coefficients on
    [lo, hi], an evaluator of its factored form).  With s = a + b,
    w = 1 - x - y times 2y = (y - r1)(r2 - y) and r1,2 = 1 -+ sqrt(1-beta):

      G = 2^(s-1) y^(2a+b-1) (1-y)^(b-1) Q1 + y (beta+y^2)^(a-1) w^(b-1) Q2
      Q1 = (a-1)(beta-y^2)(1-y) - 2y^2(1-y) - b y(beta-y^2)
      Q2 = (1-s)(beta+y^2) w + 2a y^2 w + 2b y (beta+y^2)(1-y)

    Every linear factor is >= 0 on [r1, sqrt(beta)], and beta + y^2 > 0, so
    each product of factors has nonnegative coefficients made without
    cancellation; only the short signed sums in Q1, Q2 and G can cancel."""
    s, e, a1, b1 = a + b, 2 * a + b - 1, a - 1, b - 1
    c = 2 ** (s - 1)
    rb, rt = math.sqrt(beta), math.sqrt(1 - beta)
    r1, r2 = 1 - rt, 1 + rt
    y, u = [lo, hi], [1 - lo, 1 - hi]
    m = _times([rb - lo, rb - hi], [rb + lo, rb + hi])  # beta - y^2
    q = [beta + lo * lo, 2 * (beta + lo * hi), beta + hi * hi]  # beta + y^2
    w = _times([lo - r1, hi - r1], [r2 - lo, r2 - hi])
    yy = _power(y, 2)
    q1 = _sum((a1, _times(m, u)), (-2, _times(yy, u)), (-b, _times(y, m)))
    q2 = _sum((1 - s, _times(q, w)), (2 * a, _times(yy, w)), (2 * b, _times(_times(y, q), u)))
    t1 = _times(_times(_power(y, e), _power(u, b1)), q1)
    t2 = _times(_times(_power(q, a1), _power(w, b1)), _times(y, q2))
    bs = [(c * c1 + c2) / math.comb(2 * s + 1, k) for k, (c1, c2) in enumerate(zip(t1, t2))]
    bs[-1] = 0.0  # G = 0 at hi = sqrt(beta) for every a, b; the sum there is rounding noise

    def g(y: float) -> float:
        u, m, q, w = 1 - y, (rb - y) * (rb + y), beta + y * y, (y - r1) * (r2 - y)
        q1 = (a1 * u - b * y) * m - 2 * y * y * u
        q2 = ((1 - s) * q + 2 * a * y * y) * w + 2 * b * y * q * u
        return c * y**e * u**b1 * q1 + y * q**a1 * w**b1 * q2

    return bs, g


def solve_prog_s(beta: float, a: int, b: int) -> tuple[float, float, float]:
    """Maximize x y^a (1-y)^b + y (x+y)^a (1-x-y)^b over x, y >= 0 with
    2xy + y^2 = beta and x + y <= 1.

    x is eliminated through the constraint, leaving one variable y in
    [1 - sqrt(1-beta), sqrt(beta)], whose ends are the two boundary
    constructions (x + y = 1 and x = 0).  The maximum is taken over both
    ends and every point where the derivative falls through zero: the roots
    of `_prog_critical`'s polynomial isolated by `_falls`.  Returns
    (x, y, value)."""
    if beta <= 0:
        return (0.0, 0.0, 0.0)
    if beta >= 1:
        return (0.0, 1.0, 0.0)
    y_lo = max(1 - math.sqrt(1 - beta), 1e-14)
    y_hi = math.sqrt(beta)
    if y_lo >= y_hi:
        y = y_hi
        return ((beta - y * y) / (2 * y) if y > 0 else 0.0, y, 0.0)
    bs, g = _prog_critical(beta, a, b, y_lo, y_hi)
    y_star, val = y_lo, _prog_objective(y_lo, beta, a, b)
    for y in (*_falls(bs, y_lo, y_hi, g), y_hi):
        v = _prog_objective(y, beta, a, b)
        if v > val:
            y_star, val = y, v
    x_star = max((beta - y_star * y_star) / (2 * y_star), 0.0)
    return (x_star, y_star, val)


def solve_prog_cs(beta: float, a: int, b: int) -> tuple[float, float, float]:
    """Complementary program: objective x y^b (1-y)^a + y (x+y)^b (1-x-y)^a
    with 2xy + y^2 = 1 - beta.  Identical to solve_prog_s at 1-beta with the
    roles of a and b swapped."""
    return solve_prog_s(1 - beta, b, a)


# 6t^5 - 384t^4 + 338t^3 - 89t^2 - 4t + 2, lowest degree first
_S21_QUINTIC = (2, -4, -89, 338, -384, 6)


@lru_cache(maxsize=None)
def s21_prog_boundary() -> float:
    """Density below which the three-part program for (a,b) = (2,1) strictly
    beats its x = 0 boundary (the clique-plus-isolated value): beta = t^2 for
    the one root t in (0, 1/4) of `_S21_QUINTIC`, where the interior maximum
    and the x = 0 value meet."""
    n, h = len(_S21_QUINTIC) - 1, 0.25
    bs = [sum(math.comb(k, i) / math.comb(n, i) * c * h**i
              for i, c in enumerate(_S21_QUINTIC[: k + 1])) for k in range(n + 1)]

    def quintic(t: float) -> float:
        v = 0.0
        for c in reversed(_S21_QUINTIC):
            v = v * t + c
        return v

    (t,) = _falls(bs, 0.0, h, quintic)
    return t * t


def find_crossover(c1: CurveId, c2: CurveId, lo: float, hi: float) -> float:
    """Smallest root of eval_curve(c1) - eval_curve(c2) on [lo, hi].

    The difference is scanned on a grid first, so a degenerate common zero at
    an endpoint does not mask an interior crossing; the first sign change is
    then bisected down to adjacent doubles."""

    def diff(beta: float) -> float:
        return _raw_value(c1, beta) - _raw_value(c2, beta)

    grid = _linspace(lo, hi, 2049)
    vals = [diff(x) for x in grid]
    if all(v == 0.0 for v in vals):
        raise BracketError(
            f"{c1.label()} - {c2.label()} vanishes identically on [{lo}, {hi}]"
        )
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            return grid[i]
        if a * b < 0:
            return _bisect(lambda x: diff(x) * a > 0, grid[i], grid[i + 1], 80)
    if vals[-1] == 0.0:
        return hi
    raise BracketError(
        f"no sign change of {c1.label()} - {c2.label()} on [{lo}, {hi}]"
    )
