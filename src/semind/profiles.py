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
Maxima are found by one grid scan with golden-section refinement
(`_scan_max`), and crossovers and the s21 program boundary by one bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class CurveId:
    """Identifier of a closed-form profile curve plus its integer parameters."""

    tag: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        entry = _entry(self.tag)
        if len(self.params) != len(entry.params):
            raise CurveSpecError(f"{self.tag} takes {len(entry.params)} parameters")
        if any(p < 1 for p in self.params):
            raise CurveSpecError(f"{self.tag} needs {', '.join(entry.params)} >= 1")
        if entry.rule and not entry.rule[1](*self.params):
            raise CurveSpecError(f"{self.tag} expects {entry.rule[0]}")

    def label(self) -> str:
        return f"{self.tag}:{','.join(map(str, self.params))}" if self.params else self.tag

    @property
    def work(self) -> float:
        """Estimated work of one evaluation, in `check_work`'s unit."""
        return _CURVES[self.tag].work


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


@dataclass(frozen=True)
class CurveValue:
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
    # one value with its CSV row, in `check_work`'s unit; timed at 3.7-4.7
    # for the closed forms, 11 ac4_cliques, 120-130 conj_s21, 440-480 the programs
    work: float = 5
    rule: tuple[str, Callable[..., bool]] | None = None  # a check besides params >= 1


_AB = ("a", "b")
_A_GE_B = ("a >= b", lambda a, b: a >= b)

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
    "conj_s21": _Curve((), _conj_s21, None, work=150),
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
    "prog_s": _Curve(_AB, lambda beta, a, b: solve_prog_s(beta, a, b)[2], None, work=620),
    "prog_cs": _Curve(_AB, lambda beta, a, b: solve_prog_cs(beta, a, b)[2], None, work=620),
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


def _frac_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _clique_count(beta) -> int:
    """k = ceil(1/beta), exact for a rational beta."""
    if isinstance(beta, float):
        return math.ceil(1 / beta - 1e-12)  # guard float noise at beta = 1/k
    beta = Fraction(beta)
    return -((-beta.denominator) // beta.numerator)


def ac4_clique_value_exact(beta: Fraction):
    """Exact-rational clique split when the discriminant is a perfect square
    (in particular at every beta = 1/k); returns None otherwise."""
    beta = Fraction(beta)
    if not 0 < beta <= Fraction(1, 2):
        raise ValueError("beta must lie in (0, 1/2]")
    j = _clique_count(beta) - 1
    disc = Fraction(j * j) - j * (j + 1) * (1 - beta)
    root = _frac_sqrt(disc)
    if root is None:
        return None
    u = (j + root) / Fraction(j * (j + 1))
    w = 1 - j * u
    if not 0 <= w <= u:
        raise ValueError("no feasible clique split at this beta")
    return (u, w, beta**2 - (j * u**4 + w**4))


def ac4_clique_value(beta) -> tuple[float, float, float]:
    """Optimal clique-partition value for the alternating 4-cycle at red
    density beta <= 1/2.

    Uses k = ceil(1/beta) parts: k-1 cliques of vertex fraction u and one of
    fraction w with (k-1)u + w = 1, (k-1)u^2 + w^2 = beta, 0 <= w <= u.
    Returns (u, w, beta^2 - ((k-1)u^4 + w^4)).  A rational beta whose
    discriminant is a perfect square takes the exact value of
    `ac4_clique_value_exact`, so values at beta = 1/k are exact.
    """
    if not 0 < beta <= Fraction(1, 2):
        raise ValueError("beta must lie in (0, 1/2]")
    j = _clique_count(beta) - 1
    if not isinstance(beta, float):
        exact = ac4_clique_value_exact(beta)
        if exact is not None:
            return tuple(float(x) for x in exact)
        beta = float(Fraction(beta))
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
# one-dimensional maximization and bisection


def _golden_max(h, a: float, b: float, steps: int, tol: float) -> tuple[float, float]:
    """Golden-section search for a maximum of h on [a, b]: the bracket left
    after at most `steps` contractions, stopping once it is narrower than tol."""
    gr = (math.sqrt(5) - 1) / 2
    x1 = b - gr * (b - a)
    x2 = a + gr * (b - a)
    f1, f2 = h(x1), h(x2)
    for _ in range(steps):
        if b - a < tol:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + gr * (b - a)
            f2 = h(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - gr * (b - a)
            f1 = h(x1)
    return a, b


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """num >= 2 evenly spaced points from lo to hi, computed as numpy.linspace
    computes them: i * step + lo, with the last point set to hi."""
    step = (hi - lo) / (num - 1)
    xs = [i * step + lo for i in range(num)]
    xs[-1] = hi
    return xs


def _scan_max(h, lo: float, hi: float, num: int, steps: int, tol: float) -> tuple[float, float]:
    """Maximize h on [lo, hi]: evaluate it on `_linspace(lo, hi, num)`, then
    golden-refine (`_golden_max`, with steps and tol) the bracket between the
    grid neighbours of every local maximum of the grid, not only the first
    argmax, so a higher peak that the grid undersamples is still found.

    A grid point is a local maximum when it is strictly above its left
    neighbour and not below its right one, so a plateau starts one
    refinement, at its first point.  Returns (x, h(x)) for the best point
    seen: the first grid point of the highest value (as numpy.argmax), then
    each refined bracket midpoint in grid order if it is strictly higher."""
    xs = _linspace(lo, hi, num)
    vals = [h(x) for x in xs]
    i_best = max(range(num), key=vals.__getitem__)  # first index on ties
    x_best, v_best = xs[i_best], vals[i_best]
    last = num - 1
    for i in range(num):
        if (i == 0 or vals[i] > vals[i - 1]) and (i == last or vals[i] >= vals[i + 1]):
            a, b = _golden_max(h, xs[max(i - 1, 0)], xs[min(i + 1, last)], steps, tol)
            x = (a + b) / 2
            v = h(x)
            if v > v_best:
                x_best, v_best = x, v
    return x_best, v_best


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


# ---------------------------------------------------------------------------
# one-variable polynomial programs for the three-part star constructions


def _prog_objective(y: float, beta: float, a: int, b: int) -> float:
    x = (beta - y * y) / (2 * y)
    z = 1 - x - y
    return x * y**a * (1 - y) ** b + y * (x + y) ** a * (z if z > 0 else 0.0) ** b


def solve_prog_s(beta: float, a: int, b: int) -> tuple[float, float, float]:
    """Maximize x y^a (1-y)^b + y (x+y)^a (1-x-y)^b over x, y >= 0 with
    2xy + y^2 = beta and x + y <= 1.

    x is eliminated through the constraint, leaving one variable y in
    [1 - sqrt(1-beta), sqrt(beta)].  That range is scanned at 401 points and
    the bracket around every local maximum of the scan is refined by golden
    section to 1e-15 (`_scan_max`).  Both boundary constructions (x = 0 and
    x + y = 1) are scan points.  Returns (x, y, value)."""
    if beta <= 0:
        return (0.0, 0.0, 0.0)
    if beta >= 1:
        return (0.0, 1.0, 0.0)
    y_lo = max(1 - math.sqrt(1 - beta), 1e-14)
    y_hi = math.sqrt(beta)
    if y_lo >= y_hi:
        y = y_hi
        return ((beta - y * y) / (2 * y) if y > 0 else 0.0, y, 0.0)

    def h(y: float) -> float:
        return _prog_objective(y, beta, a, b)

    y_star, val = _scan_max(h, y_lo, y_hi, 401, 200, 1e-15)
    x_star = max((beta - y_star * y_star) / (2 * y_star), 0.0)
    return (x_star, y_star, val)


def solve_prog_cs(beta: float, a: int, b: int) -> tuple[float, float, float]:
    """Complementary program: objective x y^b (1-y)^a + y (x+y)^b (1-x-y)^a
    with 2xy + y^2 = 1 - beta.  Identical to solve_prog_s at 1-beta with the
    roles of a and b swapped."""
    return solve_prog_s(1 - beta, b, a)


@lru_cache(maxsize=None)
def s21_prog_boundary() -> float:
    """Density below which the three-part program for (a,b) = (2,1) strictly
    beats its x = 0 boundary (the clique-plus-isolated value)."""

    def interior_gap(beta: float) -> float:
        x, y, val = solve_prog_s(beta, 2, 1)
        c_val = _raw_value(CurveId("c", (2, 1)), beta)
        return val - c_val

    lo, hi = 1e-6, 0.25
    if interior_gap(lo) <= 1e-14:
        return lo
    return _bisect(lambda beta: interior_gap(beta) > 1e-13, lo, hi, 80)


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
