"""Exact field arithmetic and Sturm-based sign analysis."""

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import semind
from semind.exactalg import HALF_SQRT2, Poly, Q2, SQRT2, sign_cells


def test_import_loads_no_dataclasses():
    src = str(Path(semind.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = "import sys, semind.exactalg; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_field_arithmetic():
    x = SQRT2 - Q2.of(1)
    y = SQRT2 + Q2.of(1)
    assert x * y == Q2.of(1)
    assert SQRT2 * SQRT2 == Q2.of(2)
    assert HALF_SQRT2 * SQRT2 == Q2.of(1)


def test_sign_analysis():
    assert (SQRT2 - Q2.of(1)).sign() == 1
    assert (Q2.of(1) - SQRT2).sign() == -1
    assert (SQRT2 - Q2.of(Fraction(3, 2))).sign() == -1  # sqrt2 < 1.5
    assert (SQRT2 - Q2.of(Fraction(7, 5))).sign() == 1  # sqrt2 > 1.4
    assert Q2.of(0).sign() == 0
    assert HALF_SQRT2 < Q2.of(Fraction(71, 100))
    assert HALF_SQRT2 > Q2.of(Fraction(70, 100))


def test_poly_basics():
    names = ("a", "B")
    a = Poly(names, {(1, 0): 1})
    B = Poly(names, {(0, 1): 1})
    p = (a + B) * (a - B)
    assert p == a * a - B * B
    q = p.substitute(B=SQRT2)
    assert q == a * a - Poly.const(names, 2)
    assert q.substitute(a=SQRT2).is_zero()
    assert q.substitute(a=Q2.of(2)) == Poly.const(names, 2)
    # a^2 - 2 vanishes at sqrt2 and is positive at 2
    signs = sign_cells(q.univariate("a"), SQRT2, Q2.of(2))
    assert (signs.at_lo, signs.cells, signs.at_hi, signs.roots) == (0, (1,), 1, ())


def _upoly(*coeffs):
    return [Q2.of(Fraction(c)) for c in coeffs]


def _neg(cs):
    return [-c for c in cs]


def test_root_counting():
    # (x - 1)(x - 2)(x - 3) = x^3 - 6x^2 + 11x - 6
    p = _upoly(-6, 11, -6, 1)
    assert len(sign_cells(p, Q2.of(0), Q2.of(4)).roots) == 3
    assert len(sign_cells(p, Q2.of(Fraction(3, 2)), Q2.of(4)).roots) == 2
    assert len(sign_cells(p, Q2.of(1), Q2.of(3)).roots) == 1  # open: excludes 1 and 3
    # x^2 - 2 has the field element sqrt2 as root
    q = _upoly(-2, 0, 1)
    assert len(sign_cells(q, Q2.of(1), Q2.of(2)).roots) == 1
    assert len(sign_cells(q, SQRT2, Q2.of(2)).roots) == 0


def test_isolate_roots():
    p = _upoly(-6, 11, -6, 1)
    roots = sign_cells(p, Q2.of(0), Q2.of(4)).roots
    assert len(roots) == 3
    vals = sorted(float((a + b)) / 2 for a, b in roots)
    assert all(abs(v - t) < 1 for v, t in zip(vals, (1, 2, 3)))


def test_nonpositive_decisions():
    # -(x - 1/2)^2 <= 0 everywhere, with a double root inside
    p = _upoly(Fraction(-1, 4), 1, -1)
    assert sign_cells(p, Q2.of(0), Q2.of(1)).nonpositive()
    assert not sign_cells(_neg(p), Q2.of(0), Q2.of(1)).nonpositive()
    # x(1 - x) >= 0 on [0, 1] but not nonpositive
    q = _upoly(0, 1, -1)
    assert sign_cells(_neg(q), Q2.of(0), Q2.of(1)).nonpositive()
    assert not sign_cells(q, Q2.of(0), Q2.of(1)).nonpositive()
    # zero at the right end of [0, 1/2], positive beyond it
    r = _upoly(Fraction(-1, 2), 1)  # x - 1/2
    assert sign_cells(r, Q2.of(0), Q2.of(Fraction(1, 2))).nonpositive()
    assert not sign_cells(r, Q2.of(0), Q2.of(1)).nonpositive()
    # zero polynomial
    assert sign_cells([], Q2.of(0), Q2.of(1)).nonpositive()


def test_nonpositive_with_sqrt2_endpoints():
    # p(x) = x^2 - 2 is nonpositive exactly on [-sqrt2, sqrt2]
    p = _upoly(-2, 0, 1)
    assert sign_cells(p, Q2.of(0), SQRT2).nonpositive()
    assert not sign_cells(p, Q2.of(0), Q2.of(Fraction(3, 2))).nonpositive()
    # (x - 2)^2 counts its double root once and touches zero there
    sq = _upoly(4, -4, 1)
    assert len(sign_cells(sq, Q2.of(0), Q2.of(3)).roots) == 1
    assert sign_cells(_neg(sq), Q2.of(0), Q2.of(3)).nonpositive()


def test_sign_analysis_separates_roots_1e15_apart():
    # -(x - (sqrt2 - 1))^2 + eps: two roots 2e-15 apart around sqrt2 - 1 with
    # a positive hump between them, or no root at all
    r = SQRT2 - Q2.of(1)
    for eps, want in ((Fraction(1, 10**30), (False, 2)), (Fraction(-1, 10**30), (True, 0))):
        cs = [-(r * r) + eps, r * 2, Q2.of(-1)]
        signs = sign_cells(cs, Q2.of(0), Q2.of(1))
        assert (signs.nonpositive(), len(signs.roots)) == want


# ---------------------------------------------------------------------------
# one-chain root counting against polynomials built from known roots

_FRACS = st.fractions(min_value=-2, max_value=2, max_denominator=6)
_Q2S = st.one_of(
    _FRACS.map(Q2.of),
    st.builds(Q2, _FRACS, st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2)])),
)
# roots with denominators up to 50 give large int coefficients
_FINE = st.fractions(min_value=-2, max_value=2, max_denominator=50)
_FINE_Q2S = st.one_of(_FINE.map(Q2.of), st.builds(Q2, _FINE, _FINE))


@st.composite
def _rooted_polys(draw):
    """(lo, hi, {root: multiplicity}, leading coefficient).

    Roots are rational or in Q(sqrt2), some on lo or hi, some at bisection
    midpoints."""
    lo, hi = sorted(draw(st.lists(_Q2S, min_size=2, max_size=2, unique=True)))
    mids = [lo + (hi - lo) * Fraction(j, 8) for j in range(1, 8)]
    roots = draw(st.lists(st.one_of(st.sampled_from([lo, hi] + mids), _Q2S, _FINE_Q2S),
                          max_size=4, unique=True))
    mults = {r: draw(st.integers(1, 3)) for r in roots}
    # negative irrational leading coefficients flip the sign of odd powers
    # in the pseudo-remainders
    lead = draw(st.sampled_from([Q2.of(1), Q2.of(-1), Q2.of(Fraction(-2, 3)), SQRT2 + 1,
                                 1 - SQRT2, Q2(Fraction(7, 3), Fraction(-5, 2))]))
    return lo, hi, mults, lead


def _expand(mults: dict, lead: Q2) -> list:
    cs = [lead]
    for r, m in mults.items():
        for _ in range(m):  # multiply by (x - r)
            cs = [c - r * d for c, d in zip([Q2.of(0)] + cs, cs + [Q2.of(0)])]
    return cs


def _sign_at(x: Q2, mults: dict, lead: Q2) -> int:
    s = lead.sign()
    for r, m in mults.items():
        s *= (x - r).sign() ** m
    return s


def _touching_roots(test):
    """Single roots in (0, 1) that no bisection midpoint hits, of even
    multiplicity (the polynomial touches zero) and of odd (it crosses)."""
    for root in (Q2.of(Fraction(1, 3)), Q2.of(Fraction(2, 7)), SQRT2 - Q2.of(1)):
        for mult in (2, 3, 4):
            for lead in (Q2.of(-1), Q2.of(1)):
                test = example((Q2.of(0), Q2.of(1), {root: mult}, lead))(test)
    return test


def _odd_step_remainders(test):
    """Roots that sum to zero, so that p has no x^(deg - 1) term.  Then the
    first elimination step of the pseudo-remainder of p by p' drops two
    degrees, and the remainder is multiplied by an odd power of lc(p'),
    whose sign must be undone when it is negative."""
    one, half = Q2.of(1), Q2.of(Fraction(1, 2))
    for lo, hi, roots in ((Q2.of(0), Q2.of(2), (one, -one)),
                          (Q2.of(0), Q2.of(2), (one, Q2.of(0), -one)),
                          (Q2.of(-1), Q2.of(1), (half, -half))):
        for lead in (Q2.of(-1), 1 - SQRT2, Q2(Fraction(7, 3), Fraction(-5, 2))):
            test = example((lo, hi, dict.fromkeys(roots, 1), lead))(test)
    return test


@settings(max_examples=150, deadline=None)
@given(_rooted_polys())
@_touching_roots
@_odd_step_remainders
def test_one_chain_root_counting_matches_known_roots(case):
    lo, hi, mults, lead = case
    cs = _expand(mults, lead)
    inside = sorted(r for r in mults if lo < r < hi)
    signs = sign_cells(cs, lo, hi)
    assert len(signs.roots) == len(inside)

    covered = []
    intervals = signs.roots
    assert all(b1 <= a2 for (_, b1), (a2, _) in zip(intervals, intervals[1:]))
    for a, b in intervals:
        assert lo <= a <= b <= hi
        hits = [r for r in inside if (r == a if a == b else a < r < b)]
        assert len(hits) == 1, (a, b, inside)
        covered.append(hits[0])
        if a != b:  # an isolating interval ends at no root
            assert _sign_at(a, mults, lead) and _sign_at(b, mults, lead), (a, b, mults)
    assert sorted(covered) == inside

    # cs keeps one sign between consecutive roots and endpoints
    points = sorted({lo, hi, *inside})
    gaps = [_sign_at((a + b) * Fraction(1, 2), mults, lead) for a, b in zip(points, points[1:])]
    at_lo, at_hi = _sign_at(lo, mults, lead), _sign_at(hi, mults, lead)
    assert (signs.at_lo, signs.cells, signs.at_hi) == (at_lo, tuple(gaps), at_hi)
    negated = sign_cells([-c for c in cs], lo, hi)
    assert signs.nonpositive() == all(s <= 0 for s in [at_lo, *gaps, at_hi])
    assert negated.nonpositive() == all(s >= 0 for s in [at_lo, *gaps, at_hi])

    # on the one-point interval [lo, lo] there is no cell, so the end decides
    point = sign_cells(cs, lo, lo)
    assert (point.at_lo, point.cells, point.at_hi, point.roots) == (at_lo, (), at_lo, ())
    assert point.nonpositive() == (at_lo <= 0)


# ---------------------------------------------------------------------------
# Q2 against an oracle that keeps p + q*sqrt2 as a pair of Fractions


def test_rational_values_hash_as_the_equal_int_or_fraction():
    assert Q2.of(3) == 3 and hash(Q2.of(3)) == hash(3)
    assert {Q2.of(3): 1}.get(3) == 1
    assert {3: 1}.get(Q2.of(3)) == 1
    half = Q2.of(Fraction(1, 2))
    assert {Fraction(1, 2): "h"}[half] == "h"
    assert hash(SQRT2 * SQRT2) == hash(2)
    assert hash(Q2(Fraction(4, 6), Fraction(-2, 3))) == hash(Q2(Fraction(2, 3), Fraction(-2, 3)))


def _oracle_sign(p: Fraction, q: Fraction) -> int:
    """Sign of p + q*sqrt2: the term of larger magnitude decides, and
    p^2 = 2 q^2 only at 0."""
    if q == 0 or (p != 0 and (p > 0) == (q > 0)):
        return (p > 0) - (p < 0) if p else (q > 0) - (q < 0)
    if p == 0:
        return (q > 0) - (q < 0)
    big = p if p * p > 2 * q * q else q
    return 1 if big > 0 else -1


def _oracle_str(p: Fraction, q: Fraction) -> str:
    if q == 0:
        return str(p)
    qs = "sqrt2" if q == 1 else "-sqrt2" if q == -1 else f"{q}*sqrt2"
    if p == 0:
        return qs
    return f"{p}{'' if qs.startswith('-') else '+'}{qs}"


def _assert_matches(x: Q2, p: Fraction, q: Fraction):
    assert x.d > 0 and gcd(x.a, x.b, x.d) == 1
    assert (x.p, x.q) == (p, q)
    assert x.sign() == _oracle_sign(p, q)
    assert bool(x) == (p != 0 or q != 0)
    assert str(x) == repr(x) == _oracle_str(p, q)
    assert float(x) == float(p) + float(q) * 1.4142135623730951
    if q == 0:
        assert x == p and p == x and hash(x) == hash(p)
        if p.denominator == 1:
            assert x == int(p) and int(p) == x and hash(x) == hash(int(p))
    else:
        assert x != p and p != x


_SMALL = st.fractions(min_value=-30, max_value=30, max_denominator=12)
_COORD = st.one_of(st.just(Fraction(0)), st.integers(-5, 5).map(Fraction), _SMALL)


@settings(max_examples=300, deadline=None)
@given(_COORD, _COORD, _COORD, _COORD, st.integers(-7, 7), _SMALL)
def test_q2_matches_fraction_pair_oracle(p1, q1, p2, q2, n, f):
    x, y = Q2(p1, q1), Q2(p2, q2)
    _assert_matches(x, p1, q1)
    _assert_matches(y, p2, q2)
    _assert_matches(Q2.of(f), f, Fraction(0))
    _assert_matches(Q2.of(n), Fraction(n), Fraction(0))
    _assert_matches(x + y, p1 + p2, q1 + q2)
    _assert_matches(x - y, p1 - p2, q1 - q2)
    _assert_matches(-x, -p1, -q1)
    _assert_matches(x * y, p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2)
    for other in (n, f):  # mixed operands on either side
        _assert_matches(x + other, p1 + other, q1)
        _assert_matches(other + x, p1 + other, q1)
        _assert_matches(x - other, p1 - other, q1)
        _assert_matches(other - x, other - p1, -q1)
        _assert_matches(x * other, p1 * other, q1 * other)
        _assert_matches(other * x, p1 * other, q1 * other)
    s = _oracle_sign(p1 - p2, q1 - q2)
    assert (x < y, x <= y, x > y, x >= y, x == y) == (s < 0, s <= 0, s > 0, s >= 0, s == 0)
    z = (x + y) - y  # x again, built another way
    assert z == x and hash(z) == hash(x)
    for other in (n, f):
        s = _oracle_sign(p1 - other, q1)
        assert (x < other, x <= other, x > other, x >= other) == (s < 0, s <= 0, s > 0, s >= 0)
        assert (other < x, other <= x, other > x, other >= x) == (s > 0, s >= 0, s < 0, s <= 0)
