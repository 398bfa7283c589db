"""Exact field arithmetic and Sturm-based sign analysis."""

from fractions import Fraction
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from semind.exactalg import (
    HALF_SQRT2,
    Poly,
    Q2,
    SQRT2,
    isolate_roots,
    poly_eval,
    poly_nonnegative_on,
    poly_nonpositive_on,
    sign_and_roots,
)


def test_field_arithmetic():
    x = SQRT2 - Q2.of(1)
    y = SQRT2 + Q2.of(1)
    assert x * y == Q2.of(1)
    assert x.inverse() == y
    assert (x / x) == Q2.of(1)
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
    a = Poly.var(names, "a")
    B = Poly.var(names, "B")
    p = (a + B) * (a - B)
    assert p == a * a - B * B
    q = p.substitute(B=SQRT2)
    assert q == a * a - Poly.const(names, 2)
    cs = q.univariate("a")
    assert poly_eval(cs, SQRT2).sign() == 0
    assert poly_eval(cs, Q2.of(2)) == Q2.of(2)


def _upoly(*coeffs):
    return [Q2.of(Fraction(c)) for c in coeffs]


def test_root_counting():
    # (x - 1)(x - 2)(x - 3) = x^3 - 6x^2 + 11x - 6
    p = _upoly(-6, 11, -6, 1)
    assert sign_and_roots(p, Q2.of(0), Q2.of(4))[1] == 3
    assert sign_and_roots(p, Q2.of(Fraction(3, 2)), Q2.of(4))[1] == 2
    assert sign_and_roots(p, Q2.of(1), Q2.of(3))[1] == 1  # open: excludes 1 and 3
    # x^2 - 2 has the field element sqrt2 as root
    q = _upoly(-2, 0, 1)
    assert sign_and_roots(q, Q2.of(1), Q2.of(2))[1] == 1
    assert sign_and_roots(q, SQRT2, Q2.of(2))[1] == 0


def test_isolate_roots():
    p = _upoly(-6, 11, -6, 1)
    roots = isolate_roots(p, Q2.of(0), Q2.of(4))
    assert len(roots) == 3
    vals = sorted(float((a + b)) / 2 for a, b in roots)
    assert all(abs(v - t) < 1 for v, t in zip(vals, (1, 2, 3)))


def test_nonpositive_decisions():
    # -(x - 1/2)^2 <= 0 everywhere, with a double root inside
    p = _upoly(Fraction(-1, 4), 1, -1)
    assert poly_nonpositive_on(p, Q2.of(0), Q2.of(1))
    assert not poly_nonnegative_on(p, Q2.of(0), Q2.of(1))
    # x(1 - x) >= 0 on [0, 1] but not nonpositive
    q = _upoly(0, 1, -1)
    assert poly_nonnegative_on(q, Q2.of(0), Q2.of(1))
    assert not poly_nonpositive_on(q, Q2.of(0), Q2.of(1))
    # strictly positive at the right endpoint only when included
    r = _upoly(Fraction(-1, 2), 1)  # x - 1/2
    assert poly_nonpositive_on(r, Q2.of(0), Q2.of(Fraction(1, 2)))
    assert not poly_nonpositive_on(r, Q2.of(0), Q2.of(1))
    assert poly_nonpositive_on(r, Q2.of(0), Q2.of(Fraction(1, 2)), include_hi=False)
    # zero polynomial
    assert poly_nonpositive_on([], Q2.of(0), Q2.of(1))


def test_nonpositive_with_sqrt2_endpoints():
    # p(x) = x^2 - 2 is nonpositive exactly on [-sqrt2, sqrt2]
    p = _upoly(-2, 0, 1)
    assert poly_nonpositive_on(p, Q2.of(0), SQRT2)
    assert not poly_nonpositive_on(p, Q2.of(0), Q2.of(Fraction(3, 2)))
    # (x - 2)^2 counts its double root once and touches zero there
    sq = _upoly(4, -4, 1)
    assert sign_and_roots(sq, Q2.of(0), Q2.of(3))[1] == 1
    assert poly_nonnegative_on(sq, Q2.of(0), Q2.of(3))


def test_sign_analysis_separates_roots_1e15_apart():
    # -(x - (sqrt2 - 1))^2 + eps: two roots 2e-15 apart around sqrt2 - 1 with
    # a positive hump between them, or no root at all
    r = SQRT2 - Q2.of(1)
    for eps, want in ((Fraction(1, 10**30), (False, 2)), (Fraction(-1, 10**30), (True, 0))):
        cs = [-(r * r) + eps, r * 2, Q2.of(-1)]
        assert sign_and_roots(cs, Q2.of(0), Q2.of(1)) == want


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
    assert sign_and_roots(cs, lo, hi)[1] == len(inside)

    covered = []
    intervals = isolate_roots(cs, lo, hi)
    assert all(b1 <= a2 for (_, b1), (a2, _) in zip(intervals, intervals[1:]))
    for a, b in intervals:
        assert lo <= a <= b <= hi
        hits = [r for r in inside if (r == a if a == b else a < r < b)]
        assert len(hits) == 1, (a, b, inside)
        covered.append(hits[0])
    assert sorted(covered) == inside

    # cs keeps one sign between consecutive roots and endpoints
    points = sorted({lo, hi, *inside})
    gaps = [_sign_at((a + b) * Fraction(1, 2), mults, lead) for a, b in zip(points, points[1:])]
    at_lo, at_hi = _sign_at(lo, mults, lead), _sign_at(hi, mults, lead)
    for include_lo, include_hi in product((True, False), repeat=2):
        ends = [s for s, inc in ((at_lo, include_lo), (at_hi, include_hi)) if inc]
        want_nonpos = all(s <= 0 for s in gaps + ends)
        want_nonneg = all(s >= 0 for s in gaps + ends)
        assert poly_nonpositive_on(cs, lo, hi, include_lo, include_hi) == want_nonpos
        assert poly_nonnegative_on(cs, lo, hi, include_lo, include_hi) == want_nonneg
