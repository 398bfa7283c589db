"""Closed-form curves, polynomial programs, roots."""

import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from semind import profiles
from semind.counting import _part_maps, ac4_pattern, peenn_pattern, star_pattern
from semind.exactalg import Q2, sign_cells
from semind.figures import figure_definition
from semind.graphs import (
    PatternGraph,
    clique_plus_isolated,
    complement_of,
    disjoint_cliques,
    three_part,
)
from semind.profiles import (
    BracketError,
    CurveSpecError,
    _c,
    _cc,
    _falls,
    _linspace,
    _peenn_hi,
    _peenn_lo,
    _prog_critical,
    _prog_objective,
    ac4_clique_value,
    curve,
    eval_curve,
    find_crossover,
    s21_prog_boundary,
    solve_prog_cs,
    solve_prog_s,
    validity_interval,
)


def test_curve_parsing_and_validation():
    assert curve("ds:2").params == (2,)
    assert curve("ell:2,1").params == (2, 1)
    assert curve("rw_star:3").params == (3,)
    with pytest.raises(CurveSpecError):
        curve("nope")
    with pytest.raises(CurveSpecError):
        curve("ds:0")
    with pytest.raises(CurveSpecError):
        curve("ell:1,2")  # needs a >= b


# sample parameters per parameter count; ell and ellc need a >= b
_SAMPLE_PARAMS = {0: [()], 1: [(1,), (3,)], 2: [(1, 1), (2, 1), (3, 2), (4, 4)]}


@pytest.mark.parametrize("tag", list(profiles._CURVES))
def test_every_curve_tag_round_trips_and_has_a_valid_interval(tag):
    for params in _SAMPLE_PARAMS[len(profiles._CURVES[tag].params)]:
        cid = profiles.CurveId(tag, params)
        assert curve(cid.label()) == cid
        lo, hi = validity_interval(cid)
        assert 0 <= lo <= hi <= 1, (cid, lo, hi)
        assert cid.work > 0
    with pytest.raises(CurveSpecError, match=f"bad curve '{tag}:x': expected {tag}"):
        curve(f"{tag}:x")


def test_program_work_grows_with_the_degree():
    # timed per value with its CSV row; the programs' cost grows as (a + b)^2
    assert curve("conj_s21").work == 40
    assert curve("prog_s:2,1").work == curve("prog_cs:1,2").work == 209
    assert curve("prog_s:30,30").work == 3800


def test_eval_curve_examples():
    assert abs(eval_curve(curve("ap4"), 2 / 3).value - 4 / 27) < 1e-14
    assert eval_curve(curve("s21"), 0.5).value == 0.125
    # direct arithmetic gives 27/256 at 9/16 (not the sometimes-quoted 27/252)
    assert abs(eval_curve(curve("peenn"), 9 / 16).value - 27 / 256) < 1e-14
    assert abs(eval_curve(curve("ell:2,1"), 1 / 3).value - 1 / 12) < 1e-14
    for s in range(1, 5):
        v = eval_curve(curve(f"ds:{s}"), 2 * s / (2 * s + 1)).value
        target = (2 * s) ** (2 * s) / (2 * s + 1) ** (2 * s + 1)
        assert abs(v - target) < 1e-12 * target


def test_curve_flags_and_intervals():
    cid = curve("ds:2")
    assert validity_interval(cid) == (0.75, 1.0)
    assert not eval_curve(cid, 0.5).in_range
    assert eval_curve(cid, 0.8).in_range
    lo, hi = validity_interval(curve("ell:2,1"))
    assert (lo, hi) == (0.25, 0.5)
    lo, hi = validity_interval(curve("ellc:2,2"))
    assert abs(lo - (1 - 1 / 3)) < 1e-14 and abs(hi - (1 - 1 / 9)) < 1e-14
    with pytest.raises(ValueError):
        eval_curve(cid, 1.5)


def test_peenn_symmetry():
    cid = curve("peenn")
    for beta in np.linspace(0, 1, 101):
        assert abs(eval_curve(cid, float(beta)).value
                   - eval_curve(cid, float(1 - beta)).value) < 1e-14


def test_s21_continuity_at_half():
    # the linear branch and the regular-graph branch meet at 1/8
    assert abs(eval_curve(curve("ell:2,1"), 0.5).value - 0.125) < 1e-14
    assert abs(eval_curve(curve("r:2,1"), 0.5).value - 0.125) < 1e-14


def test_rw_star_curve():
    cid = curve("rw_star:2")
    beta = 0.9
    eta = 1 - math.sqrt(1 - beta)
    expect = max(beta ** 1.5, eta + (1 - eta) * eta**2)
    assert abs(eval_curve(cid, beta).value - expect) < 1e-14


def test_ac4_clique_values():
    u, w, v = ac4_clique_value(0.4)
    assert abs(v - 0.08566600788) <= 1e-9
    assert 0 <= w <= u
    for k in range(2, 11):  # the split at 1/k is k equal cliques, to 2 ulps
        u, w, _ = ac4_clique_value(1 / k)
        assert max(abs(u - 1 / k), abs(w - 1 / k)) <= 2 * math.ulp(1 / k), k
    u, w, v = ac4_clique_value(0.5)
    assert (u, w, v) == (0.5, 0.5, 0.125)
    with pytest.raises(ValueError):
        ac4_clique_value(0.0)


# ---------------------------------------------------------------------------
# each step curve is the exact limit density of its step construction

_RED_PAIR = PatternGraph.of(2, red=[(0, 1)])


def _step_density(h, spec, weights):
    """The limit density of h in the step construction with spec's part
    colours and these part weights: the sum over `_part_maps` of the number
    of maps times prod w_i^u_i, exact for Fraction weights."""
    assert len(weights) == len(spec.weights)
    table = _part_maps(h, spec.internal_red, spec.cross_red)
    return sum(maps * math.prod(w**u for w, u in zip(weights, used))
               for used, maps in table.items())


_CLIQUE_FRACTIONS = [Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 4), Fraction(5, 7)]


@pytest.mark.parametrize("a", _CLIQUE_FRACTIONS)
def test_peenn_curves_are_clique_plus_isolated_densities(a):
    # a clique on a fraction a: beta = a^2 and peenn = a^3 (1 - a), which is
    # beta^(3/2) - beta^2, the high branch; the complement has beta = 1 - a^2
    # and the same density, the low branch
    spec, weights = clique_plus_isolated(a), (a, 1 - a)
    for spec, beta, curve_at in ((spec, a * a, _peenn_hi),
                                 (complement_of(spec), 1 - a * a, _peenn_lo)):
        assert _step_density(_RED_PAIR, spec, weights) == beta
        value = _step_density(peenn_pattern(), spec, weights)
        assert value == a**3 * (1 - a)
        assert math.isclose(curve_at(float(beta)), value, rel_tol=1e-14, abs_tol=1e-16), (a, spec)


@pytest.mark.parametrize("a, b", [(2, 1), (1, 2), (3, 1)])
def test_c_curves_are_clique_plus_isolated_densities(a, b):
    # s:a,b on a clique of fraction r = sqrt(beta) is r r^a (1 - r)^b, the c
    # curve; on the complement, where beta = 1 - r^2, it is r (1 - r)^a r^b,
    # the cc curve
    for r in _CLIQUE_FRACTIONS:
        spec, weights = clique_plus_isolated(r), (r, 1 - r)
        value = _step_density(star_pattern(a, b), spec, weights)
        assert value == r * r**a * (1 - r) ** b
        assert math.isclose(_c(float(r * r), a, b), value, rel_tol=1e-14)
        value = _step_density(star_pattern(a, b), complement_of(spec), weights)
        assert value == r * (1 - r) ** a * r**b
        assert math.isclose(_cc(float(1 - r * r), a, b), value, rel_tol=1e-14)


@pytest.mark.parametrize("a, b", [(2, 1), (1, 2), (3, 2), (4, 4)])
def test_prog_objective_is_the_three_part_density(a, b):
    # on Fractions `_prog_objective` is exact: at beta = 2xy + y^2 it is the
    # density of s:a,b in three_part(x, y)
    for x, y in ((Fraction(1, 5), Fraction(3, 10)), (Fraction(1, 10), Fraction(1, 2)),
                 (Fraction(2, 7), Fraction(1, 7)), (Fraction(0), Fraction(3, 5))):
        spec, weights = three_part(x, y), (x, y, 1 - x - y)
        beta = _step_density(_RED_PAIR, spec, weights)
        assert beta == 2 * x * y + y * y
        value = _step_density(star_pattern(a, b), spec, weights)
        assert value == x * y**a * (1 - y) ** b + y * (x + y) ** a * (1 - x - y) ** b
        assert _prog_objective(y, beta, a, b) == value


def test_prog_objective_rounds_within_a_plus_b_ulps():
    # at (4, 4), beta = 0.0055 the float objective at the solver's own point,
    # read exactly, is 3.4 ulps below the exact three_part density there: the
    # rounding that `test_prog_value_within_two_ulps_of_the_exact_maximum`
    # allows for is the evaluation's, not the root's
    a, b = 4, 4
    x, y, value = solve_prog_s(0.0055, a, b)
    x, y = Fraction(x), Fraction(y)
    exact = _step_density(star_pattern(a, b), three_part(x, y), (x, y, 1 - x - y))
    assert abs(Fraction(value) - exact) <= (a + b) * Fraction(math.ulp(value))


def test_ac4_cliques_curve_is_the_clique_split_density():
    # disjoint cliques of weights w have beta = sum w^2 and ac4 density
    # beta^2 - sum w^4; k equal ones give (1/k)^2 (1 - 1/k)
    for k in range(2, 8):
        weights = (Fraction(1, k),) * k
        spec = disjoint_cliques(weights)
        assert _step_density(_RED_PAIR, spec, weights) == Fraction(1, k)
        value = _step_density(ac4_pattern(), spec, weights)
        assert value == Fraction(1, k) ** 2 * (1 - Fraction(1, k))
        assert math.isclose(ac4_clique_value(1 / k)[2], value, rel_tol=1e-14)
    # j cliques of weight u and one of weight w, the split the optimizer finds
    for j, u in ((2, Fraction(2, 5)), (2, Fraction(3, 7)), (3, Fraction(3, 10)),
                 (4, Fraction(2, 9))):
        w = 1 - j * u
        weights = (u,) * j + (w,)
        spec = disjoint_cliques(weights)
        beta = _step_density(_RED_PAIR, spec, weights)
        assert beta == j * u * u + w * w
        value = _step_density(ac4_pattern(), spec, weights)
        assert value == beta**2 - (j * u**4 + w**4)
        got = ac4_clique_value(float(beta))
        assert all(math.isclose(g, e, rel_tol=1e-12) for g, e in zip(got, (u, w, value))), j


def test_linspace_matches_numpy():
    for lo, hi, num in ((0.0, 1.0, 11), (0.1, 0.9, 2049), (1e-14, 0.5, 401), (0.3, 0.3, 5)):
        assert _linspace(lo, hi, num) == np.linspace(lo, hi, num).tolist()


def _bernstein(power, lo, hi):
    """Bernstein coefficients on [lo, hi] of the polynomial with the given
    power-basis coefficients (lowest degree first), rounded once from their
    exact values."""
    n, lo, h = len(power) - 1, Fraction(lo), Fraction(hi) - Fraction(lo)
    # the power-basis coefficients of p(lo + h t)
    shifted = [sum(math.comb(j, i) * Fraction(c) * lo ** (j - i) for j, c in enumerate(power) if j >= i)
               * h**i for i in range(n + 1)]
    return [float(sum(Fraction(math.comb(k, i), math.comb(n, i)) * shifted[i] for i in range(k + 1)))
            for k in range(n + 1)]


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def _peval(p, y):
    v = Fraction(0)
    for c in reversed(p):
        v = v * y + c
    return v


def test_falls_separates_a_close_root_pair_that_a_grid_misses():
    # falls at 0.2 and 0.6013 + 1e-5, rises at 0.6013: the signs on a grid
    # of 401 points change only at 0.2
    roots = (0.2, 0.6013, 0.6013 + 1e-5)
    power = [-1]
    for r in roots:
        power = _times(power, [-r, 1])

    def p(y):
        return -math.prod(y - r for r in roots)

    signs = [p(x) > 0 for x in _linspace(0.0, 1.0, 401)]
    assert sum(u != v for u, v in zip(signs, signs[1:])) == 1
    got = _falls(_bernstein(power, 0.0, 1.0), 0.0, 1.0, p)
    assert len(got) == 2
    assert got[0] == pytest.approx(0.2, abs=1e-15)
    assert got[1] == pytest.approx(0.6013 + 1e-5, abs=1e-15)


def test_falls_keeps_a_root_on_a_halving_point():
    # -(t - 1/4)(t - 1/2)(t - 3/4) has dyadic Bernstein coefficients, so the
    # first halving meets the root at 1/2 exactly; that rise is kept as a
    # candidate between the falls at 1/4 and 3/4
    power = _times(_times([-0.25, 1], [-0.5, 1]), [0.75, -1])
    got = _falls(_bernstein(power, 0.0, 1.0), 0.0, 1.0, partial(_peval, power))
    assert got == pytest.approx([0.25, 0.5, 0.75], abs=1e-15)
    assert got[1] == 0.5


def test_scanned_objectives_are_never_nan(monkeypatch):
    # every objective value the solver compares, and every sign of the
    # critical polynomial it tests, is finite
    seen = []

    def objective(*args):
        seen.append(_prog_objective(*args))
        return seen[-1]

    def critical(*args):
        bs, g = _prog_critical(*args)
        seen.extend(bs)

        def wrapped(y):
            seen.append(g(y))
            return seen[-1]

        return bs, wrapped

    monkeypatch.setattr(profiles, "_prog_objective", objective)
    monkeypatch.setattr(profiles, "_prog_critical", critical)
    for beta in (1e-13, 1e-9, 1e-4, 0.1, 0.25, 0.5, 0.9, 1 - 1e-9, 1 - 1e-13):
        for a in range(1, 6):
            for b in range(1, 6):
                solve_prog_s(beta, a, b)
    assert len(seen) > 10**4 and all(math.isfinite(v) for v in seen)


def test_prog_s_examples():
    x, y, v = solve_prog_s(1.0, 2, 1)
    assert v == 0.0 and y == 1.0
    x, y, v = solve_prog_s(0.0, 2, 1)
    assert v == 0.0
    _, _, v = solve_prog_s(0.25, 2, 1)
    assert v >= 0.0625 - 1e-12  # x = 0 boundary (clique + isolated) feasible


def test_prog_s_dominates_boundary_candidates():
    # both boundary constructions (x = 0 and x + y = 1) are feasible points
    for beta in np.linspace(0.02, 0.98, 25):
        beta = float(beta)
        v = solve_prog_s(beta, 2, 1)[2]
        assert v >= eval_curve(curve("c:2,1"), beta).value - 1e-10
        assert v >= eval_curve(curve("cc:2,1"), beta).value - 1e-10


def _grid_oracle(beta, a, b, pts=10**6):
    ylo = max(1 - math.sqrt(1 - beta), 1e-14) if beta < 1 else 1.0
    yhi = math.sqrt(beta)
    ys = np.linspace(ylo, yhi, pts)
    x = (beta - ys**2) / (2 * ys)
    z = 1 - x - ys
    vals = x * ys**a * (1 - ys) ** b + ys * (x + ys) ** a * np.where(z > 0, z, 0) ** b
    return float(vals.max())


def test_prog_s_matches_grid_oracle():
    for beta in (0.04, 0.2, 0.5, 0.9):
        mine = solve_prog_s(beta, 2, 1)[2]
        assert abs(mine - _grid_oracle(beta, 2, 1)) < 1e-8
    mine = solve_prog_s(0.6, 3, 3)[2]
    assert abs(mine - _grid_oracle(0.6, 3, 3)) < 1e-8
    # high degrees, where expanding the critical polynomial in powers of y
    # loses every digit: never below the grid, and above it by no more
    # than the grid's spacing allows
    for a, b in ((10, 10), (20, 5), (30, 30)):
        for beta in (0.05, 0.4, 0.8):
            mine, grid = solve_prog_s(beta, a, b)[2], _grid_oracle(beta, a, b)
            assert grid * (1 - 1e-14) <= mine <= grid * (1 + 1e-9), (a, b, beta)


def test_prog_cs_mirror():
    for beta in (0.1, 0.45, 0.9):
        assert solve_prog_cs(beta, 2, 1) == solve_prog_s(1 - beta, 1, 2)
    assert solve_prog_cs(0.0, 2, 1)[2] == 0.0
    mine = solve_prog_cs(0.9, 2, 1)[2]
    assert abs(mine - _grid_oracle(0.1, 1, 2)) < 1e-8


def _golden_max(h, a, b, steps, tol):
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


def _scan_value(beta, a, b):
    """The program's value as the package computed it before root isolation:
    the objective on 401 points, with the bracket around every local maximum
    of the grid golden-refined to 1e-15."""
    if not 0 < beta < 1:
        return 0.0
    lo, hi = max(1 - math.sqrt(1 - beta), 1e-14), math.sqrt(beta)
    if lo >= hi:
        return 0.0
    xs = _linspace(lo, hi, 401)
    vals = [_prog_objective(x, beta, a, b) for x in xs]
    best = max(vals)
    for i in range(401):
        if (i == 0 or vals[i] > vals[i - 1]) and (i == 400 or vals[i] >= vals[i + 1]):
            u, v = _golden_max(lambda y: _prog_objective(y, beta, a, b),
                               xs[max(i - 1, 0)], xs[min(i + 1, 400)], 200, 1e-15)
            best = max(best, _prog_objective((u + v) / 2, beta, a, b))
    return best


def test_prog_never_below_the_scan():
    # every prog_s and prog_cs tag with a, b <= 4 on the 0.001 grid
    for tag in ("prog_s", "prog_cs"):
        for a in range(1, 5):
            for b in range(1, 5):
                cid = curve(f"{tag}:{a},{b}")
                for i in range(1, 1000):
                    beta = i / 1000
                    old = _scan_value(*((beta, a, b) if tag == "prog_s" else (1 - beta, b, a)))
                    assert eval_curve(cid, beta).value >= old - 1e-15, (tag, a, b, beta)


def _padd(p, q):
    n = max(len(p), len(q))
    return [u + v for u, v in zip(p + [0] * (n - len(p)), q + [0] * (n - len(q)))]


def _ppow(p, e):
    out = [Fraction(1)]
    for _ in range(e):
        out = _times(out, p)
    return out


def _exact_prog(beta, a, b):
    """(P, G) in exact powers of y for a rational beta: the objective is
    P / (2y)^(a+b), and G = y P' - (a+b) P, built from P alone."""
    s, y = a + b, [0, 1]
    p = _padd(_times(_times([beta, 0, -1], _ppow([0, 2], s - 1)), _times(_ppow(y, a), _ppow([1, -1], b))),
              _times(_times(y, _ppow([beta, 0, 1], a)), _ppow([-beta, 2, -1], b)))
    dp = [k * c for k, c in enumerate(p)][1:]
    return p, _padd(_times(y, dp), [-s * c for c in p])


def _exact_falls(g, lo, hi):
    """Brackets narrower than 2^-80 of the roots in (lo, hi) where the exact
    polynomial g falls through zero, from `exactalg.sign_cells`."""
    out = []
    for u, v in sign_cells([Q2.of(c) for c in g], Q2.of(Fraction(lo)), Q2.of(Fraction(hi))).roots:
        u, v = u.p - Fraction(1, 2**90), v.p + Fraction(1, 2**90)
        rising = _peval(g, u) < 0
        while v - u > Fraction(1, 2**80):
            m = (u + v) / 2
            if (_peval(g, m) < 0) == rising:
                u = m
            else:
                v = m
        if not rising:
            out.append((u, v))
    return out


def _prog_range(beta):
    return max(1 - math.sqrt(1 - beta), 1e-14), math.sqrt(beta)


@pytest.mark.parametrize("beta", [0.251, 0.257, 0.0055, 1 / 8, 3 / 16, 9 / 16, 15 / 16])
def test_prog_falls_match_exact_isolation(beta):
    # the figure-7 densities where two critical points share a grid cell
    # near y = sqrt(beta), and dyadic ones; G always vanishes at sqrt(beta)
    # itself, which is an end of the range and no fall
    lo, hi = _prog_range(beta)
    for a, b in ((2, 1), (1, 2), (3, 2), (4, 4)):
        _, g = _exact_prog(Fraction(beta), a, b)
        exact = [(u, v) for u, v in _exact_falls(g, lo, hi) if hi - v > Fraction(1, 10**15)]
        bs, g_float = _prog_critical(beta, a, b, lo, hi)
        got = _falls(bs, lo, hi, g_float)
        assert len(got) == len(exact), (beta, a, b, got, exact)
        for y, (u, v) in zip(got, exact):
            assert abs(Fraction(y) - u) <= Fraction(y) * Fraction(1, 10**12), (beta, a, b)


def _exact_objective(y, beta, a, b):
    x = (beta - y * y) / (2 * y)
    return x * y**a * (1 - y) ** b + y * (x + y) ** a * (1 - x - y) ** b


@pytest.mark.parametrize("beta, a, b", [(0.0055, 2, 1), (0.01, 2, 1), (0.03, 2, 1),
                                        (0.251, 3, 2), (0.0055, 4, 4), (9 / 16, 4, 4)])
def test_prog_value_within_two_ulps_of_the_exact_maximum(beta, a, b):
    # the maximum is at an interior root y* of G; over a bracket [u, v] of
    # y* narrower than 2^-80, f(y*) lies between max(f(u), f(v)) and that
    # plus v - u, since |f'| < 1 next to the root where f' = 0
    q = Fraction(beta)
    p, g = _exact_prog(q, a, b)
    lo, hi = _prog_range(beta)
    ((u, v),) = [(u, v) for u, v in _exact_falls(g, lo, hi) if hi - v > Fraction(1, 10**15)]
    low = max(_exact_objective(u, q, a, b), _exact_objective(v, q, a, b))
    high = low + (v - u)
    assert low > max(_prog_objective(lo, beta, a, b), _prog_objective(hi, beta, a, b))
    value = solve_prog_s(beta, a, b)[2]
    # 2 ulps for the figures' (2, 1); at higher degrees the float objective
    # alone rounds further (3.3 ulps low at the root for (4, 4), beta = 0.0055)
    ulps = Fraction(math.ulp(value)) * (2 if a + b <= 3 else a + b)
    assert low - ulps <= Fraction(value) <= high + ulps, (beta, a, b)
    if (beta, a, b) == (0.0055, 2, 1):
        # the exact maximum 7.0655800957050021e-4 rounds up at 12 digits
        assert f"{value:.12g}" == "0.000706558009571"


def test_crossover_cubic():
    x = find_crossover(curve("cc:2,1"), curve("c:2,1"), 0.5, 1.0)
    assert abs(x - 0.879) < 1e-3
    assert abs(16 * x**3 - 40 * x**2 + 41 * x - 16) < 1e-8


def test_crossover_symmetry_point():
    x = find_crossover(curve("peenn_hi"), curve("peenn_lo"), 0.4, 0.6)
    assert abs(x - 0.5) < 1e-12


def test_crossover_bracket_error():
    with pytest.raises(BracketError):
        find_crossover(curve("ap4"), curve("ap4"), 0.1, 0.9)


def test_s21_boundary_in_conjectured_range():
    y = s21_prog_boundary()
    assert 0 < y < 0.25
    # below the boundary the interior optimum strictly beats the x=0 value
    v_in = solve_prog_s(y / 2, 2, 1)[2]
    c_val = eval_curve(curve("c:2,1"), y / 2).value
    assert v_in > c_val + 1e-12
    # above it they agree
    v_out = solve_prog_s(0.2, 2, 1)[2]
    c_out = eval_curve(curve("c:2,1"), 0.2).value
    assert abs(v_out - c_out) < 1e-10


def test_s21_boundary_is_the_square_of_the_quintic_root():
    boundary = s21_prog_boundary()
    quintic = [Q2.of(c) for c in profiles._S21_QUINTIC]
    ((u, v),) = sign_cells(quintic, Q2.of(0), Q2.of(Fraction(1, 4))).roots
    u, v = u.p, v.p
    while v - u > Fraction(1, 2**100):
        m = (u + v) / 2
        u, v = (m, v) if _peval(profiles._S21_QUINTIC, m) > 0 else (u, m)
    assert abs(Fraction(boundary) - u * u) <= Fraction(math.ulp(boundary))
    # the interior maximum beats the x = 0 value just below, and the x = 0
    # end is the maximum just above
    c21 = curve("c:2,1")
    below, above = boundary * (1 - 1e-10), boundary * (1 + 1e-10)
    assert solve_prog_s(below, 2, 1)[2] > eval_curve(c21, below).value
    assert solve_prog_s(above, 2, 1)[2] == eval_curve(c21, above).value
    for fig_id in (6, 7):
        labels = [label for _, _, label in figure_definition(fig_id, 0.002)[1]]
        assert "program leaves x=0 near 0.0314" in labels


def test_conj_s21_piecewise():
    assert abs(eval_curve(curve("conj_s21"), 0.3).value - 0.3 / 4) < 1e-14
    assert abs(eval_curve(curve("conj_s21"), 0.7).value - 0.7**2 * 0.3) < 1e-12
    v = eval_curve(curve("conj_s21"), 0.1).value
    assert abs(v - solve_prog_s(0.1, 2, 1)[2]) < 1e-12
