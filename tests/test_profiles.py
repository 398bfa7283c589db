"""Closed-form curves, polynomial programs, roots."""

import math
from fractions import Fraction

import numpy as np
import pytest

from semind import profiles
from semind.profiles import (
    BracketError,
    CurveSpecError,
    _linspace,
    _scan_max,
    ac4_clique_value,
    ac4_clique_value_exact,
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
    u, w, v = ac4_clique_value(Fraction(2, 5))
    assert abs(v - 0.08566600788) <= 1e-9
    assert 0 <= w <= u
    for k in range(2, 11):
        exact = ac4_clique_value_exact(Fraction(1, k))
        assert exact is not None
        u_e, w_e, v_e = exact
        assert u_e == w_e == Fraction(1, k)
        assert v_e == Fraction(1, k) ** 2 * (1 - Fraction(1, k))
    u, w, v = ac4_clique_value(0.5)
    assert (u, w, v) == (0.5, 0.5, 0.125)
    with pytest.raises(ValueError):
        ac4_clique_value(0.0)


def test_linspace_matches_numpy():
    for lo, hi, num in ((0.0, 1.0, 11), (0.1, 0.9, 2049), (1e-14, 0.5, 401), (0.3, 0.3, 5)):
        assert _linspace(lo, hi, num) == np.linspace(lo, hi, num).tolist()


def test_scan_max_finds_peak_missed_by_coarse_argmax():
    def h(x):
        return max(0.5 - 2 * (x - 0.3) ** 2, 1 - 220 * (x - 0.75) ** 2)

    xs = _linspace(0.0, 1.0, 11)
    assert abs(xs[int(np.argmax([h(x) for x in xs]))] - 0.3) < 1e-12  # the lower peak
    x, v = _scan_max(h, 0.0, 1.0, 11, 200, 1e-15)
    assert abs(x - 0.75) < 1e-7 and v == pytest.approx(1.0, abs=1e-12)


def test_scan_max_ties_resolve_to_first_index():
    def h(x):
        return 1 - min(abs(x - 0.25), abs(x - 0.75))

    xs = _linspace(0.0, 1.0, 5)
    vals = [h(x) for x in xs]
    assert vals[1] == vals[3] == 1.0
    assert _scan_max(h, 0.0, 1.0, 5, 200, 1e-15) == (xs[int(np.argmax(vals))], 1.0) == (0.25, 1.0)


def test_scan_max_flat_objective_refines_once():
    calls = []

    def h(x):
        calls.append(x)
        return 2.0

    assert _scan_max(h, 0.0, 1.0, 401, 10, 0.0) == (0.0, 2.0)
    # the grid, then one refinement: two probes, ten contractions, the midpoint
    assert len(calls) == 401 + 2 + 10 + 1


def test_scanned_objectives_are_never_nan(monkeypatch):
    # _scan_max compares with >, and numpy.argmax differs from that only on NaN
    seen = []

    def recording(h, *args):
        def wrapped(x):
            seen.append(h(x))
            return seen[-1]

        return _scan_max(wrapped, *args)

    monkeypatch.setattr(profiles, "_scan_max", recording)
    for beta in (1e-13, 1e-9, 1e-4, 0.1, 0.25, 0.5, 0.9, 1 - 1e-9, 1 - 1e-13):
        for a in range(1, 6):
            for b in range(1, 6):
                solve_prog_s(beta, a, b)
    assert len(seen) > 10**5 and all(math.isfinite(v) for v in seen)


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


def test_prog_cs_mirror():
    for beta in (0.1, 0.45, 0.9):
        assert solve_prog_cs(beta, 2, 1) == solve_prog_s(1 - beta, 1, 2)
    assert solve_prog_cs(0.0, 2, 1)[2] == 0.0
    mine = solve_prog_cs(0.9, 2, 1)[2]
    assert abs(mine - _grid_oracle(0.1, 1, 2)) < 1e-8


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


def test_conj_s21_piecewise():
    assert abs(eval_curve(curve("conj_s21"), 0.3).value - 0.3 / 4) < 1e-14
    assert abs(eval_curve(curve("conj_s21"), 0.7).value - 0.7**2 * 0.3) < 1e-12
    v = eval_curve(curve("conj_s21"), 0.1).value
    assert abs(v - solve_prog_s(0.1, 2, 1)[2]) < 1e-12
