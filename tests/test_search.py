"""Exact extremal search, the raw oracle, and hill climbing."""

import hashlib
from fractions import Fraction
from math import comb

import pytest

from semind.counting import (
    ac4_pattern,
    ap4_pattern,
    count_injections,
    double_star_pattern,
    normalized_density,
    peenn_pattern,
    star_pattern,
)
from semind.graphs import (
    PatternGraph,
    UnsupportedSizeError,
    clique_plus_isolated,
    disjoint_cliques,
    enumerate_colored_graphs,
    make_construction,
    parse_host,
    parse_pattern,
)
from semind.profiles import ac4_clique_value
from semind.search import SearchResult, brute_force_profile, exact_max, full_profile, hill_climb

ALL_RED_K3 = PatternGraph.of(3, red=[(0, 1), (0, 2), (1, 2)])


def test_exact_max_forced_host():
    res = exact_max(ALL_RED_K3, 5, m=10)
    assert res.best_count == 60
    assert len(res.witnesses) == 1
    assert parse_host(res.witnesses[0].decode()).red_count() == 10


def test_exact_max_matches_oracle_ap4_n4():
    oracle = brute_force_profile(ap4_pattern(), 4)
    res = exact_max(ap4_pattern(), 4)
    assert res.best_count == max(oracle.values())
    for m, best in oracle.items():
        assert exact_max(ap4_pattern(), 4, m=m).best_count == best


def test_exact_max_ac4_two_edges():
    res = exact_max(ac4_pattern(), 4, m=2)
    oracle = brute_force_profile(ac4_pattern(), 4)
    # the red matching admits two copies through its free pairs, so the
    # labeled maximum is 8, which the raw oracle confirms
    assert res.best_count == oracle[2] == 8
    wit = parse_host(res.witnesses[0].decode())
    assert count_injections(ac4_pattern(), wit) == res.best_count


def test_exact_max_guard():
    with pytest.raises(UnsupportedSizeError):
        exact_max(ap4_pattern(), 9)


def test_full_profile_endpoints_zero():
    res = full_profile(ap4_pattern(), 5)
    assert res.per_edge_count[0] == 0
    assert res.per_edge_count[10] == 0
    assert set(res.per_edge_count) == set(range(11))


def test_full_profile_complement_symmetry():
    for h in (ap4_pattern(), star_pattern(2, 1)):
        for n in (4, 5, 6):
            left = full_profile(h, n).per_edge_count
            right = full_profile(h.color_swap(), n).per_edge_count
            top = comb(n, 2)
            for m in range(top + 1):
                assert left[m] == right[top - m], (h.to_text(), n, m)


def test_full_profile_ap4_density_band():
    # finite-size analogue of the profile value near beta = 2/3
    res = full_profile(ap4_pattern(), 7)
    m = round(2 / 3 * 21)
    rho = normalized_density(res.per_edge_count[m], 7, 4)
    beta = m / 21
    assert rho <= beta**2 * (1 - beta) + 0.15


def test_full_profile_s21_peak_location():
    from semind.profiles import curve, eval_curve

    res = full_profile(star_pattern(2, 1), 7)
    best_m = max(res.per_edge_count, key=lambda m: (res.per_edge_count[m], -m))
    cid = curve("s21")
    target = max(range(22), key=lambda m: eval_curve(cid, m / 21).value)
    assert abs(best_m - target) <= 1


@pytest.mark.parametrize("h", [
    ap4_pattern(),
    peenn_pattern(),
    PatternGraph.of(4, red=[(0, 1), (1, 2)], blue=[(2, 3)]),  # pairs 02, 03, 13 free
], ids=lambda h: h.to_text())
def test_exact_max_agrees_with_full_profile(h):
    for n in range(h.h, 7):
        full = full_profile(h, n)
        assert exact_max(h, n) == SearchResult(full.best_count, full.witnesses)
        counts = {g.to_text().encode(): (g.red_count(), count_injections(h, g))
                  for g in enumerate_colored_graphs(n)}
        for m, best in full.per_edge_count.items():
            res = exact_max(h, n, m)
            assert res.best_count == best
            assert list(res.witnesses) == sorted(
                code for code, mc in counts.items() if mc == (m, best)
            )


def test_witnesses_recount_and_dedup():
    res = exact_max(ap4_pattern(), 5)
    assert len(set(res.witnesses)) == len(res.witnesses)
    for wit in res.witnesses:
        g = parse_host(wit.decode())
        assert count_injections(ap4_pattern(), g) == res.best_count


def test_hill_climb_restarts_zero_scores_seed():
    spec = disjoint_cliques([1 / 3, 1 / 3, 1 / 3])
    host = make_construction(spec, 30)
    res = hill_climb(ac4_pattern(), 30, restarts=0, seed=1, seeds=[spec])
    assert res.best_count == count_injections(ac4_pattern(), host)


def test_hill_climb_never_below_seed():
    spec = disjoint_cliques([0.5, 0.5])
    # with density pinned, the evaluated seed is the density-adjusted one,
    # which restarts=0 reports
    base = hill_climb(ac4_pattern(), 24, target_density=0.5, restarts=0, seed=3,
                      seeds=[spec])
    res = hill_climb(ac4_pattern(), 24, target_density=0.5, restarts=2, seed=3,
                     seeds=[spec])
    assert res.best_count >= base.best_count


def test_hill_climb_ac4_thirds():
    # at n = 60 the n^4 normalization loses the factor
    # (n-1)(n-2)(n-3)/n^3 ~ 0.903 against the asymptotic value, so the bar is
    # 95% of the finite-size-corrected extremal value
    beta = 1 / 3
    n = 60
    res = hill_climb(
        ac4_pattern(),
        n,
        target_density=beta,
        restarts=1,
        seed=11,
        seeds=[disjoint_cliques([1 / 3, 1 / 3, 1 / 3])],
    )
    rho = normalized_density(res.best_count, n, 4)
    corr = (n - 1) * (n - 2) * (n - 3) / n**3
    assert rho >= 0.95 * beta**2 * (1 - beta) * corr


def test_hill_climb_ac4_two_fifths():
    u, w, _ = ac4_clique_value(Fraction(2, 5))
    res = hill_climb(
        ac4_pattern(),
        60,
        target_density=0.4,
        restarts=2,
        seed=7,
        seeds=[disjoint_cliques([u, u, w])],
    )
    rho = normalized_density(res.best_count, 60, 4)
    assert rho >= 0.080


def test_hill_climb_determinism():
    spec = disjoint_cliques([0.45, 0.45])
    a = hill_climb(ac4_pattern(), 26, target_density=0.4, restarts=2, seed=5,
                   seeds=[spec])
    b = hill_climb(ac4_pattern(), 26, target_density=0.4, restarts=2, seed=5,
                   seeds=[spec])
    assert a == b


@pytest.mark.parametrize(
    "h, n, beta, restarts, seed, seeds, best, witness_sha",
    [
        (ac4_pattern(), 20, 0.4, 2, 5, [disjoint_cliques([0.4387, 0.4387, 0.1225])],
         11976, "d402197eb3725204"),
        (star_pattern(2, 1), 24, 0.5, 1, 3, [], 33264, "99d7a8d49c13c94a"),
        (peenn_pattern(), 17, 0.3, 1, 2, [clique_plus_isolated(0.5477)],
         61068, "e38d6f34d32d56da"),
        (ap4_pattern(), 30, None, 1, 4, [], 104466, "3e463595573c63f1"),
        (double_star_pattern(2), 10, 0.45, 1, 6, [], 6312, "0d0b389cf8bd5145"),
        # free pairs, and more restarts than starts (perturbed restarts)
        (parse_pattern("5 RBFFRFBFFR"), 9, None, 3, 8, [], 1100, "65f8b6bf29b87bf3"),
    ],
)
def test_hill_climb_golden(h, n, beta, restarts, seed, seeds, best, witness_sha):
    # results recorded from the climb that recounted every move in full
    res = hill_climb(h, n, target_density=beta, restarts=restarts, seed=seed, seeds=seeds)
    assert res.best_count == best
    assert res.per_edge_count is None
    assert len(res.witnesses) == 1
    assert hashlib.sha256(res.witnesses[0]).hexdigest()[:16] == witness_sha
    wit = parse_host(res.witnesses[0].decode())
    assert count_injections(h, wit) == best

