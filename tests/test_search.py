"""Exact extremal search, the raw oracle, and hill climbing."""

import hashlib
import random
from math import comb

import pytest

from semind.counting import (
    _plan,
    ac4_pattern,
    ap4_pattern,
    count_injections,
    count_work,
    double_star_pattern,
    flip_plans,
    normalized_density,
    peenn_pattern,
    star_pattern,
    tree_pattern,
)
from semind.graphs import (
    HostGraph,
    PatternGraph,
    UnsupportedSizeError,
    circulant,
    clique_plus_isolated,
    disjoint_cliques,
    enumerate_colored_graphs,
    lex_pairs,
    make_construction,
    parse_host,
    parse_pattern,
    realize,
)
from semind.profiles import ac4_clique_value
from semind import search
from semind.search import SearchResult, brute_force_profile, exact_max, full_profile, hill_climb

ALL_RED_K3 = PatternGraph.of(3, red=[(0, 1), (0, 2), (1, 2)])
SPIDER = tree_pattern([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])  # legs of 2, h = 7


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
            right = full_profile(PatternGraph(h.h, h.blue, h.red), n).per_edge_count
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
    u, w, _ = ac4_clique_value(0.4)
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
        # pinned plans with batches of two and three at the last prefix level
        (SPIDER, 13, 0.5, 1, 7, [], 250560, "3c6cc09f8735a524"),
        (SPIDER, 12, None, 2, 3, [], 3991680, "70c41ae486551fd0"),
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



# the canonical codes of the all-blue and all-red hosts on 4 and 7 vertices
_MONOCHROME_SHA = {
    (4, 0.0): "3627c0686615a78f", (4, 1.0): "c76f53780ab1f6e7",
    (7, 0.0): "f1e098aee08abaa4", (7, 1.0): "d1bb6ba698d4473c",
}


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_hill_climb_makes_no_moves_without_a_swap(monkeypatch, beta):
    # with every pair the same colour no red/blue swap exists, so the climb
    # must not sample pairs (it used to burn 64 C(n, 2) draws per restart);
    # the host is unique, and the result is the one the sampling climb gave
    def no_sampling(*args):
        raise AssertionError("_sample_pair called")

    monkeypatch.setattr(search, "_sample_pair", no_sampling)
    for h in (star_pattern(2, 1), ac4_pattern()):
        for n in (4, 7):
            for seeds in ([], [disjoint_cliques([0.5, 0.5])]):
                res = hill_climb(h, n, target_density=beta, restarts=3, seed=2, seeds=seeds)
                assert res.best_count == 0
                assert hashlib.sha256(res.witnesses[0]).hexdigest()[:16] == _MONOCHROME_SHA[n, beta]
    big = hill_climb(star_pattern(2, 1), 400, target_density=beta, restarts=1)
    assert parse_host(big.witnesses[0].decode()).red_count() == beta * comb(400, 2)


def test_pair_index_arithmetic_matches_lex_pairs():
    for n in range(2, 40):
        starts = search._row_starts(n)
        assert [search._pair_at(starts, t) for t in range(comb(n, 2))] == lex_pairs(n)


def _host(n, seed):
    rng = random.Random(seed)
    return HostGraph.from_red_pairs(n, [pr for pr in lex_pairs(n) if rng.random() < 0.5])


def test_work_estimates_are_pinned():
    # values recorded before the last prefix level was counted in one loop;
    # a faster kernel must not move an estimate, or a verdict could flip
    counts = {
        "peenn": (peenn_pattern(), _host(60, 1), 31847.260000000002),
        "ds:2": (double_star_pattern(2), _host(32, 1), 13988.93493333333),
        "ac4": (ac4_pattern(), _host(44, 1), 8886.506933333332),
        "ap4 circulant": (ap4_pattern(), realize(circulant(0.6667), 600), 2165.2),
        "ds:3 cliques": (double_star_pattern(3), realize(disjoint_cliques([0.4, 0.35, 0.25]), 5000),
                         19683),
        "peenn circulant": (peenn_pattern(), realize(circulant(0.5), 5000), 153572.53333333333),
    }
    for name, (h, g, want) in counts.items():
        assert count_work(h, g) == want, name
    climbs = [  # pattern, n, starts, restarts, flips per move, estimate
        (ac4_pattern(), 28, 1, 2, 2, 599514.8648),
        (star_pattern(2, 1), 36, 1, 1, 2, 315195.08320000005),
        (peenn_pattern(), 17, 1, 1, 2, 1343464.1314666665),
        (ap4_pattern(), 30, 1, 1, 1, 204098.46),
        # the edges of the budget: ac4 is accepted up to n = 294 and peenn
        # up to 104, with one restart each; the spider is refused at 17
        (ac4_pattern(), 294, 1, 1, 2, 25346004.6872),
        (ac4_pattern(), 295, 1, 1, 2, 25522350.953333333),
        (peenn_pattern(), 104, 1, 1, 2, 49995990.852266654),
        (peenn_pattern(), 105, 1, 1, 2, 50975192.53999998),
        (SPIDER, 17, 1, 1, 2, 61230440.05466667),
    ]
    for h, n, starts, restarts, flips, want in climbs:
        got = search._climb_work(h, flip_plans(h, n), n, starts, restarts, flips)
        assert got == want, (h.to_text(), n)
    costs = {  # pattern: {n: (unpinned cost, each flip plan's cost)}
        peenn_pattern(): {
            7: (239.0, [11.0] * 8),
            17: (2411.6, [70.0, 70.0, 35.5, 35.5, 35.5, 35.5, 70.0, 70.0]),
            60: (31213.0, [267.79999999999995] * 2 + [134.39999999999998] * 4
                 + [267.79999999999995] * 2),
        },
        ac4_pattern(): {
            7: (107.75, [4.75, 4.75]), 17: (1269.1999999999998, [12.25, 12.25]),
            60: (16344.999999999998, [44.5, 44.5]),
        },
        star_pattern(2, 1): {7: (62.6, [4.6] * 4), 17: (150.6, [4.6] * 4), 60: (529.0, [4.6] * 4)},
        double_star_pattern(2): {
            7: (419.59999999999997, [19.599999999999998, 19.75, 19.75]),
            17: (2683.6, [19.599999999999998, 67.0, 67.0]),
            60: (34752.99999999999, [19.599999999999998, 256.2, 256.2]),
        },
        SPIDER: {
            7: (580.25, [27.25] * 4),
            17: (64006.0, [470.5, 470.5, 1630.7499999999998, 1630.7499999999998]),
            60: (4027872.9999999995, [7303.2, 7303.2, 29151.8, 29151.8]),
        },
    }
    for h, by_n in costs.items():
        for n, (full, flips) in by_n.items():
            assert _plan(h, n).cost == full, (h.to_text(), n)
            assert [plan.cost for *_, plan in flip_plans(h, n)] == flips, (h.to_text(), n)
