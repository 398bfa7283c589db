"""Acceptance criteria: one test per criterion, each printing a PASS line
with its runtime and enforcing the stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import random
import time
from fractions import Fraction
from math import comb, perm, ulp

from semind.certificates import (
    AP4,
    FAMILY_HALF_DIGITS,
    FAMILY_MAIN_DIGITS,
    PEENN_RATIONAL,
    PEENN_SQRT2,
    Reference,
    _class_code,
    ap4_reference_table,
    check_certificate,
    stability_family_check,
)
from semind.counting import (
    _part_maps,
    ac4_pattern,
    ap4_pattern,
    count_injections,
    degree_stats,
    induced_profile,
    normalized_density,
    pattern_automorphism_order,
    peenn_pattern,
    star_pattern,
    sum_blue_degree_products,
)
from semind.exactalg import Poly
from semind.graphs import (
    HostGraph,
    PatternGraph,
    _graph_classes,
    circulant,
    clique_plus_isolated,
    disjoint_cliques,
    enumerate_colored_graphs,
    realize,
)
from semind.profiles import (
    ac4_clique_value,
    curve,
    find_crossover,
    solve_prog_cs,
    solve_prog_s,
)
from semind.search import brute_force_profile, full_profile


def _report(num: int, desc: str, t0: float, budget: float):
    dt = time.time() - t0
    print(f"\n[criterion {num:02d}] PASS ({dt:.1f}s / budget {budget:.0f}s) {desc}")
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.1f}s)"


def test_criterion_01_basis_counts():
    t0 = time.time()
    for k, want in ((3, 4), (4, 11), (5, 34)):
        got = len(enumerate_colored_graphs(k))
        assert got == want, f"k={k}: {got} classes, expected {want}"
    _report(1, "basis counts 4 / 11 / 34 for k = 3, 4, 5", t0, 5)


def test_criterion_02_ap4_certificate():
    t0 = time.time()
    report = check_certificate(AP4)
    assert report.passed, report.failures
    assert len(report.lines) == 11
    # injected fault must be detected and named
    table = {c: dict(cols) for c, cols in ap4_reference_table().items()}
    victim = sorted(table)[5]
    table[victim] = dict(table[victim])
    table[victim]["O"] = table[victim]["O"] + Poly.const(("x",), 1)
    broken = check_certificate(AP4._replace(references=(Reference(lambda: table),)))
    assert not broken.passed
    assert any(victim in f for f in broken.failures)
    _report(2, "alternating-3-path certificate exact + fault detection", t0, 60)


def test_criterion_03_peenn_certificate():
    t0 = time.time()
    main_codes = {_class_code(d) for d in FAMILY_MAIN_DIGITS}
    half_codes = {_class_code(d) for d in FAMILY_HALF_DIGITS}

    rep1 = check_certificate(PEENN_SQRT2)
    assert rep1.passed, rep1.failures
    assert set(rep1.zero_classes) == main_codes
    assert set(rep1.boundary_zero_classes) == half_codes
    assert rep1.interior_root_classes == {}

    rep2 = check_certificate(PEENN_RATIONAL)
    assert rep2.passed, rep2.failures
    assert set(rep2.zero_classes) == main_codes
    assert rep2.interior_root_classes == {}
    _report(
        3,
        "5-vertex path certificate exact in both regimes; zero set is the "
        "five main classes plus the four boundary classes at a = 1/sqrt2",
        t0,
        600,
    )


def _all_classes_upto(k_max: int):
    for k in range(1, k_max + 1):
        yield from _graph_classes(k)


def test_criterion_04_finite_path_bound():
    t0 = time.time()
    ap4 = ap4_pattern()
    checked = 0
    for g in _all_classes_upto(7):
        n = g.n
        st = degree_stats(g)
        m = st.m
        copies2 = count_injections(ap4, g)  # = 2 * copies
        bound2 = (
            Fraction(4 * m * m)
            - Fraction(4 * m * m, n)
            - Fraction(8 * m**3, n * n)
            - 2 * st.t
        )
        assert copies2 <= bound2, g.to_text()
        if copies2 == bound2:
            degs = set(st.degrees)
            assert len(degs) == 1, f"equality on irregular host {g.to_text()}"
        checked += 1
    assert checked == 1 + 2 + 4 + 11 + 34 + 156 + 1044
    _report(4, f"path-count bound exhaustive on {checked} classes (n <= 7)", t0, 300)


def test_criterion_05_degree_product_lower_bound():
    t0 = time.time()
    for g in _all_classes_upto(7):
        n = g.n
        m = g.red_count()
        s_red = 0
        degs = g.degrees()
        for u in range(n):
            mu = g.masks[u] >> (u + 1)
            v = u + 1
            while mu:
                if mu & 1:
                    s_red += degs[u] * degs[v]
                mu >>= 1
                v += 1
        assert Fraction(s_red) >= Fraction(4 * m**3, n * n), g.to_text()
        is_regular = len(set(degs)) == 1
        if Fraction(s_red) == Fraction(4 * m**3, n * n):
            assert is_regular, g.to_text()
        if is_regular:
            assert Fraction(s_red) == Fraction(4 * m**3, n * n), g.to_text()
    rng = random.Random(50)
    n = 50
    for _ in range(1000):
        masks = [0] * n
        p = rng.choice([0.2, 0.5, 0.8])
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        g = HostGraph(n, tuple(masks))
        degs = g.degrees()
        m = sum(degs) // 2
        s_red = 0
        for u in range(n):
            mu = g.masks[u] >> (u + 1)
            v = u + 1
            while mu:
                if mu & 1:
                    s_red += degs[u] * degs[v]
                mu >>= 1
                v += 1
        assert s_red >= 4 * m**3 / (n * n) - 1e-9
    _report(5, "degree-product bound exhaustive (n <= 7) + 1000 random n = 50", t0, 300)


def test_criterion_06_construction_convergence():
    t0 = time.time()
    # (a) circulant at 2/3, n = 600: alternating path density near 4/27
    g = realize(circulant(2 / 3), 600)
    rho = normalized_density(count_injections(ap4_pattern(), g), 600, 4)
    assert abs(rho - 4 / 27) / (4 / 27) < 0.02

    # (b) three equal cliques, n = 999: alternating 4-cycle density near 2/27
    parts = realize(disjoint_cliques([1 / 3, 1 / 3, 1 / 3]), 999)
    cnt = count_injections(ac4_pattern(), parts)
    rho = normalized_density(cnt, 999, 4)
    assert abs(rho - 2 / 27) / (2 / 27) < 0.02

    # (c) clique fraction 0.8, n = 1000: 5-vertex path density near 0.1024
    parts = realize(clique_plus_isolated(0.8), 1000)
    cnt = count_injections(peenn_pattern(), parts)
    rho = normalized_density(cnt, 1000, 5)
    assert abs(rho - 0.1024) / 0.1024 < 0.01

    # (d) clique fraction 0.75 (beta = 9/16), n = 1000: density near 27/256,
    # resolving the 27/252-vs-27/256 question in favor of 27/256
    parts = realize(clique_plus_isolated(0.75), 1000)
    cnt = count_injections(peenn_pattern(), parts)
    rho = normalized_density(cnt, 1000, 5)
    assert abs(rho - 27 / 256) / (27 / 256) < 0.01
    assert abs(rho - 27 / 252) / (27 / 252) > 0.01  # the alternative is excluded
    print(
        f"\n    construction at beta = 9/16 gives rho = {rho:.6f}; "
        f"27/256 = {27/256:.6f} is confirmed, 27/252 = {27/252:.6f} is excluded"
    )
    _report(6, "construction densities converge to their profile values", t0, 120)


def test_criterion_07_clique_partition_optimizer():
    t0 = time.time()
    _, _, v = ac4_clique_value(0.4)
    assert abs(v - 0.08566600788) <= 1e-9
    for k in range(2, 11):
        u, w, _ = ac4_clique_value(1 / k)
        assert max(abs(u - 1 / k), abs(w - 1 / k)) <= 2 * ulp(1 / k)
        # k equal cliques: every colour-compatible map of the 4 vertices has weight k^-4
        spec = disjoint_cliques([1 / k] * k)
        assert len(spec.weights) == k
        maps = sum(_part_maps(ac4_pattern(), spec.internal_red, spec.cross_red).values())
        assert Fraction(maps, k**4) == Fraction(1, k) ** 2 * (1 - Fraction(1, k))
    _report(7, "clique-partition value exact at 1/k and 0.08566600788 at 2/5", t0, 1)


def _grid_oracle(beta: float, a: int, b: int, pts: int = 10**6) -> float:
    import math

    import numpy as np

    if beta <= 0 or beta >= 1:
        return 0.0
    ylo = max(1 - math.sqrt(1 - beta), 1e-14)
    yhi = math.sqrt(beta)
    ys = np.linspace(ylo, yhi, pts)
    x = (beta - ys**2) / (2 * ys)
    z = 1 - x - ys
    vals = x * ys**a * (1 - ys) ** b + ys * (x + ys) ** a * np.where(z > 0, z, 0) ** b
    return float(vals.max())


def test_criterion_08_program_solvers():
    t0 = time.time()
    betas = [i / 21 for i in range(1, 21)]
    assert len(betas) == 20
    for a, b in ((2, 1), (3, 3)):
        for beta in betas:
            mine = solve_prog_s(beta, a, b)[2]
            assert abs(mine - _grid_oracle(beta, a, b)) < 1e-8, (a, b, beta)
            mine_cs = solve_prog_cs(beta, b, a)[2]
            assert abs(mine_cs - _grid_oracle(1 - beta, a, b)) < 1e-8, (a, b, beta)
    _report(8, "program solvers match 10^6-point grid oracles at 20 densities", t0, 60)


def test_criterion_09_crossover_root():
    t0 = time.time()
    x = find_crossover(curve("cc:2,1"), curve("c:2,1"), 0.5, 1.0)
    assert abs(16 * x**3 - 40 * x**2 + 41 * x - 16) <= 1e-8
    _report(9, f"cc/c crossover at x = {x:.9f} satisfies the cubic", t0, 1)


def test_criterion_10_stability_families():
    t0 = time.time()
    report = stability_family_check()
    assert report.passed, report.failures
    assert len(report.lines) == 45  # all 9 x 5 pair checks enumerated
    _report(10, "no forbidden 4-vertex graph embeds into the stable families", t0, 1)


def test_criterion_11_oracle_consistency():
    t0 = time.time()
    patterns = {
        "ap4": ap4_pattern(),
        "ac4": ac4_pattern(),
        "s21": star_pattern(2, 1),
    }
    for name, h in patterns.items():
        for n in range(2, 7):
            fast = full_profile(h, n).per_edge_count
            raw = brute_force_profile(h, n)
            assert fast == raw, (name, n)
    _report(11, "class-based profiles match raw 2^C(n,2) enumeration (n <= 6)", t0, 600)


def test_criterion_12_property_suites():
    t0 = time.time()
    patterns = [ap4_pattern(), ac4_pattern(), star_pattern(2, 1), star_pattern(1, 2)]

    # complement symmetry of counts, exhaustive n <= 6
    for k in range(1, 7):
        for g in _graph_classes(k):
            gc = g.complement()
            for h in patterns:
                swapped = PatternGraph(h.h, h.blue, h.red)
                assert count_injections(h, g) == count_injections(swapped, gc)

    # automorphism divisibility
    pats_auto = patterns + [peenn_pattern()]
    orders = [pattern_automorphism_order(h) for h in pats_auto]
    for g in _graph_classes(6):
        for h, order in zip(pats_auto, orders):
            assert count_injections(h, g) % order == 0

    # degree formulas == generic counting, exhaustive n <= 7: the 4-cycle one
    # is the bookkeeping identity sum_blue d_u d_v = t + s_open + ac4 / 2
    for k in range(1, 8):
        for g in _graph_classes(k):
            st, blue_dd = degree_stats(g), sum_blue_degree_products(g)
            assert count_injections(ap4_pattern(), g) == 2 * (blue_dd - st.t)
            assert count_injections(ac4_pattern(), g) == 2 * (blue_dd - st.t - st.s_open)
            stars = sum(perm(d, 2) * perm(k - 1 - d, 1) for d in st.degrees)
            assert count_injections(star_pattern(2, 1), g) == stars

    # induced-profile partition identity
    rng = random.Random(8)
    for _ in range(12):
        n = rng.randint(6, 12)
        masks = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        g = HostGraph(n, tuple(masks))
        for k in range(1, 6):
            assert sum(induced_profile(g, k).values()) == comb(n, k)
    _report(12, "property suites: symmetry, divisibility, degree formulas, profiles", t0, 600)
