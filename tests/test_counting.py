"""Injection counting, degree statistics, fast paths, profiles, blow-ups."""

import random
from itertools import combinations, permutations
from math import comb, perm

import pytest

from semind import counting
from semind.counting import (
    _mask_class_table,
    _pinned_plan,
    _plan,
    _work,
    ac4_pattern,
    ap4_pattern,
    blowup_injections,
    check_work,
    count_injections,
    count_work,
    degree_stats,
    double_star_pattern,
    flip_delta,
    flip_plans,
    induced_profile,
    normalized_density,
    pattern_automorphism_order,
    peenn_pattern,
    star_pattern,
    sum_blue_degree_products,
    tree_pattern,
)
from semind.graphs import (
    Circulant,
    HostGraph,
    PatternGraph,
    UnsupportedSizeError,
    canonical_form,
    circulant,
    clique_plus_isolated,
    complement_of,
    disjoint_cliques,
    enumerate_colored_graphs,
    lex_pairs,
    make_construction,
    parse_host,
    parse_pattern,
    realize,
    three_part,
)

C5 = HostGraph.from_red_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K4 = HostGraph.from_red_pairs(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
PATH4 = HostGraph.from_red_pairs(4, [(0, 1), (1, 2), (2, 3)])
K34 = parse_host("4 RRBRBB")
STAR14 = HostGraph.from_red_pairs(5, [(0, i) for i in range(1, 5)])
SPIDER = tree_pattern([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])  # legs of 2, h = 7


def test_count_injections_examples():
    assert count_injections(ap4_pattern(), PATH4) == 6
    assert count_injections(ap4_pattern(), K4) == 0
    assert count_injections(star_pattern(2, 1), K34) == 6
    assert count_injections(ap4_pattern(), parse_host("3 RRR")) == 0


def _pairs(masks) -> set:
    """The pairs (i, j), i < j, that a mask layer holds."""
    return {(i, j) for i, m in enumerate(masks) for j in range(i + 1, len(masks)) if m >> j & 1}


def _reference_count(h, g):
    """Plain backtracker: places the pattern's vertices in index order and
    checks each against the constrained pairs to earlier vertices; no vertex
    cover, no batch, no popcount tail."""
    full = (1 << g.n) - 1
    blue = tuple(full ^ m ^ (1 << v) for v, m in enumerate(g.masks))
    back = [[] for _ in range(h.h)]  # back[v]: (u < v, host masks the pair {u, v} needs)
    for layer, masks in zip(h.layers(), (g.masks, blue)):
        for u, v in _pairs(layer):
            back[v].append((u, masks))
    assign = [0] * h.h

    def rec(v, used):
        cands = full & ~used
        for u, masks in back[v]:
            cands &= masks[assign[u]]
        total = 0
        for x in range(g.n):
            if cands >> x & 1:
                if v + 1 == h.h:
                    total += 1
                else:
                    assign[v] = x
                    total += rec(v + 1, used | 1 << x)
        return total

    return rec(0, 0)


def test_count_injections_matches_reference_on_all_classes():
    patterns = [
        ap4_pattern(), ac4_pattern(), peenn_pattern(), double_star_pattern(2),
        star_pattern(2, 1), star_pattern(3, 1),
    ]
    for k in range(1, 8):
        for g in enumerate_colored_graphs(k):
            for h in patterns:
                assert count_injections(h, g) == _reference_count(h, g), (h.to_text(), g.to_text())


def test_count_injections_matches_reference_on_random_patterns():
    rng = random.Random(41)
    patterns = [
        parse_pattern("5 FFFFFFFFFF"),  # all free: a falling factorial
        PatternGraph.of(6, red=[(0, 1), (1, 2)], blue=[(2, 3)]),  # vertices 4, 5 isolated
        PatternGraph.of(6, red=[(0, 1), (0, 2), (0, 3)], blue=[(0, 4), (0, 5)]),  # batch of five
        SPIDER,
    ]
    while len(patterns) < 100:
        h = rng.randint(2, 6)
        body = "".join(rng.choice("RBFF") for _ in range(h * (h - 1) // 2))
        patterns.append(parse_pattern(f"{h} {body}"))
    def random_host(n, density):
        masks = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        return HostGraph(n, tuple(masks))

    for h in patterns:
        for _ in range(2):
            # n = h - 1 counts 0
            g = random_host(rng.randint(max(h.h - 1, 1), 8), rng.random())
            assert count_injections(h, g) == _reference_count(h, g), (h.to_text(), g.to_text())
    # on 12 vertices the plans keep batches of three (peenn, the spider)
    g = random_host(12, 0.5)
    for h in (peenn_pattern(), SPIDER):
        assert count_injections(h, g) == _reference_count(h, g), h.to_text()
    # ten leaves: over the cap of nine, so at least one leaf is enumerated
    assert count_injections(star_pattern(6, 4), g) == _star_formula(g, 6, 4)


def test_degree_stats_examples():
    st = degree_stats(C5)
    assert st.degrees == (2, 2, 2, 2, 2) and st.m == 5 and st.t == 5 and st.s_open == 5
    st = degree_stats(K4)
    assert st.m == 6 and st.t == 0 and st.s_open == 0
    st = degree_stats(STAR14)
    assert sorted(st.degrees, reverse=True) == [4, 1, 1, 1, 1]
    assert st.m == 4 and st.t == 6 and st.s_open == 0


def _ap4_formula(g):
    """Alternating 3-paths: 2 (sum over blue pairs of d_u d_v - t)."""
    return 2 * (sum_blue_degree_products(g) - degree_stats(g).t)


def _ac4_formula(g):
    """Alternating 4-cycles: 2 (sum over blue pairs of d_u d_v - t - s_open)."""
    st = degree_stats(g)
    return 2 * (sum_blue_degree_products(g) - st.t - st.s_open)


def _star_formula(g, a, b):
    """Stars with a red and b blue leaves: sum_v (d_v)_a (n - 1 - d_v)_b."""
    return sum(perm(d, a) * perm(g.n - 1 - d, b) for d in g.degrees())


def test_fast_paths_examples():
    assert sum_blue_degree_products(C5) == 20
    assert count_injections(ap4_pattern(), C5) == _ap4_formula(C5) == 30
    assert count_injections(ap4_pattern(), PATH4) == _ap4_formula(PATH4) == 6
    assert count_injections(ap4_pattern(), K4) == _ap4_formula(K4) == 0
    assert count_injections(star_pattern(2, 1), K34) == _star_formula(K34, 2, 1) == 6
    assert count_injections(star_pattern(2, 1), K4) == _star_formula(K4, 2, 1) == 0
    assert count_injections(star_pattern(2, 2), C5) == _star_formula(C5, 2, 2) == 20


def test_fast_equals_generic_small():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(4, 7)
        masks = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        g = HostGraph(n, tuple(masks))
        assert _ap4_formula(g) == count_injections(ap4_pattern(), g)
        assert _ac4_formula(g) == count_injections(ac4_pattern(), g)
        assert _star_formula(g, 2, 1) == count_injections(star_pattern(2, 1), g)
        assert _star_formula(g, 1, 2) == count_injections(star_pattern(1, 2), g)


def test_bookkeeping_identity_small():
    # sum_blue d_u d_v = t + s_open + (labeled alternating-4-cycle count)/2
    for k in range(2, 6):
        for g in enumerate_colored_graphs(k):
            st = degree_stats(g)
            labeled = count_injections(ac4_pattern(), g)
            assert labeled % 4 == 0
            assert sum_blue_degree_products(g) == st.t + st.s_open + labeled // 2


def test_automorphism_orders():
    assert pattern_automorphism_order(ap4_pattern()) == 2
    assert pattern_automorphism_order(ac4_pattern()) == 4
    assert pattern_automorphism_order(peenn_pattern()) == 1
    assert pattern_automorphism_order(star_pattern(2, 1)) == 2
    assert pattern_automorphism_order(double_star_pattern(2)) == 8


def _relabeled(h: PatternGraph, perm) -> PatternGraph:
    move = lambda pairs: [(perm[i], perm[j]) for i, j in pairs]
    return PatternGraph.of(h.h, *(move(_pairs(layer)) for layer in h.layers()))


def _oracle_automorphisms(h: PatternGraph) -> int:
    """Brute force over all h! relabelings: the number that fix h."""
    return sum(_relabeled(h, p) == h for p in permutations(range(h.h)))


def test_automorphism_order_matches_permutation_oracle():
    rng = random.Random(6)
    pats = []
    for _ in range(150):
        h = rng.randint(1, 6)
        colors = rng.choice(["RBF", "RRF", "RBBF", "FFFR"])  # skewed, so classes repeat
        pairs = [(p, rng.choice(colors)) for p in lex_pairs(h)]
        pats.append(PatternGraph.of(
            h, [p for p, c in pairs if c == "R"], [p for p, c in pairs if c == "B"],
        ))
    for h in pats:
        autos = _oracle_automorphisms(h)
        assert pattern_automorphism_order(h) == autos, h.to_text()
        perm = list(range(h.h))
        rng.shuffle(perm)
        assert pattern_automorphism_order(_relabeled(h, perm)) == autos
    assert pattern_automorphism_order(double_star_pattern(3)) == 72


def test_induced_profile_examples():
    k6 = HostGraph.from_red_pairs(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    prof = induced_profile(k6, 5)
    assert len(prof) == 1 and sum(prof.values()) == 6
    (code,) = prof
    assert code == canonical_form(enumerate_colored_graphs(5)[-1]) or b"R" in code

    k46 = make_construction(clique_plus_isolated(4 / 6), 6)
    prof4 = induced_profile(k46, 4)
    assert sum(prof4.values()) == comb(6, 4)
    allowed = {
        canonical_form(make_construction(clique_plus_isolated(a / 4), 4))
        for a in range(5)
    }
    assert set(prof4) <= allowed

    rng = random.Random(11)
    masks = [0] * 9
    for i in range(9):
        for j in range(i + 1, 9):
            if rng.random() < 0.4:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    g = HostGraph(9, tuple(masks))
    for k in range(1, 6):
        assert sum(induced_profile(g, k).values()) == comb(9, k)


def _reference_profile(g: HostGraph, k: int) -> dict:
    """Canonical form of every k-subset's induced host, tallied."""
    counts: dict = {}
    for vs in combinations(range(g.n), k):
        code = canonical_form(g.induced(vs))
        counts[code] = counts.get(code, 0) + 1
    return counts


def _profile_hosts() -> list:
    """All-red, all-blue and random hosts on up to 12 vertices."""
    rng = random.Random(71)
    hosts = [HostGraph(8, (0,) * 8), HostGraph.from_red_pairs(8, lex_pairs(8))]
    for n in (1, 2, 3, 5, 7, 9, 10, 12, 12):
        p = rng.random()
        hosts.append(HostGraph.from_red_pairs(n, [pr for pr in lex_pairs(n) if rng.random() < p]))
    return hosts


def test_induced_profile_matches_reference():
    for g in _profile_hosts():
        for k in range(1, min(5, g.n) + 1):
            assert induced_profile(g, k) == _reference_profile(g, k), (g.to_text(), k)


def test_induced_profile_packs_and_lists_classes_alike(monkeypatch):
    # with room for one mask per packed int, every class of two or more
    # vertices is counted mask by mask; with room for all, none is
    for pack_bits in (1, 10**9):
        monkeypatch.setattr(counting, "_PACK_BITS", pack_bits)
        for g in _profile_hosts():
            for k in range(1, min(5, g.n) + 1):
                assert induced_profile(g, k) == _reference_profile(g, k), (g.to_text(), k)


def test_reference_profile_closed_forms():
    # hosts whose profiles are known: every k-subset of an all-red (all-blue)
    # host is a red (blue) clique, and a k-subset of a host with one red pair
    # holds that pair in C(n - 2, k - 2) of C(n, k) cases
    for n in range(1, 13):
        hosts = [(HostGraph.from_red_pairs(n, lex_pairs(n)), None), (HostGraph(n, (0,) * n), ())]
        hosts += [(HostGraph.from_red_pairs(n, [pr]), pr) for pr in {(0, 1), (n - 2, n - 1)} if n >= 2]
        for k in range(1, min(5, n) + 1):
            clique = canonical_form(HostGraph.from_red_pairs(k, lex_pairs(k)))
            empty = canonical_form(HostGraph(k, (0,) * k))
            for g, pair in hosts:
                if pair is None:
                    expected = {clique: comb(n, k)}
                else:
                    with_pair = comb(n - 2, k - 2) if pair and k >= 2 else 0
                    expected = {empty: comb(n, k) - with_pair}
                    if with_pair:
                        edge = canonical_form(HostGraph.from_red_pairs(k, [(0, 1)]))
                        expected[edge] = with_pair
                    expected = {code: c for code, c in expected.items() if c}
                assert _reference_profile(g, k) == expected, (g.to_text(), k)
                assert induced_profile(g, k) == expected, (g.to_text(), k)


def test_induced_profile_matches_generic_counter():
    # an injection of class X read as a pattern with every pair constrained
    # lands on a k-subset that induces X, in |Aut(X)| ways
    rng = random.Random(23)
    n = 30
    g = HostGraph.from_red_pairs(n, [pr for pr in lex_pairs(n) if rng.random() < 0.5])
    for k in (4, 5):
        counts = induced_profile(g, k)
        for x in enumerate_colored_graphs(k):
            red = [pr for pr in lex_pairs(k) if x.red(*pr)]
            h = PatternGraph.of(k, red, [pr for pr in lex_pairs(k) if not x.red(*pr)])
            expected = counts.get(canonical_form(x), 0) * pattern_automorphism_order(h)
            assert count_injections(h, g) == expected, (x.to_text(), k)


def test_mask_class_table_matches_canonical_form():
    for k in range(1, 6):
        prs = lex_pairs(k)
        table = _mask_class_table(k)
        assert len(table) == 1 << len(prs)
        for mask, code in enumerate(table):
            g = HostGraph.from_red_pairs(k, [prs[t] for t in range(len(prs)) if mask >> t & 1])
            assert code == canonical_form(g), (k, mask)


def test_induced_profile_guards():
    g = HostGraph.from_red_pairs(3, [(0, 1)])
    with pytest.raises(UnsupportedSizeError):
        induced_profile(g, 6)
    big = HostGraph(120, tuple(0 for _ in range(120)))
    with pytest.raises(UnsupportedSizeError):
        induced_profile(big, 5)


def test_normalized_density():
    assert normalized_density(6, 4, 4) == 6 / 256
    assert normalized_density(0, 10, 4) == 0.0
    with pytest.raises(ValueError):
        normalized_density(1, 3, 4)


def test_normalized_density_circulant_example():
    g = realize(circulant(2 / 3), 600)
    rho = normalized_density(count_injections(ap4_pattern(), g), 600, 4)
    assert abs(rho - 4 / 27) / (4 / 27) < 0.02


def test_circulant_count_matches_generic():
    rng = random.Random(9)
    named = [
        ap4_pattern(), ac4_pattern(), peenn_pattern(), double_star_pattern(2),
        star_pattern(2, 1), star_pattern(0, 3),
    ]
    randoms = [parse_pattern("5 FFFFFFFFFF")]  # no constraint at all
    while len(randoms) < 50:
        h = rng.randint(1, 6)
        body = "".join(rng.choice("RBFF") for _ in range(h * (h - 1) // 2))
        randoms.append(parse_pattern(f"{h} {body}"))
    # n = 41 at 19/40 is odd-degree on odd n, which `realize` rounds to 18
    odd = realize(circulant(19 / 40), 41)
    assert odd.degree == 18 and set(odd.to_host().degrees()) == {18}
    checked = set()
    for h in named + randoms:
        sizes = {max(h.h, 2), max(h.h, 2) + 1, rng.randint(max(h.h, 2), 41)}
        if h in named:
            sizes |= {2, 3, 40, 41}
        for n in sorted(sizes):
            spec = circulant(rng.choice((0.3, 19 / 40, 0.5, 0.52, 0.8)))
            for g in (realize(spec, n), realize(complement_of(spec), n)):
                assert count_injections(h, g) == count_injections(h, g.to_host()), (
                    h.to_text(), g,
                )
                checked.add((n % 2, g.degree % 2))
    assert count_injections(ap4_pattern(), odd) == count_injections(ap4_pattern(), odd.to_host())
    assert checked == {(0, 0), (0, 1), (1, 0)}
    assert count_injections(peenn_pattern(), Circulant(4, 2)) == 0  # h > n


def test_circulant_budget():
    # a 600-vertex circulant of red degree 300, whose masks add 1,050 units
    c = realize(circulant(0.5), 600)
    assert c.degree == 300
    check_work(count_work(tree_pattern([(i, i + 1) for i in range(6)]), c), "n")  # 8e6
    with pytest.raises(UnsupportedSizeError, match="budget"):
        check_work(count_work(parse_pattern("6 " + "R" * 15), c), "n")  # about 1e10


def _checked_prefix(plan, j: int, start: int) -> PatternGraph:
    """The pattern that `_extend` checks on the plan's first j positions when
    it starts at position `start`: the constraints of the rows it reads."""
    rows = [(ep, p, isred) for p in range(start, j) for ep, isred in plan.cons[p]]
    return PatternGraph.of(
        j, red=[(ep, p) for ep, p, isred in rows if isred],
        blue=[(ep, p) for ep, p, isred in rows if not isred],
    )


def test_work_estimate_bounds_prefix_nodes():
    # _extend's prefix nodes at level j are the injections of the pattern it
    # checks on the first j positions; pinned runs, one per image of the
    # pinned vertices, add up to the injections over all images
    rng = random.Random(41)
    hosts = [
        HostGraph.from_red_pairs(12, lex_pairs(12)),
        HostGraph(11, (0,) * 11),
        make_construction(clique_plus_isolated(0.7071), 12),
        make_construction(disjoint_cliques([1 / 3, 1 / 3, 1 / 3]), 12),
    ] + [
        HostGraph.from_red_pairs(n, [pr for pr in lex_pairs(n) if rng.random() < beta])
        for n, beta in ((12, 0.2), (10, 0.5), (12, 0.5), (12, 0.9))
    ]
    patterns = [
        ap4_pattern(), ac4_pattern(), peenn_pattern(), double_star_pattern(2),
        star_pattern(2, 1), parse_pattern("4 " + "R" * 6), parse_pattern("5 " + "R" * 10),
        parse_pattern("4 RRBBFF"),
    ]
    for g in hosts:
        n, degrees = g.n, g.degrees()
        red_max, blue_max = max(degrees), n - 1 - min(degrees)
        runs = [(h, _plan(h, n), 0, count_work(h, g)) for h in patterns]
        runs += [
            (h, plan, 1, n * _work(plan, n, 1, red_max, blue_max))
            for h in patterns for plan in [_pinned_plan(h, n)]
        ]
        runs += [
            (ac4_pattern(), plan, 2, n * (n - 1) * _work(plan, n, 2, red_max, blue_max))
            for *_, plan in flip_plans(ac4_pattern(), n)
        ]
        for h, plan, start, bound in runs:
            nodes = sum(
                count_injections(_checked_prefix(plan, j, start), g)
                for j in range(start + 1, len(plan.cons) + 1)
            )
            assert nodes <= bound, (h.to_text(), g.to_text(), start, nodes, bound)


def test_blowup_matches_generic():
    specs = [
        (clique_plus_isolated(0.6), 8),
        (disjoint_cliques([0.4, 0.4]), 9),
        (three_part(0.25, 0.35), 8),
    ]
    patterns = [
        ap4_pattern(),
        ac4_pattern(),
        star_pattern(2, 1),
        peenn_pattern(),
        tree_pattern([(0, 1), (1, 2), (1, 3)]),
    ]
    specs += [(complement_of(spec), n) for spec, n in specs]
    for spec, n in specs:
        parts = realize(spec, n)
        host = parts.to_host()
        for h in patterns:
            want = count_injections(h, host)
            assert blowup_injections(h, parts) == count_injections(h, parts) == want, (
                spec.describe(),
                h.to_text(),
            )


def test_complement_color_swap_symmetry():
    rng = random.Random(17)
    patterns = [ap4_pattern(), ac4_pattern(), star_pattern(2, 1), peenn_pattern()]
    for _ in range(40):
        n = rng.randint(4, 6)
        masks = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        g = HostGraph(n, tuple(masks))
        for h in patterns:
            assert count_injections(h, g) == count_injections(
                PatternGraph(h.h, h.blue, h.red), g.complement()
            )


# patterns for the flip tests; their automorphism groups range from trivial
# (peenn) to all of S_4 (the all-red K4)
FLIP_PATTERNS = [
    ap4_pattern(),
    ac4_pattern(),
    peenn_pattern(),
    star_pattern(2, 1),
    double_star_pattern(2),
    tree_pattern([(0, 1), (1, 2), (1, 3), (3, 4)]),
    parse_pattern("4 RFBFRF"),  # free pairs
    PatternGraph.of(4, red=[(0, 1), (1, 2)], blue=[(0, 2)]),  # vertex 3 isolated
    PatternGraph.of(2, blue=[(0, 1)]),
    star_pattern(3, 1),  # pinned at the centre: a batch of three leaves
    SPIDER,
    parse_pattern("4 RRRRRR"),  # all-red K4
    PatternGraph.of(4, red=[(0, 1), (1, 2), (2, 3), (0, 3)]),  # all-red C4
    star_pattern(3, 0),
    double_star_pattern(3),
    # a red star with a blue pair between two leaves: the red layer alone
    # makes all three leaves alike, the blue layer alone vertices 0 and 3
    parse_pattern("4 RRRBFF"),
]


def _brute_orbits(h):
    """The orbits of ordered constrained pairs under every vertex permutation
    that carries h's red pairs onto red pairs and blue onto blue."""
    layers = [_pairs(layer) for layer in h.layers()]
    auts = [
        p for p in permutations(range(h.h))
        if all({tuple(sorted((p[i], p[j]))) for i, j in pairs} == pairs for pairs in layers)
    ]
    ordered = [q for a, b in layers[0] | layers[1] for q in ((a, b), (b, a))]
    return {frozenset((p[a], p[b]) for p in auts) for a, b in ordered}


def test_flip_plans_orbits():
    sizes = {}
    for h in FLIP_PATTERNS:
        orbits = flip_plans(h, 8)
        red, blue = map(_pairs, h.layers())
        assert sum(size for _, _, size, _ in orbits) == 2 * len(red | blue)
        brute = _brute_orbits(h)
        assert len(orbits) == len(brute), h.to_text()
        for (a, b), pair_red, size, plan in orbits:
            (orbit,) = [o for o in brute if (a, b) in o]
            assert size == len(orbit), (h.to_text(), a, b)
            assert pair_red == ((min(a, b), max(a, b)) in red)
            assert plan == _plan(h, 8, (a, b))
        sizes[h.to_text()] = sorted(size for _, _, size, _ in orbits)
    assert sizes[ac4_pattern().to_text()] == [4, 4]
    assert sizes[peenn_pattern().to_text()] == [1] * 8
    assert sizes[double_star_pattern(2).to_text()] == [2, 4, 4]
    assert sizes["4 RRRRRR"] == [12]
    assert sizes["4 RRRBFF"] == [1, 1, 2, 2, 2]


def test_flip_delta_matches_recount():
    patterns = FLIP_PATTERNS
    rng = random.Random(29)
    for h in patterns:
        for n in (h.h, 8):
            plans = flip_plans(h, n)
            full = (1 << n) - 1
            for density in (0.0, 0.3, 0.7, 1.0):
                masks = [0] * n
                for i in range(n):
                    for j in range(i + 1, n):
                        if rng.random() < density:
                            masks[i] |= 1 << j
                            masks[j] |= 1 << i
                before = count_injections(h, HostGraph(n, tuple(masks)))
                blue = [full ^ m ^ (1 << v) for v, m in enumerate(masks)]
                for u in range(n):
                    for v in range(u + 1, n):
                        flipped = list(masks)
                        flipped[u] ^= 1 << v
                        flipped[v] ^= 1 << u
                        after = count_injections(h, HostGraph(n, tuple(flipped)))
                        assert flip_delta(plans, masks, blue, u, v) == after - before, (
                            h.to_text(), n, density, u, v,
                        )
    # on 17 vertices the spider's pinned plans keep batches of two and three
    h, n = SPIDER, 17
    full = (1 << n) - 1
    masks = [0] * n
    for i, j in rng.sample(lex_pairs(n), comb(n, 2) // 2):
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    before = count_injections(h, HostGraph(n, tuple(masks)))
    blue = [full ^ m ^ (1 << v) for v, m in enumerate(masks)]
    for u, v in rng.sample(lex_pairs(n), 8):
        flipped = list(masks)
        flipped[u] ^= 1 << v
        flipped[v] ^= 1 << u
        after = count_injections(h, HostGraph(n, tuple(flipped)))
        assert flip_delta(flip_plans(h, n), masks, blue, u, v) == after - before, (u, v)


def test_fused_leaf_matches_reference():
    """The batch is counted together with the last prefix level.  A batch of
    one has a constraint to that level's position in the plans of ac4 and
    4 RFBFRF, and none in those of ap4 and s:1,1 on small hosts."""
    rng = random.Random(53)
    fused = set()
    for h in (ac4_pattern(), ap4_pattern(), star_pattern(1, 1), parse_pattern("4 RFBFRF")):
        for n in range(h.h, 10):
            for plan in (_plan(h, n), _pinned_plan(h, n)):
                if len(plan.batch) == 1:
                    fused.add((h.to_text(), plan.leaf[0][1] is not None))
            for density in (0.2, 0.5, 0.8):
                masks = [0] * n
                for i, j in lex_pairs(n):
                    if rng.random() < density:
                        masks[i] |= 1 << j
                        masks[j] |= 1 << i
                g = HostGraph(n, tuple(masks))
                assert count_injections(h, g) == _reference_count(h, g), (h.to_text(), n)
            for g in (realize(circulant(0.5), n), realize(complement_of(circulant(0.5)), n)):
                want = _reference_count(h, g.to_host())
                assert count_injections(h, g) == count_injections(h, g.to_host()) == want, (
                    h.to_text(), n,
                )
    assert fused == {
        (ac4_pattern().to_text(), True),
        (ap4_pattern().to_text(), False),
        (star_pattern(1, 1).to_text(), False),
        ("4 RFBFRF", True),
    }


# Patterns and host sizes whose plans reach every case of the last prefix
# level: a batch of one, of two and of three or more, each with and without
# a constraint to the last position, in unpinned, circulant and flip plans.
LAST_LEVEL_CASES = [
    (peenn_pattern(), 17),
    (star_pattern(2, 1), 36),
    (SPIDER, 17),
    (ac4_pattern(), 8),
    (ap4_pattern(), 12),
    (star_pattern(3, 1), 5),
    (double_star_pattern(2), 12),
    (parse_pattern("7 FBFFFFRFBFFBFFRFRBFFF"), 9),
    (parse_pattern("7 FBFFFFRFBFFBFFRFRBFFF"), 10),
    (parse_pattern("7 FBBBRBBFFFFFRFBBFRFFB"), 17),
    (parse_pattern("6 FRFBFRFBFFBRRFF"), 10),
    # a batch of none: every constrained vertex pinned, or no constraint
    (PatternGraph.of(3, blue=[(0, 1)]), 6),
    (parse_pattern("4 FFFFFF"), 6),
]


def test_last_level_batches_match_reference():
    """`_extend` counts the batch with the last prefix level in one loop.
    Every plan a count or a flip of these patterns runs is checked: counts
    against the backtracker, flips against full recounts."""
    rng = random.Random(61)
    seen = set()
    for h, n in LAST_LEVEL_CASES:
        plans = [(_plan(h, n), 0), (_pinned_plan(h, n), 1)]
        plans += [(plan, 2) for *_, plan in flip_plans(h, n)]
        for plan, start in plans:
            k = min(len(plan.batch), 3)
            to_last = any(last is not None for _, last in plan.leaf)
            seen.add((start > 0, k, to_last) if start < len(plan.cons) else (start > 0, k))
        masks = [0] * n
        for i, j in lex_pairs(n):
            if rng.random() < 0.5:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
        g = HostGraph(n, tuple(masks))
        before = count_injections(h, g)
        assert before == _reference_count(h, g), (h.to_text(), n)
        c = realize(circulant(0.4), n)
        assert count_injections(h, c) == _reference_count(h, c.to_host()), (h.to_text(), n)
        full = (1 << n) - 1
        blue = [full ^ m ^ (1 << v) for v, m in enumerate(masks)]
        plans = flip_plans(h, n)
        for u, v in rng.sample(lex_pairs(n), 6):
            flipped = list(masks)
            flipped[u] ^= 1 << v
            flipped[v] ^= 1 << u
            after = count_injections(h, HostGraph(n, tuple(flipped)))
            assert flip_delta(plans, masks, blue, u, v) == after - before, (h.to_text(), n, u, v)
    for pinned in (False, True):
        for k in (1, 2, 3):
            assert (pinned, k, False) in seen and (pinned, k, True) in seen, (pinned, k)
        assert (pinned, 0) in seen
