"""Flag products, unlabeling, lifting as the product with 1, and pattern
expansion."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, perm

import pytest

from semind.counting import (
    ap4_pattern,
    count_injections,
    induced_profile,
    peenn_pattern,
    star_pattern,
)
from semind.certificates import host_from_digits
from semind.exactalg import Poly, Q2
from semind.flags import (
    MAX_FLAG_K,
    FlagTypeError,
    GraphCombo,
    RootedFlag,
    basis_combo,
    combo_square,
    expand_pattern,
    flag_product,
    _rooted_counts,
    flags_of_type,
    rooted_canonical,
    unit_flag,
    unlabel,
)
from semind.graphs import (
    HostGraph,
    PatternGraph,
    canonical_host,
    enumerate_colored_graphs,
    parse_pattern,
)

NAMES = ("a",)


def _uf(digits, roots):
    return unit_flag(host_from_digits(digits), roots, NAMES)


def test_rooted_canonical_is_root_preserving():
    g = host_from_digits("221121")
    f = RootedFlag(g, (0, 1))
    rep = rooted_canonical(f)
    assert rep.roots == (0, 1)
    assert rep.type_colors() == f.type_colors()
    # permuting non-roots leaves the representative unchanged
    g2 = g.relabel((0, 1, 3, 2))
    assert rooted_canonical(RootedFlag(g2, (0, 1))) == rep


def test_unit_law():
    f = _uf("221", (0, 1))
    type_flag = _uf("2", (0, 1))  # the bare type as a flag on its own roots
    prod = flag_product(f, type_flag, 3)
    assert prod.terms == f.terms


def test_product_partition_normalization():
    # all-ones x all-ones = all-ones: for every result flag the subset-split
    # probabilities sum to one
    type_colors = _uf("2", (0, 1)).type_colors
    ones3 = GraphCombo.build(
        3, 2, type_colors, NAMES,
        [(fl, 1) for fl in flags_of_type(3, 2, type_colors)],
    )
    prod = flag_product(ones3, ones3, 4)
    one = Poly.const(NAMES, 1)
    assert set(prod.terms) == set(flags_of_type(4, 2, type_colors))
    assert all(p == one for p in prod.terms.values())


def test_product_commutative_bilinear():
    x = _uf("221", (0, 1))
    y = _uf("212", (0, 1))
    assert flag_product(x, y, 4).terms == flag_product(y, x, 4).terms
    lhs = flag_product(x + y, x, 4)
    rhs = flag_product(x, x, 4) + flag_product(y, x, 4)
    assert lhs.terms == rhs.terms


def test_product_type_mismatch():
    x = _uf("221", (0, 1))
    z = _uf("121", (0, 1))  # blue root pair
    with pytest.raises(FlagTypeError):
        flag_product(x, z, 4)


def test_unlabel_small():
    # a single rooted edge unlabels to the plain edge class with weight 1
    e = _uf("2", (0, 1))
    u = unlabel(e)
    ((flag, poly),) = u.terms.items()
    assert flag.graph.to_text() == canonical_host(host_from_digits("2")).to_text()
    assert poly == Poly.const(NAMES, 1)
    # cherry rooted at its center carries weight 1/3
    cherry = unit_flag(host_from_digits("122"), (2,), NAMES)
    u = unlabel(cherry)
    ((flag, poly),) = u.terms.items()
    assert poly == Poly.const(NAMES, Fraction(1, 3))


def test_unlabel_commutes_with_color_swap():
    # exhaustively over rooted 4-vertex flags with two roots
    for g in enumerate_colored_graphs(4):
        for roots in permutations(range(4), 2):
            f = RootedFlag(g, roots)
            combo = GraphCombo.build(4, 2, f.type_colors(), NAMES, [(f, 1)])
            left = unlabel(combo)
            swapped = RootedFlag(g.complement(), roots)
            combo_sw = GraphCombo.build(
                4, 2, swapped.type_colors(), NAMES, [(swapped, 1)]
            )
            right = unlabel(combo_sw)
            left_sw = {
                canonical_host(fl.graph.complement()).to_text(): poly
                for fl, poly in left.terms.items()
            }
            right_plain = {
                fl.graph.to_text(): poly for fl, poly in right.terms.items()
            }
            assert left_sw == right_plain


def test_lift_probabilities():
    # lifting is the product with 1, the all-ones combination
    edge = unit_flag(host_from_digits("2"), (), NAMES)
    lifted = flag_product(edge, basis_combo(2, NAMES), 4)
    for flag, poly in lifted.terms.items():
        m = flag.graph.red_count()
        assert poly == Poly.const(NAMES, Fraction(m, 6))
    # the all-ones combination lifts to the all-ones combination
    ones2 = basis_combo(2, NAMES)
    lifted1 = flag_product(ones2, basis_combo(3, NAMES), 5)
    one = Poly.const(NAMES, 1)
    assert all(p == one for p in lifted1.terms.values())
    assert len(lifted1.terms) == 34


def test_expand_pattern_red_k5():
    k5 = PatternGraph.of(5, red=[(i, j) for i in range(5) for j in range(i + 1, 5)])
    combo = expand_pattern(k5, 5, NAMES)
    ((flag, poly),) = combo.terms.items()
    assert flag.graph.red_count() == 10
    assert poly == Poly.const(NAMES, 120)


def test_expand_pattern_requires_matching_size():
    with pytest.raises(ValueError):
        expand_pattern(peenn_pattern(), 4, NAMES)


def test_evaluation_homomorphism_exhaustive_small():
    # the expansion coefficients reproduce injection counts through profiles
    h = peenn_pattern()
    combo = expand_pattern(h, 5, NAMES)
    coeffs = {fl.graph.to_text().encode(): poly for fl, poly in combo.terms.items()}
    for n in (5, 6, 7):
        for g in enumerate_colored_graphs(n):
            prof = induced_profile(g, 5)
            total = 0
            for code, cnt in prof.items():
                poly = coeffs.get(code)
                if poly is not None:
                    ((exps, q2),) = poly.terms.items()
                    total += int(q2.p) * cnt
            assert total == count_injections(h, g), g.to_text()


def test_evaluation_homomorphism_random_hosts():
    h = peenn_pattern()
    combo = expand_pattern(h, 5, NAMES)
    coeffs = {fl.graph.to_text().encode(): poly for fl, poly in combo.terms.items()}
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randint(10, 30)
        masks = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < rng.choice([0.3, 0.5, 0.8]):
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        g = HostGraph(n, tuple(masks))
        prof = induced_profile(g, 5)
        total = 0
        for code, cnt in prof.items():
            poly = coeffs.get(code)
            if poly is not None:
                ((exps, q2),) = poly.terms.items()
                total += int(q2.p) * cnt
        assert total == count_injections(h, g)


def test_unlabeled_square_nearly_nonnegative_on_hosts():
    # finite-size slack: an unlabeled square evaluates to >= -10/n on hosts
    def _flag4(digits):
        return RootedFlag(host_from_digits(digits), (0, 1, 2))

    a_val = Q2.of(Fraction(7, 10))
    d1 = GraphCombo.build(
        4,
        3,
        _flag4("111211").type_colors(),
        NAMES,
        [(_flag4("111211"), Poly.const(NAMES, a_val)),
         (_flag4("111222"), Poly.const(NAMES, a_val - Q2.of(1)))],
    )
    sq = unlabel(combo_square(d1))
    coeffs = {
        fl.graph.to_text().encode(): float(poly.terms[(0,)])
        for fl, poly in sq.terms.items()
    }
    rng = random.Random(55)
    for _ in range(100):
        n = rng.randint(10, 16)
        masks = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < rng.choice([0.2, 0.5, 0.8]):
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        g = HostGraph(n, tuple(masks))
        prof = induced_profile(g, 5)
        tot = comb(n, 5)
        value = sum(
            coeffs.get(code, 0.0) * cnt / tot for code, cnt in prof.items()
        )
        assert value >= -10 / n


# ---------------------------------------------------------------------------
# the basis, products and unlabeling against the direct definitions: every
# ordered root tuple and every subset split is visited


def _oracle_flags_of_type(k, r, type_colors):
    out = {}
    for g in enumerate_colored_graphs(k):
        for tup in permutations(range(k), r):
            cand = RootedFlag(g, tup)
            if cand.type_colors() == type_colors:
                rep = rooted_canonical(cand)
                out.setdefault(rep.code(), rep)
    return tuple(out[c] for c in sorted(out))


def _oracle_product(c1, c2, target_k):
    r = c1.r
    acc_zero = Poly.const(c1.names, 0)
    denom = comb(target_k - r, c1.k - r)
    out = GraphCombo(target_k, r, c1.type_colors, c1.names, {})
    roots, non_roots = tuple(range(r)), tuple(range(r, target_k))
    for F in _oracle_flags_of_type(target_k, r, c1.type_colors):
        acc = acc_zero
        for S in combinations(non_roots, c1.k - r):
            rest = tuple(v for v in non_roots if v not in S)
            f1 = rooted_canonical(RootedFlag(F.graph.induced(roots + S), roots))
            f2 = rooted_canonical(RootedFlag(F.graph.induced(roots + rest), roots))
            if f1 in c1.terms and f2 in c2.terms:
                acc = acc + c1.terms[f1] * c2.terms[f2]
        if not acc.is_zero():
            out.add_term(F, acc * Q2.of(Fraction(1, denom)))
    return out


def _oracle_unlabel(c):
    out = GraphCombo(c.k, 0, (), c.names, {})
    for flag, poly in c.terms.items():
        good = 0
        for tup in permutations(range(c.k), c.r):
            cand = RootedFlag(flag.graph, tup)
            if cand.type_colors() == c.type_colors and rooted_canonical(cand) == flag:
                good += 1
        if good:
            out.add_term(RootedFlag(canonical_host(flag.graph)),
                         poly * Q2.of(Fraction(good, perm(c.k, c.r))))
    return out


_PNAMES = ("a", "B")
_ROOT_TYPES = [(r, t) for r in range(4) for t in product((False, True), repeat=r * (r - 1) // 2)]


def _random_combo(rng, k, r, type_colors):
    """A combo on a random part of the basis, with random coefficients in
    Q(sqrt2)[a, B]; every third basis flag is left out."""
    items = []
    for flag in flags_of_type(k, r, type_colors):
        if rng.random() < 1 / 3:
            continue
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = (rng.randint(0, 2), rng.randint(0, 1))
            p, q = Fraction(rng.randint(-6, 6), rng.randint(1, 4)), rng.choice((0, 0, 1, -2))
            terms[exps] = Q2(p, q)
        items.append((flag, Poly(_PNAMES, terms)))
    return GraphCombo.build(k, r, type_colors, _PNAMES, items)


def test_flag_bases_match_the_permutation_oracle():
    for r, t in _ROOT_TYPES:
        for k in range(max(r, 1), MAX_FLAG_K + 1):
            basis = flags_of_type(k, r, t)
            assert basis == _oracle_flags_of_type(k, r, t), (k, r, t)
            counts = _rooted_counts(k, r, t)
            assert set(counts) == set(basis)
            # over one class, the counts add up to its tuples of the type
            for g in enumerate_colored_graphs(k):
                tuples = sum(RootedFlag(g, tup).type_colors() == t
                             for tup in permutations(range(k), r))
                assert tuples == sum(n for f, n in counts.items()
                                     if canonical_host(f.graph) == g), (g.to_text(), r, t)


def test_products_and_unlabel_match_the_subset_oracle():
    rng = random.Random(23)
    for r, t in _ROOT_TYPES:
        for k1 in range(max(r, 1), MAX_FLAG_K + 1):
            c1 = _random_combo(rng, k1, r, t)
            assert unlabel(c1).terms == _oracle_unlabel(c1).terms, (k1, r, t)
            if 2 * k1 - r <= MAX_FLAG_K:
                assert combo_square(c1).terms == _oracle_product(c1, c1, 2 * k1 - r).terms
            for k2 in range(max(r, 1), MAX_FLAG_K + r - k1 + 1):
                c2 = _random_combo(rng, k2, r, t)
                got = flag_product(c1, c2, k1 + k2 - r)
                assert got.k == k1 + k2 - r and got.r == r and got.type_colors == t
                assert got.terms == _oracle_product(c1, c2, k1 + k2 - r).terms, (k1, k2, r, t)


def test_expand_pattern_on_more_vertices_is_the_product_with_the_unit():
    # the density on k > h vertices is the h-vertex expansion lifted, each
    # product taken over every subset split
    cases = [(parse_pattern("2 R"), k) for k in (3, 4, 5)]
    cases += [(ap4_pattern(), 5), (star_pattern(2, 1), 5)]
    for h, k in cases:
        want = _oracle_product(expand_pattern(h, h.h, NAMES), basis_combo(k - h.h, NAMES), k)
        assert expand_pattern(h, k, NAMES).terms == want.terms, (h.to_text(), k)
