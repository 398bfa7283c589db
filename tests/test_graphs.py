"""Value types, serialization, canonical forms, enumeration, constructions."""

import hashlib
import random
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semind import graphs
from semind.certificates import host_from_digits
from semind.counting import ap4_pattern, is_induced_subgraph, peenn_pattern
from semind.graphs import (
    CLASS_COUNTS,
    MAX_ENUM_K,
    ConstructionError,
    Circulant,
    GraphFormatError,
    HostGraph,
    PatternGraph,
    UnsupportedSizeError,
    apportion,
    basis_text,
    canonical_form,
    canonical_host,
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
from semind.search import exact_max, full_profile


def random_host(rng: random.Random, n: int, p: float = 0.5) -> HostGraph:
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return HostGraph(n, tuple(masks))


@st.composite
def hosts(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    npairs = n * (n - 1) // 2
    bits = draw(st.integers(min_value=0, max_value=(1 << npairs) - 1))
    masks = [0] * n
    for t, (i, j) in enumerate(lex_pairs(n)):
        if bits >> t & 1:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return HostGraph(n, tuple(masks))


@given(hosts())
@settings(max_examples=150, deadline=None)
def test_serialization_round_trip(g):
    assert parse_host(g.to_text()).to_text() == g.to_text()


def test_parse_examples():
    k3 = parse_host("3 RRR")
    assert k3.red_count() == 3
    empty = parse_host("3 BBB")
    assert empty.red_count() == 0
    # lexicographic pair order 01,02,03,12,13,23: RRBRBB = red {01,02,12}
    g = parse_host("4 RRBRBB")
    assert g.red(0, 1) and g.red(0, 2) and g.red(1, 2)
    assert not (g.red(0, 3) or g.red(1, 3) or g.red(2, 3))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: HostGraph(0, ()), "at least one vertex"),
        (lambda: HostGraph(3, (0b110, 0b101)), "mask count"),
        (lambda: HostGraph(2, (0b110, 0b001)), "outside vertex range"),
        (lambda: HostGraph(2, (0b011, 0b001)), "self-pairs"),
        (lambda: HostGraph(3, (0b010, 0b000, 0b000)), "symmetric"),
        (lambda: HostGraph.from_red_pairs(3, [(0, 1), (1, 3)]), "bad pair"),
        (lambda: HostGraph.from_red_pairs(3, [(2, 2)]), "bad pair"),
    ],
    ids=["no-vertex", "mask-count", "bit-out-of-range", "self-pair", "asymmetric",
         "pair-out-of-range", "pair-self"],
)
def test_invalid_hosts_are_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _value_pairs():
    """name -> (make, other, field, hashable): make() builds a fresh value,
    other differs from it in field, hashable says whether values hash."""
    from semind.certificates import CertLine, CertReport
    from semind.counting import DegreeStats
    from semind.flags import GraphCombo, RootedFlag
    from semind.graphs import PartedHost
    from semind.search import SearchResult

    path = lambda: HostGraph(3, (0b010, 0b101, 0b010))
    return {
        "HostGraph": (path, HostGraph(3, (0b110, 0b101, 0b011)), "masks", True),
        "PatternGraph": (lambda: PatternGraph.of(3, red=[(0, 1)], blue=[(1, 2)]),
                         PatternGraph.of(3, red=[(0, 1)]), "blue", True),
        "PartedHost": (lambda: PartedHost((2, 1), (True, False), ((False, True), (True, False))),
                       PartedHost((2, 1), (True, True), ((False, True), (True, False))),
                       "internal_red", True),
        "DegreeStats": (lambda: DegreeStats((1, 2, 1), 2, 1, 0),
                        DegreeStats((1, 2, 1), 2, 1, 1), "s_open", True),
        "SearchResult": (lambda: SearchResult(2, (b"3 RBR",)), SearchResult(2, (b"3 RRB",)),
                         "witnesses", True),
        "RootedFlag": (lambda: RootedFlag(path(), (1,)), RootedFlag(path(), (0,)), "roots", True),
        "GraphCombo": (lambda: GraphCombo(3, 1, (), ("a",), {}),
                       GraphCombo(3, 0, (), ("a",), {}), "r", False),
        "CertLine": (lambda: CertLine("3 RRR", "0", "zero"), CertLine("3 RRR", "0", "no"),
                     "status", True),
        "CertReport": (lambda: CertReport("ap4", [], [], [], (), (), {}),
                       CertReport("ap4", [], ["x"], [], (), (), {}), "failures", False),
    }


@pytest.mark.parametrize("name", list(_value_pairs()))
def test_value_types_compare_by_value(name):
    make, other, field, hashable = _value_pairs()[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other and other != a
    assert repr(a).startswith(f"{name}(")
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    assert a == b
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
    else:  # holds a dict or lists, so unhashable
        with pytest.raises(TypeError):
            hash(a)


def test_host_validation_runs_once_per_build(monkeypatch):
    # perfbench's tracer counts host builds by wrapping HostGraph.__post_init__
    calls = []
    validate = HostGraph.__post_init__

    def counted(self):
        calls.append(self.n)
        validate(self)

    monkeypatch.setattr(HostGraph, "__post_init__", counted)
    g = HostGraph(3, (0b010, 0b101, 0b010))
    assert calls == [3]
    for build in (lambda: parse_host("3 RBR"), lambda: g.relabel((2, 0, 1)),
                  lambda: HostGraph.from_red_pairs(4, [(0, 1), (2, 3)])):
        calls.clear()
        build()
        assert len(calls) == 1
    calls.clear()
    with pytest.raises(ValueError, match="symmetric"):
        HostGraph(3, (0b010, 0b000, 0b000))
    assert calls == [3]


def test_parse_errors_name_offsets():
    with pytest.raises(GraphFormatError) as e:
        parse_host("x RRR")
    assert e.value.offset == 0
    with pytest.raises(GraphFormatError) as e:
        parse_host("3 RR")
    assert e.value.offset == 4
    with pytest.raises(GraphFormatError) as e:
        parse_host("3 RXR")
    assert e.value.offset == 3
    with pytest.raises(GraphFormatError):
        parse_host("3RRR")


@pytest.mark.parametrize("parse, what", [(parse_host, "host"), (parse_pattern, "pattern")])
@pytest.mark.parametrize("text, message, offset", [
    ("x RRR", "malformed vertex count 'x'", 0),
    ("3RRR", "malformed vertex count '3RRR'", 0),
    ("+3 RRR", "malformed vertex count '+3'", 0),
    ("", "malformed vertex count ''", 0),
    ("0 ", "vertex count must be positive", 0),
    ("3 RR", "pair string has 2 characters, expected 3", 4),
    ("3 RRRR", "pair string has 4 characters, expected 3", 6),
    ("3  RRR", "pair string has 4 characters, expected 3", 6),
    ("2", "pair string has 0 characters, expected 1", 1),
    ("1 R", "pair string has 1 characters, expected 0", 3),
    ("4 XRRRRY", "illegal character 'X'", 2),  # the first pair, and the first fault
    ("4 RRRXRR", "illegal character 'X'", 5),  # (1, 2), the first pair of row 1
    ("4 RRRRRX", "illegal character 'X'", 7),  # the last pair
    ("3 R R", "illegal character ' '", 3),
])
def test_parse_errors_pin_message_and_offset(parse, what, text, message, offset):
    with pytest.raises(GraphFormatError) as e:
        parse(text)
    assert str(e.value) == f"{what}: {message} (byte offset {offset})"
    assert e.value.offset == offset


def test_one_vertex_and_free_letters():
    for text in ("1", "1 ", " 1 \n"):
        assert parse_host(text).masks == (0,)
        assert parse_pattern(text).layers() == ((0,), (0,))
        assert parse_host(text).to_text() == parse_pattern(text).to_text() == "1 "
    with pytest.raises(GraphFormatError) as e:
        parse_host("4 RRFRRR")
    assert (str(e.value), e.value.offset) == ("host: illegal character 'F' (byte offset 4)", 4)
    assert parse_pattern("4 RRFRRR").to_text() == "4 RRFRRR"


# The per-pair codec that the row-wise one replaced, kept as its oracle.
def _oracle_text(n, layers, letters):
    chars = []
    for i, j in lex_pairs(n):
        hit = [c for masks, c in zip(layers, letters) if masks[i] >> j & 1]
        chars.append(hit[0] if hit else letters[-1])
    return f"{n} {''.join(chars)}"


def _oracle_layers(n, body, letters):
    layers = [[0] * n for _ in letters[:-1]]
    for (i, j), ch in zip(lex_pairs(n), body):
        if ch != letters[-1]:
            masks = layers[letters.index(ch)]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return tuple(map(tuple, layers))


@st.composite
def pair_strings(draw, letters):
    n = draw(st.integers(min_value=1, max_value=40))
    return n, draw(st.text(alphabet=letters, min_size=comb(n, 2), max_size=comb(n, 2)))


@given(pair_strings("RB"))
@settings(max_examples=120, deadline=None)
def test_host_codec_matches_per_pair_oracle(case):
    n, body = case
    g = parse_host(f"{n} {body}")
    assert (g.masks,) == _oracle_layers(n, body, "RB")
    assert g.to_text() == _oracle_text(n, (g.masks,), "RB") == f"{n} {body}"
    assert host_from_digits(body.translate(str.maketrans("RB", "21"))) == g


@given(pair_strings("RBF"))
@settings(max_examples=120, deadline=None)
def test_pattern_codec_matches_per_pair_oracle(case):
    n, body = case
    h = parse_pattern(f"{n} {body}")
    assert h.layers() == _oracle_layers(n, body, "RBF")
    assert h.to_text() == _oracle_text(n, h.layers(), "RBF") == f"{n} {body}"


def test_codec_holds_no_list_of_pairs():
    import tracemalloc

    g = random_host(random.Random(4), 1000)
    tracemalloc.start()
    try:
        text = g.to_text()
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert parse_host(text) == g
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert write_peak < 8 << 20 and read_peak < 8 << 20, (write_peak, read_peak)


def test_pattern_parsing():
    h = parse_pattern("4 RFFBFR")
    red, blue = h.layers()
    assert red == (0b0010, 0b0001, 0b1000, 0b0100)  # (0, 1) and (2, 3)
    assert blue == (0b0000, 0b0100, 0b0010, 0b0000)  # (1, 2)
    assert h == PatternGraph.of(4, red=[(0, 1), (3, 2)], blue=[(2, 1)])
    assert h.to_text().split()[1].count("F") == 3
    assert parse_pattern(h.to_text()) == h
    assert PatternGraph(h.h, blue, red).to_text() == "4 BFFRFB"


def test_canonical_invariance_random_permutations():
    rng = random.Random(20240811)
    for _ in range(1000):
        n = rng.randint(1, 8)
        g = random_host(rng, n, rng.choice([0.2, 0.5, 0.8]))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(tuple(perm)))


def test_canonical_distinguishes_colors():
    k3r = parse_host("3 RRR")
    k3b = parse_host("3 BBB")
    assert canonical_form(k3r) != canonical_form(k3b)


def test_canonical_path_relabelings():
    g = HostGraph.from_red_pairs(4, [(0, 1), (1, 2), (2, 3)])
    codes = {canonical_form(g.relabel(p)) for p in permutations(range(4))}
    assert len(codes) == 1


def test_twins_are_placed_once():
    # every ordering of all-red K_8 has the same code; its vertices are twins
    k8 = HostGraph(8, tuple(0xFF ^ (1 << i) for i in range(8)))
    assert graphs._min_placements((k8.masks,)) == [tuple(range(8))]


def _reference_twins(layers):
    """The pairwise definition: u < v are twins when their colours to every
    other vertex agree in every layer."""
    n = len(layers[0])
    return [
        sum(1 << u for u in range(v)
            if all(not (m[u] ^ m[v]) & ~(1 << u | 1 << v) for m in layers))
        for v in range(n)
    ]


def test_twins_by_grouping_match_the_pairwise_definition():
    rng = random.Random(32)
    cases = [
        (random_host(rng, rng.randint(1, 9), rng.choice([0.1, 0.5, 0.9])).masks,)
        for _ in range(2000)
    ]
    for _ in range(1000):  # two layers, with free pairs
        h = rng.randint(1, 9)
        colours = [rng.choice("RBF") if rng.random() < 0.7 else "F" for _ in lex_pairs(h)]
        cases.append(parse_pattern(f"{h} {''.join(colours)}").layers())
    with_twins = 0
    for layers in cases:
        want = _reference_twins(layers)
        assert graphs._twins(layers) == want, layers
        with_twins += any(want)
    assert with_twins > 1000  # so the comparison is not vacuous


def _reference_min_placements(layers, fixed=()):
    """The per-vertex loop that the bitmask kernel of _min_placements replaced."""
    n = len(layers[0])
    below = graphs._twins(layers)
    states = [(tuple(fixed), sum(1 << v for v in fixed))]
    for pos in range(len(fixed), n):
        best_seg = None
        kept = []
        for placed, used in states:
            for v in range(n):
                if used >> v & 1 or below[v] & ~used:
                    continue
                seg = 0
                for masks in layers:
                    for u in placed:
                        seg = (seg << 1) | (masks[v] >> u & 1)
                if best_seg is None or seg < best_seg:
                    best_seg = seg
                    kept = [(placed + (v,), used | 1 << v)]
                elif seg == best_seg:
                    kept.append((placed + (v,), used | 1 << v))
        states = kept
    return [p for p, _ in states]


def test_min_placements_kernel_matches_reference():
    rng = random.Random(88)
    hosts = [make_construction(spec, n) for n in (6, 9) for spec in (
        clique_plus_isolated(0.5), disjoint_cliques([0.3, 0.3, 0.4]), circulant(0.5),
    )]
    hosts += [random_host(rng, rng.randint(1, 9), rng.choice([0.1, 0.5, 0.9])) for _ in range(300)]
    for g in hosts:
        layers = (g.masks,)
        assert graphs._min_placements(layers) == _reference_min_placements(layers)
        for size in (1, 2):
            if g.n >= size:
                fixed = tuple(rng.sample(range(g.n), size))
                got = graphs._min_placements(layers, fixed=fixed)
                assert got == _reference_min_placements(layers, fixed), (g.to_text(), fixed)
    for _ in range(300):
        h = rng.randint(1, 9)
        colours = [rng.choice("RBF") if rng.random() < 0.7 else "F" for _ in lex_pairs(h)]
        layers = parse_pattern(f"{h} {''.join(colours)}").layers()
        assert graphs._min_placements(layers) == _reference_min_placements(layers)


def _mask_orbit_reps(parent: HostGraph) -> list[int]:
    """The least mask of each orbit of Aut(parent), by trying every permutation."""
    n = parent.n
    auts = [p for p in permutations(range(n)) if parent.relabel(p) == parent]
    image = lambda perm, mask: sum(1 << perm[v] for v in range(n) if mask >> v & 1)
    return [m for m in range(1 << n) if all(image(p, m) >= m for p in auts)]


def test_augmentation_keeps_each_class_once():
    for k in range(2, 7):
        kept = []
        for parent in graphs._graph_classes(k - 1):
            reps = set(_mask_orbit_reps(parent))
            for mask in range(1 << (k - 1)):
                child = graphs._augment(parent, mask)
                want = canonical_host(HostGraph.from_red_pairs(
                    k, [pr for pr in lex_pairs(k - 1) if parent.red(*pr)]
                    + [(v, k - 1) for v in range(k - 1) if mask >> v & 1]
                ))
                if child is not None:
                    assert child == want
                    if mask in reps:
                        kept.append(want.to_text())
        assert len(kept) == len(set(kept)) == CLASS_COUNTS[k]
        assert set(kept) == {g.to_text() for g in graphs._graph_classes(k)}


def test_augmentation_labels_few_children(monkeypatch):
    # one labelling per Aut(parent)-orbit of masks was 662 calls for k <= 6
    orbits = sum(len(_mask_orbit_reps(p)) for k in range(1, 6) for p in graphs._graph_classes(k))
    assert orbits == 662
    calls = []
    min_placements = graphs._min_placements

    def spy(*args, **kwargs):
        calls.append(args)
        return min_placements(*args, **kwargs)

    monkeypatch.setattr(graphs, "_min_placements", spy)
    graphs._graph_classes.cache_clear()
    try:
        classes = graphs._enumerate_classes(6)
    finally:
        graphs._graph_classes.cache_clear()
    assert len(classes) == CLASS_COUNTS[6]
    assert len(calls) <= 300


@pytest.mark.parametrize("spec", [
    clique_plus_isolated(0.5),
    disjoint_cliques([0.3, 0.3, 0.4]),
    complement_of(circulant(0.4)),
])
def test_canonical_invariance_symmetric_hosts(spec):
    g = make_construction(spec, 16)
    code = canonical_form(g)
    rng = random.Random(16)
    for _ in range(5):
        perm = list(range(16))
        rng.shuffle(perm)
        assert canonical_form(g.relabel(tuple(perm))) == code


def test_canonical_size_guard():
    g = HostGraph(17, tuple(0 for _ in range(17)))
    with pytest.raises(UnsupportedSizeError):
        canonical_form(g)


def test_enumeration_counts_and_determinism():
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    for k, want in expected.items():
        classes = enumerate_colored_graphs(k)
        assert len(classes) == want
        assert classes == enumerate_colored_graphs(k)
        codes = [canonical_form(g) for g in classes]
        assert len(set(codes)) == want
        assert all(g.to_text().encode() == c for g, c in zip(classes, codes))
    with pytest.raises(UnsupportedSizeError):
        enumerate_colored_graphs(8)


def test_basis_digests_match_enumeration():
    assert sorted(graphs._BASIS_SHA256) == list(range(1, MAX_ENUM_K + 1))
    for k in range(1, MAX_ENUM_K + 1):
        classes = graphs._enumerate_classes(k)
        assert len(classes) == CLASS_COUNTS[k]
        digest = hashlib.sha256(basis_text(classes).encode()).hexdigest()
        assert digest == graphs._BASIS_SHA256[k]


def _drop_last_class(text: str) -> str:
    return text[: text.rindex("\n", 0, -1) + 1]


def _flip_last_pair(text: str) -> str:
    return text[:-2] + ("B" if text[-2] == "R" else "R") + "\n"


def _foreign_k(text: str) -> str:
    return basis_text(enumerate_colored_graphs(4))


def _wrong_count(text: str) -> str:
    return text.replace("count=34", "count=35", 1)


@pytest.mark.parametrize(
    "corrupt, forge_digest",
    [
        (None, False),
        (_drop_last_class, False),
        (_drop_last_class, True),
        (_flip_last_pair, False),
        (_foreign_k, False),
        (_foreign_k, True),
        (_wrong_count, False),
        (_wrong_count, True),
    ],
)
def test_basis_file_loaded_only_when_valid(tmp_path, monkeypatch, corrupt, forge_digest):
    """A basis-k5.txt in the cache directory replaces enumeration only when it
    passes both checks; forge_digest records the file's own digest, so the
    count check alone must reject it.  Search results never change."""

    def searches():
        return exact_max(ap4_pattern(), 5, 6), full_profile(peenn_pattern(), 5)

    graphs._graph_classes.cache_clear()
    want = searches()
    text = basis_text(enumerate_colored_graphs(5))
    data = (corrupt(text) if corrupt else text).encode()
    (tmp_path / "basis-k5.txt").write_bytes(data)
    if forge_digest:
        monkeypatch.setitem(graphs._BASIS_SHA256, 5, hashlib.sha256(data).hexdigest())
    enumerated = []
    enumerate_classes = graphs._enumerate_classes

    def spy(k):
        enumerated.append(k)
        return enumerate_classes(k)

    monkeypatch.setattr(graphs, "_enumerate_classes", spy)
    graphs._graph_classes.cache_clear()
    try:
        with graphs.basis_cache(tmp_path):
            assert searches() == want
    finally:
        graphs._graph_classes.cache_clear()
    assert (5 in enumerated) == (corrupt is not None)


def test_complement_involution_and_class_bijection():
    rng = random.Random(5)
    for _ in range(50):
        g = random_host(rng, rng.randint(1, 7))
        assert g.complement().complement() == g
    for k in range(1, 6):
        classes = enumerate_colored_graphs(k)
        codes = {canonical_form(g) for g in classes}
        comp_codes = {canonical_form(g.complement()) for g in classes}
        assert codes == comp_codes


def test_self_complementary_host_on_4():
    # red path 0-1-2-3 is self-complementary as a coloring
    g = HostGraph.from_red_pairs(4, [(0, 1), (1, 2), (2, 3)])
    assert canonical_form(g) == canonical_form(g.complement())


def _induced_brute(small: HostGraph, big: HostGraph) -> bool:
    if small.n > big.n:
        return False
    for sub in permutations(range(big.n), small.n):
        if all(
            big.red(sub[i], sub[j]) == small.red(i, j)
            for i in range(small.n)
            for j in range(i + 1, small.n)
        ):
            return True
    return False


def test_induced_subgraph_examples_and_oracle():
    k3 = parse_host("3 RRR")
    k5 = HostGraph.from_red_pairs(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert is_induced_subgraph(k3, k5)
    assert is_induced_subgraph(k5, k5)
    cherry_iso = HostGraph.from_red_pairs(4, [(1, 3), (2, 3)])
    assert not is_induced_subgraph(cherry_iso, k5)
    rng = random.Random(99)
    for _ in range(120):
        small = random_host(rng, rng.randint(1, 4))
        big = random_host(rng, rng.randint(1, 6))
        assert is_induced_subgraph(small, big) == _induced_brute(small, big)


def test_apportionment():
    assert apportion([0.75, 0.25], 4) == [3, 1]
    assert apportion([1 / 3, 1 / 3, 1 / 3], 9) == [3, 3, 3]
    assert apportion([1 / 3, 1 / 3, 1 / 3], 10) == [4, 3, 3]
    assert sum(apportion([0.21, 0.33, 0.46], 97)) == 97


def test_clique_plus_isolated():
    g = make_construction(clique_plus_isolated(0.75), 4)
    assert canonical_form(g) == canonical_form(parse_host("4 RRBRBB"))


def test_disjoint_cliques_thirds():
    g = make_construction(disjoint_cliques([1 / 3, 1 / 3, 1 / 3]), 9)
    assert g.red_count() == 3 * 3
    assert set(g.degrees()) == {2}


def test_three_part_density():
    spec = three_part(0.3, 0.2)
    g = make_construction(spec, 200)
    # 2xy + y^2 = 0.16 target
    assert abs(g.red_count() / comb(200, 2) - 0.16) < 0.01


def test_complement_spec():
    spec = complement_of(clique_plus_isolated(0.75))
    g = make_construction(spec, 4)
    direct = make_construction(clique_plus_isolated(0.75), 4).complement()
    assert canonical_form(g) == canonical_form(direct)


def test_nested_complement_of_circulant():
    for n in (9, 10):
        base = make_construction(circulant(0.5), n)
        once = complement_of(circulant(0.5))
        assert make_construction(once, n) == base.complement()
        assert make_construction(complement_of(once), n) == base
        assert make_construction(complement_of(complement_of(once)), n) == base.complement()
    # odd and even n down to 2 and 3, odd degree on even n; odd degree on odd n
    # is rounded down to an even one
    for n in (2, 3, 4, 5, 8, 9, 10, 41):
        for frac in (0, 0.3, 19 / 40, 0.5, 0.52, 0.8, 1):
            c = realize(circulant(frac), n)
            assert isinstance(c, Circulant) and c.n == n
            flipped = realize(complement_of(circulant(frac)), n)
            assert flipped.to_host() == c.to_host().complement()
            assert realize(complement_of(complement_of(circulant(frac))), n) == c
            for g in (c, flipped):
                assert set(g.to_host().degrees()) == {g.degree}
                assert g.red_count() == g.to_host().red_count()


def test_circulant_regular_and_density():
    g = make_construction(circulant(2 / 3), 300)
    degs = set(g.degrees())
    assert len(degs) == 1
    d = degs.pop()
    assert d == round(2 / 3 * 299)
    assert abs(g.red_count() / comb(300, 2) - 2 / 3) < 0.01
    # parity adjustment: odd target degree with odd n drops by one
    g2 = make_construction(circulant(0.5), 7)  # round(3.0)=3, odd*odd -> 2
    assert set(g2.degrees()) == {2}
    g3 = make_construction(circulant(0.5), 8)  # round(3.5)=4 on even n
    assert set(g3.degrees()) == {4}
    g4 = make_construction(circulant(0.52), 10)  # round(4.68)=5, odd ok on even n
    assert set(g4.degrees()) == {5}
    for spec, n, g in ((circulant(2 / 3), 300, g), (circulant(0.5), 7, g2),
                       (complement_of(circulant(0.5)), 8, g3.complement()),
                       (complement_of(complement_of(circulant(0.52))), 10, g4)):
        assert set(g.degrees()) == {realize(spec, n).degree}


def test_construction_errors():
    with pytest.raises(ConstructionError):
        disjoint_cliques([0.7, 0.7])
    with pytest.raises(ConstructionError):
        three_part(0.6, 0.6)
    nan = float("nan")
    for make in (lambda: disjoint_cliques([nan]), lambda: disjoint_cliques([0.3, nan]),
                 lambda: three_part(nan, 0.2), lambda: three_part(0.2, nan),
                 lambda: clique_plus_isolated(nan), lambda: circulant(nan)):
        with pytest.raises(ConstructionError):
            make()
    with pytest.raises(ConstructionError):
        make_construction(clique_plus_isolated(0.5), 1)


# Every construction the CLI grammar builds: its name and, at
# n = 2, 7, 17 and 1000, its realized value, as the part sizes with the
# colours inside each part and the rows of colours across (the diagonal
# included), or as a circulant's (n, near, near_red).
_PINNED_SIZES = (2, 7, 17, 1000)
_PINNED_REALIZED = {
    "clique_iso:0.5477": ("clique_plus_isolated:0.5477", "RB", "BB BB",
                          [(1, 1), (4, 3), (9, 8), (548, 452)]),
    "cliques:0.4,0.35,0.25": ("disjoint_cliques:0.4,0.35,0.25", "RRR", "BBB BBB BBB",
                              [(1, 1, 0), (3, 2, 2), (7, 6, 4), (400, 350, 250)]),
    "cliques:0.4387,0.4387,0.1225": (
        "disjoint_cliques:0.4387,0.4387,0.1225", "RRRB", "BBBB BBBB BBBB BBBB",
        [(1, 1, 0, 0), (3, 3, 1, 0), (8, 7, 2, 0), (439, 439, 122, 0)]),
    "cliques:0.3,0.3": ("disjoint_cliques:0.3,0.3", "RRB", "BBB BBB BBB",
                        [(1, 0, 1), (2, 2, 3), (5, 5, 7), (300, 300, 400)]),
    "cliques:0.1,0.2,0.7": ("disjoint_cliques:0.1,0.2,0.7", "RRR", "BBB BBB BBB",
                            [(0, 1, 1), (1, 1, 5), (2, 3, 12), (100, 200, 700)]),
    "circulant:0.6667": ("circulant:0.6667", None, None,
                         [(2, 1, True), (7, 4, True), (17, 10, True), (1000, 666, True)]),
    "circulant:0.5": ("circulant:0.5", None, None,
                      [(2, 0, True), (7, 2, True), (17, 8, True), (1000, 500, True)]),
    "three_part:0.3,0.2": ("three_part:0.3,0.2", "BRB", "BRB RRB BBB",
                           [(1, 0, 1), (2, 1, 4), (5, 3, 9), (300, 200, 500)]),
    "complement:clique_iso:0.75": ("complement:clique_plus_isolated:0.75", "BR", "RR RR",
                                   [(2, 0), (5, 2), (13, 4), (750, 250)]),
    "complement:cliques:0.4,0.3": ("complement:disjoint_cliques:0.4,0.3", "BBR", "RRR RRR RRR",
                                   [(1, 0, 1), (3, 2, 2), (7, 5, 5), (400, 300, 300)]),
    "complement:circulant:0.5": ("complement:circulant:0.5", None, None,
                                 [(2, 0, False), (7, 2, False), (17, 8, False),
                                  (1000, 500, False)]),
    "complement:complement:three_part:0.25,0.5": (
        "complement:complement:three_part:0.25,0.5", "BRB", "BRB RRB BBB",
        [(1, 1, 0), (2, 3, 2), (4, 9, 4), (250, 500, 250)]),
    "complement:complement:circulant:0.52": (
        "complement:complement:circulant:0.52", None, None,
        [(2, 1, True), (7, 2, True), (17, 8, True), (1000, 519, True)]),
}


def test_realize_pins_every_cli_construction():
    from semind.cli import construct_from_arg

    def letters(bits):
        return "".join("R" if b else "B" for b in bits)

    for text, (name, internal, cross, values) in _PINNED_REALIZED.items():
        spec = construct_from_arg(text)
        assert spec.name == name, text
        for n, value in zip(_PINNED_SIZES, values):
            g = realize(spec, n)
            if internal is None:
                assert isinstance(g, Circulant) and (g.n, g.near, g.near_red) == value, (text, n)
            else:
                assert g.sizes == value, (text, n)
                assert letters(g.internal_red) == internal, (text, n)
                assert " ".join(map(letters, g.cross_red)) == cross, (text, n)


def test_parted_host_matches_built_host():
    for spec, n in [
        (clique_plus_isolated(0.6), 10),
        (disjoint_cliques([0.4, 0.3]), 11),
        (three_part(0.3, 0.3), 12),
        (complement_of(three_part(0.25, 0.5)), 9),
    ]:
        parts = realize(spec, n)
        assert parts.n == n
        host = parts.to_host()
        assert host == make_construction(spec, n)
        assert parts.red_count() == host.red_count()
        assert realize(complement_of(spec), n).to_host() == host.complement()
