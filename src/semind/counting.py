"""Exact counting of semi-induced pattern copies and host statistics.

All counts are exact Python integers, so there is no overflow to manage even
at n = 10^4 with 6-vertex patterns.  The generic counter follows a plan made
once per pattern and host size (`_plan`): it enumerates a vertex cover of the
pattern's constraints and counts the remaining constrained vertices at each
leaf in one step, by Moebius inversion over set partitions, with popcounts of
candidate masks.  On all but the smallest hosts a tree-shaped pattern such as
peenn or a double star therefore costs O(n^2) popcount steps instead of the
O(n^(h-1)) of enumerating every vertex but the last.  On a vertex-transitive
host (`count_transitive`) one pattern vertex is pinned to host vertex 0 and
the count multiplied by n.  `flip_delta` gives the exact change of a count
when one host pair flips colour, with one pinned count per automorphism
orbit of the pattern's ordered constrained pairs.  The test suite checks the
counter against a plain backtracker.  The `*_work` functions estimate the
work of a count for the package's `check_work`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, perm
from typing import NamedTuple

from . import UnsupportedSizeError, UsageError, check_work
from .graphs import (
    HostGraph,
    PartedHost,
    PatternGraph,
    _min_placements,
    _relabel_masks,
    _twins,
    canonical_form,
    lex_pairs,
)


@dataclass(frozen=True)
class DegreeStats:
    """Red-degree statistics of a host.

    t counts 3-vertex sets spanning exactly two red edges; s_open counts
    3-red-edge paths whose endpoints form a blue pair.
    """

    degrees: tuple[int, ...]
    m: int
    t: int
    s_open: int


def degree_stats(g: HostGraph) -> DegreeStats:
    n, masks = g.n, g.masks
    degs = tuple(m.bit_count() for m in masks)
    m_edges = sum(degs) // 2
    tri3 = 0  # sum of codegrees over red edges = 3 * (#red triangles)
    p4_mid = 0  # sum over red edges of (d_u - 1)(d_v - 1)
    c4_pairs = 0  # sum over all pairs of C(codegree, 2)
    for u in range(n):
        mu = masks[u]
        du = degs[u]
        for v in range(u + 1, n):
            codeg = (mu & masks[v]).bit_count()
            c4_pairs += codeg * (codeg - 1) // 2
            if mu >> v & 1:
                tri3 += codeg
                p4_mid += (du - 1) * (degs[v] - 1)
    cherries = sum(d * (d - 1) // 2 for d in degs)
    t = cherries - tri3  # tri3 == 3 * triangles
    paths3 = p4_mid - tri3  # 3-edge path subgraph copies
    red_c4 = c4_pairs // 2
    s_open = paths3 - 4 * red_c4  # remove paths whose endpoints are red
    return DegreeStats(degs, m_edges, t, s_open)


def sum_blue_degree_products(g: HostGraph, power: int = 1) -> int:
    """Sum of d_u^power * d_v^power over blue pairs uv."""
    degs = g.degrees()
    dp = [d**power for d in degs]
    total = (sum(dp) ** 2 - sum(x * x for x in dp)) // 2
    red_part = 0
    for u in range(g.n):
        m = g.masks[u] >> (u + 1)
        v = u + 1
        while m:
            if m & 1:
                red_part += dp[u] * dp[v]
            m >>= 1
            v += 1
    return total - red_part


# Bell numbers: the set partitions of a batch of b.  A batch of 9 builds its
# 21,147 partitions in 30-40 ms and about 6 MB; a 10th vertex would take 5.5x that.
_BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147)
_MAX_BATCH = len(_BELL) - 1


class _Plan(NamedTuple):
    """A counting plan; see `_plan`."""

    cons: tuple  # per prefix position: (earlier position, pair is red)
    batch: tuple  # per batch vertex: (prefix position, pair is red)
    steps: tuple  # (subset, subset less its lowest member, that member)
    terms: tuple  # (Moebius weight, blocks as subsets), one per set partition
    leaf: tuple  # for a batch of one: (its constraints before the last prefix
    # position, is its pair to the last position red; None if unconstrained)
    tail: int  # number of unpinned vertices with no constraint
    cost: float  # estimated work, the mean over all colorings (see `_plan`)


def _set_partitions(k: int) -> list[tuple[int, ...]]:
    """The set partitions of range(k), each a tuple of blocks as bitmasks."""
    parts: list[tuple[int, ...]] = [()]
    for i in range(k):
        bit = 1 << i  # joins one block of each partition of range(i), or opens its own
        parts = [p[:j] + (p[j] | bit,) + p[j + 1:] for p in parts for j in range(len(p))] + [
            p + (bit,) for p in parts
        ]
    return parts


def _moebius(blocks: tuple[int, ...]) -> int:
    """mu(0, pi) in the partition lattice: prod over blocks of (-1)^(|B|-1) (|B|-1)!."""
    out = 1
    for block in blocks:
        size = block.bit_count()
        out *= (-1) ** (size - 1) * factorial(size - 1)
    return out


def _leaf_work(b: int) -> float:
    """Estimated time to count a batch of b at one prefix leaf, in units of
    one enumerated prefix vertex, as timed on stars and paths in random
    hosts of 12 to 60 vertices: half a vertex for a single popcount, and
    0.6 per subset and per set partition of a larger batch."""
    return 0.5 if b <= 1 else 0.6 * (2**b + _BELL[b])


# Setting up one `_extend` call, in the same unit: timed as the pinned counts
# of a climb's moves on patterns with small plans.
_CALL_WORK = 10

# A unit is timed on hosts of up to a few hundred vertices.  Intersections
# and popcounts of n-bit masks cost more on larger ones: about 1 + n / 3000
# units, as timed for ac4, peenn and ds:2 on random hosts of 60 to 3,300
# vertices.
_WIDE_HOST = 3000


@lru_cache(maxsize=1024)
def _plan(h: PatternGraph, n: int, pinned: tuple[int, ...] = ()) -> _Plan:
    """Counting plan for n-vertex hosts: a prefix that `_extend` enumerates,
    a batch it counts in one step at each prefix leaf, and a tail of
    unconstrained vertices.

    The prefix is the `pinned` vertices followed by a vertex cover of the
    constraints among the other vertices, most-constrained-first, so every
    constraint of a batch vertex points into the prefix.  The cover is
    greedy: the other end of a constraint whose end meets no other uncovered
    one (of several, the one with the most constraints into the cover so
    far), else the vertex meeting the most; that is a minimum cover on trees.
    Each prefix vertex with c checked constraints multiplies the estimated
    number of prefix nodes by about (n - placed) / 2^c, and each leaf pays
    the batch's work, about 2^b + Bell(b) for a batch of b (`_leaf_work`).
    The plan moves into the prefix as many of the most constrained batch
    vertices as minimizes the estimated total, and enough to keep the batch
    within _MAX_BATCH.  So small hosts get longer prefixes and a batch of
    one, large hosts the whole batch.

    Pinned positions are never checked, so their constraints with each other
    do not count.  Pinned vertices lead the prefix whether or not they have
    constraints, so the tail holds only unpinned vertices; any vertex, even
    a lone one with no constraint, may be pinned.  The batch's subsets and
    set partitions with their Moebius weights are fixed here, and so is the
    split of a batch of one's constraints at the last prefix position, which
    `_extend` counts together with the batch; plans are cached per (h, n,
    pinned), with the estimated total as `cost`."""
    nbr = [0] * h.h  # constraint neighbours as bitmasks
    for i, j in h.red_pairs | h.blue_pairs:
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    deg = [m.bit_count() for m in nbr]
    fixed = sum(1 << v for v in pinned)
    loose = [v for v in range(h.h) if nbr[v] and not fixed >> v & 1]

    cover = 0
    uncovered = [1 << i | 1 << j for i, j in h.red_pairs | h.blue_pairs]
    uncovered = [e for e in uncovered if not e & fixed]
    while uncovered:
        load = [sum(e >> v & 1 for e in uncovered) for v in range(h.h)]
        # the other end of an uncovered leaf is in some minimum cover
        leaves = [u for u in loose if load[u] == 1]
        ends = [(e ^ 1 << u).bit_length() - 1 for e in uncovered for u in leaves if e >> u & 1]
        checks = [(nbr[v] & (cover | fixed)).bit_count() for v in range(h.h)]
        if ends:
            v = max(ends, key=lambda v: (checks[v], load[v], -v))
        else:
            v = max(loose, key=lambda v: (load[v], checks[v], -v))
        cover |= 1 << v
        uncovered = [e for e in uncovered if not e >> v & 1]
    spare = sorted((v for v in loose if not cover >> v & 1), key=lambda v: (-deg[v], v))

    best = None
    for k in range(max(len(spare) - _MAX_BATCH, 0), max(len(spare), 1)):
        order, placed = list(pinned), fixed
        rest = cover | sum(1 << v for v in spare[:k])
        nodes = cost = 1.0
        while rest:
            v = max(
                (v for v in loose if rest >> v & 1),
                key=lambda v: ((nbr[v] & placed).bit_count(), deg[v], -v),
            )
            nodes *= max(n - len(order), 0) / 2 ** (nbr[v] & placed).bit_count()
            cost += nodes
            order.append(v)
            placed |= 1 << v
            rest ^= 1 << v
        cost += nodes * _leaf_work(len(spare) - k)
        if best is None or cost < best[0]:
            best = cost, order, sorted(spare[k:])
    cost, order, batch = best
    pos_of = {v: i for i, v in enumerate(order)}

    def row(v: int, before: int):
        return tuple(
            (pos_of[u], (min(u, v), max(u, v)) in h.red_pairs)
            for u in range(h.h)
            if nbr[v] >> u & 1 and pos_of.get(u, before) < before
        )

    k = len(batch)
    rows = tuple(row(v, len(order)) for v in batch)
    last = len(order) - 1
    return _Plan(
        cons=tuple(row(v, idx) for idx, v in enumerate(order)),
        batch=rows,
        steps=tuple((s, s & (s - 1), (s & -s).bit_length() - 1) for s in range(1, 1 << k)),
        terms=tuple((_moebius(p), p) for p in _set_partitions(k)),
        leaf=(
            tuple((ep, isred) for ep, isred in rows[0] if ep < last),
            next((isred for ep, isred in rows[0] if ep == last), None),
        ) if k == 1 else (),
        tail=h.h - len(order) - k,
        cost=cost,
    )


def _work(plan: _Plan, n: int, start: int, red_max: int, blue_max: int) -> float:
    """A bound on the work of `_extend(plan, ...)` from position `start` on an
    n-vertex host whose red and blue degrees are at most red_max and
    blue_max: the prefix vertices it places, plus the batch's work at each
    prefix leaf (`_leaf_work`), plus the cost of one call.  The prefix
    vertex at position p has at most n - p candidates, and at most red_max
    (blue_max) when it has a red (blue) constraint to an earlier position.
    A batch of one is counted with the last prefix level, one popcount per
    vertex placed there, so it adds nothing.  `_plan`'s own estimate halves
    the candidates per constraint instead, which is the mean over all
    colorings but no bound for any one host."""
    nodes = work = 1
    for p in range(start, len(plan.cons)):
        width = n - p
        for _, isred in plan.cons[p]:
            width = min(width, red_max if isred else blue_max)
        nodes *= max(width, 0)
        work += nodes
    if not plan.leaf:
        work += nodes * _leaf_work(len(plan.batch))
    return _CALL_WORK + work * (1 + n / _WIDE_HOST)


def _extend(plan: _Plan, red, blue, assign: list[int], pos: int, used: int) -> int:
    """Number of ways to place positions pos.. of `plan` into the host with
    red/blue masks `red`/`blue`, given assign[:pos] (bitset `used`).

    Only the prefix is enumerated.  At each prefix leaf the batch vertices get
    candidate masks M_i, and their injective placements number
    sum over set partitions pi of mu(pi) prod_{B in pi} |cap_{i in B} M_i|
    (Moebius inversion over the partition lattice).  A batch of one is
    counted together with the last prefix level: its constraints to earlier
    positions give a base mask, and each candidate c for the last position
    adds |red[c] & base| (or blue) when the batch vertex has a constraint to
    that position, else the level adds |cands| |base| - |cands & base|.  The
    tail adds a falling factorial.  The cost is the number of prefix leaves,
    at most n^p for p unpinned prefix positions, times about 2^b + Bell(b)
    big-int operations for a batch of b: O(n^2) for peenn and the double
    stars, whose covers have two vertices, once n is large enough (10 for
    peenn, 7 for ds:2) that their plans keep the whole batch."""
    cons, batch, steps, terms, leaf, tail, _ = plan
    n = len(red)
    full = (1 << n) - 1
    depth = len(cons)
    scale = perm(max(n - depth - len(batch), 0), tail)
    if not scale:
        return 0
    fused = depth - 1 if leaf else -1  # the level counted with a batch of one
    early, last = leaf or ((), None)
    last_layer = None if last is None else red if last else blue
    inter = [-1] * (1 << len(batch))  # inter[0] = -1 is the empty intersection
    sizes = [0] * (1 << len(batch))

    def rec(pos: int, used: int) -> int:
        free = full & ~used
        if pos == depth:
            masks = []
            for r in batch:
                m = free
                for ep, isred in r:
                    m &= red[assign[ep]] if isred else blue[assign[ep]]
                masks.append(m)
            for s, rest, i in steps:
                inter[s] = m = inter[rest] & masks[i]
                sizes[s] = m.bit_count()
            total = 0
            for coef, blocks in terms:
                for s in blocks:
                    coef *= sizes[s]
                total += coef
            return total
        cands = free
        for ep, isred in cons[pos]:
            cands &= red[assign[ep]] if isred else blue[assign[ep]]
        total = 0
        if pos == fused:
            base = free
            for ep, isred in early:
                base &= red[assign[ep]] if isred else blue[assign[ep]]
            if last_layer is None:
                return cands.bit_count() * base.bit_count() - (cands & base).bit_count()
            while cands:
                low = cands & -cands
                cands ^= low
                total += (last_layer[low.bit_length() - 1] & base).bit_count()
            return total
        while cands:
            low = cands & -cands
            cands ^= low
            assign[pos] = low.bit_length() - 1
            total += rec(pos + 1, used | low)
        return total

    return scale * rec(pos, used)


def _red_blue(g: HostGraph) -> tuple:
    """The host's red masks and blue masks."""
    full = (1 << g.n) - 1
    return g.masks, tuple(full ^ m ^ (1 << v) for v, m in enumerate(g.masks))


def count_injections(h: PatternGraph, g: HostGraph) -> int:
    """Number of injections respecting red->red and blue->blue on constrained
    pairs; free pairs are unconstrained.  Returns 0 when h has more vertices
    than g."""
    if h.h > g.n:
        return 0
    plan = _plan(h, g.n)
    return _extend(plan, *_red_blue(g), [0] * len(plan.cons), 0, 0)


def _pinned_plan(h: PatternGraph, n: int) -> _Plan:
    """The plan that pins h's most constrained vertex (the first of several)."""
    red, blue = h.layers()
    pin = max(range(h.h), key=lambda v: ((red[v] | blue[v]).bit_count(), -v))
    return _plan(h, n, (pin,))


def count_work(h: PatternGraph, g: HostGraph) -> float:
    """A bound on the work of count_injections(h, g), for `check_work`,
    from g's largest red and blue degrees."""
    degrees = g.degrees()
    return _work(_plan(h, g.n), g.n, 0, max(degrees), g.n - 1 - min(degrees))


def transitive_work(h: PatternGraph, n: int, red_degree: int) -> float:
    """A bound on the work of count_transitive(h, g), for `check_work`, when
    every vertex of the n-vertex host g has red degree red_degree."""
    return _work(_pinned_plan(h, n), n, 1, red_degree, n - 1 - red_degree)


def count_transitive(h: PatternGraph, g: HostGraph) -> int:
    """count_injections for a vertex-transitive host g, such as a circulant:
    each host vertex is the image of a given pattern vertex equally often, so
    the count is n times the injections that send the pattern's most
    constrained vertex to host vertex 0."""
    plan = _pinned_plan(h, g.n)
    return g.n * _extend(plan, *_red_blue(g), [0] * len(plan.cons), 1, 1)


def is_induced_subgraph(small: HostGraph, big: HostGraph) -> bool:
    """True iff some injection carries red pairs to red and blue pairs to blue:
    `small` read as a pattern with every pair constrained."""
    pairs = lex_pairs(small.n)
    red = [p for p in pairs if small.red(*p)]
    blue = [p for p in pairs if not small.red(*p)]
    return count_injections(PatternGraph.of(small.n, red, blue), big) > 0


def flip_plans(h: PatternGraph) -> tuple:
    """What `flip_delta` needs of h: the pattern and one entry per
    automorphism orbit of ordered constrained pairs (a, b), as (a, b), whether
    the pair is red, and the orbit's size.  Two ordered pairs are in one orbit
    when h's layers relabelled by `_min_placements` with a and b fixed agree:
    the two relabellings then compose to an automorphism of h carrying one
    pair onto the other.  The counting plan that pins a and b is made on first
    use for each host size and cached."""
    layers = h.layers()
    orbits: dict = {}
    for a, b in sorted(h.red_pairs | h.blue_pairs):
        for pins in ((a, b), (b, a)):
            order = _min_placements(layers, fixed=pins)[0]
            code = tuple(_relabel_masks(masks, order) for masks in layers)
            rep = orbits.setdefault(code, [pins, (a, b) in h.red_pairs, 0])
            rep[2] += 1
    return h, tuple(map(tuple, orbits.values()))


def flip_delta(plans, red: list[int], blue: list[int], u: int, v: int) -> int:
    """Exact change of count_injections when host pair {u, v} changes colour.

    `plans` comes from flip_plans(h); `red` and `blue` are the host's masks
    before the flip.  Only copies that map a constrained pattern pair {a, b}
    onto {u, v} change: those whose {a, b} has the pair's current colour are
    lost, those of the other colour are gained.  Each ordered pair (a, b)
    contributes the injections that map a to u and b to v and meet every
    constraint but the one on {a, b}; that number does not depend on the
    colour of {u, v}, and an automorphism of h carrying (a, b) onto (c, d)
    makes it equal for the two pairs.  So it is counted once per orbit and
    multiplied by the orbit's size: 2 counts per flip for ac4 instead of 8.
    With a and b pinned, a count enumerates only the rest of the plan's
    prefix: O(n^(p-2)) leaves for a prefix of p, so O(n) popcounts for peenn
    and O(1) for a star on large hosts, against the O(n^h) of a full
    recount."""
    h, orbits = plans
    n = len(red)
    now_red = bool(red[u] >> v & 1)
    used = 1 << u | 1 << v
    delta = 0
    for pins, pair_red, size in orbits:
        plan = _plan(h, n, pins)
        copies = size * _extend(plan, red, blue, [u, v] + [0] * (len(plan.cons) - 2), 2, used)
        delta += -copies if pair_red == now_red else copies
    return delta


@dataclass(frozen=True)
class InducedProfile:
    """Counts of k-subsets of a host by the isomorphism class they induce."""

    k: int
    counts: dict

    def total(self) -> int:
        return sum(self.counts.values())


@lru_cache(maxsize=None)
def _mask_class_table(k: int) -> tuple[bytes, ...]:
    prs = lex_pairs(k)
    table = []
    for mask in range(1 << len(prs)):
        pairs = [prs[t] for t in range(len(prs)) if mask >> t & 1]
        table.append(canonical_form(HostGraph.from_red_pairs(k, pairs)))
    return tuple(table)


def profile_work(n: int, k: int) -> float:
    """The work, for `check_work`, of induced_profile taking the k-profile of
    an n-vertex host; raises for a k it does not support.

    induced_profile enumerates C(n, k - 2) prefixes and counts the host
    vertices after each by popcounts.  One prefix and host vertex costs
    0.7-1.7 units of `check_work` on random hosts (more for larger k), so the
    estimate is 2 C(n, k - 2) n, plus n^2 for reading or building the host,
    about one unit per ordered pair."""
    if not 1 <= k <= 5:
        raise UnsupportedSizeError("profiles support 1 <= k <= 5")
    if k > n:
        raise UsageError("k exceeds host size")
    return 2 * comb(n, max(k - 2, 0)) * n + n * n


def induced_profile(g: HostGraph, k: int) -> InducedProfile:
    """Exact induced k-profile; k <= 5, within the work budget (`profile_work`).

    Only the first k - 2 vertices of each k-subset are enumerated.  The host
    vertices after such a prefix fall into 2^(k-2) bitmask sets S_s by their
    colours s to it, and the last two vertices {d, e} are counted per pair of
    sets s <= t: red pairs by popcounts of masks[d] & S_t over d in S_s, all
    pairs as |S_s| |S_t|, or C(|S_s|, 2) within one set.  Swapping d and e
    does not change the induced class, so one order of each pair of sets is
    enough."""
    check_work(profile_work(g.n, k), "the host size or k")
    n, masks = g.n, g.masks
    table = _mask_class_table(k)
    raw = [0] * len(table)  # by the mask of the k-subset's red pairs
    if k == 1:
        raw[0] = n
    else:
        q = k - 2
        bit = {pr: 1 << t for t, pr in enumerate(lex_pairs(k))}
        # place[j][s]: the mask bits of a vertex at position j whose colours
        # to positions 0..j-1 are the bits of s
        place = [
            [sum(bit[i, j] for i in range(j) if s >> i & 1) for s in range(1 << j)]
            for j in range(k)
        ]
        d_bits, e_bits, de_bit = place[q], place[q + 1], bit[q, q + 1]

        def count_pairs(code: int, sets: list[int]) -> None:
            nonempty = [(s, S) for s, S in enumerate(sets) if S]
            for a, (s, S) in enumerate(nonempty):
                verts = []
                rest = S
                while rest:
                    low = rest & -rest
                    verts.append(masks[low.bit_length() - 1])
                    rest ^= low
                size = len(verts)
                base = code | d_bits[s]
                red = sum(map(int.bit_count, map(S.__and__, verts))) // 2
                raw[base | e_bits[s] | de_bit] += red
                raw[base | e_bits[s]] += size * (size - 1) // 2 - red
                for t, T in nonempty[a + 1 :]:
                    red = sum(map(int.bit_count, map(T.__and__, verts)))
                    raw[base | e_bits[t] | de_bit] += red
                    raw[base | e_bits[t]] += size * T.bit_count() - red

        def walk(depth: int, code: int, sets: list[int]) -> None:
            # sets[s]: the vertices after the prefix whose colours to it spell s
            if depth == q:
                count_pairs(code, sets)
                return
            for s, S in enumerate(sets):
                vcode = code | place[depth][s]
                while S:
                    low = S & -S
                    S ^= low
                    v = low.bit_length() - 1
                    after = -(low << 1)  # the vertices above v
                    red_after, blue_after = masks[v] & after, ~masks[v] & after
                    walk(
                        depth + 1,
                        vcode,
                        [T & blue_after for T in sets] + [T & red_after for T in sets],
                    )

        walk(0, 0, [(1 << n) - 1])
    counts: dict[bytes, int] = {}
    for mask, cnt in enumerate(raw):
        if cnt:
            code = table[mask]
            counts[code] = counts.get(code, 0) + cnt
    return InducedProfile(k, counts)


def normalized_density(count: int, n: int, h: int) -> float:
    """count / n^h, the scale on which profile values live."""
    if n < h:
        raise ValueError("host smaller than pattern")
    return count / n**h


def blowup_work(h: PatternGraph, parts: PartedHost) -> float:
    """A bound on the work of blowup_injections(h, parts), for `check_work`:
    each of its at most p^h leaves, for p parts, multiplies p falling
    factorials, and each inner node tries p parts."""
    return len(parts.sizes) ** (h.h + 1)


def blowup_injections(h: PatternGraph, parts: PartedHost) -> int:
    """Exact injection count into a parted host, in O(parts^(h+1)) time.

    Works for any pattern and any host size, since vertices inside a part are
    interchangeable."""
    p = len(parts.sizes)
    sizes = parts.sizes
    by_vertex: list[list[tuple[int, bool]]] = [[] for _ in range(h.h)]
    for i, j in sorted(h.red_pairs):
        by_vertex[j].append((i, True))
    for i, j in sorted(h.blue_pairs):
        by_vertex[j].append((i, False))

    def pair_red(pi: int, pj: int) -> bool:
        return parts.internal_red[pi] if pi == pj else parts.cross_red[pi][pj]

    assign = [0] * h.h
    used = [0] * p
    total = 0

    def rec(v: int):
        nonlocal total
        if v == h.h:
            mult = 1
            for pi in range(p):
                mult *= perm(sizes[pi], used[pi])
            total += mult
            return
        for pi in range(p):
            if used[pi] >= sizes[pi]:
                continue
            ok = True
            for u, isred in by_vertex[v]:
                if pair_red(assign[u], pi) != isred:
                    ok = False
                    break
            if ok:
                assign[v] = pi
                used[pi] += 1
                rec(v + 1)
                used[pi] -= 1
        return

    rec(0)
    return total


# ---------------------------------------------------------------------------
# built-in patterns


def ap4_pattern() -> PatternGraph:
    """Alternating 3-edge path: red, blue, red."""
    return PatternGraph.of(4, red=[(0, 1), (2, 3)], blue=[(1, 2)])


def ac4_pattern() -> PatternGraph:
    """Alternating 4-cycle: red, blue, red, blue."""
    return PatternGraph.of(4, red=[(0, 1), (2, 3)], blue=[(1, 2), (0, 3)])


def peenn_pattern() -> PatternGraph:
    """5-vertex path colored red, red, blue, blue."""
    return PatternGraph.of(5, red=[(0, 1), (1, 2)], blue=[(2, 3), (3, 4)])


def star_pattern(a: int, b: int) -> PatternGraph:
    """Star with a red and b blue leaves from one center."""
    if a < 0 or b < 0 or a + b == 0:
        raise UsageError("star needs a + b >= 1 leaves")
    red = [(0, i) for i in range(1, a + 1)]
    blue = [(0, i) for i in range(a + 1, a + b + 1)]
    return PatternGraph.of(1 + a + b, red=red, blue=blue)


def double_star_pattern(s: int) -> PatternGraph:
    """Two centers joined by a blue pair, each with s red leaves."""
    if s < 1:
        raise UsageError("double star needs s >= 1")
    red = [(0, i) for i in range(2, s + 2)] + [(1, i) for i in range(s + 2, 2 * s + 2)]
    return PatternGraph.of(2 * s + 2, red=red, blue=[(0, 1)])


def tree_pattern(edges) -> PatternGraph:
    """Monochromatic (all-red) tree pattern from an edge list: h - 1 distinct
    edges that connect the vertices 0..h-1."""
    es = [(min(i, j), max(i, j)) for i, j in edges]
    if any(i == j for i, j in es):
        raise UsageError("tree edges need two distinct vertices")
    h = max(j for _, j in es) + 1
    reach = [1 << v for v in range(h)]  # each vertex's component so far, as a bitmask
    for t, (i, j) in enumerate(es):
        if reach[i] >> j & 1:
            if (i, j) in es[:t]:
                raise UsageError(f"tree edge {i}-{j} is repeated")
            raise UsageError(f"tree edge {i}-{j} closes a cycle")
        joined = reach[i] | reach[j]
        for v in range(h):
            if joined >> v & 1:
                reach[v] = joined
    apart = ~reach[0] & ((1 << h) - 1)
    if apart:
        v = (apart & -apart).bit_length() - 1
        raise UsageError(f"tree edges do not connect vertex {v} to vertex 0")
    return PatternGraph.of(h, red=es)


def pattern_automorphism_order(h: PatternGraph) -> int:
    """Number of vertex permutations carrying h's red and blue pairs onto
    themselves: the minimizing placements times the orderings inside each
    twin class (see `graphs._min_placements`)."""
    layers = h.layers()
    twins = _twins(layers)
    order = len(_min_placements(layers, below=twins))
    for below in twins:
        order *= below.bit_count() + 1  # the i-th twin of a class adds a factor i
    return order
