"""Exact counting of semi-induced pattern copies and host statistics.

All counts are exact Python integers, so there is no overflow to manage even
at n = 10^4 with 6-vertex patterns.  The generic counter follows a plan made
once per pattern and host size (`_plan`): it enumerates a vertex cover of the
pattern's constraints and counts the remaining constrained vertices in one
loop over the candidates of the last enumerated vertex, by Moebius inversion
over set partitions, with popcounts of candidate masks.  On all but the
smallest hosts a tree-shaped pattern such as peenn or a double star therefore
costs O(n^2) popcount steps instead of the O(n^(h-1)) of enumerating every
vertex but the last.  `count_injections` and `count_work` also take a blow-up
(`graphs.PartedHost`) and a vertex-transitive `graphs.Circulant`, counted
with one pattern vertex pinned to host vertex 0.  A blow-up is counted from
one table, `_part_maps`: for each tuple of part multiplicities u, the number
c of maps from the pattern's vertices to the parts that respect its colours.
Part sizes s give sum c * prod (s_i)_(u_i) injections; the same table with
part weights w gives the step construction's limit density,
sum c * prod w_i^(u_i).
`flip_delta` gives the exact change of a count when one host pair flips
colour, with one pinned count per automorphism orbit of the pattern's ordered
constrained pairs, whose plans `flip_plans` resolves once per host size.  The
test suite checks the counters against a plain backtracker.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial, perm
from typing import NamedTuple

from . import UnsupportedSizeError, UsageError, as_units, check_work
from .graphs import (
    Circulant,
    HostGraph,
    PartedHost,
    PatternGraph,
    _min_placements,
    _relabel_masks,
    _twins,
    blue_masks,
    canonical_form,
    lex_pairs,
    parse_host,
    realize,
)


class DegreeStats(NamedTuple):
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


def sum_blue_degree_products(g: HostGraph) -> int:
    """Sum of d_u * d_v over blue pairs uv."""
    dp = g.degrees()
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
    leaf: tuple  # per batch vertex: (its constraints before the last prefix
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

# Making a circulant's red masks and their blue complements, n rotations and
# complements of n-bit ints, costs about 1 + n / 800 units per vertex, as
# timed at n = 300 to 20,000.
_ROTATED_HOST = 800

# Those masks take 2 n^2 bits, which the work budget, a bound on time, does
# not cover: 256 MB at this n.
MAX_CIRCULANT_N = 2**15


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
    split of each batch vertex's constraints into those to earlier positions
    and the colour of its pair to the last prefix position, which `_extend`
    counts together with the batch; plans are cached per (h, n, pinned),
    with the estimated total as `cost`."""
    nbr = [r | b for r, b in zip(h.red, h.blue)]  # constraint neighbours as bitmasks
    deg = [m.bit_count() for m in nbr]
    fixed = sum(1 << v for v in pinned)
    loose = [v for v in range(h.h) if nbr[v] and not fixed >> v & 1]

    cover = 0
    uncovered = [1 << i | 1 << j for i in loose for j in loose if j > i and nbr[i] >> j & 1]
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
            (pos_of[u], bool(h.red[v] >> u & 1))
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
        leaf=tuple(
            (
                tuple((ep, isred) for ep, isred in r if ep < last),
                next((isred for ep, isred in r if ep == last), None),
            )
            for r in rows
        ),
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
    `_extend` counts every batch with the last prefix level; a batch of one
    takes one popcount per vertex placed there, so it adds nothing, and a
    larger one its `_leaf_work` per vertex placed.  `_plan`'s own estimate
    halves the candidates per constraint instead, which is the mean over all
    colorings but no bound for any one host."""
    nodes = work = 1
    for p in range(start, len(plan.cons)):
        width = n - p
        for _, isred in plan.cons[p]:
            width = min(width, red_max if isred else blue_max)
        nodes *= max(width, 0)
        work += nodes
    nodes, work = as_units(nodes), as_units(work)
    if len(plan.batch) != 1:
        work += nodes * _leaf_work(len(plan.batch))
    return _CALL_WORK + work * (1 + n / _WIDE_HOST)


def _extend(plan: _Plan, red, blue, assign: list[int], pos: int, used: int) -> int:
    """Number of ways to place positions pos.. of `plan` into the host with
    red/blue masks `red`/`blue`, given assign[:pos] (bitset `used`).

    Only the prefix is enumerated.  The batch vertices get candidate masks
    M_i, and their injective placements number
    sum over set partitions pi of mu(pi) prod_{B in pi} |cap_{i in B} M_i|
    (Moebius inversion over the partition lattice).  The batch is counted
    together with the last prefix level, so no leaf costs a call: each batch
    vertex's constraints to earlier positions give it a base mask once per
    node of the level above, and each candidate c for the last position
    narrows the base to M_i by red[c] (or blue) when the vertex has a
    constraint to that position, else by dropping c.  The loop over c adds
    |M_0| for a batch of one, |M_0| |M_1| - |M_0 & M_1| for a batch of two,
    and the Moebius sum for a larger one, whose subsets' intersections of
    bases are also taken once per node; an unconstrained batch of one adds
    |cands| |base| - |cands & base| for the whole level.  (A plan with an
    unpinned prefix vertex has a batch: the last constraint its cover meets
    leaves one end out.)  The tail adds a falling factorial.  The cost is
    the number of prefix leaves, at most n^p for p unpinned prefix
    positions, times about 2^b + Bell(b) big-int operations for a batch of
    b: O(n^2) for peenn and the double stars, whose covers have two
    vertices, once n is large enough (10 for peenn, 7 for ds:2) that their
    plans keep the whole batch."""
    cons, batch, steps, terms, leaf, tail, _ = plan
    n = len(red)
    full = (1 << n) - 1
    depth = len(cons)
    scale = perm(max(n - depth - len(batch), 0), tail)
    if not scale:
        return 0
    if pos == depth:  # no prefix position is left to place: the Moebius sum
        masks = []
        for r in batch:
            m = full & ~used
            for ep, isred in r:
                m &= red[assign[ep]] if isred else blue[assign[ep]]
            masks.append(m)
        inter = [-1] * (1 << len(batch))  # inter[0] = -1 is the empty intersection
        sizes = [0] * len(inter)
        for s, rest, i in steps:
            inter[s] = m = inter[rest] & masks[i]
            sizes[s] = m.bit_count()
        total = 0
        for coef, blocks in terms:
            for s in blocks:
                coef *= sizes[s]
            total += coef
        return scale * total

    def rec(pos: int, used: int) -> int:
        free = full & ~used
        cands = free
        for ep, isred in cons[pos]:
            cands &= red[assign[ep]] if isred else blue[assign[ep]]
        total = 0
        if pos < depth - 1:
            while cands:
                low = cands & -cands
                cands ^= low
                assign[pos] = low.bit_length() - 1
                total += rec(pos + 1, used | low)
            return total
        if len(leaf) == 1:
            ((early, last),) = leaf
            base = free
            for ep, isred in early:
                base &= red[assign[ep]] if isred else blue[assign[ep]]
            if last is None:
                return cands.bit_count() * base.bit_count() - (cands & base).bit_count()
            layer = red if last else blue
            while cands:
                low = cands & -cands
                cands ^= low
                total += (layer[low.bit_length() - 1] & base).bit_count()
            return total
        bases = []
        for early, _ in leaf:
            base = free
            for ep, isred in early:
                base &= red[assign[ep]] if isred else blue[assign[ep]]
            bases.append(base)
        if len(bases) == 2:
            (b0, b1), ((_, last0), (_, last1)) = bases, leaf
            l0 = None if last0 is None else red if last0 else blue
            l1 = None if last1 is None else red if last1 else blue
            while cands:
                low = cands & -cands
                cands ^= low
                c = low.bit_length() - 1
                m0 = b0 & ~low if l0 is None else b0 & l0[c]
                m1 = b1 & ~low if l1 is None else b1 & l1[c]
                total += m0.bit_count() * m1.bit_count() - (m0 & m1).bit_count()
            return total
        # per subset of the batch: the intersection of its bases, and which
        # layers its constraints to the last position take (1 red, 2 blue);
        # one that takes both is empty, as red[c] & blue[c] is
        inter = [-1] * (1 << len(bases))
        kinds = [0] * len(inter)
        sizes = [0] * len(inter)
        subsets = []
        for s, rest, i in steps:
            inter[s] = m = inter[rest] & bases[i]
            last = leaf[i][1]
            kinds[s] = kind = kinds[rest] | (0 if last is None else 1 if last else 2)
            if kind < 3:
                subsets.append((s, m, (None, red, blue)[kind]))
        while cands:
            low = cands & -cands
            cands ^= low
            c = low.bit_length() - 1
            for s, m, layer in subsets:
                if layer is None:
                    sizes[s] = m.bit_count() - (m >> c & 1)
                else:
                    sizes[s] = (m & layer[c]).bit_count()
            for coef, blocks in terms:
                for s in blocks:
                    coef *= sizes[s]
                total += coef
        return total

    return scale * rec(pos, used)


def count_injections(h: PatternGraph, g: HostGraph | PartedHost | Circulant) -> int:
    """Number of injections respecting red->red and blue->blue on constrained
    pairs; free pairs are unconstrained.  Returns 0 when h has more vertices
    than g.  In a circulant each host vertex is the image of a given pattern
    vertex equally often: the count is n times the injections that send the
    most constrained one to host vertex 0 (for n up to MAX_CIRCULANT_N)."""
    if h.h > g.n:
        return 0
    if isinstance(g, PartedHost):
        return blowup_injections(h, g)
    if isinstance(g, Circulant):
        if g.n > MAX_CIRCULANT_N:
            raise UnsupportedSizeError(
                f"circulants are capped at n <= {MAX_CIRCULANT_N} (memory guard)"
            )
        plan = _pinned_plan(h, g.n)
        return g.n * _extend(plan, g.masks, blue_masks(g.masks), [0] * len(plan.cons), 1, 1)
    plan = _plan(h, g.n)
    return _extend(plan, g.masks, blue_masks(g.masks), [0] * len(plan.cons), 0, 0)


def _pinned_plan(h: PatternGraph, n: int) -> _Plan:
    """The plan that pins h's most constrained vertex (the first of several)."""
    pin = max(range(h.h), key=lambda v: ((h.red[v] | h.blue[v]).bit_count(), -v))
    return _plan(h, n, (pin,))


def count_work(h: PatternGraph, g: HostGraph | PartedHost | Circulant) -> float:
    """A bound on the work of count_injections(h, g), for `check_work`: a
    blow-up of p parts has at most p^h leaves, each multiplying p falling
    factorials; other counts are bounded from the largest red and blue
    degrees, plus the making of a circulant's masks.  A pattern with more
    vertices than the host has no copy, and costs only the call."""
    if h.h > g.n:
        return _CALL_WORK
    if isinstance(g, PartedHost):
        return len(g.sizes) ** (h.h + 1)
    if isinstance(g, Circulant):
        n = g.n
        masks = n * (1 + n / _ROTATED_HOST)
        return _work(_pinned_plan(h, n), n, 1, g.degree, n - 1 - g.degree) + masks
    degrees = g.degrees()
    return _work(_plan(h, g.n), g.n, 0, max(degrees), g.n - 1 - min(degrees))


# what to reduce when a count in each host shape is over the work budget
_REDUCE = {HostGraph: "the host or the pattern", Circulant: "n",
           PartedHost: "the number of parts or the pattern's vertices"}


def check_count(h: PatternGraph, g: HostGraph | PartedHost | Circulant, profile=0) -> None:
    """One budget check for count_injections(h, g) plus `profile` units of an
    induced profile; the message names what to reduce for the larger."""
    units = count_work(h, g)
    check_work(units + profile, _REDUCE[type(g)] if units >= profile else "the host size or k")


def is_induced_subgraph(small: HostGraph, big: HostGraph) -> bool:
    """True iff some injection carries red pairs to red and blue pairs to blue:
    `small` read as a pattern with every pair constrained."""
    return count_injections(PatternGraph(small.n, small.masks, small.complement().masks), big) > 0


def flip_plans(h: PatternGraph, n: int) -> tuple:
    """What `flip_delta` needs of h on n-vertex hosts: one entry per
    automorphism orbit of ordered constrained pairs (a, b), as (a, b), whether
    the pair is red, the orbit's size, and the counting plan that pins a and
    b.  Two ordered pairs are in one orbit when h's layers relabelled by
    `_min_placements` with a and b fixed agree: the two relabellings then
    compose to an automorphism of h carrying one pair onto the other."""
    layers = h.layers()
    orbits: dict = {}
    for a, b in combinations(range(h.h), 2):
        if not (h.red[a] | h.blue[a]) >> b & 1:
            continue  # a free pair
        for pins in ((a, b), (b, a)):
            order = _min_placements(layers, fixed=pins)[0]
            code = tuple(_relabel_masks(masks, order) for masks in layers)
            rep = orbits.setdefault(code, [pins, bool(h.red[a] >> b & 1), 0])
            rep[2] += 1
    return tuple(
        (pins, pair_red, size, _plan(h, n, pins)) for pins, pair_red, size in orbits.values()
    )


def flip_delta(plans, red: list[int], blue: list[int], u: int, v: int) -> int:
    """Exact change of count_injections when host pair {u, v} changes colour.

    `plans` comes from flip_plans(h, n) for the host's n; `red` and `blue`
    are the host's masks before the flip.  Only copies that map a
    constrained pattern pair {a, b} onto {u, v} change: those whose {a, b}
    has the pair's current colour are lost, those of the other colour are
    gained.  Each ordered pair (a, b) contributes the injections that map a
    to u and b to v and meet every constraint but the one on {a, b}; that
    number does not depend on the colour of {u, v}, and an automorphism of h
    carrying (a, b) onto (c, d) makes it equal for the two pairs.  So it is
    counted once per orbit and multiplied by the orbit's size: 2 counts per
    flip for ac4 instead of 8.  With a and b pinned, a count enumerates only
    the rest of the plan's prefix: O(n^(p-2)) leaves for a prefix of p, so
    O(n) popcounts for peenn and O(1) for a star on large hosts, against
    the O(n^h) of a full recount."""
    now_red = bool(red[u] >> v & 1)
    used = 1 << u | 1 << v
    delta = 0
    for _, pair_red, size, plan in plans:
        copies = size * _extend(plan, red, blue, [u, v] + [0] * (len(plan.cons) - 2), 2, used)
        delta += -copies if pair_red == now_red else copies
    return delta


@lru_cache(maxsize=None)
def _mask_class_table(k: int) -> tuple[bytes, ...]:
    """The class code of each k-vertex host, indexed by the mask of its red
    pairs over lex_pairs(k).  `canonical_form` runs once per isomorphism
    class: each of the k! relabellings of the first mask met in a class gets
    that mask's code."""
    prs = lex_pairs(k)
    index = {pr: t for t, pr in enumerate(prs)}
    images = [  # per relabelling, the mask bit each pair goes to
        [1 << index[min(p[i], p[j]), max(p[i], p[j])] for i, j in prs]
        for p in permutations(range(k))
    ]
    table = [b""] * (1 << len(prs))
    for mask in range(len(table)):
        if not table[mask]:
            red = [t for t in range(len(prs)) if mask >> t & 1]
            code = canonical_form(HostGraph.from_red_pairs(k, [prs[t] for t in red]))
            for image in images:
                table[sum(map(image.__getitem__, red))] = code
    return tuple(table)


def profile_work(n: int, k: int) -> float:
    """The work, for `check_work`, of induced_profile taking the k-profile of
    an n-vertex host; raises for a k it does not support.

    induced_profile enumerates C(n, k - 2) prefixes and counts the host
    vertices after each by popcounts.  One prefix and host vertex costs
    0.4-1.2 units of `check_work` on random hosts of 30 to 2,000 vertices
    (k = 3 to 5, each timed against the generic counter on one 2-core Intel
    Xeon), so the estimate is 2 C(n, k - 2) n, plus n^2 for reading or
    building the host, about one unit per ordered pair."""
    if not 1 <= k <= 5:
        raise UnsupportedSizeError("profiles support 1 <= k <= 5")
    if k > n:
        raise UsageError("k exceeds host size")
    return 2 * comb(n, max(k - 2, 0)) * n + n * n


# A class of vertices whose masks fit in this many bits is packed into one int;
# a larger one is counted mask by mask.  Shifting each mask into a growing int
# costs time quadratic in the class's size, and once masks are a few thousand
# bits long each one's popcount outweighs the Python work around it.  On
# random hosts of 150 to 2,000 vertices (k = 3 and 4), 2,048 to 8,192 bits
# did equally well within the timing noise.
_PACK_BITS = 4096


@lru_cache(maxsize=None)
def _profile_layout(k: int) -> tuple:
    """Where induced_profile writes a k-subset, as bits of the mask of its
    red pairs over lex_pairs(k): place[j][s], the bits of a vertex at
    position j whose colours to positions 0..j-1 are the bits of s; and per
    code of a prefix of k - 2 vertices (one code per colouring of its own
    pairs), red_cells[code][s][t], the bits of a k-subset that extends it by
    a red pair {d, e} with colours s and t to the prefix."""
    q = k - 2
    bit = {pr: 1 << t for t, pr in enumerate(lex_pairs(k))}
    place = [
        [sum(bit[i, j] for i in range(j) if s >> i & 1) for s in range(1 << j)]
        for j in range(k)
    ]
    codes = [0]
    for i, j in lex_pairs(q):
        codes += [code | bit[i, j] for code in codes]
    classes, de_bit = range(1 << q), bit[q, q + 1]
    red_cells = {
        code: [[code | place[q][s] | place[q + 1][t] | de_bit for t in classes] for s in classes]
        for code in codes
    }
    return place, red_cells


def induced_profile(g: HostGraph, k: int) -> dict[bytes, int]:
    """Exact induced k-profile: {class code: number of k-subsets of the host
    that induce that class}; k <= 5, within the work budget (`profile_work`).

    Only the first k - 2 vertices of each k-subset are enumerated.  The host
    vertices after such a prefix fall into 2^(k-2) classes S_s by their
    colours s to it, and the last two vertices {d, e} are counted per pair of
    classes: swapping d and e does not change the induced class, so one
    order of each pair of classes is enough.  The red pairs between S_s and
    S_t take one AND and one popcount: the masks of S_s's vertices packed
    into the fields of one int against S_t repeated in every field; a class
    too large to pack (`_PACK_BITS`) is counted mask by mask.  The pairs of
    two classes number |S_s| |S_t|, or C(|S_s|, 2) within one; one big-int
    product per prefix, of its class sizes laid out as digits, sums them per
    prefix code, and the blue pairs are the difference, taken at the end."""
    check_work(profile_work(g.n, k), "the host size or k")
    n, masks = g.n, g.masks
    table = _mask_class_table(k)
    raw = [0] * len(table)  # by the mask of the k-subset's red pairs
    if k == 1:
        raw[0] = n
    else:
        q, full = k - 2, (1 << n) - 1
        m = 1 << q  # colour classes after a prefix
        place, red_cells = _profile_layout(k)
        de_bit = red_cells[0][0][0]  # the bit of the pair {d, e}
        # digits wide enough for a sum over all prefixes of |S_s| |S_t|
        digit = (comb(n, q) * n * n).bit_length() + 1
        left = [s * m * digit for s in range(m)]
        right = [s * digit for s in range(m)]
        pairs = dict.fromkeys(red_cells, 0)  # per prefix code: |S_s| |S_t| at digit s m + t
        sizes = dict.fromkeys(red_cells, 0)  # per prefix code: |S_s| at digit s
        short = max(1, min(n, _PACK_BITS // n))  # the most masks packed into one int
        # repeat[j]: a 1 at the start of each of j fields of n bits
        repeat = [((1 << j * n) - 1) // full for j in range(short + 1)]

        def count_pairs(code: int, sets: list[int]) -> None:
            rows = red_cells[code]
            packed, listed = [], []
            big = 1  # the most fields of a packed class so far
            lay_left = lay_right = 0
            for s, S in enumerate(sets):
                if S:
                    size = S.bit_count()
                    lay_left += size << left[s]
                    lay_right += size << right[s]
                    T = S
                    if size <= short:  # P_s: its masks in the fields of one int
                        if size > big:
                            big = size
                        P = 0
                        while S:
                            d = S.bit_length() - 1
                            S ^= 1 << d
                            P = P << n | masks[d]
                        packed.append((rows[s], P, s, T * repeat[big]))
                    else:
                        verts = []
                        while S:
                            d = S.bit_length() - 1
                            S ^= 1 << d
                            verts.append(masks[d])
                        listed.append((rows[s], verts, s, T))
            pairs[code] += lay_left * lay_right
            sizes[code] += lay_right
            # ordered red pairs (d, e), d in S_s and e in S_t, for each pair of
            # classes once: a packed class against each later one (T repeated
            # in as many fields as any packed class before it has), a listed
            # class against every packed one and each listed one from itself on
            for (row, P, _, _), (_, _, t, T) in combinations_with_replacement(packed, 2):
                raw[row[t]] += (P & T).bit_count()
            for i, (row, verts, _, _) in enumerate(listed):
                for _, _, t, T in packed + listed[i:]:
                    raw[row[t]] += sum(map(int.bit_count, map(T.__and__, verts)))

        def walk(depth: int, code: int, sets: list[int]) -> None:
            # sets[s]: the vertices after the prefix whose colours to it spell s
            room = full >> (k - 1 - depth)  # a vertex here needs k - 1 - depth after it
            for s, S in enumerate(sets):
                vcode = code | place[depth][s]
                S &= room
                while S:
                    low = S & -S
                    S ^= low
                    v = low.bit_length() - 1
                    after = -(low << 1)  # the vertices above v
                    split = [T & x for x in (~masks[v] & after, masks[v] & after) for T in sets]
                    if depth + 1 == q:
                        count_pairs(vcode, split)
                    else:
                        walk(depth + 1, vcode, split)

        if q:
            walk(0, 0, [full])
        else:
            count_pairs(0, [full])
        low_digit = (1 << digit) - 1
        for code, both in pairs.items():
            for s in range(m if both else 0):
                for t in range(s, m):
                    total = both >> (s * m + t) * digit & low_digit
                    if not total:
                        continue
                    red_at = red_cells[code][s][t]
                    if s == t:  # ordered pairs within one class: halve
                        total = (total - (sizes[code] >> s * digit & low_digit)) // 2
                        raw[red_at] //= 2
                        red = raw[red_at]
                    else:  # swapping d and e keeps the class, so either order counts
                        red = raw[red_at] + raw[red_cells[code][t][s]]
                    raw[red_at ^ de_bit] += total - red
    counts: dict[bytes, int] = {}
    for mask, cnt in enumerate(raw):
        if cnt:
            code = table[mask]
            counts[code] = counts.get(code, 0) + cnt
    return counts


def normalized_density(count: int, n: int, h: int) -> float:
    """count / n^h, the scale on which profile values live."""
    if n < h:
        raise ValueError("host smaller than pattern")
    return count / n**h


def _part_maps(h: PatternGraph, internal_red, cross_red) -> dict[tuple[int, ...], int]:
    """The maps from h's vertices to the parts of a step construction (each
    part one colour inside, `internal_red`, and each pair of parts one colour
    across, `cross_red`) that respect h's red and blue pairs, counted by the
    number of vertices each part receives: {multiplicities: maps}.

    A blow-up with part sizes s has sum maps * prod (s_i)_(u_i) injections,
    and the step construction with part weights w has limit density
    sum maps * prod w_i^(u_i)."""
    p = len(internal_red)
    red = [[internal_red[i] if i == j else cross_red[i][j] for j in range(p)] for i in range(p)]
    by_vertex = [  # per vertex: (earlier vertex, pair is red), the red pairs first
        [(i, True) for i in range(j) if h.red[j] >> i & 1]
        + [(i, False) for i in range(j) if h.blue[j] >> i & 1]
        for j in range(h.h)
    ]
    assign = [0] * h.h
    used = [0] * p
    table: dict[tuple[int, ...], int] = {}

    def rec(v: int):
        if v == h.h:
            key = tuple(used)
            table[key] = table.get(key, 0) + 1
            return
        for pi in range(p):
            for u, isred in by_vertex[v]:
                if red[assign[u]][pi] != isred:
                    break
            else:
                assign[v] = pi
                used[pi] += 1
                rec(v + 1)
                used[pi] -= 1

    rec(0)
    return table


def blowup_injections(h: PatternGraph, parts: PartedHost) -> int:
    """Exact injection count into a parted host, in O(parts^(h+1)) time, from
    `_part_maps`: any pattern and any host size, since vertices inside a part
    are interchangeable."""
    total = 0
    for used, maps in _part_maps(h, parts.internal_red, parts.cross_red).items():
        for s, u in zip(parts.sizes, used):
            maps *= perm(s, u)
        total += maps
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


# ---------------------------------------------------------------------------
# the `count` command

# the profile curve that `count` evaluates at the host's red density, by
# pattern argument; a ds:<s> pattern names its own curve
_CURVE_FOR_PATTERN = {
    "ap4": "ap4",
    "ac4": "ac4",
    "peenn": "peenn",
    "s:2,1": "s21",
}


def cmd_count(args) -> int:
    from .cli import _read_text, _reject_unread, construct_from_arg, pattern_from_arg
    from .profiles import curve, eval_curve

    h = pattern_from_arg(args.pattern)
    if args.host and args.construct:
        raise UsageError("give either --host or --construct, not both")
    if args.construct:
        if args.n is None:
            raise UsageError("--construct requires --n")
        spec = construct_from_arg(args.construct)
        g = realize(spec, args.n)  # a blow-up or a circulant, built only for a profile
        host_desc = f"{spec.name}:n={args.n}"
    elif args.host:
        _reject_unread(args, ("--n",), "with --host")
        text = args.host
        if text.startswith("@"):
            text = _read_text(text[1:])
        g = parse_host(text)
        host_desc = g.to_text()
    else:
        raise UsageError("count needs --host or --construct")
    n = g.n
    check_count(h, g, 0 if args.profile_k is None else profile_work(n, args.profile_k))
    count = count_injections(h, g)
    rho = normalized_density(count, n, h.h) if n >= h.h else 0.0
    npairs = n * (n - 1) // 2
    beta = g.red_count() / npairs if npairs else 0.0
    print(f"pattern={h.to_text()!r} host={host_desc!r} count={count} rho={rho:.12g}")
    if args.profile_k is not None:
        prof = induced_profile(g.to_host(), args.profile_k)
        print("class_code,count")
        for code in sorted(prof):
            print(f"{code.decode()},{prof[code]}")
    curve_tag = _CURVE_FOR_PATTERN.get(args.pattern)
    if args.pattern.startswith("ds:"):
        curve_tag = args.pattern
    if curve_tag:
        cv = eval_curve(curve(curve_tag), beta)
        print(
            f"curve={curve_tag} beta={beta:.12g} value={cv.value:.12g} "
            f"in_range={int(cv.in_range)}"
        )
    return 0
