"""Finite extremal search over colorings.

`exact_max` and `full_profile` walk isomorphism classes (exact up to n = 8);
`brute_force_profile` is the independent oracle that walks every raw coloring
(n <= 6 within the work budget).  `hill_climb` generates lower-bound colorings by
single-pair flips, or red/blue swaps when the density is pinned.  It scores
each start in full and each move by its exact change in count (see
`counting.flip_delta`), which counts only the copies that map a constrained
pattern pair onto a flipped pair, once per automorphism orbit of the pinned
ordered pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from . import UnsupportedSizeError, UsageError, check_work
from .graphs import (
    MAX_CANONICAL_N,
    ConstructionSpec,
    HostGraph,
    PatternGraph,
    _MAX_INTERNAL_K,
    _graph_classes,
    canonical_form,
    lex_pairs,
    make_construction,
)
from .counting import _plan, _work, count_injections, flip_delta, flip_plans

# Work of the climb and the oracle outside the counts, in `check_work`'s unit
# (timed on a 2-vertex pattern, whose counts cost almost nothing): each host
# pair that a raw host, a start or a restart walks (lex_pairs, sampling,
# validating the host), and each flip's own bookkeeping.
_PAIR_WORK = 5
_FLIP_WORK = 12

_STEPS_PER_VERTEX = 60  # a climb from one start proposes 60n moves


@dataclass(frozen=True)
class SearchResult:
    best_count: int
    witnesses: tuple[bytes, ...]
    per_edge_count: dict | None = None


def _best_per_m(h: PatternGraph, n: int, m: int | None = None) -> dict:
    """The one class sweep: red-pair count -> (best injection count, canonical
    codes of the classes reaching it), over the classes with m red pairs
    only when m is given."""
    if n > _MAX_INTERNAL_K:
        raise UnsupportedSizeError(
            f"exact search is capped at n <= {_MAX_INTERNAL_K}; use hill_climb"
        )
    npairs = comb(n, 2)
    if m is not None and not 0 <= m <= npairs:
        raise UsageError(f"m must lie in [0, {npairs}]")
    per_m: dict[int, tuple[int, list[bytes]]] = {}
    for g in _graph_classes(n):
        red = g.red_count()
        if m is not None and red != m:
            continue
        c = count_injections(h, g)
        best = per_m.get(red)
        if best is None or c > best[0]:
            per_m[red] = (c, [g.to_text().encode()])
        elif c == best[0]:
            best[1].append(g.to_text().encode())
    return per_m


def _overall(per_m: dict) -> tuple[int, tuple[bytes, ...]]:
    best = max(c for c, _ in per_m.values())
    return best, tuple(sorted(w for c, ws in per_m.values() if c == best for w in ws))


def exact_max(h: PatternGraph, n: int, m: int | None = None) -> SearchResult:
    """True maximum of the injection count over all n-vertex colorings, with
    exactly m red pairs when m is given.  Witnesses are canonical codes."""
    return SearchResult(*_overall(_best_per_m(h, n, m)))


def full_profile(h: PatternGraph, n: int) -> SearchResult:
    """exact_max for every red-pair count m in one sweep."""
    per_m = _best_per_m(h, n)
    return SearchResult(*_overall(per_m), {m: per_m[m][0] for m in sorted(per_m)})


def brute_force_profile(h: PatternGraph, n: int) -> dict:
    """Per-m maxima over every raw coloring of K_n.  Independent oracle: no
    canonicalization, no class enumeration.  The work is checked first: each
    of the 2^C(n,2) colorings is built pair by pair and counted, and `_plan`'s
    estimate of a count is its mean over all colorings."""
    npairs = comb(n, 2)
    check_work(2**npairs * (npairs * _PAIR_WORK + _plan(h, n).cost), "n")
    prs = lex_pairs(n)
    per_m = {m: -1 for m in range(len(prs) + 1)}
    for colored in range(1 << len(prs)):
        masks = [0] * n
        rest = colored
        idx = 0
        while rest:
            if rest & 1:
                _flip(masks, *prs[idx])
            rest >>= 1
            idx += 1
        g = HostGraph(n, tuple(masks))
        m = colored.bit_count()
        c = count_injections(h, g)
        if c > per_m[m]:
            per_m[m] = c
    return per_m


def _make_counter(h: PatternGraph):
    """The climb's host -> count function; perfbench/tracer.py wraps it by
    name to count climb evaluations."""
    return lambda g: count_injections(h, g)


def _random_masks(n: int, m: int, rng: random.Random) -> list[int]:
    prs = lex_pairs(n)
    chosen = rng.sample(range(len(prs)), m)
    masks = [0] * n
    for t in chosen:
        _flip(masks, *prs[t])
    return masks


def _adjust_edge_count(masks: list[int], n: int, m_target: int, rng: random.Random):
    prs = lex_pairs(n)
    current = sum(mk.bit_count() for mk in masks) // 2
    red = [t for t, (i, j) in enumerate(prs) if masks[i] >> j & 1]
    red_set = set(red)
    blue = [t for t in range(len(prs)) if t not in red_set]
    rng.shuffle(red)
    rng.shuffle(blue)
    while current > m_target:
        _flip(masks, *prs[red.pop()])
        current -= 1
    while current < m_target:
        _flip(masks, *prs[blue.pop()])
        current += 1


def _flip(masks: list[int], i: int, j: int):
    masks[i] ^= 1 << j
    masks[j] ^= 1 << i


def _sample_pair(red: list[int], prs, rng: random.Random, color: int):
    """A uniform pair of the given colour (1 red, 0 blue) by rejection
    sampling, which keeps the rng stream deterministic; None after 64 tries
    per pair."""
    for _ in range(64 * len(prs)):
        a, b = prs[rng.randrange(len(prs))]
        if red[a] >> b & 1 == color:
            return a, b
    return None


def _climb_work(plans, n: int, starts: int, restarts: int, flips: int) -> float:
    """A bound on hill_climb's work: a full count of each start and restart,
    and 60n steps per restart of `flips` flips each, every flip paying its
    bookkeeping and one pinned count per orbit of `plans` (see `flip_delta`),
    plus the host pairs that each start and restart walks.  The host changes
    as the climb goes, so the counts are bounded with n - p candidates at
    prefix position p whatever the constraints."""
    h, orbits = plans
    full = _work(_plan(h, n), n, 0, n, n)
    flip = _FLIP_WORK + sum(_work(_plan(h, n, pins), n, 2, n, n) for pins, _, _ in orbits)
    walks = (1 + starts + restarts) * comb(n, 2) * _PAIR_WORK
    return (starts + restarts) * full + restarts * _STEPS_PER_VERTEX * n * flips * flip + walks


def hill_climb(
    h: PatternGraph,
    n: int,
    target_density: float | None = None,
    restarts: int = 0,
    seed: int = 0,
    seeds=(),
) -> SearchResult:
    """Stochastic local search for high-count colorings.

    Seeds may be ConstructionSpec or HostGraph values; they are evaluated
    as-is (after pinning the red-pair count when target_density is given),
    and each restart climbs from one of them by single-pair flips, or by
    red/blue swap moves when the density is pinned.  restarts=0 just scores
    the seeds.  Starts are counted in full, moves by their exact change in
    count.  Deterministic for a fixed seed.  The work is checked before any
    is done (`_climb_work`)."""
    if n < 2:
        raise UsageError(f"hill climbing needs n >= 2 (got n={n})")
    if n < h.h:
        raise UsageError(f"hill climbing needs n >= the pattern's {h.h} vertices (got n={n})")
    if target_density is not None and not 0 <= target_density <= 1:
        raise UsageError(f"target density must lie in [0, 1] (got {target_density})")
    if restarts < 0:
        raise UsageError(f"restarts must be non-negative (got {restarts})")
    plans = flip_plans(h)
    flips = 1 if target_density is None else 2
    check_work(_climb_work(plans, n, max(len(seeds), 1), restarts, flips), "n or restarts")
    rng = random.Random(seed)
    counter = _make_counter(h)
    npairs = comb(n, 2)
    full = (1 << n) - 1
    m_target = None
    if target_density is not None:
        m_target = round(target_density * npairs)

    starts: list[list[int]] = []
    for s in seeds:
        host = make_construction(s, n) if isinstance(s, ConstructionSpec) else s
        starts.append(list(host.masks))
    if not starts:
        m0 = m_target if m_target is not None else npairs // 2
        starts.append(_random_masks(n, m0, rng))
    if m_target is not None:
        for masks in starts:
            _adjust_edge_count(masks, n, m_target, rng)

    best = -1
    best_masks: list[int] = []
    for masks in starts:
        c = counter(HostGraph(n, tuple(masks)))
        if c > best:
            best, best_masks = c, list(masks)

    plateau_cap = 2 * n
    prs = lex_pairs(n)

    for r in range(restarts):
        red = list(starts[r % len(starts)])
        if r >= len(starts):
            # perturb repeated starts so restarts explore new basins
            for _ in range(max(1, n // 10)):
                i, j = prs[rng.randrange(npairs)]
                _flip(red, i, j)
            if m_target is not None:
                _adjust_edge_count(red, n, m_target, rng)
        cur = counter(HostGraph(n, tuple(red)))
        blue = [full ^ m ^ (1 << v) for v, m in enumerate(red)]
        plateau = 0
        for _ in range(_STEPS_PER_VERTEX * n):
            if m_target is None:
                moves = [prs[rng.randrange(npairs)]]
            else:
                # swap one red and one blue pair
                pick = _sample_pair(red, prs, rng, 1)
                pick2 = None if pick is None else _sample_pair(red, prs, rng, 0)
                if pick2 is None:
                    break
                moves = [pick, pick2]
            cand = cur
            for a, b in moves:
                cand += flip_delta(plans, red, blue, a, b)
                _flip(red, a, b)
                _flip(blue, a, b)
            if cand > cur:
                cur = cand
                plateau = 0
            elif cand == cur and plateau < plateau_cap:
                plateau += 1
            else:
                for a, b in moves:
                    _flip(red, a, b)
                    _flip(blue, a, b)
                continue
            if cur > best:
                best, best_masks = cur, list(red)

    host = HostGraph(n, tuple(best_masks))
    witness = canonical_form(host) if n <= MAX_CANONICAL_N else host.to_text().encode()
    return SearchResult(best, (witness,))
