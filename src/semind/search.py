"""Finite extremal search over colorings.

`exact_max` and `full_profile` walk isomorphism classes (exact up to n = 8);
`full_profile` returns the same `{m: best}` dict as `brute_force_profile`, the
independent oracle that walks every raw coloring (n <= 6 within the work
budget).  `hill_climb` generates lower-bound colorings from one start by
single-pair flips, or red/blue swaps when the density is pinned.  It counts
the start and each restart in full and each move by its exact change in
count (see `counting.flip_delta`), which counts only the copies that map a
constrained pattern pair onto a flipped pair, once per automorphism orbit of
the pinned ordered pair.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from math import comb
from typing import NamedTuple

from . import UnsupportedSizeError, UsageError, as_units, check_work
from .graphs import (
    MAX_CANONICAL_N,
    HostGraph,
    PatternGraph,
    _MAX_INTERNAL_K,
    _graph_classes,
    _row_starts,
    blue_masks,
    canonical_form,
    lex_pairs,
    make_construction,
    write_pairs,
)
from .counting import (
    _plan, _work, count_injections, flip_delta, flip_plans, normalized_density,
)

# Work of the climb and the oracle outside the counts, in `check_work`'s unit
# (timed on a 2-vertex pattern, whose counts cost almost nothing): each host
# pair that a raw host, a start or a restart walks (lex_pairs, sampling,
# validating the host), and each flip's own bookkeeping.
_PAIR_WORK = 5
_FLIP_WORK = 12

_STEPS_PER_VERTEX = 60  # each restart proposes 60n moves


class SearchResult(NamedTuple):
    best_count: int
    witnesses: tuple[bytes, ...]


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


def full_profile(h: PatternGraph, n: int) -> dict:
    """Red-pair count m -> exact_max(h, n, m).best_count, for every m, in one
    sweep."""
    per_m = _best_per_m(h, n)
    return {m: per_m[m][0] for m in sorted(per_m)}


def brute_force_profile(h: PatternGraph, n: int) -> dict:
    """Per-m maxima over every raw coloring of K_n.  Independent oracle: no
    canonicalization, no class enumeration.  The work is checked first: each
    of the 2^C(n,2) colorings is built pair by pair and counted, and `_plan`'s
    estimate of a count is its mean over all colorings."""
    npairs = comb(n, 2)
    check_work(as_units(2**npairs) * (npairs * _PAIR_WORK + _plan(h, n).cost), "n")
    prs = lex_pairs(n)
    per_m = {m: -1 for m in range(len(prs) + 1)}
    for colored in range(1 << len(prs)):
        g = HostGraph.from_red_pairs(n, [pr for t, pr in enumerate(prs) if colored >> t & 1])
        m = colored.bit_count()
        c = count_injections(h, g)
        if c > per_m[m]:
            per_m[m] = c
    return per_m


def _make_counter(h: PatternGraph):
    """The climb's host -> count function; perfbench/tracer.py wraps it by
    name to count climb evaluations."""
    return lambda g: count_injections(h, g)


def _pair_at(starts: list[int], t: int) -> tuple[int, int]:
    """Pair t of lex_pairs(n), from starts = _row_starts(n), so that a climb on
    a large host holds no list of its pairs."""
    i = bisect_right(starts, t) - 1
    return i, t - starts[i] + i + 1


def _random_masks(n: int, m: int, rng: random.Random) -> list[int]:
    starts = _row_starts(n)
    masks = [0] * n
    for t in rng.sample(range(comb(n, 2)), m):
        _flip(masks, *_pair_at(starts, t))
    return masks


def _adjust_edge_count(masks: list[int], n: int, m_target: int, rng: random.Random):
    starts = _row_starts(n)
    colours = write_pairs((masks,), "RB").partition(" ")[2]  # pair t's colour at t
    red = [t for t, c in enumerate(colours) if c == "R"]
    blue = [t for t, c in enumerate(colours) if c == "B"]
    current = len(red)
    rng.shuffle(red)
    rng.shuffle(blue)
    while current > m_target:
        _flip(masks, *_pair_at(starts, red.pop()))
        current -= 1
    while current < m_target:
        _flip(masks, *_pair_at(starts, blue.pop()))
        current += 1


def _flip(masks: list[int], i: int, j: int):
    masks[i] ^= 1 << j
    masks[j] ^= 1 << i


def _sample_pair(red: list[int], starts: list[int], rng: random.Random, color: int):
    """A uniform pair of the given colour (1 red, 0 blue) by rejection
    sampling, which keeps the rng stream deterministic; None after 64 tries
    per pair.  `starts` is _row_starts(len(red))."""
    npairs = comb(len(red), 2)
    for _ in range(64 * npairs):
        a, b = _pair_at(starts, rng.randrange(npairs))
        if red[a] >> b & 1 == color:
            return a, b
    return None


def _climb_work(h: PatternGraph, plans, n: int, restarts: int, flips: int) -> float:
    """A bound on hill_climb's work: a full count of the start and of each
    restart, and 60n steps per restart of `flips` flips each, every flip
    paying its bookkeeping and one pinned count per orbit of `plans` =
    flip_plans(h, n) (see `flip_delta`), plus the host pairs that the start
    and each restart walk.  The host changes as the climb goes, so the counts
    are bounded with n - p candidates at prefix position p whatever the
    constraints.  With flips=0 it is the work of the full counts and walks
    alone, which needs no plans."""
    full = _work(_plan(h, n), n, 0, n, n)
    flip = _FLIP_WORK + sum(_work(plan, n, 2, n, n) for *_, plan in plans)
    walks = (2 + restarts) * comb(n, 2) * _PAIR_WORK
    moves = restarts * _STEPS_PER_VERTEX * n * flips
    # no moves cost nothing, even when a flip's estimate is inf
    return (1 + restarts) * full + (moves * flip if moves else 0) + walks


def hill_climb(
    h: PatternGraph,
    n: int,
    target_density: float | None = None,
    restarts: int = 0,
    seed: int = 0,
    start=None,
) -> SearchResult:
    """Stochastic local search for high-count colorings.

    The start is the ConstructionSpec `start` built on n vertices, or a
    random coloring without one, with its red-pair count pinned when
    target_density is given.  Restart 0 climbs from the start and each later
    restart from a perturbed copy, by single-pair flips, or by red/blue swap
    moves when the density is pinned.  restarts=0 just scores the start.
    The start and each restart are counted in full, moves by their exact
    change in count.  Deterministic for a fixed seed.  The work is checked
    before any is done (`_climb_work`), its full counts before the flip plans
    are made, since pinned plans can cost more than the counts."""
    if n < 2:
        raise UsageError(f"hill climbing needs n >= 2 (got n={n})")
    if n < h.h:
        raise UsageError(f"hill climbing needs n >= the pattern's {h.h} vertices (got n={n})")
    if target_density is not None and not 0 <= target_density <= 1:
        raise UsageError(f"target density must lie in [0, 1] (got {target_density})")
    if restarts < 0:
        raise UsageError(f"restarts must be non-negative (got {restarts})")
    check_work(_climb_work(h, (), n, restarts, 0), "n or restarts")
    plans = flip_plans(h, n)
    flips = 1 if target_density is None else 2
    check_work(_climb_work(h, plans, n, restarts, flips), "n or restarts")
    rng = random.Random(seed)
    counter = _make_counter(h)
    npairs = comb(n, 2)
    m_target = None
    if target_density is not None:
        m_target = round(target_density * npairs)

    if start is not None:
        masks = list(make_construction(start, n).masks)
    else:
        masks = _random_masks(n, npairs // 2 if m_target is None else m_target, rng)
    if m_target is not None:
        _adjust_edge_count(masks, n, m_target, rng)
    best, best_masks = counter(HostGraph(n, tuple(masks))), masks

    if m_target in (0, npairs):
        restarts = 0  # no red/blue swap exists: the start is the only such host
    plateau_cap = 2 * n
    row_starts = _row_starts(n)

    for r in range(restarts):
        red = list(masks)
        if r:
            # perturb the start so that later restarts explore new basins
            for _ in range(max(1, n // 10)):
                _flip(red, *_pair_at(row_starts, rng.randrange(npairs)))
            if m_target is not None:
                _adjust_edge_count(red, n, m_target, rng)
        cur = counter(HostGraph(n, tuple(red)))
        blue = list(blue_masks(red))
        plateau = 0
        for _ in range(_STEPS_PER_VERTEX * n):
            if m_target is None:
                moves = [_pair_at(row_starts, rng.randrange(npairs))]
            else:
                # swap one red and one blue pair
                pick = _sample_pair(red, row_starts, rng, 1)
                pick2 = None if pick is None else _sample_pair(red, row_starts, rng, 0)
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


# ---------------------------------------------------------------------------
# the `search` and `oracle` commands


def _check_n(h: PatternGraph, n: int) -> None:
    """Exact search and the oracle need a host at least as large as h."""
    if n < h.h:
        raise UsageError(f"--n must be at least the pattern's {h.h} vertices (got {n})")


def _print_profile(per_m: dict, n: int, h: PatternGraph) -> None:
    """The `m,best,rho` CSV of per-m maxima, as `search --profile` and
    `oracle` print it."""
    print("m,best,rho")
    for m, best in sorted(per_m.items()):
        print(f"{m},{best},{normalized_density(best, n, h.h):.12g}")


def cmd_search(args) -> int:
    from .cli import _reject_unread, construct_from_arg, pattern_from_arg

    h = pattern_from_arg(args.pattern)
    if args.hill:
        _reject_unread(args, ("--m", "--profile", "--cache-dir"), "with --hill")
        res = hill_climb(
            h,
            args.n,
            target_density=args.beta,
            restarts=2 if args.restarts is None else args.restarts,
            seed=0 if args.seed is None else args.seed,
            start=construct_from_arg(args.seed_construct) if args.seed_construct else None,
        )
    else:
        _reject_unread(args, ("--seed", "--beta", "--seed-construct", "--restarts"),
                       "without --hill")
        _check_n(h, args.n)
        if args.profile:
            _reject_unread(args, ("--m",), "with --profile")
            _print_profile(full_profile(h, args.n), args.n, h)
            return 0
        res = exact_max(h, args.n, args.m)
    rho = normalized_density(res.best_count, args.n, h.h)
    for wit in map(bytes.decode, res.witnesses):  # its header is digits: each R is a red pair
        print(f"n={args.n} m={wit.count('R')} best={res.best_count} rho={rho:.12g} witness={wit!r}")
    return 0


def cmd_oracle(args) -> int:
    from .cli import pattern_from_arg

    h = pattern_from_arg(args.pattern)
    _check_n(h, args.n)
    _print_profile(brute_force_profile(h, args.n), args.n, h)
    return 0
