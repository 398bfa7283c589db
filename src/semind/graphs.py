"""Red/blue colorings of complete graphs.

A host is a complete graph on n vertices whose pairs are each colored red or
blue; we store the red relation as per-vertex bitmasks.  A pattern fixes some
pairs red, some blue, and leaves the remaining pairs free.  This module owns
the value types, serialization, exact canonical forms, enumeration up to
isomorphism, and the parametric construction families used by the profile and
search tools.

One routine, `_min_placements`, canonicalizes hosts, rooted flags and
patterns: it keeps every partial vertex ordering whose colour string is least
so far, placing each class of twins once.  Classes are enumerated by
canonical augmentation: each (k-1)-class gets one new vertex per orbit of its
automorphism group on red masks, and a child is kept only when the new vertex
is its canonical deletion vertex up to automorphism.  A cheap invariant (red
degree, then red and blue triangles) rejects most children before any
canonical labelling.

All values are immutable after construction and safe to share across workers.
Class lists are memoized per k.  Inside `basis_cache(dir)` a miss first tries
`<dir>/basis-k<k>.txt` (as written by `semind enumerate`), trusting it only
when its sha256 equals the digest recorded below for that k and its header
count equals OEIS A000088(k); any other file is ignored and the classes are
enumerated.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from . import UnsupportedSizeError, UsageError


# Caps that no work estimate replaces.  Canonical labelling has no cost
# estimate, and ties that nothing prunes make it exponential: a red path
# takes about 3 s at n = 16.  Class lists are held in memory whole, so they
# are capped for `enumerate` and, one size larger, for exact search: 1,044
# classes at k = 7, 12,346 at k = 8 and 274,668 at k = 9.
MAX_CANONICAL_N = 16
MAX_ENUM_K = 7
_MAX_INTERNAL_K = 8

# OEIS A000088, indexed by k: colorings of K_k up to isomorphism
CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)

# sha256 of basis_text(_graph_classes(k)); a cached basis file is loaded only
# when its bytes hash to the entry for its k
_BASIS_SHA256 = {
    1: "e3f300bf7de1ac8f47af4fe7ae9b7d4218a7f8868acb1920dee5c3c4af66b038",
    2: "36a1a79c54c49abef677b8fb225c3ae8532089a72a7c0fbb54b8b44f9f510445",
    3: "22e8d1674c11258e20e887f7a1f1f3f9eb7dd881bf596e789bb37d1bf44cd9fc",
    4: "9076a2fc298413b49ed5542587e614f0665ff8ff3e1880433fcd8ea46c10823d",
    5: "bc18cbe3df0b3894bc62e47f8a9a9b97844effbe62d1fffd1d33770c38bc0c67",
    6: "51182d531db2a7d2eceb58ffd243fe6bdf643c5f5f9944fc65f879cc86ab6ea4",
    7: "ba5ab7eb7d44d6f2d1f9351b5113424289276dc93b20ff7be5c3032e966f2d6b",
}

_basis_dir: Path | None = None


class GraphFormatError(UsageError):
    """Malformed host/pattern text; `offset` is the byte position at fault."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ConstructionError(UsageError):
    pass


def lex_pairs(n: int) -> list[tuple[int, int]]:
    """Unordered pairs of [0, n) in lexicographic order (0,1),(0,2),..."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _relabel_masks(masks, perm) -> tuple[int, ...]:
    """The masks relabelled so that new vertex i is old vertex perm[i]."""
    inv = [0] * len(masks)
    for i, v in enumerate(perm):
        inv[v] = i
    out = []
    for v in perm:
        m, acc = masks[v], 0
        while m:
            low = m & -m
            acc |= 1 << inv[low.bit_length() - 1]
            m ^= low
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class HostGraph:
    """An n-vertex red/blue coloring of the complete graph.

    `masks[i]` has bit j set iff pair {i, j} is red.  Blue is the complement
    on off-diagonal pairs.
    """

    n: int
    masks: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("host needs at least one vertex")
        if len(self.masks) != self.n:
            raise ValueError("mask count must equal n")
        for i, m in enumerate(self.masks):
            if m >> self.n:
                raise ValueError("mask bits outside vertex range")
            if m >> i & 1:
                raise ValueError("self-pairs are not stored")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (self.masks[i] >> j & 1) != (self.masks[j] >> i & 1):
                    raise ValueError("red relation must be symmetric")

    @staticmethod
    def from_red_pairs(n: int, pairs) -> "HostGraph":
        masks = [0] * n
        for i, j in pairs:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bad pair ({i},{j}) for n={n}")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return HostGraph(n, tuple(masks))

    def red(self, i: int, j: int) -> bool:
        return bool(self.masks[i] >> j & 1)

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.masks)

    def red_count(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def red_density(self) -> float:
        if self.n < 2:
            return 0.0
        return self.red_count() / (self.n * (self.n - 1) / 2)

    def complement(self) -> "HostGraph":
        full = (1 << self.n) - 1
        return HostGraph(
            self.n, tuple((full ^ m ^ (1 << i)) for i, m in enumerate(self.masks))
        )

    def relabel(self, perm) -> "HostGraph":
        """New graph where new vertex i is old vertex perm[i]."""
        return HostGraph(self.n, _relabel_masks(self.masks, perm))

    def induced(self, vertices) -> "HostGraph":
        vs = list(vertices)
        k = len(vs)
        masks = [0] * k
        for a in range(k):
            for b in range(a + 1, k):
                if self.red(vs[a], vs[b]):
                    masks[a] |= 1 << b
                    masks[b] |= 1 << a
        return HostGraph(k, tuple(masks))

    def to_text(self) -> str:
        chars = ["R" if self.red(i, j) else "B" for i, j in lex_pairs(self.n)]
        return f"{self.n} {''.join(chars)}"


@dataclass(frozen=True)
class PatternGraph:
    """A pattern: red pairs must map to red, blue to blue, free pairs to either."""

    h: int
    red_pairs: frozenset
    blue_pairs: frozenset

    def __post_init__(self):
        for i, j in self.red_pairs | self.blue_pairs:
            if not (0 <= i < j < self.h):
                raise ValueError(f"pair ({i},{j}) out of range for h={self.h}")
        if self.red_pairs & self.blue_pairs:
            raise ValueError("red and blue pairs must be disjoint")

    @staticmethod
    def of(h: int, red=(), blue=()) -> "PatternGraph":
        norm = lambda ps: frozenset((min(i, j), max(i, j)) for i, j in ps)
        return PatternGraph(h, norm(red), norm(blue))

    def color_swap(self) -> "PatternGraph":
        return PatternGraph(self.h, self.blue_pairs, self.red_pairs)

    def layers(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex red masks and blue masks; a free pair is in neither."""
        pairs = (self.red_pairs, self.blue_pairs)
        return tuple(HostGraph.from_red_pairs(self.h, ps).masks for ps in pairs)

    def to_text(self) -> str:
        chars = []
        for p in lex_pairs(self.h):
            chars.append("R" if p in self.red_pairs else "B" if p in self.blue_pairs else "F")
        return f"{self.h} {''.join(chars)}"


def _parse_header(text: str, what: str) -> tuple[int, str, int]:
    sp = text.find(" ")
    if sp < 0:
        head, body, base = text, "", len(text)  # n = 1 has an empty pair string
    elif sp == 0:
        raise GraphFormatError(f"{what}: missing vertex count", 0)
    else:
        head, body, base = text[:sp], text[sp + 1 :], sp + 1
    if not head.isdigit():
        raise GraphFormatError(f"{what}: malformed vertex count {head!r}", 0)
    n = int(head)
    if n < 1:
        raise GraphFormatError(f"{what}: vertex count must be positive", 0)
    return n, body, base


def parse_host(text: str) -> HostGraph:
    """Parse `<n> <pairstring>` with pairstring over {R, B} in lex pair order."""
    text = text.strip()
    n, body, base = _parse_header(text, "host")
    want = n * (n - 1) // 2
    if len(body) != want:
        raise GraphFormatError(
            f"host: pair string has {len(body)} characters, expected {want}",
            base + len(body),
        )
    masks = [0] * n
    for idx, (pair, ch) in enumerate(zip(lex_pairs(n), body)):
        if ch == "R":
            i, j = pair
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        elif ch != "B":
            raise GraphFormatError(f"host: illegal character {ch!r}", base + idx)
    return HostGraph(n, tuple(masks))


def parse_pattern(text: str) -> PatternGraph:
    """Parse `<h> <pairstring>` with pairstring over {R, B, F}."""
    text = text.strip()
    h, body, base = _parse_header(text, "pattern")
    want = h * (h - 1) // 2
    if len(body) != want:
        raise GraphFormatError(
            f"pattern: pair string has {len(body)} characters, expected {want}",
            base + len(body),
        )
    red, blue = set(), set()
    for idx, (pair, ch) in enumerate(zip(lex_pairs(h), body)):
        if ch == "R":
            red.add(pair)
        elif ch == "B":
            blue.add(pair)
        elif ch != "F":
            raise GraphFormatError(f"pattern: illegal character {ch!r}", base + idx)
    return PatternGraph(h, frozenset(red), frozenset(blue))


# ---------------------------------------------------------------------------
# canonical forms


def _twins(layers) -> list[int]:
    """For each vertex, the bitmask of its twins below it: vertices whose
    colours to every other vertex agree in every mask layer, so that swapping
    them is an automorphism.  All pairs inside a twin class share a colour."""
    n = len(layers[0])
    below = [0] * n
    for v in range(n):
        for u in range(v):
            if all(not (m[u] ^ m[v]) & ~(1 << u | 1 << v) for m in layers):
                below[v] |= 1 << u
    return below


def _min_placements(layers, fixed: tuple[int, ...] = (), below=None) -> list[tuple[int, ...]]:
    """The vertex orderings minimizing the colex color string that place each
    twin class in increasing order.

    `layers` holds per-vertex masks: the red masks of a host or flag, the red
    and blue masks of a pattern.  The code is compared segment by segment:
    placing the vertex at position j determines, layer by layer, the colors
    to positions 0..j-1, read earliest-first.  Swapping twins keeps the code,
    so every minimizing ordering is one of these followed by a permutation
    inside twin classes.  `fixed` pins a prefix of the ordering (used for
    rooted flags); `below` passes in `_twins(layers)` when the caller has it.

    Each state carries the bitmask cell of its eligible vertices: unused, with
    every smaller unfixed twin placed.  Its least segment comes from refining
    that cell by the colour bits to the placed vertices in segment order,
    keeping the vertices whose bit is 0 whenever there are any.
    """
    n = len(layers[0])
    if below is None:
        below = _twins(layers)
    used = sum(1 << v for v in fixed)
    # twins run in increasing order among the unfixed vertices; placing one
    # makes the next one of its class eligible
    nxt = [0] * n
    cell = 0
    for v in range(n):
        if used >> v & 1:
            continue
        prev = below[v] & ~used
        if prev:
            nxt[prev.bit_length() - 1] = 1 << v
        else:
            cell |= 1 << v
    zeros = [tuple(~m for m in masks) for masks in layers]  # colour bit 0 to u
    states = [(tuple(fixed), cell)]
    for _ in range(len(fixed), n):
        best_seg = None
        kept: list[tuple[tuple[int, ...], int]] = []
        for placed, eligible in states:
            cell, seg = eligible, 0
            for zero_to in zeros:
                for u in placed:
                    zero = cell & zero_to[u]
                    seg <<= 1
                    if zero:
                        cell = zero
                    else:
                        seg |= 1
            if best_seg is None or seg < best_seg:
                best_seg, kept = seg, []
            elif seg > best_seg:
                continue
            while cell:
                low = cell & -cell
                cell ^= low
                v = low.bit_length() - 1
                kept.append((placed + (v,), eligible ^ low | nxt[v]))
        states = kept
    return [p for p, _ in states]


def canonical_host(g: HostGraph) -> HostGraph:
    """Canonical representative of g's color-preserving isomorphism class."""
    if g.n > MAX_CANONICAL_N:
        raise UnsupportedSizeError(
            f"canonicalization supports n <= {MAX_CANONICAL_N}, got {g.n}"
        )
    return g.relabel(_min_placements((g.masks,))[0])


def canonical_form(g: HostGraph) -> bytes:
    """Isomorphism-class code: the serialized canonical representative.

    Equal codes iff the hosts are related by a red-preserving bijection.  The
    representative minimizes the colex color string over all orderings; the
    code doubles as parseable host text.
    """
    return canonical_host(g).to_text().encode()


def _placement_and_aut(masks) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The first minimizing placement of a host's red masks, and generators
    of its automorphism group as vertex maps (gen[v] is the image of v): one
    per other minimizing placement, and one transposition per twin."""
    below = _twins((masks,))
    p0, *rest = _min_placements((masks,), below=below)
    gens = []
    for p in rest:
        perm = [0] * len(masks)
        for a, b in zip(p0, p):
            perm[a] = b
        gens.append(tuple(perm))
    for v, twins in enumerate(below):
        if twins:
            u = (twins & -twins).bit_length() - 1
            gens.append(tuple(u if i == v else v if i == u else i for i in range(len(masks))))
    return p0, gens


# ---------------------------------------------------------------------------
# enumeration up to isomorphism


@contextmanager
def basis_cache(cache_dir):
    """Let class lookups load validated basis files from cache_dir while
    the block runs (see the module docstring)."""
    global _basis_dir
    previous, _basis_dir = _basis_dir, Path(cache_dir)
    try:
        yield
    finally:
        _basis_dir = previous


def basis_text(classes) -> str:
    """Serialized basis file: a header line, then one class per line."""
    lines = [f"# semind-basis k={classes[0].n} count={len(classes)}"]
    lines.extend(g.to_text() for g in classes)
    return "\n".join(lines) + "\n"


def _load_basis(k: int) -> tuple[HostGraph, ...] | None:
    """The k-classes from the cache directory's basis file, or None unless
    the file passes the digest and count checks."""
    digest = _BASIS_SHA256.get(k)
    if _basis_dir is None or digest is None:
        return None
    try:
        data = (_basis_dir / f"basis-k{k}.txt").read_bytes()
    except OSError:
        return None
    import hashlib  # only a cached basis is digested; it costs import time

    if hashlib.sha256(data).hexdigest() != digest:
        return None
    header, *lines = data.decode("ascii").splitlines()
    if header != f"# semind-basis k={k} count={CLASS_COUNTS[k]}" or len(lines) != CLASS_COUNTS[k]:
        return None
    return tuple(parse_host(line) for line in lines)


@lru_cache(maxsize=None)
def _graph_classes(k: int) -> tuple[HostGraph, ...]:
    if k < 1 or k > _MAX_INTERNAL_K:
        raise UnsupportedSizeError(f"class enumeration supports 1 <= k <= {_MAX_INTERNAL_K}")
    loaded = _load_basis(k)
    return loaded if loaded is not None else _enumerate_classes(k)


def _triangles(masks, v: int, full: int) -> int:
    """Red triangles at v, then blue triangles at v, packed into one int that
    orders like the pair; each triangle is counted twice."""
    red = masks[v]
    blue = full ^ red ^ (1 << v)
    red_tri = blue_tri = 0
    for u in range(len(masks)):
        if red >> u & 1:
            red_tri += (masks[u] & red).bit_count()
        elif blue >> u & 1:
            blue_tri += (blue & ~masks[u]).bit_count() - 1  # less u itself
    return red_tri << 16 | blue_tri


def _orbit(v: int, gens) -> set[int]:
    """The closure of {v} under the maps in gens (each indexed by point)."""
    orbit, frontier = {v}, [v]
    while frontier:
        x = frontier.pop()
        for perm in gens:
            y = perm[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def _augment(parent: HostGraph, mask: int) -> HostGraph | None:
    """The canonical form of parent + a vertex w red to `mask`, if this is the
    child that canonical augmentation keeps, else None.

    The kept deletion vertex of a child C is, among its vertices of largest
    (red degree, `_triangles`), the one that C's first minimizing placement
    puts last; the choice is invariant up to Aut(C).  C is kept when w lies
    in that vertex's Aut(C)-orbit, so among the children of non-isomorphic
    parents, one per Aut(parent)-orbit of masks, each class is kept exactly
    once.
    """
    k = parent.n + 1
    w, full = k - 1, (1 << k) - 1
    masks = [m | 1 << w if mask >> v & 1 else m for v, m in enumerate(parent.masks)]
    masks.append(mask)
    degree = mask.bit_count()
    if any(m.bit_count() > degree for m in masks):
        return None
    ties = [v for v in range(w) if masks[v].bit_count() == degree]
    if ties:
        top = _triangles(masks, w, full)
        counts = [_triangles(masks, v, full) for v in ties]
        if max(counts) > top:
            return None
        ties = [v for v, c in zip(ties, counts) if c == top]
    if not ties:
        p0 = _min_placements((masks,))[0]
    else:
        p0, gens = _placement_and_aut(masks)
        last = max(ties + [w], key=p0.index)
        if last != w and w not in _orbit(last, gens):
            return None
    return HostGraph(k, _relabel_masks(masks, p0))


def _enumerate_classes(k: int) -> tuple[HostGraph, ...]:
    """The k-classes by canonical augmentation (McKay, "Isomorph-free
    exhaustive generation", 1998): each (k-1)-class is extended by one vertex
    per Aut(parent)-orbit of red masks, and `_augment` keeps one child per
    class."""
    if k == 1:
        return (HostGraph(1, (0,)),)
    children = []
    for parent in _graph_classes(k - 1):
        _, gens = _placement_and_aut(parent.masks)
        # images[g][m]: the mask m moved by generator g
        images = []
        for perm in gens:
            image = [0] * (1 << (k - 1))
            for m in range(1, 1 << (k - 1)):
                low = m & -m
                image[m] = image[m ^ low] | 1 << perm[low.bit_length() - 1]
            images.append(image)
        seen_masks: set[int] = set()
        for mask in range(1 << (k - 1)):
            # masks run upward, so an unseen mask is the least of its orbit
            if mask not in seen_masks:
                seen_masks |= _orbit(mask, images)
                child = _augment(parent, mask)
                if child is not None:
                    children.append(child)
    return tuple(sorted(children, key=HostGraph.to_text))


def enumerate_colored_graphs(k: int) -> list[HostGraph]:
    """All k-vertex colorings up to isomorphism, canonical and sorted."""
    if k < 1:
        raise UsageError("k must be positive")
    if k > MAX_ENUM_K:
        raise UnsupportedSizeError(
            f"enumeration is capped at k <= {MAX_ENUM_K} (memory guard)"
        )
    return list(_graph_classes(k))


# ---------------------------------------------------------------------------
# constructions


@dataclass(frozen=True)
class PartedHost:
    """Host assembled from uniform parts: each part is internally all-red or
    all-blue, and each pair of parts is uniformly colored across."""

    sizes: tuple[int, ...]
    internal_red: tuple[bool, ...]
    cross_red: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        p = len(self.sizes)
        if len(self.internal_red) != p or len(self.cross_red) != p:
            raise ValueError("part metadata shape mismatch")
        for row in self.cross_red:
            if len(row) != p:
                raise ValueError("cross matrix must be square")
        for i in range(p):
            for j in range(p):
                if self.cross_red[i][j] != self.cross_red[j][i]:
                    raise ValueError("cross matrix must be symmetric")
        if any(s < 0 for s in self.sizes):
            raise ValueError("part sizes must be nonnegative")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def red_count(self) -> int:
        """Red pairs of `to_host()`, counted from the parts without building it."""
        p = len(self.sizes)
        red = sum(s * (s - 1) // 2 for s, r in zip(self.sizes, self.internal_red) if r)
        for i in range(p):
            for j in range(i + 1, p):
                if self.cross_red[i][j]:
                    red += self.sizes[i] * self.sizes[j]
        return red

    def complement(self) -> "PartedHost":
        return PartedHost(
            self.sizes,
            tuple(not b for b in self.internal_red),
            tuple(tuple(not b for b in row) for row in self.cross_red),
        )

    def to_host(self) -> HostGraph:
        n = self.n
        part_of = []
        for p, s in enumerate(self.sizes):
            part_of.extend([p] * s)
        masks = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                pi, pj = part_of[i], part_of[j]
                red = self.internal_red[pi] if pi == pj else self.cross_red[pi][pj]
                if red:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        return HostGraph(n, tuple(masks))


@dataclass(frozen=True)
class ConstructionSpec:
    """Parametric extremal-construction family.

    kinds: clique_plus_isolated(a), disjoint_cliques(f1,...), circulant(d-frac),
    three_part(x, y), complement(inner).
    """

    kind: str
    fractions: tuple[float, ...] = ()
    inner: "ConstructionSpec | None" = None

    def describe(self) -> str:
        if self.kind == "complement":
            return f"complement:{self.inner.describe()}"
        return f"{self.kind}:" + ",".join(f"{f:g}" for f in self.fractions)


def clique_plus_isolated(a: float) -> ConstructionSpec:
    if not 0 <= a <= 1:
        raise ConstructionError("clique fraction must lie in [0,1]")
    return ConstructionSpec("clique_plus_isolated", (float(a),))


def disjoint_cliques(fractions) -> ConstructionSpec:
    fs = tuple(float(f) for f in fractions)
    if any(f < 0 for f in fs):
        raise ConstructionError("clique fractions must be nonnegative")
    if sum(fs) > 1 + 1e-9:
        raise ConstructionError("clique fractions must sum to at most 1")
    return ConstructionSpec("disjoint_cliques", fs)


def circulant(degree_fraction: float) -> ConstructionSpec:
    if not 0 <= degree_fraction <= 1:
        raise ConstructionError("degree fraction must lie in [0,1]")
    return ConstructionSpec("circulant", (float(degree_fraction),))


def three_part(x: float, y: float) -> ConstructionSpec:
    if x < 0 or y < 0 or x + y > 1 + 1e-9:
        raise ConstructionError("three_part needs x, y >= 0 and x + y <= 1")
    return ConstructionSpec("three_part", (float(x), float(y)))


def complement_of(spec: ConstructionSpec) -> ConstructionSpec:
    return ConstructionSpec("complement", (), spec)


def apportion(fractions, n: int) -> list[int]:
    """Largest-remainder rounding of n * fractions to integers summing to n."""
    fs = [float(f) for f in fractions]
    total = sum(fs)
    if total > 1 + 1e-9:
        raise ConstructionError("part fractions exceed 1")
    quotas = [f * n for f in fs]
    base = [math.floor(q) for q in quotas]
    rem = n - sum(base)
    order = sorted(range(len(fs)), key=lambda i: (base[i] - quotas[i], i))
    for i in order[:rem]:
        base[i] += 1
    return base


def construction_parts(spec: ConstructionSpec, n: int) -> PartedHost | None:
    """Part structure of the construction, or None for the circulant family."""
    if n < 2:
        raise ConstructionError("constructions need n >= 2")
    if spec.kind == "clique_plus_isolated":
        a = spec.fractions[0]
        sizes = apportion([a, 1 - a], n)
        return PartedHost(tuple(sizes), (True, False), ((False, False), (False, False)))
    if spec.kind == "disjoint_cliques":
        fs = list(spec.fractions)
        slack = 1 - sum(fs)
        parts = fs + ([slack] if slack > 1e-12 else [])
        sizes = apportion(parts, n)
        p = len(sizes)
        internal = [True] * len(fs) + [False] * (p - len(fs))
        cross = tuple(tuple(False for _ in range(p)) for _ in range(p))
        return PartedHost(tuple(sizes), tuple(internal), cross)
    if spec.kind == "three_part":
        x, y = spec.fractions
        sizes = apportion([x, y, 1 - x - y], n)
        cross = (
            (False, True, False),
            (True, True, False),
            (False, False, False),
        )
        return PartedHost(tuple(sizes), (False, True, False), cross)
    if spec.kind == "complement":
        inner = construction_parts(spec.inner, n)
        return None if inner is None else inner.complement()
    if spec.kind == "circulant":
        return None
    raise ConstructionError(f"unknown construction kind {spec.kind!r}")


def _circulant_degree(n: int, frac: float) -> int:
    d = round(frac * (n - 1))
    return d - 1 if d % 2 == 1 and n % 2 == 1 else d  # odd-regular graphs need an even n


def transitive_degree(spec: ConstructionSpec, n: int) -> int:
    """The red degree of every vertex of make_construction(spec, n), for a
    circulant or a complement of one, without building the host."""
    if spec.kind == "complement":
        return n - 1 - transitive_degree(spec.inner, n)
    return _circulant_degree(n, spec.fractions[0])


def _circulant_host(n: int, frac: float) -> HostGraph:
    d = _circulant_degree(n, frac)
    if d >= n:
        raise ConstructionError("circulant degree must be below n")
    offsets = set()
    half = d // 2
    for s in range(1, half + 1):
        offsets.add(s)
        offsets.add(n - s)
    if d % 2 == 1:
        offsets.add(n // 2)
    masks = [0] * n
    for i in range(n):
        acc = 0
        for s in offsets:
            acc |= 1 << ((i + s) % n)
        masks[i] = acc
    return HostGraph(n, tuple(masks))


def make_construction(spec: ConstructionSpec, n: int) -> HostGraph:
    """Realize the construction on n vertices (largest-remainder part sizes)."""
    parts = construction_parts(spec, n)
    if parts is not None:
        return parts.to_host()
    if spec.kind == "circulant":
        return _circulant_host(n, spec.fractions[0])
    return make_construction(spec.inner, n).complement()  # around a circulant
