"""Red/blue colorings of complete graphs.

A host is a complete graph on n vertices whose pairs are each colored red or
blue; we store the red relation as per-vertex bitmasks.  A pattern fixes some
pairs red, some blue, and leaves the remaining pairs free: it stores red and
blue mask layers.  One codec, `read_pairs` and `write_pairs`, reads and writes
both as `<n> <pairstring>` text, row by row from the masks' bits.  This module
owns the value types, serialization, exact canonical forms, enumeration up to
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
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from . import Frozen, UnsupportedSizeError, UsageError


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

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ConstructionError(UsageError):
    pass


def lex_pairs(n: int) -> list[tuple[int, int]]:
    """Unordered pairs of [0, n) in lexicographic order (0,1),(0,2),..."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _row_starts(n: int) -> list[int]:
    """The index in lex_pairs(n) of each row's first pair (i, i + 1); row i
    holds the n - 1 - i pairs (i, j) with j > i."""
    return [i * (2 * n - i - 1) // 2 for i in range(n - 1)]


@lru_cache(maxsize=None)
def _alphabet_tables(letters: str) -> tuple:
    """The translation tables of a pair alphabet: one that deletes its
    letters, per layer l one that maps letters[l] to '1' and the rest to '0',
    and one that writes layer 0's bits."""
    ones = [str.maketrans(letters, "".join("01"[c == d] for c in letters)) for d in letters[:-1]]
    return str.maketrans("", "", letters), ones, str.maketrans("10", letters[0] + letters[-1])


def read_pairs(n: int, body: str, letters: str, fault) -> tuple[tuple[int, ...], ...]:
    """The per-vertex mask layers of a pair string on n vertices, row by row:
    a pair whose letter is letters[l] is in layer l, and one whose letter is
    the last in none.  The caller checks the length; the first character not
    in `letters`, at index t, raises fault(t, character)."""
    delete, ones, _ = _alphabet_tables(letters)
    illegal = body.translate(delete)
    if illegal:
        raise fault(body.index(illegal[0]), illegal[0])
    layers = []
    for table in ones:
        pairs = int("0" + body.translate(table)[::-1], 2)  # bit t is pair t; n = 1 reads "0"
        masks = [0] * n
        for i, start in enumerate(_row_starts(n)):
            row = (pairs >> start & (1 << n - 1 - i) - 1) << i + 1
            masks[i] |= row
            while row:  # mirror the row into the masks of its later vertices
                low = row & -row
                masks[low.bit_length() - 1] |= 1 << i
                row ^= low
        layers.append(tuple(masks))
    return tuple(layers)


def write_pairs(layers, letters: str) -> str:
    """The `<n> <pairstring>` text of per-vertex mask layers (see
    `read_pairs`), written row by row from the masks' bits."""
    n = len(layers[0])
    first = _alphabet_tables(letters)[2]
    rest = tuple(zip(layers[1:], letters[1:]))
    rows = [f"{n} "]
    for i in range(n - 1):
        form = f"0{n - 1 - i}b"
        row = format(layers[0][i] >> i + 1, form)[::-1].translate(first)
        for masks, letter in rest:
            bits = format(masks[i] >> i + 1, form)[::-1]
            row = "".join(letter if bit == "1" else c for bit, c in zip(bits, row))
        rows.append(row)
    return "".join(rows)


def blue_masks(masks) -> tuple[int, ...]:
    """The blue masks of a complete graph with the given red masks: each
    vertex is blue to every other vertex it is not red to."""
    full = (1 << len(masks)) - 1
    return tuple(full ^ m ^ (1 << v) for v, m in enumerate(masks))


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


class HostGraph(Frozen):
    """An n-vertex red/blue coloring of the complete graph.

    `masks[i]` has bit j set iff pair {i, j} is red.  Blue is the complement
    on off-diagonal pairs.  Equal colorings compare and hash equal.
    """

    __slots__ = ("n", "masks")

    def __init__(self, n: int, masks: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", masks)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.masks == other.masks

    def __hash__(self):
        return hash((self.n, self.masks))

    def __repr__(self):
        return f"HostGraph(n={self.n!r}, masks={self.masks!r})"

    def __post_init__(self):
        """The validation of every new host, kept under this name: the
        benchmark's tracer counts host builds by wrapping it."""
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

    def complement(self) -> "HostGraph":
        return HostGraph(self.n, blue_masks(self.masks))

    def to_host(self) -> "HostGraph":
        return self

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
        return write_pairs((self.masks,), "RB")


class PatternGraph(NamedTuple):
    """A pattern: red pairs must map to red, blue to blue, free pairs to either.

    `red[i]` has bit j set iff pair {i, j} is red, and `blue[i]` iff it is
    blue; a free pair is in neither.
    """

    h: int
    red: tuple[int, ...]
    blue: tuple[int, ...]

    @staticmethod
    def of(h: int, red=(), blue=()) -> "PatternGraph":
        layers = ([0] * h, [0] * h)
        for masks, pairs in zip(layers, (red, blue)):
            for i, j in pairs:
                i, j = min(i, j), max(i, j)
                if not 0 <= i < j < h:
                    raise ValueError(f"pair ({i},{j}) out of range for h={h}")
                masks[i] |= 1 << j
                masks[j] |= 1 << i
        if any(r & b for r, b in zip(*layers)):
            raise ValueError("red and blue pairs must be disjoint")
        return PatternGraph(h, tuple(layers[0]), tuple(layers[1]))

    def layers(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex red masks and blue masks."""
        return self.red, self.blue

    def to_text(self) -> str:
        return write_pairs(self.layers(), "RBF")


def _parse(text: str, what: str, letters: str) -> tuple:
    """The vertex count and then the mask layers of `<n> <pairstring>` text."""
    text = text.strip()
    sp = text.find(" ")
    if sp < 0:
        head, body, base = text, "", len(text)  # n = 1 has an empty pair string
    else:
        head, body, base = text[:sp], text[sp + 1 :], sp + 1
    if not head.isdigit():
        raise GraphFormatError(f"{what}: malformed vertex count {head!r}", 0)
    n = int(head)
    if n < 1:
        raise GraphFormatError(f"{what}: vertex count must be positive", 0)
    want = n * (n - 1) // 2
    if len(body) != want:
        raise GraphFormatError(
            f"{what}: pair string has {len(body)} characters, expected {want}",
            base + len(body),
        )
    fault = lambda t, ch: GraphFormatError(f"{what}: illegal character {ch!r}", base + t)
    return (n, *read_pairs(n, body, letters, fault))


def parse_host(text: str) -> HostGraph:
    """Parse `<n> <pairstring>` with pairstring over {R, B} in lex pair order."""
    return HostGraph(*_parse(text, "host", "RB"))


def parse_pattern(text: str) -> PatternGraph:
    """Parse `<h> <pairstring>` with pairstring over {R, B, F}."""
    return PatternGraph(*_parse(text, "pattern", "RBF"))


# ---------------------------------------------------------------------------
# canonical forms


def _twins(layers) -> list[int]:
    """For each vertex, the bitmask of its twins below it: vertices whose
    colours to every other vertex agree in every mask layer, so that swapping
    them is an automorphism.  All pairs inside a twin class share a colour.

    u and v are twins exactly when, in the layer holding their pair (if
    any), their masks with their own bits added are equal, and in every
    other layer their masks are equal.  So the vertices are grouped once per
    choice of that layer, by the masks with the own bit added in that layer
    alone; each twin pair meets in exactly one grouping."""
    n = len(layers[0])
    below = [0] * n
    for own in range(-1, len(layers)):  # the layer holding the pair; -1 for none
        keys = zip(*(
            [m[v] | 1 << v for v in range(n)] if i == own else m for i, m in enumerate(layers)
        ))
        seen: dict = {}
        for v, key in enumerate(keys):
            group = seen.get(key, 0)
            below[v] |= group
            seen[key] = group | 1 << v
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


class PartedHost(NamedTuple):
    """Host assembled from uniform parts: each part is internally all-red or
    all-blue, and each pair of parts is uniformly colored across."""

    sizes: tuple[int, ...]
    internal_red: tuple[bool, ...]
    cross_red: tuple[tuple[bool, ...], ...]

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

    def to_host(self) -> HostGraph:
        starts = [sum(self.sizes[:p]) for p in range(len(self.sizes) + 1)]
        spans = list(zip(starts, starts[1:]))  # each part's vertices [a, b)
        masks = []
        for p, (a, b) in enumerate(spans):
            red = [*self.cross_red[p][:p], self.internal_red[p], *self.cross_red[p][p + 1 :]]
            reach = sum((1 << d) - (1 << c) for (c, d), r in zip(spans, red) if r)
            masks += [reach & ~(1 << v) for v in range(a, b)]  # the parts red to part p
        return HostGraph(self.n, tuple(masks))


class Circulant(NamedTuple):
    """The circulant coloring of Z_n whose pairs at offsets +-1..near // 2 (and
    n / 2 when near is odd) are red when `near_red` and blue otherwise, and
    all other pairs the other colour.  Each vertex's red mask is the red
    offset mask rotated to it; masks are made only when read, so a circulant
    on any n is small until it is counted or built."""

    n: int
    near: int
    near_red: bool = True

    @property
    def degree(self) -> int:
        """The red degree of every vertex."""
        return self.near if self.near_red else self.n - 1 - self.near

    def red_count(self) -> int:
        return self.n * self.degree // 2

    @property
    def masks(self) -> tuple[int, ...]:
        """The red masks: vertex i is red to i + s (mod n) for each red offset s."""
        n, half = self.n, self.near // 2
        low = (1 << half) - 1
        offsets = low << 1 | low << (n - half) | (self.near & 1) << (n // 2)
        if not self.near_red:
            offsets ^= (1 << n) - 2
        full = (1 << n) - 1
        return tuple((offsets << i | offsets >> (n - i)) & full for i in range(n))

    def to_host(self) -> HostGraph:
        return HostGraph(self.n, self.masks)


class ConstructionSpec(NamedTuple):
    """A construction family member, stored as what it realizes.  A step
    construction has part `weights` summing to 1, each part one colour inside
    (`internal_red`) and each pair of parts one colour across (`cross_red`);
    a circulant has the `degree_fraction` of its near offsets, which are red
    when `near_red`.  `name` is the `describe()` text."""

    name: str
    weights: tuple[float, ...] = ()
    internal_red: tuple[bool, ...] = ()
    cross_red: tuple[tuple[bool, ...], ...] = ()
    degree_fraction: float | None = None
    near_red: bool = True

    def describe(self) -> str:
        return self.name


def _step(kind: str, fractions, weights, internal_red, cross_red) -> ConstructionSpec:
    name = f"{kind}:" + ",".join(f"{f:g}" for f in fractions)
    return ConstructionSpec(name, weights, internal_red, cross_red)


def clique_plus_isolated(a: float) -> ConstructionSpec:
    if not 0 <= a <= 1:
        raise ConstructionError("clique fraction must lie in [0,1]")
    a = float(a)
    return _step("clique_plus_isolated", (a,), (a, 1 - a), (True, False),
                 ((False, False), (False, False)))


def disjoint_cliques(fractions) -> ConstructionSpec:
    fs = tuple(float(f) for f in fractions)
    if not all(0 <= f for f in fs):
        raise ConstructionError("clique fractions must be nonnegative")
    if sum(fs) > 1 + 1e-9:
        raise ConstructionError("clique fractions must sum to at most 1")
    slack = 1 - sum(fs)
    weights = fs + ((slack,) if slack > 1e-12 else ())  # the rest of the vertices, isolated
    p = len(weights)
    internal = (True,) * len(fs) + (False,) * (p - len(fs))
    return _step("disjoint_cliques", fs, weights, internal, ((False,) * p,) * p)


def circulant(degree_fraction: float) -> ConstructionSpec:
    if not 0 <= degree_fraction <= 1:
        raise ConstructionError("degree fraction must lie in [0,1]")
    d = float(degree_fraction)
    return ConstructionSpec(f"circulant:{d:g}", degree_fraction=d)


def three_part(x: float, y: float) -> ConstructionSpec:
    if not (0 <= x and 0 <= y and x + y <= 1 + 1e-9):
        raise ConstructionError("three_part needs x, y >= 0 and x + y <= 1")
    x, y = float(x), float(y)
    cross = ((False, True, False), (True, True, False), (False, False, False))
    return _step("three_part", (x, y), (x, y, 1 - x - y), (False, True, False), cross)


def complement_of(spec: ConstructionSpec) -> ConstructionSpec:
    """The spec with every colour it holds flipped."""
    return spec._replace(
        name=f"complement:{spec.name}",
        internal_red=tuple(not r for r in spec.internal_red),
        cross_red=tuple(tuple(not r for r in row) for row in spec.cross_red),
        near_red=not spec.near_red,
    )


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


def realize(spec: ConstructionSpec, n: int) -> PartedHost | Circulant:
    """The construction on n vertices, as the parts of a blow-up (part sizes by
    largest-remainder rounding) or as a circulant; `.to_host()` builds it."""
    if n < 2:
        raise ConstructionError("constructions need n >= 2")
    if spec.degree_fraction is None:
        return PartedHost(tuple(apportion(spec.weights, n)), spec.internal_red, spec.cross_red)
    d = round(spec.degree_fraction * (n - 1))
    if d % 2 == 1 and n % 2 == 1:
        d -= 1  # odd-regular needs even n
    return Circulant(n, d, spec.near_red)


def make_construction(spec: ConstructionSpec, n: int) -> HostGraph:
    """The construction on n vertices, built."""
    return realize(spec, n).to_host()


# ---------------------------------------------------------------------------
# the `enumerate` command


def cmd_enumerate(args) -> int:
    k = args.k
    classes = enumerate_colored_graphs(k)
    out = Path(args.out) if args.out else args.cache_dir / f"basis-k{k}.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(basis_text(classes))
    print(f"k={k} count={len(classes)} file={out}")
    return 0
