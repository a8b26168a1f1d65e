"""Core types for finite set systems on a ground set [n] = {1, ..., n}.

Sets are stored as integer bitmasks: vertex ``i`` occupies bit ``i - 1``.
Python integers are arbitrary precision, so no fixed word size is assumed.

Conventions used throughout the package:

* ``Hypergraph`` is r-uniform, edges are distinct, stored sorted by mask
  value (ascending).  ``SetFamily`` holds distinct members of arbitrary
  sizes, same storage order.
* The empty hypergraph is intersecting, has matching number 0 and cover
  number 0.
* ``matching_number`` (nu) is the maximum number of pairwise disjoint
  edges; ``cover_number`` (tau) is the minimum size of a vertex set
  meeting every edge.  For every H: nu(H) <= tau(H) <= r * nu(H), and H
  is intersecting iff nu(H) <= 1.
* ``delete_vertices`` drops all edges meeting the deleted set and
  relabels the remaining vertices order-preservingly onto [n - |Z|].

The exact nu/tau routines are branch-and-bound searches.  They are built
for the small, structured instances that arise here (covers of size at
most ~6, matchings of size at most ~5) and are exact for any input.  nu
is the largest k that ``pack_exists`` reaches; tau and the minimum cover
come from one cover search.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Hypergraph",
    "SetFamily",
    "mask_of",
    "vertices_of",
    "is_intersecting",
    "matching_number",
    "cover_number",
    "delete_vertices",
    "link_graph",
]


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex collection (1-based labels)."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of 1-based vertex labels in a bitmask."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def _check_ground(n: int) -> None:
    if n < 0:
        raise ValueError(f"ground set size must be nonnegative, got {n}")


def _full_mask(n: int) -> int:
    return (1 << n) - 1


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform set system on ground set [n], edges as sorted masks."""

    n: int
    r: int
    edges: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_ground(self.n)
        if self.r < 0:
            raise ValueError(f"edge size must be nonnegative, got {self.r}")
        full = _full_mask(self.n)
        prev = -1
        for e in self.edges:
            if e <= prev:
                raise ValueError("edges must be strictly increasing masks (sorted, distinct)")
            if e & ~full:
                raise ValueError(f"edge {vertices_of(e)} leaves the ground set [{self.n}]")
            if e.bit_count() != self.r:
                raise ValueError(
                    f"edge {vertices_of(e)} has size {e.bit_count()}, expected {self.r}"
                )
            prev = e

    @classmethod
    def from_masks(cls, n: int, r: int, masks: Iterable[int]) -> "Hypergraph":
        return cls(n, r, tuple(sorted(set(masks))))

    @classmethod
    def from_vertex_sets(cls, n: int, r: int, sets: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls.from_masks(n, r, (mask_of(s) for s in sets))

    def vertex_sets(self) -> list[tuple[int, ...]]:
        return [vertices_of(e) for e in self.edges]

    def support(self) -> tuple[int, ...]:
        m = 0
        for e in self.edges:
            m |= e
        return vertices_of(m)

    def degree(self, v: int) -> int:
        bit = 1 << (v - 1)
        return sum(1 for e in self.edges if e & bit)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[int]:
        return iter(self.edges)

    def __contains__(self, mask: int) -> bool:
        i = bisect_left(self.edges, mask)
        return i < len(self.edges) and self.edges[i] == mask


@dataclass(frozen=True)
class SetFamily:
    """Distinct subsets of [n] of arbitrary sizes, stored as sorted masks."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_ground(self.n)
        full = _full_mask(self.n)
        prev = -1
        for m in self.members:
            if m <= prev:
                raise ValueError("members must be strictly increasing masks (sorted, distinct)")
            if m & ~full:
                raise ValueError(f"member {vertices_of(m)} leaves the ground set [{self.n}]")
            prev = m

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        return cls(n, tuple(sorted(set(masks))))

    @classmethod
    def from_vertex_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        return cls.from_masks(n, (mask_of(s) for s in sets))

    def vertex_sets(self) -> list[tuple[int, ...]]:
        return [vertices_of(m) for m in self.members]

    def sizes(self) -> list[int]:
        return [m.bit_count() for m in self.members]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)


def _members(h: Hypergraph | SetFamily) -> tuple[int, ...]:
    return h.edges if isinstance(h, Hypergraph) else h.members


def is_intersecting(h: Hypergraph | SetFamily) -> bool:
    """True iff every two members share a vertex.  Empty families qualify.

    Bit i of ``rows[v]`` marks member i as containing vertex v + 1, so member
    j meets all earlier ones iff its rows OR to the j low bits: O(m * r) ORs.
    """
    rows = [0] * h.n
    for j, e in enumerate(_members(h)):
        bit = 1 << j
        seen = 0
        while e:
            v = (e & -e).bit_length() - 1
            seen |= rows[v]
            rows[v] |= bit
            e &= e - 1
        if seen != bit - 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Exact packing (matching) and covering engines.
#
# Both searches exchange bounds: a packing cannot exceed any vertex cover,
# and a cover is at least as large as any packing.  The greedy cover here
# is the usual max-degree heuristic; it only serves as an upper bound for
# pruning and never affects exactness.


def _greedy_packing(masks: Sequence[int]) -> list[int]:
    """Indices of a maximal pairwise-disjoint subfamily, first-fit order."""
    used = 0
    out = []
    for i, m in enumerate(masks):
        if not m & used:
            out.append(i)
            used |= m
    return out


def _support_packing_cap(masks: Sequence[int]) -> int:
    """Upper bound on a packing from vertex supply.

    Disjoint members consume disjoint vertex sets, so at most as many
    members fit as the smallest member sizes that sum within the
    support.  Empty members are free riders and always fit.
    """
    support = 0
    free = 0
    by_size: dict[int, int] = {}
    for m in masks:
        if m == 0:
            free += 1
            continue
        support |= m
        c = m.bit_count()
        by_size[c] = by_size.get(c, 0) + 1
    budget = support.bit_count()
    cap = free
    for size in sorted(by_size):
        take = min(by_size[size], budget // size)
        cap += take
        budget -= take * size
        if budget < size:
            break
    return cap


def _greedy_cover_size(masks: Sequence[int]) -> int:
    """Size of a vertex cover found by repeated max-degree choice.

    No vertex covers an empty member, so empty members count one each;
    this keeps the result a valid packing upper bound for inputs that
    may contain them.
    """
    remaining = [m for m in masks if m]
    size = sum(1 for m in masks if not m)
    while remaining:
        counts: dict[int, int] = {}
        for m in remaining:
            while m:
                low = m & -m
                counts[low] = counts.get(low, 0) + 1
                m ^= low
        bit = max(counts, key=lambda b: (counts[b], -b))
        remaining = [m for m in remaining if not m & bit]
        size += 1
    return size


def pack_exists(masks: Sequence[int], k: int) -> list[int] | None:
    """Indices of k pairwise-disjoint members, or None.

    Members may include the empty set (disjoint from everything).  The
    witness is the first found in index order, which is the
    lexicographically least one because the search always extends with
    the smallest admissible index.
    """
    if k <= 0:
        return []
    masks = list(masks)
    if len(masks) < k:
        return None
    greedy = _greedy_packing(masks)
    if len(greedy) >= k:
        return greedy[:k]

    def extend(start: int, used: int, chosen: list[int]) -> list[int] | None:
        need = k - len(chosen)
        if need == 0:
            return chosen
        avail = [i for i in range(start, len(masks)) if not masks[i] & used]
        if len(avail) < need:
            return None
        sub = [masks[i] for i in avail]
        if _support_packing_cap(sub) < need:
            return None
        if _greedy_cover_size(sub) < need:
            return None
        for pos, i in enumerate(avail):
            if len(avail) - pos < need:
                return None
            got = extend(i + 1, used | masks[i], chosen + [i])
            if got is not None:
                return got
        return None

    return extend(0, 0, [])


def matching_number(h: Hypergraph | SetFamily) -> int:
    """Maximum number of pairwise disjoint members (exact): the largest k
    that ``pack_exists`` reaches, counting up from the greedy packing."""
    masks = _members(h)
    k = len(_greedy_packing(masks))
    while pack_exists(masks, k + 1) is not None:
        k += 1
    return k


def _cover_exists(masks: Sequence[int], k: int) -> int | None:
    """A cover mask of at most k vertices, or None.

    Branches on the vertices of the first uncovered member; prunes with a
    greedy packing lower bound (a cover needs one vertex per disjoint
    member).
    """
    if not masks:
        return 0
    if k <= 0:
        return None
    if len(_greedy_packing(masks)) > k:
        return None
    e = min(masks, key=lambda m: m.bit_count())
    rest = e
    while rest:
        low = rest & -rest
        rest ^= low
        sub = [m for m in masks if not m & low]
        got = _cover_exists(sub, k - 1)
        if got is not None:
            return got | low
    return None


def _min_cover_mask(masks: Sequence[int]) -> int:
    """The first cover found at the least k, counting up from the greedy
    packing size (a lower bound on tau)."""
    if 0 in masks:
        raise ValueError("the empty set cannot be covered")
    k = len(_greedy_packing(masks))
    while (got := _cover_exists(masks, k)) is None:
        k += 1
    return got


def cover_number(h: Hypergraph | SetFamily) -> int:
    """Minimum size of a vertex set meeting every member (exact)."""
    return _min_cover_mask(_members(h)).bit_count()


def min_cover(h: Hypergraph | SetFamily) -> tuple[int, ...]:
    """A minimum vertex cover as a sorted vertex tuple."""
    return vertices_of(_min_cover_mask(_members(h)))


def delete_vertices(h: Hypergraph, zs: Iterable[int]) -> Hypergraph:
    """Remove Z and every edge meeting it; relabel order-preservingly.

    Vertices keep their relative order: the surviving labels are mapped
    onto [n - |Z|] monotonically.
    """
    zmask = mask_of(zs)
    if zmask & ~_full_mask(h.n):
        raise ValueError("deleted vertices leave the ground set")
    kept = [e for e in h.edges if not e & zmask]
    old_labels = [v for v in range(1, h.n + 1) if not zmask & (1 << (v - 1))]
    new_of = {old: new for new, old in enumerate(old_labels, start=1)}
    relabeled = [mask_of(new_of[v] for v in vertices_of(e)) for e in kept]
    return Hypergraph.from_masks(len(old_labels), h.r, relabeled)


def link_graph(h: Hypergraph, v: int) -> SetFamily:
    """The (r-1)-sets e - v over edges e containing v, on the same ground set."""
    if not 1 <= v <= h.n:
        raise ValueError(f"vertex {v} not in ground set [{h.n}]")
    bit = 1 << (v - 1)
    return SetFamily.from_masks(h.n, (e ^ bit for e in h.edges if e & bit))
