"""Exact sunflower detection.

A sunflower with k petals is a collection of k distinct sets whose
pairwise intersections all equal one common core; the residues (petals)
are then pairwise disjoint.  Families of pairwise disjoint sets are
sunflowers with an empty core, and any k sets through a common element
whose residues are disjoint form a sunflower with that element as core.

Detection is exact and runs in two phases.  A complete feasibility test
first decides existence: the core of any sunflower with at least two
members is the intersection of two of them, so candidate cores are the
empty set plus either every nonempty set that at least k members
contain (for families of small sets) or all distinct pairwise
intersections; each candidate is settled by the exact packing engine
on the residues.  Both phases work on the same per-vertex incidence
rows, built once per call, bit j of a row marking member j: the members
containing T are the AND of its vertices' rows, and the engine reads a
residue's clashes from the rows of its vertices outside T, so no
residue is built.  The first kind of core comes from ``_heavy_cores``,
a breadth-first walk over cores in increasing vertex order that extends
no core with fewer than k members through it, since every extension of
T lies in a subset of them.  Only when a sunflower exists does the
witness search run: members are scanned in storage order (ascending
mask), as every packing engine reads them, each ordered pair fixes a
core, the rows give the later members that contain it and miss both
residues, and the packing engine completes the collection with the
least of them.  The first completion is the witness whose tuple of
member indices is lexicographically least, which makes the output
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .hypergraph import Hypergraph, SetFamily, _bits, _incidence_rows, _members, _pack_rows, vertices_of

__all__ = [
    "Sunflower",
    "find_sunflower",
    "find_sunflower_with_core",
]

# members at most this large get their candidate cores from the codegree
# walk; larger ones fall back to pairwise intersections
_SUBSET_CAP = 12


@dataclass(frozen=True)
class Sunflower:
    """A core mask plus k >= 2 member masks pairwise intersecting in it."""

    n: int
    core: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        self.validate()

    @property
    def k(self) -> int:
        return len(self.members)

    def core_vertices(self) -> tuple[int, ...]:
        return vertices_of(self.core)

    def member_sets(self) -> list[tuple[int, ...]]:
        return [vertices_of(m) for m in self.members]

    def petals(self) -> list[int]:
        return [m & ~self.core for m in self.members]

    def validate(self) -> None:
        if len(self.members) < 2:
            raise ValueError("a sunflower needs at least two members")
        if len(set(self.members)) != len(self.members):
            raise ValueError("sunflower members must be distinct")
        for i, a in enumerate(self.members):
            for b in self.members[i + 1 :]:
                if a & b != self.core:
                    raise ValueError(
                        f"members {vertices_of(a)} and {vertices_of(b)} "
                        f"do not intersect exactly in the core {vertices_of(self.core)}"
                    )


def _heavy_cores(
    rows: Sequence[int],
    carriers: int,
    need: Callable[[int], int],
    accepted: Sequence[int] = (),
) -> Iterator[tuple[int, int]]:
    """Every nonempty T that at least need(|T|) of the members in
    ``carriers`` contain, lazily, each with the bitset of those members.

    Bit j of rows[v] marks member j as containing vertex v + 1.  Cores
    are walked breadth-first, so they arrive in nondecreasing size, and
    in increasing vertex order within a size.  A core T of size i + 1 is
    its prefix P (T without its largest vertex) from level i extended by
    one larger vertex, and T's carriers are P's carriers ANDed with that
    vertex's row; a core goes on to the next level only if it has at
    least need(|T| + 1) carriers.  The walk is complete when need is
    nondecreasing: the carriers of T are a subset of those of P, so
    |carriers(P)| >= |carriers(T)| >= need(|T|) >= need(|P|), and P was
    yielded and extended.  Each T is reached once, through P.  A level
    keeps its cores' masks, not their carrier bitsets, which are as wide
    as the family is large: P's carriers are rebuilt from |P| rows when
    P is extended, next to a scan over every larger vertex.

    ``accepted`` is the caller's list of the cores it has kept so far,
    read after every step: a core that contains one of them is neither
    yielded nor extended, and a yielded core that the caller appends is
    not extended.  With the empty default every heavy core is yielded.
    """
    verts = [(1 << v, row) for v, row in enumerate(rows) if row]
    level = [(0, 0)]
    size = 1
    floor = need(size)
    while level:
        ahead = need(size + 1)
        deeper = []
        for core, start in level:
            through = _through(rows, core, carriers)
            for i in range(start, len(verts)):
                bit, row = verts[i]
                sub = through & row
                count = sub.bit_count()
                if count < floor:
                    continue
                t = core | bit
                if accepted and any(a & t == a for a in accepted):
                    continue
                yield t, sub
                if count >= ahead and t not in accepted:
                    deeper.append((t, i + 1))
        level = deeper
        size += 1
        floor = ahead


def _through(rows: Sequence[int], core: int, carriers: int) -> int:
    """The members of ``carriers`` that contain every vertex of core."""
    for v in _bits(core):
        carriers &= rows[v]
    return carriers


def _sunflower_exists(
    masks: list[int], rows: list[int], everyone: int, k: int, least: int
) -> bool:
    """Complete existence test over all candidate cores of the at least k
    members ``masks``: ``rows`` are their incidence rows, ``everyone``
    has a bit for each, and ``least`` is the least member size."""
    if _pack_rows(masks, rows, everyone, k, 0, least) is not None:
        return True  # empty core
    if max(m.bit_count() for m in masks) <= _SUBSET_CAP:
        # a core can be a whole member: in mixed-size families it may be
        # contained in all the others
        cores = _heavy_cores(rows, everyone, lambda size: k)
    else:
        cores = (
            (t, _through(rows, t, everyone))
            for t in {a & b for a, b in combinations(masks, 2) if a & b}
        )
    return any(
        _pack_rows(masks, rows, carriers, k, t, least - t.bit_count()) is not None
        for t, carriers in cores
    )


def find_sunflower(family: SetFamily | Hypergraph, k: int) -> Sunflower | None:
    """The k-sunflower inside the family whose member indices in storage
    order are lexicographically least, if any.

    Absence is decided by the complete feasibility test; when a sunflower
    exists, every ordered member pair in storage order fixes a candidate
    core and the least packing of compatible residues completes it.
    """
    if k < 2:
        raise ValueError("find_sunflower requires k >= 2")
    members = _members(family)
    m = len(members)
    if m < k:
        return None
    rows = _incidence_rows(members)
    everyone = (1 << m) - 1
    least = min(mb.bit_count() for mb in members)
    if not _sunflower_exists(members, rows, everyone, k, least):
        return None
    for i0 in range(m - k + 1):
        e0 = members[i0]
        for i1 in range(i0 + 1, m - k + 2):
            e1 = members[i1]
            core = e0 & e1
            cands = _through(rows, core, everyone >> (i1 + 1) << (i1 + 1))
            for v in _bits((e0 | e1) & ~core):
                cands &= ~rows[v]
            got = _pack_rows(members, rows, cands, k - 2, core, least - core.bit_count())
            if got is not None:
                chosen = [e0, e1] + [members[j] for j in got]
                return Sunflower(family.n, core, tuple(chosen))
    raise AssertionError("feasibility and witness search disagree")


def find_sunflower_with_core(
    family: SetFamily | Hypergraph, core: int, k: int
) -> Sunflower | None:
    """Least k-sunflower, in storage order, whose pairwise intersections
    equal `core` exactly; a core outside [n] is refused.

    Members not containing the core cannot participate; among the rest a
    sunflower with this exact core is precisely a set of k members whose
    residues are pairwise disjoint, an exact packing question.
    """
    if k < 2:
        raise ValueError("find_sunflower_with_core requires k >= 2")
    if core < 0:
        raise ValueError(f"a core mask is nonnegative, got {core}")
    if core >> family.n:
        raise ValueError(f"core {vertices_of(core)} leaves the ground set [{family.n}]")
    carriers = [mb for mb in _members(family) if mb & core == core]
    if len(carriers) < k:
        return None
    least = min(mb.bit_count() for mb in carriers) - core.bit_count()
    picked = _pack_rows(
        carriers, _incidence_rows(carriers), (1 << len(carriers)) - 1, k, core, least
    )
    if picked is None:
        return None
    return Sunflower(family.n, core, tuple(carriers[i] for i in picked))
