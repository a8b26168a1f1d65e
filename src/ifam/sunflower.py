"""Exact sunflower detection.

A sunflower with k petals is k distinct sets whose pairwise
intersections all equal one core; their residues (petals) are then
pairwise disjoint.

The core of any sunflower with at least two members is the intersection
of two of them, so the candidate cores are the empty set, then either
every nonempty set that at least k members contain (for families of
small sets) or all distinct pairwise intersections.  ``_packed_cores``
hands each candidate to the exact packing engine, and the first that
packs is the witness; the kernel reads the same stream with its own
multiplicities.  All of it works on per-vertex incidence rows, built
once per call, bit j of a row marking member j: the members containing
T are the AND of its vertices' rows, so no residue is built.
``_heavy_cores`` walks the small cores breadth-first in increasing
vertex order, each core extended by every larger vertex, and extends no
core with fewer than k members through it, since every extension of T
lies in a subset of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, takewhile
from typing import Callable, Iterable, Iterator, Sequence

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
        # a list would be unhashable and unequal to its tuple twin
        object.__setattr__(self, "members", tuple(self.members))
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
    as the family is large: P's carriers are rebuilt from |P| rows.

    ``accepted`` is the caller's list of the cores it has kept so far,
    read after every step: a core that contains one of them is neither
    yielded nor extended, and a yielded core that the caller appends is
    not extended.  Every extension of a core dropped so contains an
    accepted core, so the walk still reaches every heavy core that
    contains none.  With the empty default every heavy core is yielded.
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


def _pairwise_cores(
    masks: Sequence[int], rows: Sequence[int], everyone: int
) -> Iterator[tuple[int, int]]:
    """The distinct nonempty pairwise intersections of masks in
    nondecreasing size, each with its carriers, built when first asked."""
    for t in sorted({a & b for a, b in combinations(masks, 2) if a & b}, key=int.bit_count):
        yield t, _through(rows, t, everyone)


def _packed_cores(
    masks: Sequence[int],
    rows: Sequence[int],
    cores: Iterable[tuple[int, int]],
    need: Callable[[int], int],
    least: int,
) -> Iterator[tuple[int, list[int]]]:
    """Each (core, carriers) of ``cores`` whose carriers hold need(|core|)
    members with pairwise disjoint petals, as (core, least such index
    list), lazily: the one place where a candidate core meets the
    packing engine.  ``rows`` are the incidence rows of masks, and no
    mask has fewer than ``least`` vertices.
    """
    for core, carriers in cores:
        size = core.bit_count()
        got = _pack_rows(masks, rows, carriers, need(size), core, least - size)
        if got is not None:
            yield core, got


def _need_k(k, caller: str) -> None:
    """Refuse a petal count k that is no int (a bool included) with a
    TypeError, and one below two with a ValueError."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError(f"k must be an int, got {k!r}")
    if k < 2:
        raise ValueError(f"{caller} requires k >= 2")


def find_sunflower(family: SetFamily | Hypergraph, k: int) -> Sunflower | None:
    """The k-sunflower inside the family with the least core, if any.

    Cores are tried empty first, then by fewest vertices, then by least
    vertex tuple, and the first that packs is the witness.  Around it the
    members are the least indices in storage order, as in
    ``find_sunflower_with_core``.  A k that is no int, a bool included,
    is refused with a TypeError.
    """
    _need_k(k, "find_sunflower")
    members = _members(family)
    if len(members) < k:
        return None
    rows = _incidence_rows(members)
    everyone = (1 << len(members)) - 1
    least = min(mb.bit_count() for mb in members)
    pending = None
    if max(mb.bit_count() for mb in members) <= _SUBSET_CAP:
        # a core can be a whole member: in mixed-size families it may be
        # contained in all the others
        cores = _heavy_cores(rows, everyone, lambda size: k)
    else:
        cores = pending = _pairwise_cores(members, rows, everyone)
    hits = _packed_cores(members, rows, chain([(0, everyone)], cores), lambda size: k, least)
    hit = next(hits, None)
    if hit is None:
        return None
    if hit[0] and pending is not None:
        # pairwise cores of one size come in no vertex order: try the rest
        # of the hit's size that precede it (of two same-size sets, the one
        # with the least vertex they differ in), in vertex order
        best = hit[0]
        same = takewhile(lambda tc: tc[0].bit_count() == best.bit_count(), pending)
        lesser = [tc for tc in same if (d := tc[0] ^ best) & -d & tc[0]]
        lesser.sort(key=lambda tc: vertices_of(tc[0]))
        hit = next(_packed_cores(members, rows, lesser, lambda size: k, least), hit)
    core, picked = hit
    return Sunflower(family.n, core, tuple(members[j] for j in picked))


def find_sunflower_with_core(
    family: SetFamily | Hypergraph, core: int, k: int
) -> Sunflower | None:
    """Least k-sunflower, in storage order, whose pairwise intersections
    equal `core` exactly; a core outside [n] is refused, and a core that
    is no int mask or a k that is no int (a bool included) is refused
    with a TypeError.

    Members not containing the core cannot participate; among the rest a
    sunflower with this exact core is precisely a set of k members whose
    residues are pairwise disjoint, an exact packing question.
    """
    if isinstance(core, bool) or not isinstance(core, int):
        raise TypeError(f"core must be an int mask, got {core!r}")
    _need_k(k, "find_sunflower_with_core")
    members = _members(family)
    if core < 0:
        raise ValueError(f"a core mask is nonnegative, got {core}")
    if core >> family.n:
        raise ValueError(f"core {vertices_of(core)} leaves the ground set [{family.n}]")
    carriers = sum(1 << j for j, mb in enumerate(members) if mb & core == core)
    if carriers.bit_count() < k:
        return None
    least = min(mb.bit_count() for mb in members)
    rows = _incidence_rows(members)
    hit = next(_packed_cores(members, rows, [(core, carriers)], lambda size: k, least), None)
    return None if hit is None else Sunflower(family.n, core, tuple(members[j] for j in hit[1]))
