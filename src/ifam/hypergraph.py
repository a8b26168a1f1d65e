"""Core types for finite set systems on a ground set [n] = {1, ..., n}.

Sets are stored as integer bitmasks: vertex ``i`` occupies bit ``i - 1``.
Python integers are arbitrary precision, so no fixed word size is assumed.

Conventions used throughout the package:

* ``Hypergraph`` is r-uniform, edges are distinct, stored sorted by mask
  value (ascending).  ``SetFamily`` holds distinct members of arbitrary
  sizes, same storage order.
* The empty hypergraph is intersecting, has matching number 0 and cover
  number 0.  ``is_intersecting`` accepts a family whose members share a
  vertex (their AND, ``_common``, is nonzero) before it builds any
  incidence row; that AND stops early when a sample of the members
  shares no vertex.
  Otherwise its proof, ``_rows_intersect``, reads the incidence rows
  and tests only the members outside the largest star.  A caller that
  keeps the rows, as the kernel reduction does, builds them and runs
  the proof on them, and ``_two_cover`` decides tau <= 2 on them with
  no cover search.  One builder, ``_incidence_rows``, makes every set
  of rows: one row per vertex up to the highest vertex that a member
  holds, so the ground set size is never read.  It writes the members
  into a byte buffer, lays the buffer's byte-columns into one int per
  1,024-member block, transposes every 8x8 bit block of it by three
  masked delta-swaps, and reads each row off the result as one strided
  slice of little-endian bytes: a few C-level calls per vertex, so no
  bit is set in a wide row.  Blocks keep the temporaries of the big-int
  steps to one block's bytes.  Every conversion names its byte order,
  so the rows are the same on any host.
* ``matching_number`` (nu) is the maximum number of pairwise disjoint
  edges; ``cover_number`` (tau) is the minimum size of a vertex set
  meeting every edge.  For every H: nu(H) <= tau(H) <= r * nu(H), and H
  is intersecting iff nu(H) <= 1.
* ``delete_vertices`` drops all edges meeting the deleted set and
  relabels the remaining vertices order-preservingly onto [n - |Z|].

The exact nu/tau routines are branch-and-bound searches.  They are built
for the small, structured instances that arise here (covers of size at
most ~6, matchings of size at most ~5) and are exact for any input.  tau
and the minimum cover come from one cover search, ``_cover_exists``,
which keeps its branches on an explicit stack, so a large tau needs no
deep recursion.  A caller that needs only whether tau <= k asks that
search with the bound k, or the count-up ``_min_cover_mask`` with the
bound k when it needs the least cover, and gets no exact tau.  Every
packing question, from ``pack_exists``, ``matching_number``, the
kernel's core tests and the sunflower searches, goes to one engine,
``_pack_rows``, on per-vertex incidence rows (bit j of a vertex's row
marks member j as containing it) and a bitset of candidate members.
Its search, ``_extend``, keeps its open nodes on an explicit stack too,
so a packing of many petals needs no deep recursion.  nu is the largest
k that the engine reaches.

Before it searches, the engine applies one bound that needs no labels
(the transversal fact of Frankl's Delta-system method): if some member
e misses the core and meets every candidate, then each candidate's
petal meets e, so at most |e| petals are pairwise disjoint.  In an
intersecting family every member meets every candidate, so asking for
more than |e| petals around a core that e misses is refuted at once.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Hypergraph",
    "SetFamily",
    "mask_of",
    "vertices_of",
    "is_intersecting",
    "matching_number",
    "cover_number",
    "min_cover",
    "delete_vertices",
]


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex collection (1-based labels)."""
    m = 0
    for v in vertices:
        if v < 1:
            raise ValueError(f"vertex labels start at 1, got {v}")
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of 1-based vertex labels in a bitmask: one step per
    set bit, so the cost follows |mask|, not the ground set size."""
    if mask < 0:
        raise ValueError(f"a vertex mask is nonnegative, got {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _bits(x: int) -> list[int]:
    """Indices of the set bits of x, ascending.

    One pass over the reversed binary digits, then a C-level search per
    set bit: on ints of thousands of bits this beats peeling x & -x,
    which copies the whole int at every step.
    """
    digits = bin(x)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _full_mask(n: int) -> int:
    return (1 << n) - 1


def _check_family(n: int, masks: tuple[int, ...], kind: str, r: int | None = None) -> None:
    """Refuse a family that breaks the storage contract: n >= 0, masks
    strictly increasing inside [n], and, given an edge size r >= 0,
    every mask of r vertices.  ``kind`` ("edge" or "member") names a
    mask in the messages."""
    if n < 0:
        raise ValueError(f"ground set size must be nonnegative, got {n}")
    if r is not None and r < 0:
        raise ValueError(f"edge size must be nonnegative, got {r}")
    outside = ~_full_mask(n)
    prev = -1
    for m in masks:
        if m <= prev:
            raise ValueError(f"{kind}s must be strictly increasing masks (sorted, distinct)")
        if m & outside:
            raise ValueError(f"{kind} {vertices_of(m)} leaves the ground set [{n}]")
        if r is not None and m.bit_count() != r:
            raise ValueError(f"{kind} {vertices_of(m)} has size {m.bit_count()}, expected {r}")
        prev = m


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform set system on ground set [n], edges as sorted masks."""

    n: int
    r: int
    edges: tuple[int, ...]

    def __post_init__(self) -> None:
        # a list would leave the family unhashable and unequal to its
        # tuple twin; a tuple converts to itself
        object.__setattr__(self, "edges", tuple(self.edges))
        _check_family(self.n, self.edges, "edge", self.r)

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
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} is outside the ground set [{self.n}]")
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
        object.__setattr__(self, "members", tuple(self.members))
        _check_family(self.n, self.members, "member")

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


def _need(value, kind: type, name: str) -> None:
    """Refuse an argument that is no kind with a TypeError naming it."""
    if not isinstance(value, kind):
        an = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{name} must be {an} {kind.__name__}, got {type(value).__name__}")


def _members(h: Hypergraph | SetFamily) -> tuple[int, ...]:
    """The masks of h; an h that is neither family type is refused with
    a TypeError."""
    if isinstance(h, Hypergraph):
        return h.edges
    if isinstance(h, SetFamily):
        return h.members
    raise TypeError(f"expected a Hypergraph or a SetFamily, got {type(h).__name__}")


def is_intersecting(h: Hypergraph | SetFamily) -> bool:
    """True iff every two members share a vertex.  Empty families qualify.

    Members that all share a vertex meet pairwise, so a nonzero AND of
    all of them (``_common``) accepts at once; without a common vertex
    that AND most often stops at its sample of every 64th member.
    Otherwise the proof is ``_rows_intersect`` on the incidence rows,
    where only the members outside the largest star need a test, |e|
    ORs each.  A caller that needs the rows builds them and runs the
    proof on them.
    """
    members = _members(h)
    if _common(members):
        return True
    return _rows_intersect(members, _incidence_rows(members))


# members between two members of ``_common``'s sample
_AND_STRIDE = 64


def _common(masks: Sequence[int]) -> int:
    """The AND of masks: the vertices that every member holds, -1 (all
    of them) when there is no member.

    A sample, every ``_AND_STRIDE``-th member, is ANDed first (one
    C-level reduce): members without a common vertex are often settled
    by a few spread-out ones, and a zero there stops the AND before the
    rest are read.  Otherwise one more reduce ANDs every member into the
    sample's result.
    """
    common = reduce(and_, masks[::_AND_STRIDE], -1)
    return common and reduce(and_, masks, common)


def _rows_intersect(members: Sequence[int], rows: Sequence[int]) -> bool:
    """Whether members pairwise intersect, read from their incidence rows.

    The members through a vertex of largest degree share that vertex, so
    they meet pairwise.  Every other member j must meet every member but
    itself: the rows of its vertices, with bit j, OR to everyone.  The
    other members are everyone XOR that vertex's row, which lies inside
    everyone, so no complement of the row is built.  A lone empty member
    meets no other member and is intersecting.
    """
    everyone = (1 << len(members)) - 1
    left = everyone ^ max(rows, key=int.bit_count, default=0)
    while left:
        j = left.bit_length() - 1
        left ^= 1 << j
        seen = 1 << j
        e = members[j]
        while e:
            v = e.bit_length() - 1
            seen |= rows[v]
            e ^= 1 << v
        if seen != everyone:
            return False
    return True


def _two_cover(members: Sequence[int], rows: Sequence[int]) -> bool:
    """Whether two vertices meet every member (tau <= 2), read from the
    incidence rows of members.

    A cover {u, w} holds a vertex u of the least member, and unless u
    alone covers, w lies in the least member that u misses.  So at most
    r + r^2 row tests decide it for members of r vertices, with no
    search.  A row lies inside everyone, so the members it misses are an
    XOR, and w covers them when its row holds them: neither test builds
    a complement as wide as the family.
    """
    if not members:
        return True
    everyone = (1 << len(members)) - 1
    for u in _bits(members[0]):
        missed = everyone ^ rows[u]
        if not missed:
            return True
        for w in _bits(members[(missed & -missed).bit_length() - 1]):
            if rows[w] & missed == missed:
                return True
    return False


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


# members per block of ``_incidence_rows``
_ROW_BLOCK = 1024


def _incidence_rows(masks: Sequence[int]) -> list[int]:
    """rows[v] has bit j set iff masks[j] contains vertex v + 1: one row
    per vertex up to the highest vertex that some member holds.

    The rows are read by transposing bits, not built bit by bit,
    ``_ROW_BLOCK`` members at a time.  ``_transposed_block`` gives each
    block's rows column-major: the part of row v for the block's k8
    members, k8 rounded up to a multiple of 8, is every 8th byte from
    byte (v >> 3) * k8 + (v & 7).  A family of one block reads its rows
    off that at once; a larger one first copies each block's columns
    into one column-major buffer for all its members, so each row is
    one strided slice and one ``int.from_bytes`` whatever the number of
    members.  Working a block at a time keeps the big ints of the
    transpose and their temporaries to w * 1,024 bytes for members of
    w bytes: one int for every member would hold several copies of the
    whole buffer at once.  Every conversion names its byte order, so the
    rows do not depend on the host's.  The same steps run at every
    member count.
    """
    n = max(masks, default=0).bit_length()
    if not n:
        return []
    w = n + 7 >> 3
    size = len(masks) + 7 & ~7
    # masks as long as the longest block serve every block
    nbytes = w * min(size, _ROW_BLOCK)
    swaps = _SHORT_SWAPS if nbytes <= _SHORT_BYTES else _swap_masks(nbytes)
    if len(masks) <= _ROW_BLOCK:
        out = _transposed_block(masks, n, swaps)
    else:
        out = bytearray(w * size)
        for lo in range(0, len(masks), _ROW_BLOCK):
            block = _transposed_block(masks[lo : lo + _ROW_BLOCK], n, swaps)
            k8 = min(size - lo, _ROW_BLOCK)
            for q in range(w):
                out[q * size + lo : q * size + lo + k8] = block[q * k8 : q * k8 + k8]
    # the rows of byte-column q, vertices 8q to 8q + 7 (up to n), start
    # at its first 8 bytes
    from_bytes = int.from_bytes
    return [from_bytes(out[s : s + size : 8], "little")
            for q in range(w) for s in range(q * size, q * size + min(8, n - 8 * q))]


def _transposed_block(masks: Sequence[int], n: int, swaps: tuple[int, int, int]) -> bytes:
    """The incidence bytes of masks, column-major.

    The members are written as little-endian words, byte-swapped on a
    big-endian host: 8 bytes each from an array for at most 64 vertices,
    else w = ceil(n / 8) bytes each.  The b members, padded with empty
    ones to k8 = b rounded up to a multiple of 8, have w byte-columns:
    column q holds byte q of each member in turn.  Laid side by side in
    one int, their 8-byte blocks are 8x8 bit matrices, byte i for member
    8c + i and bit j for vertex 8q + j.  After ``_transpose8``, byte
    v & 7 of each of column v >> 3's blocks holds the bits of vertex v
    for 8 members, bit i for member 8c + i.
    """
    k8 = len(masks) + 7 & ~7
    w = n + 7 >> 3
    if n <= 64:
        words = array("Q", masks)
        if sys.byteorder == "big":
            words.byteswap()
        buf, stride = words.tobytes(), 8
    else:
        buf, stride = b"".join([m.to_bytes(w, "little") for m in masks]), w
    buf += bytes((k8 - len(masks)) * stride)
    x = int.from_bytes(b"".join([buf[q::stride] for q in range(w)]), "little")
    return _transpose8(x, swaps).to_bytes(w * k8, "little")


def _swap_masks(nbytes: int) -> tuple[int, int, int]:
    """The masks of the three delta-swaps of ``_transpose8``, with shifts
    7, 14 and 28, each repeated over nbytes bytes."""
    return tuple(
        int.from_bytes(mask.to_bytes(8, "little") * (nbytes >> 3), "little")
        for mask in (0x00AA00AA00AA00AA, 0x0000CCCC0000CCCC, 0x00000000F0F0F0F0)
    )


# the masks for blocks of at most _SHORT_BYTES bytes, as every family of
# at most 128 members and 64 vertices has: made once, as making them costs
# about a sixth of reading such a family's rows
_SHORT_BYTES = 1024
_SHORT_SWAPS = _swap_masks(_SHORT_BYTES)


def _transpose8(x: int, swaps: tuple[int, int, int]) -> int:
    """Transpose every 8x8 bit block of x: bit 8i + j of each 8-byte
    block trades places with bit 8j + i, by the three masked delta-swaps
    of Hacker's Delight 7-3.  swaps holds their masks from
    ``_swap_masks``, at least as long as x: a mask longer than x does no
    harm."""
    m7, m14, m28 = swaps
    t = (x ^ x >> 7) & m7
    x ^= t ^ t << 7
    t = (x ^ x >> 14) & m14
    x ^= t ^ t << 14
    t = (x ^ x >> 28) & m28
    return x ^ t ^ t << 28


def _pack_rows(
    masks: Sequence[int], rows: Sequence[int], cand: int, k: int, core: int, least: int
) -> list[int] | None:
    """Least k indices of the bitset cand, ascending, whose petals
    masks[j] & ~core are pairwise disjoint, or None.

    ``rows`` are the incidence rows of masks and every petal in cand has
    at least ``least`` vertices.  No petal is built: the members that a
    petal clashes with are the OR of its vertices' rows, and the bounds
    read the rows of the vertices outside core, cut down to the members
    still available (an empty petal gets a row of its own, as it clashes
    with nothing).  A node is dropped when these rows cannot supply the
    petals it needs or a greedy max-degree cover of its members takes
    fewer vertices than it needs; neither drops a packing, and the
    branch extends with the least available index, so the witness is
    the lexicographically least one.

    At the root, the least member e that misses core settles the
    question when |e| < k and every member of cand meets e: each petal
    then meets e outside core, so no k petals are pairwise disjoint.
    The bound only refutes, so it holds for any input and leaves the
    witness as it is.
    """
    if k <= 0:
        return []
    if cand.bit_count() < k:
        return None
    hit = 0
    for v in _bits(core):
        if v < len(rows):
            hit |= rows[v]
    j = (~hit & hit + 1).bit_length() - 1  # the least member that misses core
    if j < len(masks) and masks[j].bit_count() < k:
        meets = 0
        for v in _bits(masks[j]):
            meets |= rows[v]
        if meets & cand == cand:
            return None
    outside = ~core
    live = [x for v, row in enumerate(rows) if (x := row & cand) and not core >> v & 1]
    if least <= 0:
        empty = cand
        for x in live:
            empty &= ~x
        live += [1 << j for j in _bits(empty)]
    return _extend(masks, rows, outside, k, max(least, 1), cand, live)


def _clash(masks: Sequence[int], rows: Sequence[int], outside: int, j: int) -> int:
    """Bit j and the members that meet the petal masks[j] & outside."""
    out = 1 << j
    petal = masks[j] & outside
    while petal:
        low = petal & -petal
        out |= rows[low.bit_length() - 1]
        petal ^= low
    return out


def _extend(
    masks: Sequence[int],
    rows: Sequence[int],
    outside: int,
    k: int,
    unit: int,
    avail: int,
    live: list[int],
) -> list[int] | None:
    """The search of ``_pack_rows`` from one root: the least k indices
    of avail whose petals are pairwise disjoint.  live holds the nonzero
    rows cut down to avail, and every petal has at least unit vertices.

    First-fit from the root settles most hits.  Otherwise the open nodes
    wait on an explicit stack, root first, each with the indices it has
    yet to try and its rows, so a packing of thousands of petals needs
    no deep recursion.  A node tries its least index first and a child
    is opened only when ``_may_pack`` keeps it, so the first packing
    found is the least one, as a depth-first recursion would find it.
    First-fit from a child that is opened is the leftmost path below it,
    which that recursion would walk first, as ``_may_pack`` keeps every
    node that a packing passes through; so when first-fit completes the
    packing the search returns it at once, and a packing found many
    levels down costs one first-fit, not one bound per level.
    """
    if len(live) // unit < k:
        return None
    got = _first_fit_petals(masks, rows, outside, avail, k)
    if got is not None:
        return got
    if not _may_pack(live, unit, avail, k):
        return None
    # chosen[i] is the index that led from stack[i] to stack[i + 1]
    stack = [(avail, live)]
    chosen = []
    while stack:
        avail, live = stack[-1]
        want = k - len(chosen)
        if avail.bit_count() < want:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        low = avail & -avail
        avail ^= low
        stack[-1] = (avail, live)
        j = low.bit_length() - 1
        if want == 1:
            return [*chosen, j]
        sub = avail & ~_clash(masks, rows, outside, j)
        if sub.bit_count() >= want - 1:
            sub_live = [x for row in live if (x := row & sub)]
            if _may_pack(sub_live, unit, sub, want - 1):
                chosen.append(j)
                got = _first_fit_petals(masks, rows, outside, sub, want - 1)
                if got is not None:
                    return chosen + got
                stack.append((sub, sub_live))
    return None


def _first_fit_petals(
    masks: Sequence[int], rows: Sequence[int], outside: int, avail: int, k: int
) -> list[int] | None:
    """k indices of avail taken first-fit, least index first, each petal
    disjoint from those taken before it, or None when avail runs out."""
    chosen = []
    while avail:
        j = (avail & -avail).bit_length() - 1
        chosen.append(j)
        if len(chosen) == k:
            return chosen
        avail &= ~_clash(masks, rows, outside, j)
    return None


def _may_pack(live: list[int], unit: int, avail: int, need: int) -> bool:
    """Whether the members avail, with live their nonzero rows, may hold
    need pairwise disjoint petals of at least unit vertices: the rows
    supply that many vertices, and no need - 1 vertices, taken greedily
    by degree among the members left, meet every member."""
    if len(live) // unit < need:
        return False
    left = avail
    for _ in range(need - 1):
        degrees = [(x & left).bit_count() for x in live]
        left &= ~live[degrees.index(max(degrees))]
        if not left:
            return False
    return True


def pack_exists(masks: Sequence[int], k: int) -> list[int] | None:
    """Indices of k pairwise-disjoint members, or None.

    Members may include the empty set (disjoint from everything).  The
    witness is the lexicographically least one (see ``_pack_rows``).
    """
    masks = list(masks)
    least = min((m.bit_count() for m in masks), default=0)
    rows = _incidence_rows(masks)
    return _pack_rows(masks, rows, (1 << len(masks)) - 1, k, 0, least)


def matching_number(h: Hypergraph | SetFamily) -> int:
    """Maximum number of pairwise disjoint members (exact): the largest k
    that the packing engine reaches, counting up from the greedy packing
    on one set of incidence rows."""
    masks = _members(h)
    rows = _incidence_rows(masks)
    everyone = (1 << len(masks)) - 1
    least = min((m.bit_count() for m in masks), default=0)
    k = len(_greedy_packing(masks))
    while _pack_rows(masks, rows, everyone, k + 1, 0, least) is not None:
        k += 1
    return k


def _cover_exists(masks: Sequence[int], k: int) -> int | None:
    """A cover mask of at most k vertices, or None.

    Branches on the vertices of a least member still uncovered, lowest
    vertex first; prunes with a greedy packing lower bound (a cover needs
    one vertex per disjoint member).  The branches wait on an explicit
    stack, one frame per chosen vertex, so a cover of thousands of
    vertices needs no deep recursion; the first cover found is the one a
    depth-first recursion would return.

    A node that may take one more vertex runs no packing and no branch:
    a branch vertex covers its node exactly when every member left holds
    it, and the branches go lowest vertex first, so the first one that
    succeeds is the lowest vertex of the members' AND (``_common``,
    whose sample may settle a zero), and none succeeds when that is zero.
    """
    # frames: members not yet covered, the cover so far, the vertices it
    # may still take, and the branch vertices not yet tried
    stack = []
    left, cover = masks, 0
    while True:
        if not left:
            return cover
        if k == 1:
            common = _common(left)
            if common:
                return cover | common & -common
        elif k > 1 and len(_greedy_packing(left)) <= k:
            stack.append((left, cover, k, min(left, key=int.bit_count)))
        while stack:
            left, cover, k, rest = stack[-1]
            if rest:
                low = rest & -rest
                stack[-1] = (left, cover, k, rest ^ low)
                left, cover, k = [m for m in left if not m & low], cover | low, k - 1
                break
            stack.pop()
        else:
            return None


def _min_cover_mask(masks: Sequence[int], bound: int) -> int | None:
    """The first cover found at the least k, counting up from the greedy
    packing size (a lower bound on tau), or None once k passes bound."""
    if 0 in masks:
        raise ValueError("the empty set cannot be covered")
    for k in range(len(_greedy_packing(masks)), bound + 1):
        if (got := _cover_exists(masks, k)) is not None:
            return got
    return None


def cover_number(h: Hypergraph | SetFamily) -> int:
    """Minimum size of a vertex set meeting every member (exact, <= n)."""
    return _min_cover_mask(_members(h), h.n).bit_count()


def min_cover(h: Hypergraph | SetFamily) -> tuple[int, ...]:
    """A minimum vertex cover as a sorted vertex tuple."""
    return vertices_of(_min_cover_mask(_members(h), h.n))


def delete_vertices(h: Hypergraph, zs: Iterable[int]) -> Hypergraph:
    """Remove Z and every edge meeting it; relabel order-preservingly.

    Vertices keep their relative order: the surviving labels are mapped
    onto [n - |Z|] monotonically.
    """
    _need(h, Hypergraph, "h")
    zmask = mask_of(zs)
    if zmask & ~_full_mask(h.n):
        raise ValueError("deleted vertices leave the ground set")
    kept = [e for e in h.edges if not e & zmask]
    old_labels = [v for v in range(1, h.n + 1) if not zmask & (1 << (v - 1))]
    new_of = {old: new for new, old in enumerate(old_labels, start=1)}
    relabeled = [mask_of(new_of[v] for v in vertices_of(e)) for e in kept]
    return Hypergraph.from_masks(len(old_labels), h.r, relabeled)

