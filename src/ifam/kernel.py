"""Delta-system kernel of an intersecting family and the 3-graph reduction.

For a threshold scheme assigning a multiplicity to each core size, the
kernel machinery collects

  B* : every nonempty T with |T| < r that is the exact core of a
       sunflower in H with scheme(|T|) members,
  B' : the inclusion-minimal members of B*,
  B'': the edges of H containing no member of B*,
  B  : B' together with B'', partitioned by cardinality into layers B_i.

The point of the decomposition is that B covers every edge, forms an
antichain, inherits the intersecting property, and is small layer by
layer, so counting edges through their B-members bounds |H| by
sum over i of |B_i| * C(n-i, r-i).

Core search is complete: a core of any sunflower with at least two
members is the intersection of two of them, hence a proper nonempty
subset of an edge, and a core of a k-sunflower lies in at least k
edges.  Candidate cores come from one breadth-first walk over
per-vertex incidence rows (``sunflower._heavy_cores``): T grows one
vertex at a time in increasing order, its codegree is the popcount of
the AND of its vertices' rows, and T is not extended once the codegree
falls below the multiplicity its next size needs.  Both schemes'
multiplicities grow with the core size, and removing a vertex from T
can only raise its codegree, so every prefix of a surviving core
survives too and the walk misses none.  Each survivor's carrier bitset
goes straight to the exact packing engine (``hypergraph._pack_rows``)
on the walk's own rows, with T as the core its petals leave out; no
petal list is built.

The walk hands over the cores level by level, all cores of one size
before any larger one.  ``b_star`` tests every core.  ``b_kernel``
needs only B' (the layers are built from B' and B''), so it lets the
walk skip every core that contains a core it has already accepted:
such a core gets no packing test and is not extended, because neither
it nor any superset of it is minimal.  The accepted cores are then
exactly B' (the argument is in ``b_kernel``), and B* is never built.

The reduction step applies when a pair of vertices covers the family:
edges carrying a member of the second or third layer are kept, and each
kept edge is shrunk onto triples through its layer-2 members, yielding
an auxiliary 3-uniform family that preserves the intersecting property
and is again covered by a pair.  Classification of the auxiliary family
then transfers back to the original one.

Two named schemes are provided: the single-family scheme with
multiplicity (r+1)^|T|, and a coarser one with multiplicity
(rs)^(|T|+1) used when matchings of size s are peeled away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .hypergraph import (
    Hypergraph,
    SetFamily,
    _incidence_rows,
    _pack_rows,
    cover_number,
    is_intersecting,
    vertices_of,
)
from .sunflower import _heavy_cores, find_sunflower

__all__ = [
    "ThresholdScheme",
    "KernelDecomposition",
    "paper_r",
    "paper_rs",
    "b_star",
    "b_kernel",
    "kernel_bound",
    "reduce_to_3graph",
    "kernel_invariant_violations",
]


@dataclass(frozen=True)
class ThresholdScheme:
    """Required sunflower multiplicity per core size, with its layer bound.

    kind "r" gives multiplicity (r+1)^i for cores of size i and forbids
    (r+1)^(i-1)-sunflowers inside layer B_i; kind "rs" gives (r*s)^(i+1)
    and forbids (r*s)^i-sunflowers.  Layer bounds below 2 are vacuous
    (a one-member sunflower is degenerate) and reported as such by
    `claim_applies`.
    """

    kind: str
    s: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("r", "rs"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "rs" and (self.s is None or self.s < 1):
            raise ValueError("scheme kind 'rs' needs s >= 1")
        if self.kind == "r" and self.s is not None:
            raise ValueError("scheme kind 'r' takes no s")

    @property
    def name(self) -> str:
        return "paper" if self.kind == "r" else f"rs:{self.s}"

    def required(self, r: int, core_size: int) -> int:
        """Multiplicity a size-`core_size` core must reach to enter B*."""
        if not 1 <= core_size <= r - 1:
            raise ValueError(f"core size {core_size} outside 1..{r - 1}")
        if self.kind == "r":
            return (r + 1) ** core_size
        return (r * self.s) ** (core_size + 1)

    def claim_threshold(self, r: int, i: int) -> int:
        """Size of sunflower that layer B_i provably cannot contain."""
        if self.kind == "r":
            return (r + 1) ** (i - 1)
        return (r * self.s) ** i

    def claim_applies(self, r: int, i: int) -> bool:
        return self.claim_threshold(r, i) >= 2

    def table(self, r: int) -> dict[int, int]:
        return {i: self.required(r, i) for i in range(1, r)}


def paper_r() -> ThresholdScheme:
    return ThresholdScheme("r")


def paper_rs(s: int) -> ThresholdScheme:
    return ThresholdScheme("rs", s)


@dataclass(frozen=True)
class KernelDecomposition:
    b_prime: SetFamily
    b_dprime: SetFamily
    by_size: dict[int, SetFamily] = field(compare=False)
    scheme: ThresholdScheme = field(default_factory=paper_r)

    def b(self) -> SetFamily:
        return SetFamily.from_masks(
            self.b_prime.n, self.b_prime.members + self.b_dprime.members
        )


def _sunflower_cores(h: Hypergraph, scheme: ThresholdScheme, minimal: bool) -> list[int]:
    """The exact cores of scheme-sized sunflowers in H in nondecreasing
    size: all of B*, or with ``minimal`` only its minimal members B'."""
    out: list[int] = []
    if h.r < 2 or not h.edges:
        return out
    thresholds = scheme.table(h.r)
    # an r-set lies in at most one edge, so holding the last threshold
    # past r - 1 keeps the need nondecreasing and ends the walk there
    rows = _incidence_rows(h.edges)
    for t, carriers in _heavy_cores(
        rows,
        (1 << len(h.edges)) - 1,
        lambda size: thresholds[min(size, h.r - 1)],
        out if minimal else (),
    ):
        size = t.bit_count()
        if _pack_rows(h.edges, rows, carriers, thresholds[size], t, h.r - size) is not None:
            out.append(t)
    return out


def b_star(h: Hypergraph, scheme: ThresholdScheme) -> SetFamily:
    """All exact cores of scheme-sized sunflowers in H, sizes 1..r-1."""
    return SetFamily.from_masks(h.n, _sunflower_cores(h, scheme, minimal=False))


def b_kernel(h: Hypergraph, scheme: ThresholdScheme) -> KernelDecomposition:
    """Full kernel decomposition; deterministic for a given H and scheme.

    B' is collected without building B*: the core walk hands each core
    the packing test unless it contains a core already accepted, and
    extends no core that contains one.  The accepted cores are exactly
    B'.  Every accepted core is in B*.  Conversely, let T contain a
    member S of B* strictly, and take a minimal member S' of B* inside
    S.  Neither S' nor any prefix of S' contains a B* member other than
    S' itself, so none of them is skipped and no prefix is accepted: the
    walk reaches S' as it would with nothing accepted, tests it and
    accepts it.  The walk yields cores in nondecreasing size and
    |S'| < |T|, so S' is accepted before T comes up, and T is skipped.
    A core of B' contains no other B* member, hence no accepted core,
    and is reached and accepted in the same way.  B'' is then the edges
    containing no member of B', which are the edges containing no
    member of B*.
    """
    bp = _sunflower_cores(h, scheme, minimal=True)
    bpp = [e for e in h.edges if not any(t & e == t for t in bp)]
    union = sorted(set(bp) | set(bpp))
    by_size: dict[int, SetFamily] = {}
    for size in sorted({m.bit_count() for m in union}):
        by_size[size] = SetFamily.from_masks(
            h.n, [m for m in union if m.bit_count() == size]
        )
    return KernelDecomposition(
        b_prime=SetFamily.from_masks(h.n, bp),
        b_dprime=SetFamily.from_masks(h.n, bpp),
        by_size=by_size,
        scheme=scheme,
    )


def kernel_bound(h: Hypergraph, d: KernelDecomposition) -> int:
    """Upper bound on |H| from counting edges through their B-members."""
    return sum(
        len(layer) * comb(h.n - i, h.r - i) for i, layer in d.by_size.items()
    )


def reduce_to_3graph(h: Hypergraph, d: KernelDecomposition) -> tuple[Hypergraph, Hypergraph]:
    """Shrink a pair-coverable family onto its layer-2/3 kernel triples.

    Returns (Hprime, H3) where Hprime keeps the edges containing a
    member of B_2 or B_3 and H3 consists of all B_3 members plus every
    triple through a B_2 member that fits inside a kept edge.
    """
    if not is_intersecting(h) or cover_number(h) > 2:
        raise ValueError("reduction needs an intersecting family with cover number <= 2")
    return _reduce_to_3graph(h, d)


def _reduce_to_3graph(h: Hypergraph, d: KernelDecomposition) -> tuple[Hypergraph, Hypergraph]:
    """reduce_to_3graph for a caller that has already checked that h is
    intersecting with cover number at most 2."""
    b2 = d.by_size.get(2, SetFamily(h.n, ())).members
    b3 = d.by_size.get(3, SetFamily(h.n, ())).members
    carriers = b2 + b3
    kept = [e for e in h.edges if any(t & e == t for t in carriers)]
    triples = set(b3)
    for t in b2:
        for e in kept:
            if e & t == t:
                rest = e & ~t
                for v in vertices_of(rest):
                    triples.add(t | (1 << (v - 1)))
    hprime = Hypergraph.from_masks(h.n, h.r, kept)
    h3 = Hypergraph.from_masks(h.n, 3, sorted(triples))
    return hprime, h3


def kernel_invariant_violations(h: Hypergraph, d: KernelDecomposition) -> list[str]:
    """Check the structural guarantees of a decomposition; empty = clean.

    Checks: every edge carries a B-member, B is an antichain, B of an
    intersecting family is intersecting, layer 1 is empty whenever the
    family is intersecting with cover number >= 2 under the single-family
    scheme, no layer holds a sunflower of its forbidden size, and the
    counting bound dominates |H|.
    """
    out: list[str] = []
    b = d.b()
    bm = b.members
    # coverage: a kernel member inside an edge either has fewer than r
    # vertices (so it sits in b_prime) or is the edge itself
    small = [t for t in bm if t.bit_count() < h.r]
    bset = set(bm)
    for e in h.edges:
        if e not in bset and not any(t & e == t for t in small):
            out.append(f"edge {vertices_of(e)} contains no kernel member")
            break
    # antichain: distinct same-size sets never nest, so only compare
    # across size buckets
    buckets: dict[int, list[int]] = {}
    for t in bm:
        buckets.setdefault(t.bit_count(), []).append(t)
    sizes = sorted(buckets)
    done = False
    for ia, sa in enumerate(sizes):
        if done:
            break
        for sb in sizes[ia + 1 :]:
            pairs = (
                (a, c) for a in buckets[sa] for c in buckets[sb] if a & c == a
            )
            hit = next(pairs, None)
            if hit is not None:
                out.append(
                    f"kernel members {vertices_of(hit[0])} and "
                    f"{vertices_of(hit[1])} are nested"
                )
                done = True
                break
    intersecting = is_intersecting(h)
    if intersecting and not is_intersecting(b):
        out.append("kernel of an intersecting family is not intersecting")
    if (
        d.scheme.kind == "r"
        and intersecting
        and cover_number(h) >= 2
        and 1 in d.by_size
    ):
        out.append("layer 1 nonempty for an intersecting family with cover number >= 2")
    if intersecting:
        for i, layer in d.by_size.items():
            thr = d.scheme.claim_threshold(h.r, i)
            if d.scheme.claim_applies(h.r, i) and len(layer) >= thr:
                if find_sunflower(layer, thr) is not None:
                    out.append(f"layer {i} contains a {thr}-sunflower")
    if kernel_bound(h, d) < len(h):
        out.append("counting bound below the family size")
    return out
