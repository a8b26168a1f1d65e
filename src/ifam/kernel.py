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
edges.  A set is heavy when the edges that contain it, its carriers,
number at least the multiplicity of its size.  Both schemes'
multiplicities grow with the size, so a subset of a heavy set is heavy.

Frankl's transversal fact (Frankl, Bull. Austral. Math. Soc. 17, 1977)
narrows the candidates when H is intersecting: in an intersecting
r-uniform family the core of a sunflower with more than r petals meets
every edge, since an edge that misses the core meets every petal, and
an r-set cannot meet r + 1 pairwise disjoint sets.  Both schemes ask
for more than r petals at every core size, as (r+1)^i >= r + 1 and
(rs)^(i+1) >= r^2 > r for r >= 2, so every kernel core of an
intersecting family is a cover, and the candidates there are its
heavy covers of fewer than r vertices (``_heavy_covers``).  They are
complete: every minimal cover is reached by branching on the least
edge that a partial cover misses, r ways at each of at most r - 1
levels, and every other cover T contains a cover T - v of one vertex
less, which is heavy when T is, so T is a one-vertex extension of a
heavy cover that was tested and not accepted.  A cover of r - 1
vertices needs no packing search: its carriers are T + x for distinct
vertices x, so their petals {x} are pairwise disjoint, and it is a
core exactly when it is heavy.

A family that is not intersecting has cores that are no covers, and
there the codegree walk ``sunflower._heavy_cores`` supplies every heavy
core, extending no core whose codegree falls below the multiplicity
its next size needs.  Each candidate of either stream goes through
``sunflower._packed_cores``, the stream ``find_sunflower`` reads too,
which hands the core's carriers to the exact packing engine.  The
engine applies the transversal fact at its root, before any search:
it refutes a core when the least edge that misses it meets every
carrier, as holds in any intersecting family.

Both streams hand over the cores level by level, all cores of one
size before any larger one.  ``b_kernel`` needs only B' (the layers are
built from B' and B''), so it lets them skip every core that
contains a core it has already accepted: such a core gets no packing
test and is not extended, because neither it nor any superset of it
is minimal.  The accepted cores are then exactly B' (the argument is
in ``b_kernel``), and B* is never built.
B'' comes from the same incidence rows: the edges that contain a core
are its carriers, and B'' is the edges outside the carriers of B'.

The invariant checker reuses what the decomposition already settles.
B'' is a subfamily of H, so when H is intersecting only a pair with a
member of B' (or, in a hand-built decomposition, a member of B'' that
is no edge of H) can be disjoint, and only those pairs are tested.
Whether H is intersecting is settled too: ``b_kernel`` keeps, in the
private field ``KernelDecomposition._proof``, the edge tuple it
decomposed and its answer on it.  The checker reads that answer only
when the tuple *is* ``h.edges``, so it builds no rows and runs no proof
for a decomposition of the very family it is handed.  For a
decomposition built by hand, or from another tuple with the same
edges, it proves the property again.  Nothing is cached on the family:
the proof lives and dies with the decomposition.

The reduction step, ``_reduce_to_3graph``, applies when a pair of
vertices covers the family: edges carrying a member of the second or
third layer are kept, and each kept edge is shrunk onto triples through
its layer-2 members, yielding an auxiliary 3-uniform family that
preserves the intersecting property and is again covered by a pair.
Classification of the auxiliary family then transfers back to the
original one.  Its one entry is ``classifier.decompose_th4prime``, which
proves the hypotheses first: the proof that H is intersecting leaves
the incidence rows behind, and the kept edges and the triples are read
from carriers on those rows.

Two named schemes are provided: the single-family scheme with
multiplicity (r+1)^|T|, and (rs)^(|T|+1) for families with nu <= s,
which only ``ifam kernel --scheme rs:S`` and KERNEL_PROPS run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, groupby
from math import comb
from typing import Callable, Iterator, Sequence

from .hypergraph import (
    Hypergraph,
    SetFamily,
    _bits,
    _common,
    _incidence_rows,
    _need,
    _rows_intersect,
    is_intersecting,
    vertices_of,
)
from .sunflower import _heavy_cores, _packed_cores, _through, find_sunflower

__all__ = [
    "ThresholdScheme",
    "KernelDecomposition",
    "paper_r",
    "paper_rs",
    "b_kernel",
    "kernel_bound",
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
        if self.kind == "rs" and (
            isinstance(self.s, bool) or not isinstance(self.s, int) or self.s < 1
        ):
            raise ValueError(f"scheme kind 'rs' needs an integer s >= 1, got {self.s!r}")
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
    """B' and B'' on one ground set; ``by_size`` is their union split
    into layers B_i by size, ascending, derived on construction.

    ``_proof`` is what ``b_kernel`` proved on the way: the edge tuple
    it decomposed and whether that tuple is intersecting, or None for a
    decomposition built by hand.  ``kernel_invariant_violations`` reads
    it for that very tuple.  It is no init parameter and takes no part
    in equality, hashing or the repr, so two decompositions with the
    same parts are equal whether or not either carries a proof.
    """

    b_prime: SetFamily
    b_dprime: SetFamily
    scheme: ThresholdScheme = field(default_factory=paper_r)
    by_size: dict[int, SetFamily] = field(init=False, compare=False)
    _proof: tuple[tuple[int, ...], bool] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        _need(self.b_prime, SetFamily, "b_prime")
        _need(self.b_dprime, SetFamily, "b_dprime")
        _need(self.scheme, ThresholdScheme, "scheme")
        n = self.b_prime.n
        if self.b_dprime.n != n:
            raise ValueError(f"B' and B'' lie on ground sets [{n}] and [{self.b_dprime.n}]")
        # by size, then by mask: a stable sort by size of the mask order
        union = sorted(set(self.b_prime.members) | set(self.b_dprime.members))
        union.sort(key=int.bit_count)
        layers = {i: SetFamily(n, tuple(g)) for i, g in groupby(union, int.bit_count)}
        object.__setattr__(self, "by_size", layers)

    def b(self) -> SetFamily:
        return SetFamily.from_masks(self.b_prime.n, self.b_prime.members + self.b_dprime.members)


def b_kernel(h: Hypergraph, scheme: ThresholdScheme) -> KernelDecomposition:
    """Full kernel decomposition; deterministic for a given H and scheme.

    B' is collected without building B*: each candidate core gets the
    packing test unless it contains a core already accepted, and no core
    that contains one is extended.  The accepted cores are exactly B'.
    Every accepted core is in B*.  Conversely, let T contain a member S
    of B* strictly, and take a minimal member S' of B* inside S.
    Neither S' nor any prefix of S' contains a B* member other than S'
    itself, so no accepted core: the walk reaches S' as it would with
    nothing accepted, and the cover route below reaches every heavy
    cover that contains no accepted core.  S' is tested and accepted.
    Cores come in nondecreasing size and
    |S'| < |T|, so S' is accepted before T comes up, and T is skipped.
    A core of B' contains no other B* member, hence no accepted core,
    and is reached and accepted in the same way.  B'' is then the edges
    containing no member of B', which are the edges containing no
    member of B*.

    When H is intersecting, every B* core is a cover (module
    docstring), and the candidates are the heavy covers of fewer than r
    vertices (``_heavy_covers``).  A cover of r - 1 vertices is accepted
    on its carrier count: its carriers are T + x for distinct x, so
    their petals {x} are pairwise disjoint, and no packing search or
    witness is needed.  Otherwise the codegree walk ``_heavy_cores``
    supplies every heavy core.  Whether H is intersecting is decided by
    the largest-star proof on the rows built here, which accepts at once
    when every edge lies in the largest star.  The answer is kept with
    h.edges in the result's ``_proof``, for the invariant checker.

    The incidence rows of the edges are built once, for the candidates,
    the packing tests and B''.  The edges that contain a core T are its
    carriers, the AND of rows[v] over the vertices v of T, so B'' is the
    edges outside the OR of the carriers of B', read off without a scan;
    with B' empty it is all of H.  An argument of another type is
    refused with a TypeError.
    """
    _need(h, Hypergraph, "h")
    _need(scheme, ThresholdScheme, "scheme")
    rows = _incidence_rows(h.edges)
    intersecting = _rows_intersect(h.edges, rows)
    d = _b_kernel(h, scheme, rows, intersecting)
    object.__setattr__(d, "_proof", (h.edges, intersecting))
    return d


def _b_kernel(
    h: Hypergraph, scheme: ThresholdScheme, rows: list[int], intersecting: bool
) -> KernelDecomposition:
    """b_kernel on the incidence rows of h.edges that the caller holds,
    and on whether the caller has proved h intersecting."""
    everyone = (1 << len(h.edges)) - 1
    bp: list[int] = []
    if h.r >= 2 and everyone:
        thresholds = scheme.table(h.r)

        # an r-set lies in at most one edge, so holding the last threshold
        # past r - 1 keeps the need nondecreasing and ends the walk there
        def need(size: int) -> int:
            return thresholds[min(size, h.r - 1)]

        # both streams read bp after every core they yield: a core that
        # contains an accepted one is neither tested nor extended
        if intersecting:
            cores = _heavy_covers(h.edges, rows, need, bp)
        else:
            cores = _heavy_cores(rows, everyone, need, bp)
        for t, _ in _packed_cores(h.edges, rows, cores, need, h.r):
            bp.append(t)
    bpp = h.edges
    if bp:
        carried = 0
        for t in bp:
            carried |= _through(rows, t, everyone)
        bpp = tuple(h.edges[j] for j in _bits(everyone ^ carried))
    return KernelDecomposition(SetFamily.from_masks(h.n, bp), SetFamily(h.n, bpp), scheme)


def _heavy_covers(
    masks: Sequence[int], rows: Sequence[int], need: Callable[[int], int], accepted: list[int]
) -> Iterator[tuple[int, int]]:
    """Every cover T of the nonempty r-uniform ``masks`` with
    |T| <= r - 2 that at least need(|T|) of them contain and that
    contains no core of ``accepted``, lazily, level by level, each with
    the bitset of those members (its carriers).  A heavy cover of r - 1
    vertices is appended to ``accepted`` instead of being yielded.

    A level's covers come from two routes.  Branching on the least
    member that a partial set P misses reaches every minimal cover: a
    cover C containing P meets that member, so some branch stays inside
    C until it covers.  A branch node is dropped when it has fewer
    carriers than the next level needs, as every set through it has no
    more.  A cover T that is not minimal contains a cover T - v, which
    has at least as many carriers and was a heavy cover of the level
    before; if T contains no accepted core, T - v was yielded and not
    accepted.  So the other covers are the one-vertex extensions of the
    yielded covers that the caller did not append to ``accepted``.
    ``accepted`` is read when a level is built and after every yield,
    and need must be nondecreasing.
    """
    r = masks[0].bit_count()
    everyone = (1 << len(masks)) - 1
    # partial sets that miss a member: carriers and the members they meet
    branch = {0: (everyone, 0)}
    grow: list[tuple[int, int]] = []
    for size in range(1, r):
        floor, ahead = need(size), need(size + 1)
        found: dict[int, int] = {}
        deeper: dict[int, tuple[int, int]] = {}
        for part, (through, hit) in branch.items():
            missed = everyone ^ hit
            for v in _bits(masks[(missed & -missed).bit_length() - 1]):
                t = part | 1 << v
                sub = through & rows[v]
                count = sub.bit_count()
                if count < floor or any(a & t == a for a in accepted):
                    continue
                if hit | rows[v] == everyone:
                    found[t] = sub
                elif size < r - 1 and count >= ahead:
                    deeper[t] = (sub, hit | rows[v])
        for part, through in grow:
            for v, row in enumerate(rows):
                t = part | 1 << v
                if t == part or t in found:
                    continue
                sub = through & row
                if sub.bit_count() >= floor and not any(a & t == a for a in accepted):
                    found[t] = sub
        grow = []
        for t in sorted(found):
            sub = found[t]
            if size == r - 1:
                accepted.append(t)
                continue
            yield t, sub
            if t not in accepted and sub.bit_count() >= ahead:
                grow.append((t, sub))
        branch = deeper


def _same_ground_set(h: Hypergraph, d: KernelDecomposition) -> None:
    """Refuse an h that is no Hypergraph or a d that is no
    KernelDecomposition with a TypeError, and a d of another ground set."""
    _need(h, Hypergraph, "h")
    _need(d, KernelDecomposition, "d")
    if d.b_prime.n != h.n:
        raise ValueError(f"the decomposition lies on [{d.b_prime.n}], the family on [{h.n}]")


def kernel_bound(h: Hypergraph, d: KernelDecomposition) -> int:
    """Upper bound on |H| from counting edges through their B-members.
    A member of more than r vertices lies in no r-set and counts 0.  A
    decomposition of another ground set is refused."""
    _same_ground_set(h, d)
    return sum(
        len(layer) * comb(h.n - i, h.r - i) for i, layer in d.by_size.items() if i <= h.r
    )


def _reduce_to_3graph(
    h: Hypergraph, d: KernelDecomposition, rows: list[int]
) -> tuple[Hypergraph, Hypergraph]:
    """Shrink a pair-coverable family onto its layer-2/3 kernel triples.

    Returns (Hprime, H3) where Hprime keeps the edges containing a
    member of B_2 or B_3 and H3 consists of all B_3 members plus every
    triple through a B_2 member that fits inside a kept edge.  The caller
    has checked that h is intersecting with cover number at most 2, and
    ``rows`` are the incidence rows of h.edges.

    No edge is scanned.  The kept edges are the OR of the carriers of
    the B_2 and B_3 members, read from the rows as B'' is.  The triples
    through a B_2 member t inside a kept edge are t plus one vertex v
    outside t that some carrier of t contains, that is, with rows[v]
    meeting t's carriers.  When every edge is kept, h itself is returned.
    """
    b2 = d.by_size.get(2, SetFamily(h.n, ())).members
    b3 = d.by_size.get(3, SetFamily(h.n, ())).members
    everyone = (1 << len(h.edges)) - 1
    kept = 0
    triples = set(b3)
    for t in b3:
        kept |= _through(rows, t, everyone)
    for t in b2:
        through = _through(rows, t, everyone)
        kept |= through
        triples.update(t | 1 << v for v, row in enumerate(rows) if row & through and not t >> v & 1)
    if kept != everyone:
        h = Hypergraph(h.n, h.r, tuple(h.edges[j] for j in _bits(kept)))
    return h, Hypergraph.from_masks(h.n, 3, triples)


def kernel_invariant_violations(h: Hypergraph, d: KernelDecomposition) -> list[str]:
    """Check the structural guarantees of a decomposition; empty = clean.

    Checks: every edge carries a B-member, B is an antichain, B of an
    intersecting family is intersecting, layer 1 is empty whenever the
    family is intersecting with cover number >= 2 under the single-family
    scheme, no layer holds a sunflower of its forbidden size, and the
    counting bound dominates |H|.  Cover number >= 2 means that H has an
    edge and no vertex lies in every edge, which the AND of the edges
    (``_common``, which may stop at a sample of them) settles with no
    cover search.

    As the layers are B' and B'' split by size, two checks never fail
    alone.  Coverage implies the counting bound, and a singleton {v} in
    an intersecting B covering a family of cover number >= 2 would have
    to meet the member inside an edge that misses v.  Both stay: each is
    a conclusion of the kernel lemma, and the report names it.

    Two checks skip what the family already settles, so they hold for
    any decomposition, a faulty one too.  A kernel member inside an
    edge either has fewer than r vertices or is the edge itself, so an
    edge in layer r is covered and coverage tests only the other edges.
    In an intersecting H, two members of B'' that are edges of H meet,
    so B is intersecting iff each member of B' and each member of B''
    that is no edge of H meets every other member of B; B is not built.
    For a decomposition from ``b_kernel`` every member of B'' is an edge
    of H, so that is |B'| * |B| tests, none when B' is empty.  Whether
    H is intersecting is read from ``d._proof`` when ``b_kernel`` made
    d from the tuple h.edges itself, and proved again otherwise.

    A decomposition of another ground set is refused, not checked.
    """
    _same_ground_set(h, d)
    out: list[str] = []
    layers = d.by_size
    edges = set(h.edges)
    # coverage: an edge of layer r carries itself
    small = [t for i, layer in layers.items() if i < h.r for t in layer.members]
    rest = sorted(edges.difference(layers[h.r].members)) if h.r in layers else h.edges
    bare = next((e for e in rest if not any(t & e == t for t in small)), None)
    if bare is not None:
        out.append(f"edge {vertices_of(bare)} contains no kernel member")
    # antichain: distinct same-size sets never nest, so only compare
    # across layers, the smaller layer first
    nested = next(((a, c) for i, j in combinations(layers, 2) for a in layers[i].members
                   for c in layers[j].members if a & c == a), None)
    if nested is not None:
        out.append("kernel members {} and {} are nested".format(*map(vertices_of, nested)))
    proof = d._proof
    intersecting = proof[1] if proof is not None and proof[0] is h.edges else is_intersecting(h)
    if intersecting:
        # only a pair with one of these in it can be disjoint
        strays = [*d.b_prime.members, *set(d.b_dprime.members).difference(edges)]
        members = [t for layer in layers.values() for t in layer.members]
        if not all(x & y or x == y for x in strays for y in members):
            out.append("kernel of an intersecting family is not intersecting")
    if d.scheme.kind == "r" and intersecting and 1 in layers and not _common(h.edges):
        out.append("layer 1 nonempty for an intersecting family with cover number >= 2")
    if intersecting:
        for i, layer in layers.items():
            thr = d.scheme.claim_threshold(h.r, i)
            if d.scheme.claim_applies(h.r, i) and len(layer) >= thr:
                if find_sunflower(layer, thr) is not None:
                    out.append(f"layer {i} contains a {thr}-sunflower")
    if kernel_bound(h, d) < len(h):
        out.append("counting bound below the family size")
    return out
