"""Isomorph-free enumeration of small intersecting families.

Families are compared up to relabeling of the ground set.  The canonical
form of a family is the lexicographically least tuple of sorted edge
bitmasks over all vertex relabelings, found by a prefix-pruned search:
assigning labels low to high only ever raises each partial mask, and the
sorted order statistics rise with them, so a branch whose sorted partial
masks already exceed the best known tuple is dead.  Branches that differ
from an explored sibling by a transposition that is an automorphism of
the family are skipped, which collapses the leaf symmetry of stars and
other highly regular inputs.

Three generation strategies share one deduplication:

* cover number at most two: every such class has a representative whose
  edges all meet the fixed pair {1, 2}, so enumeration walks subsets of
  that frame (edges through both vertices are unconstrained; edges seen
  by exactly one of the two must pairwise intersect across the split);
* maximal families: maximal cliques of the edge compatibility graph,
  enumerated with pivoted Bron-Kerbosch;
* everything else: subset search over the full edge pool, pruned to
  intersecting prefixes, and refused outright when the pool is too big
  to sweep.

The first two generators skip most labeled copies of each class, but
never all of them.  Relabelings that map the frame onto itself, the swap
of 1 and 2 and any permutation of {3..n}, map frame candidates to frame
candidates of the same size and keep the filter's verdict.  So any
candidate can be moved to one whose part s2 through 2 alone is no larger
than its part s1 through 1 alone (apply the swap when s2 is larger),
and then, by a permutation of {3..n}, which keeps both sizes, to one
whose s1 is canonical: s1 with the bits of 1 and 2 dropped is an
(r-1)-graph on n-2 vertices, and it must equal its own canonical form.
Each such s1 is tested once, before the s2 and s0 loops.  A nonempty
maximal family has a relabeled copy containing the edge {1..r}, so
Bron-Kerbosch starts from that edge.

Deduplication runs the full minimizing search once per class, as in
the isomorph rejection of orderly generation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998).  The keys found so far are
bucketed by invariant_key.  A candidate is tested against each key in
its bucket by the same search with its best tuple preset to that key,
which stops at the first leaf equal to the key (isomorphic) or below it
(not isomorphic).  Only a candidate that reaches no key in its bucket
gets a canonical_form, whose key joins the bucket.  The test is exact:
isomorphic families share invariant_key; a key is the least leaf over
its class, so the bounded search never prunes the path to a leaf equal
to it; and the automorphism skips only drop subtrees whose leaves repeat
those of a sibling already searched.  The LEMMA_2EDGES candidate sweep
in ``verify`` uses the same deduplication.

Output order is deterministic: ascending edge count, then canonical
form, with each representative rebuilt from its canonical masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .hypergraph import Hypergraph, cover_number, is_intersecting, mask_of

__all__ = [
    "DEFAULT_CEILING",
    "EnumerationFilter",
    "canonical_form",
    "enumerate_intersecting",
    "invariant_key",
]

DEFAULT_CEILING = 9

# Largest edge pool the unrestricted subset sweep will accept.
_GENERAL_POOL_LIMIT = 24


# -- isomorphism invariants and canonical form ------------------------------


def invariant_key(h: Hypergraph) -> tuple:
    """Cheap relabeling-invariant fingerprint used to pre-bucket families."""
    degs = [0] * (h.n + 1)
    pair: dict[tuple[int, int], int] = {}
    for e in h.edges:
        vs = [v for v in range(1, h.n + 1) if e >> (v - 1) & 1]
        for v in vs:
            degs[v] += 1
        for a, b in combinations(vs, 2):
            pair[(a, b)] = pair.get((a, b), 0) + 1
    return (
        h.n,
        h.r,
        len(h),
        tuple(sorted(degs[1:])),
        tuple(sorted(pair.values())),
    )


def _transposition_fixes(masks: frozenset[int], a: int, b: int) -> bool:
    """Does swapping vertices a and b map the family onto itself?"""
    ba, bb = 1 << (a - 1), 1 << (b - 1)
    both = ba | bb
    for e in masks:
        hit = e & both
        if hit == ba or hit == bb:
            if (e ^ both) not in masks:
                return False
    return True


def canonical_form(h: Hypergraph) -> tuple[int, ...]:
    """Lexicographically least sorted edge-mask tuple over relabelings.

    The result identifies the isomorphism class of the family on its
    ground set: two families on the same n with the same r are
    isomorphic exactly when their canonical forms coincide.
    """
    return _canonical_masks(h.n, h.r, h.edges)


def _canonical_masks(
    n: int, r: int, edges, bound: tuple[int, ...] | None = None
) -> tuple[int, ...] | None:
    """``canonical_form`` on bare masks: r-sets on the ground set [n].

    With a bound, the same search starts from the bound as its best
    tuple and stops at the first leaf not above it: the result is the
    bound itself when the family reaches it, a tuple below it, or None
    when every relabeling lies above it.
    """
    masks = list(edges)
    m = len(masks)
    if m == 0:
        return ()
    mask_set = frozenset(masks)

    degs = [0] * (n + 1)
    for e in masks:
        for v in range(1, n + 1):
            if e >> (v - 1) & 1:
                degs[v] += 1
    # heuristic candidate order: busy vertices first so small labels land
    # on them and the partial masks shrink early
    base_order = sorted(range(1, n + 1), key=lambda v: (-degs[v], v))
    rows = [0] * (n + 1)
    for j, e in enumerate(masks):
        for v in range(1, n + 1):
            if e >> (v - 1) & 1:
                rows[v] |= 1 << j
    # vertex pairs whose swap is an automorphism, precomputed so sibling
    # branches that only differ by such a swap are explored once
    swap_ok = [0] * (n + 1)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if degs[a] == degs[b] and _transposition_fixes(mask_set, a, b):
                swap_ok[a] |= 1 << b
                swap_ok[b] |= 1 << a

    best = None if bound is None else list(bound)
    placed = [False] * (n + 1)
    fill = [(1 << d) - 1 for d in range(r + 1)]

    def rec(depth: int, partial: list[int], defs: list[int]) -> bool:
        """Search below this node; True ends the whole search."""
        nonlocal best
        # tightest completion of each edge packs its remaining vertices
        # onto the lowest unassigned labels; the true finals dominate
        # these bounds pointwise, so their order statistics do too
        lbs = sorted(
            pm | (fill[d] << depth) for pm, d in zip(partial, defs)
        )
        if best is not None:
            for got, ref in zip(lbs, best):
                if got < ref:
                    break
                if got > ref:
                    return False
            else:
                # a tie can still complete to the bound itself
                if bound is None:
                    return False
        if depth == n:
            best = lbs
            return bound is not None
        bit = 1 << depth
        tried = 0
        for v in base_order:
            if placed[v]:
                continue
            if swap_ok[v] & tried:
                continue
            tried |= 1 << v
            row = rows[v]
            if row:
                nxt = list(partial)
                nds = list(defs)
                j = 0
                while row:
                    if row & 1:
                        nxt[j] |= bit
                        nds[j] -= 1
                    row >>= 1
                    j += 1
            else:
                nxt, nds = partial, defs
            placed[v] = True
            if rec(depth + 1, nxt, nds):
                return True
            placed[v] = False
        return False

    if rec(0, [0] * m, [r] * m):
        return tuple(best)
    if bound is not None:
        return None
    if best is None:
        raise AssertionError("canonical_form found no relabeling")
    return tuple(best)


def _distinct_classes(n: int, r: int, families) -> list[Hypergraph]:
    """One representative per isomorphism class among families, rebuilt
    from its canonical masks, ordered by edge count, then canonical form.

    Keys are bucketed by invariant_key.  A family is tested against each
    key in its bucket by the bounded search, and only a family that
    reaches none of them pays for a full canonical_form.
    """
    buckets: dict[tuple, list[tuple[int, ...]]] = {}
    for h in families:
        bucket = buckets.setdefault(invariant_key(h), [])
        if not any(_canonical_masks(n, r, h.edges, key) == key for key in bucket):
            bucket.append(canonical_form(h))
    keys = sorted(
        (key for bucket in buckets.values() for key in bucket),
        key=lambda c: (len(c), c),
    )
    return [Hypergraph.from_masks(n, r, c) for c in keys]


# -- filters ----------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationFilter:
    """Predicate bundle applied to enumerated families."""

    intersecting: bool = True
    tau_le: int | None = None
    tau_ge: int | None = None
    min_edges: int | None = None
    max_edges: int | None = None
    maximal_only: bool = False

    def validate(self) -> None:
        for name in ("tau_le", "tau_ge", "min_edges", "max_edges"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")
        if (
            self.tau_le is not None
            and self.tau_ge is not None
            and self.tau_le < self.tau_ge
        ):
            raise ValueError("tau_le below tau_ge admits no family")
        if (
            self.min_edges is not None
            and self.max_edges is not None
            and self.max_edges < self.min_edges
        ):
            raise ValueError("max_edges below min_edges admits no family")
        if self.maximal_only and not self.intersecting:
            raise ValueError("maximal_only is defined for intersecting families")

    def admits(self, h: Hypergraph) -> bool:
        m = len(h)
        if self.min_edges is not None and m < self.min_edges:
            return False
        if self.max_edges is not None and m > self.max_edges:
            return False
        if self.intersecting and not is_intersecting(h):
            return False
        if self.tau_le is not None or self.tau_ge is not None:
            tau = cover_number(h)
            if self.tau_le is not None and tau > self.tau_le:
                return False
            if self.tau_ge is not None and tau < self.tau_ge:
                return False
        return True


# -- generation strategies --------------------------------------------------


def _frame_candidates(n: int, r: int, f: EnumerationFilter):
    """Families whose edges all meet {1, 2}, up to the frame's symmetry:
    hosts every class with cover number at most two.

    s1 takes the edges through 1 only, s2 those through 2 only, s0 those
    through both.  Only candidates with len(s2) <= len(s1) and a
    canonical s1 are produced (see the module docstring).
    """
    b1, b2 = 1, 2
    e_both, e_one, e_two = [], [], []
    for c in combinations(range(1, n + 1), r):
        e = mask_of(c)
        hit = (e & b1, e & b2)
        if hit == (b1, b2):
            e_both.append(e)
        elif hit[0]:
            e_one.append(e)
        elif hit[1]:
            e_two.append(e)
    cap = f.max_edges
    for k1 in range(len(e_one) + 1):
        if cap is not None and k1 > cap:
            break
        for s1 in combinations(e_one, k1):
            if r > 1:
                # s1 without the bits of 1 and 2: an (r-1)-graph on n-2
                low = sorted(e >> 2 for e in s1)
                if tuple(low) != _canonical_masks(n - 2, r - 1, low):
                    continue
            compat = [e for e in e_two if all(e & g for g in s1)]
            for k2 in range(min(k1, len(compat)) + 1):
                if cap is not None and k1 + k2 > cap:
                    break
                for s2 in combinations(compat, k2):
                    for k0 in range(len(e_both) + 1):
                        if cap is not None and k1 + k2 + k0 > cap:
                            break
                        for s0 in combinations(e_both, k0):
                            yield (*s1, *s2, *s0)


def _edge_pool(n: int, r: int) -> list[int]:
    return [mask_of(c) for c in combinations(range(1, n + 1), r)]


def _general_candidates(n: int, r: int, f: EnumerationFilter):
    """Subset sweep over every edge, pruned to intersecting prefixes
    when the filter asks for intersecting families."""
    pool = _edge_pool(n, r)
    cap = f.max_edges
    prune = f.intersecting
    chosen: list[int] = []

    def rec(idx: int):
        if cap is not None and len(chosen) == cap:
            yield tuple(chosen)
            return
        if idx == len(pool):
            yield tuple(chosen)
            return
        yield from rec(idx + 1)
        e = pool[idx]
        if not prune or all(e & g for g in chosen):
            chosen.append(e)
            yield from rec(idx + 1)
            chosen.pop()

    yield from rec(0)


def _maximal_candidates(n: int, r: int):
    """Maximal intersecting families through the edge {1..r}: maximal
    cliques of the edge compatibility graph that contain pool[0], by
    pivoted Bron-Kerbosch over index bitsets."""
    pool = _edge_pool(n, r)
    k = len(pool)
    nbr = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if pool[i] & pool[j]:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i

    out: list[tuple[int, ...]] = []

    def expand(rset: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(tuple(pool[i] for i in _bits(rset)))
            return
        pivot = max(_bits(p | x), key=lambda u: (p & nbr[u]).bit_count())
        rest = p & ~nbr[pivot]
        for v in _bits(rest):
            vb = 1 << v
            expand(rset | vb, p & nbr[v], x & nbr[v])
            p &= ~vb
            x |= vb

    if k:
        expand(1, nbr[0], 0)
    else:
        out.append(())
    return out


def _bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


# -- public entry point -----------------------------------------------------


def enumerate_intersecting(
    n: int,
    r: int,
    f: EnumerationFilter | None = None,
    *,
    ceiling: int = DEFAULT_CEILING,
) -> list[Hypergraph]:
    """One representative per isomorphism class satisfying f.

    Representatives are rebuilt from their canonical masks and arrive in
    a deterministic order: ascending edge count, then canonical form.
    Raises ValueError when n exceeds the ceiling, when the filter is
    inconsistent, or when the filter leaves a search space too large to
    sweep (no tau_le <= 2 and no maximal_only on a big pool).
    """
    if f is None:
        f = EnumerationFilter()
    f.validate()
    if n < 1 or r < 1:
        raise ValueError(f"need positive n and r, got n={n}, r={r}")
    if n > ceiling:
        raise ValueError(f"n={n} exceeds the enumeration ceiling {ceiling}")

    if f.maximal_only:
        candidates = _maximal_candidates(n, r)
    elif f.tau_le is not None and f.tau_le <= 2:
        if f.tau_le == 0:
            candidates = [()]
        else:
            candidates = _frame_candidates(n, r, f)
    else:
        pool_size = len(_edge_pool(n, r))
        if pool_size > _GENERAL_POOL_LIMIT:
            raise ValueError(
                f"edge pool of {pool_size} is too large for an unrestricted "
                "sweep; restrict with tau_le <= 2 or maximal_only"
            )
        candidates = _general_candidates(n, r, f)

    families = (Hypergraph.from_masks(n, r, masks) for masks in candidates)
    return _distinct_classes(n, r, (h for h in families if f.admits(h)))
