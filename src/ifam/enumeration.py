"""Isomorph-free enumeration of small intersecting families.

Families are compared up to relabeling of the ground set.  The canonical
form of a family is the lexicographically least tuple of sorted edge
bitmasks over all vertex relabelings, found by a prefix-pruned search
that assigns labels low to high, busiest vertices first.  Each mask's
lower bound is the labels it has so far plus its missing vertices packed
onto the lowest free labels, read from a fill table indexed by depth and
by the number missing.  Every completion dominates these bounds
pointwise, and so their sorted order statistics too, so a branch whose
sorted bounds compare at or above the best known tuple, in one list
comparison, is dead.  One pass over the set bits lists the masks through
each vertex, so assigning a vertex touches only those masks.  Branches
that differ from an explored sibling by a transposition that is an
automorphism of the family are skipped, which collapses the leaf
symmetry of stars and other highly regular inputs.

Sweeps use orderly generation (Read, "Every one a winner", Ann.
Discrete Math. 2, 1978; McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998).  Call a sorted mask tuple canonical when it is
its own canonical form.  Dropping the largest mask of a canonical tuple
leaves a canonical tuple, its parent.  Suppose a relabeling sent the
parent to a sorted tuple below it, first lower at position i.  Adding
the image of the dropped mask can only lower each order statistic, so
the image of the whole tuple agrees with or undercuts it before i and
is strictly lower at i: the whole tuple was not canonical.  So every
canonical tuple is reached from the empty one by adding masks in
increasing order through canonical tuples only, and along exactly one
path.  The generator extends each canonical tuple by each pool edge
above its last mask and keeps a child only if it passes a prune
predicate and is canonical.  Each class satisfying the predicate then
appears once, as its canonical form, provided the predicate is
invariant under relabeling (so the canonical form satisfies it too)
and hereditary (so every prefix on the path to it does): intersecting,
cover number at most t, at most k edges, some vertex missing at most
two edges.  The prune reads a child as masks and asks only its
questions: the new edge meets every edge of its parent, and a bounded
search finds a cover of at most t vertices; no family is built and no
exact cover number is computed.  Conditions that are not hereditary,
lower bounds on the cover number or the edge count, filter the output.

The canonicity test is the canonical-form search started with its best
tuple preset to the candidate itself.  It stops at the first leaf
strictly below the candidate and answers None when no leaf is.  The
test is exact: the prefix bound drops only branches whose every leaf is
at or above the best tuple, and an automorphism skip drops only a
subtree whose leaves repeat those of a sibling already searched.

Maximal families are not hereditary, so they come from pivoted
Bron-Kerbosch over the edge compatibility graph, seeded by orderly
generation.  A clique's sorted prefix of d masks is unique, and the
prefix of a canonical clique is canonical: it is reached by dropping
largest masks, and the parent argument holds at each step.  So the
seeds are the canonical intersecting tuples of d edges.  From a seed T
the search adds only edges above T's last mask, so each clique is built
once, from its own prefix; the edges that meet all of T below its last
mask start in the excluded set X, so a clique is reported only when no
edge at all extends it.  A canonical tuple of fewer than d edges that
no edge extends is a maximal class as it is.  Each reported clique
still gets the canonicity test, which keeps one per class.  With d = 1
the only seed is {1..r}, the least r-set mask, which starts every
nonempty canonical form: Bron-Kerbosch through that edge alone.

Output order is deterministic: ascending edge count, then canonical
form, with each representative rebuilt from its canonical masks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations

from .hypergraph import (
    Hypergraph,
    _bits,
    _cover_exists,
    _members,
    _need,
    is_intersecting,
    mask_of,
)

__all__ = [
    "DEFAULT_CEILING",
    "EnumerationFilter",
    "canonical_form",
    "enumerate_intersecting",
]

DEFAULT_CEILING = 9

# Largest edge pool a sweep without tau_le <= 2 or maximal_only will accept.
_GENERAL_POOL_LIMIT = 24


# -- canonical form ----------------------------------------------------------


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
    _need(h, Hypergraph, "h")
    return _canonical_masks(h.n, h.r, h.edges)


# the canonical search's transposition state: the mask set, and for each
# vertex the bitsets of equal-degree partners not yet decided and of
# partners whose swap is an automorphism
_Swaps = tuple[frozenset[int], list[int], list[int]]


@lru_cache(maxsize=32)
def _fill_table(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """fills[depth][d]: the d lowest labels from depth on, as a mask."""
    return tuple(
        tuple(((1 << d) - 1) << depth for d in range(r + 1))
        for depth in range(n + 1)
    )


def _canonical_masks(
    n: int, r: int, edges, bound: tuple[int, ...] | None = None
) -> tuple[int, ...] | None:
    """``canonical_form`` on bare masks: r-sets on the ground set [n].

    With a bound, the same search starts from the bound as its best
    tuple and stops at the first leaf strictly below it, which it
    returns; None means no relabeling lies below the bound.  Run with
    the family's own sorted masks as the bound, this is the canonicity
    test: None exactly when the masks are their own canonical form.

    One pass over the set bits builds inc[v], the indices of the masks
    through v, so a child touches only the masks of its vertex.  A node
    reads its lower bounds from the fill table and prunes on one list
    comparison with the best tuple.  Without a bound the best tuple
    starts as [1 << n], above every tuple of masks on [n].
    """
    masks = list(edges)
    m = len(masks)
    inc: list[list[int]] = [[] for _ in range(n + 1)]
    for j, e in enumerate(masks):
        while e:
            low = e & -e
            inc[low.bit_length()].append(j)
            e ^= low
    degs = [len(ids) for ids in inc]
    # heuristic candidate order: busy vertices first so small labels land
    # on them and the partial masks shrink early; the sort is stable, so
    # equal degrees keep ascending labels
    order = sorted(range(1, n + 1), key=degs.__getitem__, reverse=True)
    # vertex pairs whose swap is an automorphism, so sibling branches that
    # only differ by such a swap are explored once; a pair of equal degree
    # is decided when the search first asks about it, then memoized
    by_deg: dict[int, int] = {}
    for v in range(1, n + 1):
        by_deg[degs[v]] = by_deg.get(degs[v], 0) | 1 << v
    undecided = [by_deg.get(d, 0) & ~(1 << v) for v, d in enumerate(degs)]
    swaps = (frozenset(masks), undecided, [0] * (n + 1))
    best = [1 << n] if bound is None else list(bound)
    found = _search(
        0, [0] * m, [r] * m, best, bound is not None,
        n, order, inc, [False] * (n + 1), _fill_table(n, r), swaps,
    )
    if bound is not None and not found:
        return None
    return tuple(best)


def _decide_swap(swaps: _Swaps, v: int, todo: int) -> bool:
    """Decide the pairs (v, u), u in todo, until one swap is an
    automorphism, and record each decision in swaps."""
    mask_set, undecided, swap_ok = swaps
    while todo:
        low = todo & -todo
        todo ^= low
        u = low.bit_length() - 1
        undecided[v] ^= low
        undecided[u] ^= 1 << v
        if _transposition_fixes(mask_set, u, v):
            swap_ok[v] |= low
            swap_ok[u] |= 1 << v
            return True
    return False


def _search(
    depth: int,
    partial: list[int],
    defs: list[int],
    best: list[int],
    stop: bool,
    n: int,
    order: list[int],
    inc: list[list[int]],
    placed: list[bool],
    fills: tuple[tuple[int, ...], ...],
    swaps: _Swaps,
) -> bool:
    """One node of ``_canonical_masks``, with labels 1..depth assigned:
    partial[j] holds the labels mask j has so far and defs[j] how many
    it still lacks.  A leaf below best replaces it in place; True ends
    the whole search, at the first such leaf when stop is set.

    A module-level function, not a closure: a closure that calls itself
    is a reference cycle, which would keep the call's state alive until
    the next full garbage collection.
    """
    # tightest completion of each mask packs its remaining vertices onto
    # the lowest unassigned labels; the true finals dominate these bounds
    # pointwise, so their order statistics do too, and a branch whose
    # bounds reach best (a tie included) completes to nothing below it
    fill = fills[depth]
    lbs = sorted([pm | fill[d] for pm, d in zip(partial, defs)])
    if lbs >= best:
        return False
    if depth == n:
        best[:] = lbs
        return stop
    bit = 1 << depth
    undecided, swap_ok = swaps[1], swaps[2]
    tried = 0
    for v in order:
        if placed[v] or swap_ok[v] & tried:
            continue
        todo = tried & undecided[v]
        if todo and _decide_swap(swaps, v, todo):
            continue
        tried |= 1 << v
        ids = inc[v]
        if ids:
            nxt = partial.copy()
            nds = defs.copy()
            for j in ids:
                nxt[j] |= bit
                nds[j] -= 1
        else:
            nxt, nds = partial, defs
        placed[v] = True
        if _search(
            depth + 1, nxt, nds, best, stop, n, order, inc, placed, fills, swaps
        ):
            return True
        placed[v] = False
    return False


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
        for name in ("intersecting", "maximal_only"):
            v = getattr(self, name)
            if not isinstance(v, bool):
                raise TypeError(f"{name} must be a bool, got {v!r}")
        for name in ("tau_le", "tau_ge", "min_edges", "max_edges"):
            v = getattr(self, name)
            if v is not None and (isinstance(v, bool) or not isinstance(v, int)):
                raise TypeError(f"{name} must be an int or None, got {v!r}")
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
        if self.tau_le is not None and _cover_exists(_members(h), self.tau_le) is None:
            return False
        # tau >= 0 holds for every family
        return not self.tau_ge or _cover_exists(_members(h), self.tau_ge - 1) is None


# -- generation strategies --------------------------------------------------


def _edge_pool(n: int, r: int) -> list[int]:
    """Every r-set of [n] as a mask, ascending: pool[0] is {1..r}."""
    return sorted(mask_of(c) for c in combinations(range(1, n + 1), r))


def _orderly(n: int, r: int, keep) -> list[Hypergraph]:
    """Orderly generation: every class whose canonical form has all its
    prefixes accepted, as representatives rebuilt from their canonical
    masks, by edge count, then canonical form.

    keep(fam, e) decides whether the canonical tuple fam may grow by the
    edge e above its last mask.  It must be hereditary and invariant
    under relabeling; see the module docstring.
    """
    pool = _edge_pool(n, r)
    out: list[Hypergraph] = []
    # parents of one size in canonical order give children in canonical
    # order, so each level comes out sorted
    level: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while level:
        grown = []
        for fam, start in level:
            out.append(Hypergraph.from_masks(n, r, fam))
            for i in range(start, len(pool)):
                e = pool[i]
                child = (*fam, e)
                if keep(fam, e) and _canonical_masks(n, r, child, child) is None:
                    grown.append((child, i + 1))
        level = grown
    return out


# Length of the canonical prefixes that seed the maximal sweep.  Seconds
# for the maximal (n, 3) sweep by depth 1 to 6, best of three, 2 vCPUs:
#   n = 7:  0.140  0.055  0.043  0.038  0.051  0.089
#   n = 10: 1.370  0.360  0.261  0.187  0.176  0.244
# Deeper, the orderly levels cost more than the cliques they save.
_SEED_DEPTH = 4


def _maximal_classes(n: int, r: int) -> list[Hypergraph]:
    """Maximal intersecting families, one per class, ordered as in
    _orderly: the canonical maximal cliques of the edge compatibility
    graph, found by pivoted Bron-Kerbosch over index bitsets.

    Each canonical intersecting tuple T of _SEED_DEPTH edges, listed by
    _orderly, seeds one search: clique T, candidates the edges meeting
    all of T above its last mask, excluded the ones below it.  So each
    clique maximal in the whole graph is reported from its own sorted
    prefix, once.  A shorter tuple that no edge extends is maximal as it
    is.  With depth 1 the only seed is {1..r}, the edge that starts
    every nonempty canonical form.  The module docstring says why every
    class is reached.
    """
    pool = _edge_pool(n, r)
    index = {e: i for i, e in enumerate(pool)}
    k = len(pool)
    nbr = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if pool[i] & pool[j]:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i

    out: list[tuple[int, ...]] = []
    prefixes = _orderly(
        n, r, lambda fam, e: len(fam) < _SEED_DEPTH and all(e & g for g in fam)
    )
    for h in prefixes:
        # rset: the prefix as index bits; common: the edges meeting all of it
        rset, common = 0, (1 << k) - 1
        for e in h.edges:
            rset |= 1 << index[e]
            common &= nbr[index[e]]
        if len(h.edges) < _SEED_DEPTH:
            if common == 0:
                out.append(h.edges)
        else:
            above = -1 << rset.bit_length()
            _expand(n, r, pool, nbr, out, rset, common & above, common & ~above)
    out.sort(key=lambda c: (len(c), c))
    return [Hypergraph.from_masks(n, r, c) for c in out]


def _expand(
    n: int,
    r: int,
    pool: list[int],
    nbr: list[int],
    out: list[tuple[int, ...]],
    rset: int,
    p: int,
    x: int,
) -> None:
    """One Bron-Kerbosch node of ``_maximal_classes``: the clique rset,
    candidates p and excluded x as index bitsets.  Appends each maximal
    clique below it that passes the canonicity test to out.

    A module-level function, not a closure: a closure that calls itself
    is a reference cycle, which would keep the sweep's state alive until
    the next full garbage collection.
    """
    if p == 0 and x == 0:
        clique = tuple(pool[i] for i in _bits(rset))
        if _canonical_masks(n, r, clique, clique) is None:
            out.append(clique)
        return
    pivot = max(_bits(p | x), key=lambda u: (p & nbr[u]).bit_count())
    rest = p & ~nbr[pivot]
    for v in _bits(rest):
        vb = 1 << v
        _expand(n, r, pool, nbr, out, rset | vb, p & nbr[v], x & nbr[v])
        p &= ~vb
        x |= vb


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
    Raises TypeError when n or r is not an int (a bool is refused), when
    f is not an EnumerationFilter, or when a bound of f is not an int or
    None or a flag of f is not a bool, and ValueError when n exceeds the
    ceiling, when the filter is inconsistent, or when the filter leaves
    a search space too large to sweep (no tau_le <= 2 and no
    maximal_only on a big pool).
    """
    for name, v in (("n", n), ("r", r)):
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"{name} must be an int, got {v!r}")
    f = EnumerationFilter() if f is None else f
    _need(f, EnumerationFilter, "f")
    f.validate()
    if n < 1 or r < 1:
        raise ValueError(f"need positive n and r, got n={n}, r={r}")
    if n > ceiling:
        raise ValueError(f"n={n} exceeds the enumeration ceiling {ceiling}")

    if f.maximal_only:
        fams = _maximal_classes(n, r)
        # maximal cliques of the compatibility graph are intersecting
        rest = replace(f, intersecting=False)
    else:
        if f.tau_le is None or f.tau_le > 2:
            pool_size = len(_edge_pool(n, r))
            if pool_size > _GENERAL_POOL_LIMIT:
                raise ValueError(
                    f"edge pool of {pool_size} is too large for an unrestricted "
                    "sweep; restrict with tau_le <= 2 or maximal_only"
                )

        def keep(fam: tuple[int, ...], e: int) -> bool:
            if f.max_edges is not None and len(fam) >= f.max_edges:
                return False
            if f.intersecting and not all(e & g for g in fam):
                return False
            return f.tau_le is None or _cover_exists((*fam, e), f.tau_le) is not None

        fams = _orderly(n, r, keep)
        # keep held every prefix to the hereditary conditions; the lower
        # bounds are left
        rest = EnumerationFilter(
            intersecting=False, tau_ge=f.tau_ge, min_edges=f.min_edges
        )
    return [h for h in fams if rest.admits(h)]
