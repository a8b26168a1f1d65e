"""The canonical-form search against the closure-based search it replaced.

The oracle below is the earlier body of `_canonical_masks`: it built the
incidence rows with two O(n*m) loops, shifted a vertex's whole row bit
by bit into each child, and compared the sorted lower bounds with the
best tuple element by element.  The current search visits the same
nodes in the same order, so on every input both must return the same
canonical form, and in the bound mode the same first lower leaf or
None.
"""

from __future__ import annotations

import random
from itertools import combinations

from ifam.constructions import ConstructionId, ConstructionParams, build_construction
from ifam.enumeration import _canonical_masks, canonical_form
from ifam.hypergraph import Hypergraph, mask_of

SEED = 20261018


def oracle_transposition_fixes(masks, a, b):
    ba, bb = 1 << (a - 1), 1 << (b - 1)
    both = ba | bb
    for e in masks:
        hit = e & both
        if hit == ba or hit == bb:
            if (e ^ both) not in masks:
                return False
    return True


def oracle_canonical_masks(n, r, edges, bound=None):
    masks = list(edges)
    m = len(masks)
    mask_set = frozenset(masks)

    degs = [0] * (n + 1)
    for e in masks:
        for v in range(1, n + 1):
            if e >> (v - 1) & 1:
                degs[v] += 1
    base_order = sorted(range(1, n + 1), key=lambda v: (-degs[v], v))
    rows = [0] * (n + 1)
    for j, e in enumerate(masks):
        for v in range(1, n + 1):
            if e >> (v - 1) & 1:
                rows[v] |= 1 << j
    by_deg = {}
    for v in range(1, n + 1):
        by_deg[degs[v]] = by_deg.get(degs[v], 0) | 1 << v
    undecided = [by_deg.get(d, 0) & ~(1 << v) for v, d in enumerate(degs)]
    swap_ok = [0] * (n + 1)

    def decide(v, todo):
        while todo:
            low = todo & -todo
            todo ^= low
            u = low.bit_length() - 1
            undecided[v] ^= low
            undecided[u] ^= 1 << v
            if oracle_transposition_fixes(mask_set, u, v):
                swap_ok[v] |= low
                swap_ok[u] |= 1 << v
                return True
        return False

    best = None if bound is None else list(bound)
    placed = [False] * (n + 1)
    fill = [(1 << d) - 1 for d in range(r + 1)]

    def rec(depth, partial, defs):
        nonlocal best
        lbs = sorted(pm | (fill[d] << depth) for pm, d in zip(partial, defs))
        if best is not None:
            for got, ref in zip(lbs, best):
                if got < ref:
                    break
                if got > ref:
                    return False
            else:
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
            todo = tried & undecided[v]
            if todo and decide(v, todo):
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

    found = rec(0, [0] * m, [r] * m)
    if bound is not None and not found:
        return None
    return tuple(best)


def corpus():
    """2,100 seeded families over n = 4..8 and r = 2..4, from empty to
    dense, then the symmetric and degenerate inputs."""
    rng = random.Random(SEED)
    shapes = [(n, r) for n in range(4, 9) for r in (2, 3, 4) if r < n]
    fams = []
    for i in range(2100):
        n, r = shapes[i % len(shapes)]
        pool = [mask_of(c) for c in combinations(range(1, n + 1), r)]
        m = rng.randint(0, min(len(pool), 12))
        fams.append(Hypergraph.from_masks(n, r, rng.sample(pool, m)))
    k5 = [mask_of(c) for c in combinations(range(1, 6), 3)]
    fams += [Hypergraph.from_masks(n, 3, k5) for n in (5, 7, 8)]
    fams += [build_construction(ConstructionId.FP, ConstructionParams(n, 3)) for n in (7, 8)]
    for n, r in ((5, 2), (6, 3), (8, 3), (8, 4)):
        star = [mask_of((1, *c)) for c in combinations(range(2, n + 1), r - 1)]
        fams.append(Hypergraph.from_masks(n, r, star))
        fams.append(Hypergraph.from_masks(n, r, []))
        fams.append(Hypergraph.from_masks(n, r, [mask_of(range(n - r + 1, n + 1))]))
    return fams


def test_canonical_search_matches_the_closure_search():
    fams = corpus()
    assert len(fams) >= 2000
    verdicts = set()
    for h in fams:
        key = canonical_form(h)
        assert key == oracle_canonical_masks(h.n, h.r, h.edges), h.edges
        got = _canonical_masks(h.n, h.r, h.edges, h.edges)
        assert got == oracle_canonical_masks(h.n, h.r, h.edges, h.edges), h.edges
        verdicts.add(got is None)
        # the canonical form as its own bound has nothing below it
        assert _canonical_masks(h.n, h.r, key, key) is None
    assert verdicts == {True, False}
