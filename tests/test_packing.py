"""The row-based packing engine against the list-based search it replaced.

`oracle_pack_exists` is the earlier `pack_exists`: it builds the list of
available members at every node and bounds it by vertex supply and by a
greedy max-degree cover.  The engine must return the identical witness,
the lexicographically least packing in index order, on every input,
including the intersecting inputs on which its transversal bound (a
member that misses the core meets every petal) refutes at the root.
"""

from __future__ import annotations

import random
import sys

import pytest

import ifam.hypergraph
from ifam.constructions import ConstructionId, ConstructionParams, build_construction
from ifam.hypergraph import (
    SetFamily,
    _bits,
    _clash,
    _greedy_packing,
    _incidence_rows,
    _pack_rows,
    mask_of,
    matching_number,
    pack_exists,
)
from ifam.verify import _random_star_noise, _random_structured


def oracle_support_cap(masks):
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


def oracle_greedy_cover_size(masks):
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


def oracle_pack_exists(masks, k):
    if k <= 0:
        return []
    masks = list(masks)
    if len(masks) < k:
        return None
    greedy = _greedy_packing(masks)
    if len(greedy) >= k:
        return greedy[:k]

    def extend(start, used, chosen):
        need = k - len(chosen)
        if need == 0:
            return chosen
        avail = [i for i in range(start, len(masks)) if not masks[i] & used]
        if len(avail) < need:
            return None
        sub = [masks[i] for i in avail]
        if oracle_support_cap(sub) < need:
            return None
        if oracle_greedy_cover_size(sub) < need:
            return None
        for pos, i in enumerate(avail):
            if len(avail) - pos < need:
                return None
            got = extend(i + 1, used | masks[i], chosen + [i])
            if got is not None:
                return got
        return None

    return extend(0, 0, [])


def random_masks(rng):
    """Uniform or mixed sizes on a small ground set, sometimes with empty
    members and repeats: the shapes the packing callers pass."""
    n = rng.randint(1, 12)
    count = rng.randint(0, 16)
    if rng.random() < 0.5:
        r = rng.randint(1, min(4, n))
        masks = [sum(1 << v for v in rng.sample(range(n), r)) for _ in range(count)]
    else:
        masks = [
            sum(1 << v for v in rng.sample(range(n), rng.randint(0, min(5, n))))
            for _ in range(count)
        ]
    if masks and rng.random() < 0.3:
        masks.insert(rng.randrange(len(masks) + 1), 0)
    return masks


def test_pack_exists_returns_the_oracle_witness():
    rng = random.Random(2016)
    searched = hits = 0
    for _ in range(6000):
        masks = random_masks(rng)
        k = rng.randint(0, 6)
        want = oracle_pack_exists(masks, k)
        assert pack_exists(masks, k) == want, (masks, k)
        hits += want is not None
        searched += want is not None and len(_greedy_packing(masks)) < k
    # both answers occur, and some packings are past first-fit
    assert 1000 < hits < 5000
    assert searched > 50


def test_pack_rows_with_a_core_matches_the_oracle_on_petals():
    rng = random.Random(1977)
    hits = 0
    for _ in range(4000):
        masks = random_masks(rng)
        n = max(masks, default=0).bit_length()
        core = sum(1 << v for v in range(n) if rng.random() < 0.25)
        cand = sum(1 << j for j in range(len(masks)) if rng.random() < 0.8)
        picked = _bits(cand)
        petals = [masks[j] & ~core for j in picked]
        least = min((p.bit_count() for p in petals), default=0) - rng.randint(0, 1)
        k = rng.randint(0, 6)
        want = oracle_pack_exists(petals, k)
        got = _pack_rows(masks, _incidence_rows(masks), cand, k, core, least)
        assert got == (None if want is None else [picked[i] for i in want])
        hits += want is not None
    assert 500 < hits < 3500


@pytest.mark.parametrize("seed", range(5))
def test_matching_number_is_the_largest_oracle_packing(seed):
    rng = random.Random(seed)
    for _ in range(100):
        masks = sorted(set(random_masks(rng)))
        nu = matching_number(SetFamily(12, tuple(masks)))
        assert oracle_pack_exists(masks, nu) is not None
        assert oracle_pack_exists(masks, nu + 1) is None


def intersecting_families(rng):
    """Star subfamilies with noise, template subfamilies and the lifts
    H3LIFT(n, 4, i) at n = 20 and 60: the intersecting inputs that the
    kernel hands the engine."""
    for _ in range(60):
        yield _random_star_noise(rng, rng.choice((3, 4)))
        yield _random_structured(rng, rng.choice((3, 4)))
    for n in (20, 60):
        for i in range(6):
            yield build_construction(ConstructionId.H3LIFT, ConstructionParams(n, 4, i=i))


def test_pack_rows_matches_the_oracle_where_the_transversal_bound_fires(monkeypatch):
    # On an intersecting family every member meets the least member e
    # that misses the core, so more than |e| petals refute at the root.
    entered = []

    def recording(*args):
        entered.append(True)
        return extend(*args)

    extend = ifam.hypergraph._extend
    monkeypatch.setattr(ifam.hypergraph, "_extend", recording)
    rng = random.Random(1977)
    bound = hits = 0
    for h in intersecting_families(rng):
        masks = h.edges
        rows = _incidence_rows(masks)
        for _ in range(40):
            if rng.random() < 0.5:
                # a proper part of a member, as the kernel's cores are
                vs = _bits(rng.choice(masks))
                core = sum(1 << v for v in rng.sample(vs, rng.randint(0, h.r - 1)))
            else:
                core = sum(1 << v for v in range(h.n) if rng.random() < 0.1)
            picked = sorted(rng.sample(range(len(masks)), min(len(masks), rng.randint(1, 60))))
            cand = sum(1 << j for j in picked)
            petals = [masks[j] & ~core for j in picked]
            least = min(p.bit_count() for p in petals) - rng.randint(0, 1)
            k = rng.randint(0, h.r + 3)
            want = oracle_pack_exists(petals, k)
            entered.clear()
            got = _pack_rows(masks, rows, cand, k, core, least)
            assert got == (None if want is None else [picked[i] for i in want]), (h, core, k)
            hits += want is not None
            bound += got is None and len(picked) >= k and not entered
    assert 1000 < hits < 5000
    assert bound > 1000


def recursive_extend(masks, rows, outside, k, unit, avail, need, live, depths=None):
    """The packing search as it read before its nodes moved to an explicit
    stack: one call per node, recursing on the least index first.  depths,
    if given, collects the need of every node entered."""
    if depths is not None:
        depths.append(need)
    if len(live) // unit < need:
        return None
    if need == k:
        chosen = []
        left = avail
        while left:
            j = (left & -left).bit_length() - 1
            chosen.append(j)
            if len(chosen) == k:
                return chosen
            left &= ~_clash(masks, rows, outside, j)
    left = avail
    for _ in range(need - 1):
        degrees = [(x & left).bit_count() for x in live]
        left &= ~live[degrees.index(max(degrees))]
        if not left:
            return None
    while avail.bit_count() >= need:
        low = avail & -avail
        avail ^= low
        j = low.bit_length() - 1
        if need == 1:
            return [j]
        sub = avail & ~_clash(masks, rows, outside, j)
        if sub.bit_count() >= need - 1:
            sub_live = [x for row in live if (x := row & sub)]
            got = recursive_extend(masks, rows, outside, k, unit, sub, need - 1, sub_live, depths)
            if got is not None:
                return [j] + got
    return None


def extend_from_the_root(masks, rows, outside, k, unit, avail, live, depths=None):
    """``recursive_extend`` called as ``_pack_rows`` calls ``_extend``:
    the root needs all k petals."""
    return recursive_extend(masks, rows, outside, k, unit, avail, k, live, depths)


def test_the_stacked_search_is_the_recursive_search_at_every_root(monkeypatch):
    # each root that _pack_rows hands the search gets the same answer from
    # the recursive search, on the random inputs and on the intersecting ones
    extend = ifam.hypergraph._extend
    roots = deep = 0

    def both(*args):
        nonlocal roots, deep
        depths = []
        want = extend_from_the_root(*args, depths=depths)
        assert extend(*args) == want, args
        roots += 1
        deep += len(depths) > 1  # the search went past its root
        return want

    monkeypatch.setattr(ifam.hypergraph, "_extend", both)
    rng = random.Random(20261020)
    for _ in range(3000):
        masks = random_masks(rng)
        n = max(masks, default=0).bit_length()
        core = sum(1 << v for v in range(n) if rng.random() < 0.2)
        cand = sum(1 << j for j in range(len(masks)) if rng.random() < 0.9)
        least = min((masks[j] & ~core).bit_count() for j in _bits(cand)) if cand else 0
        # one past first-fit sends most roots into the search
        k = len(_greedy_packing([masks[j] & ~core for j in _bits(cand)])) + rng.randint(0, 2)
        _pack_rows(masks, _incidence_rows(masks), cand, k, core, least)
    for h in intersecting_families(random.Random(33)):
        if len(h) <= 200:
            pack_exists(h.edges, rng.randint(2, h.r + 1))
    assert roots > 2000 and deep > 200, (roots, deep)


def depth():
    """The number of frames on the current stack."""
    frame, count = sys._getframe(), 0
    while frame is not None:
        frame, count = frame.f_back, count + 1
    return count


@pytest.mark.parametrize("n", [100, 200, 400])
def test_a_deep_packing_costs_one_bound_below_the_root(monkeypatch, n):
    # the root's first-fit stops one short; the first child that the
    # search opens, member 1, completes by first-fit, so the bound runs
    # at the root and at that child only, not once per level of M
    calls = []
    real = ifam.hypergraph._may_pack
    monkeypatch.setattr(ifam.hypergraph, "_may_pack",
                        lambda *args: calls.append(args[3]) or real(*args))
    matching = [mask_of((3 * i + 1, 3 * i + 2, 3 * i + 3)) for i in range(n)]
    masks = [mask_of((3, 4)), *matching]
    assert pack_exists(masks, n) == list(range(1, n + 1))
    assert calls == [n, n - 1]


def test_a_deep_packing_needs_no_deep_recursion(monkeypatch):
    # {3, 4} meets the first two members of the matching M, so first-fit
    # stops one short and the least packing is M itself, found n levels
    # down the search; the recursive search would need n frames
    n = 200
    matching = [mask_of((3 * i + 1, 3 * i + 2, 3 * i + 3)) for i in range(n)]
    masks = [mask_of((3, 4)), *matching]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth() + 60)
    try:
        assert pack_exists(masks, n) == list(range(1, n + 1))
        monkeypatch.setattr(ifam.hypergraph, "_extend", extend_from_the_root)
        with pytest.raises(RecursionError):
            pack_exists(masks, n)
    finally:
        sys.setrecursionlimit(limit)
