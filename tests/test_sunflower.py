"""Sunflower search against naive enumeration of all k-subsets."""

from __future__ import annotations

import random
from itertools import combinations
from math import factorial

import pytest

from ifam.hypergraph import Hypergraph, SetFamily, mask_of
from ifam.sunflower import Sunflower, find_sunflower, find_sunflower_with_core


def er_bound(k, i):
    """k^i * i!, the Erdos-Rado size at which i-uniform families are
    guaranteed to contain a k-sunflower."""
    if k < 1 or i < 1:
        raise ValueError("er_bound requires k >= 1 and i >= 1")
    return k**i * factorial(i)


def is_sunflower(masks):
    masks = list(masks)
    if len(masks) < 2:
        return False
    core = masks[0] & masks[1]
    return all(a & b == core for a, b in combinations(masks, 2))


def naive_has_sunflower(family, k):
    return any(is_sunflower(sub) for sub in combinations(family.members, k))


def naive_has_core_sunflower(family, core, k):
    return any(
        is_sunflower(sub) and (sub[0] & sub[1]) == core
        for sub in combinations(family.members, k)
    )


def fam(*sets, n=12):
    return SetFamily.from_vertex_sets(n, sets)


def test_er_bound_values():
    assert er_bound(3, 2) == 18
    assert er_bound(2, 1) == 2
    assert er_bound(4, 3) == 384
    assert er_bound(1, 5) == factorial(5)
    with pytest.raises(ValueError):
        er_bound(0, 2)
    with pytest.raises(ValueError):
        er_bound(2, 0)


def test_sunflower_type_invariants():
    s = Sunflower(6, mask_of([1]), (mask_of([1, 2]), mask_of([1, 3])))
    assert s.k == 2
    assert s.core_vertices() == (1,)
    with pytest.raises(ValueError):
        Sunflower(6, 0, (mask_of([1, 2]),))  # one member
    with pytest.raises(ValueError):
        Sunflower(6, 0, (mask_of([1, 2]), mask_of([1, 3])))  # wrong core
    with pytest.raises(ValueError):
        Sunflower(6, mask_of([1]), (mask_of([1, 2]), mask_of([1, 2, 3]), mask_of([1, 3])))
    with pytest.raises(ValueError, match="members must be distinct"):
        Sunflower(6, mask_of([1]), (mask_of([1, 2]), mask_of([1, 3]), mask_of([1, 2])))


def test_star_family_has_core_one():
    f = fam((1, 2), (1, 3), (1, 4))
    s = find_sunflower(f, 3)
    assert s is not None
    assert s.core_vertices() == (1,)
    assert len(s.members) == 3


def test_disjoint_family_has_empty_core():
    f = fam((1, 2), (3, 4), (5, 6))
    s = find_sunflower(f, 3)
    assert s is not None
    assert s.core == 0


def test_triangle_has_no_three_sunflower():
    f = fam((1, 2), (2, 3), (1, 3))
    assert find_sunflower(f, 3) is None
    assert find_sunflower(f, 2) is not None  # any pair works


def test_with_core_exact_match_only():
    # full star at 1: every pairwise intersection contains 1,
    # so no sunflower has core {2}
    f = fam(*[(1, a, b) for a, b in combinations(range(2, 7), 2)], n=6)
    assert find_sunflower_with_core(f, mask_of([2]), 2) is None
    s = find_sunflower_with_core(f, mask_of([1]), 2)
    assert s is not None and s.core == mask_of([1])


def test_with_core_pairwise_disjoint_complements():
    f = SetFamily.from_vertex_sets(
        10, [c for c in combinations(range(1, 11), 4) if {1, 2} <= set(c)]
    )
    s = find_sunflower_with_core(f, mask_of([1, 2]), 4)
    assert s is not None
    assert s.k == 4
    petals = s.petals()
    assert all(a & b == 0 for a, b in combinations(petals, 2))


def test_with_core_not_subset_of_member():
    f = fam((1, 2, 3))
    assert find_sunflower_with_core(f, mask_of([4]), 2) is None


def test_core_member_itself_can_participate():
    f = fam((1, 2), (1, 2, 3), (1, 2, 4))
    s = find_sunflower_with_core(f, mask_of([1, 2]), 3)
    assert s is not None and s.k == 3
    # the general search must see it too: the core here is a member,
    # not a proper subset of every member
    s2 = find_sunflower(f, 3)
    assert s2 is not None and s2.core == mask_of([1, 2])


@pytest.mark.parametrize("k", [1, 0, -3])
def test_searches_refuse_fewer_than_two_petals(k):
    f = SetFamily.from_vertex_sets(5, [(1, 2), (1, 3), (1, 4)])
    with pytest.raises(ValueError, match=r"^find_sunflower requires k >= 2$"):
        find_sunflower(f, k)
    with pytest.raises(ValueError, match=r"^find_sunflower_with_core requires k >= 2$"):
        find_sunflower_with_core(f, mask_of([1]), k)


def test_searches_accept_a_hypergraph():
    h = Hypergraph.from_vertex_sets(
        7, 3, [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (3, 5, 7)]
    )
    f = SetFamily(h.n, h.edges)
    for k in (2, 3, 4):
        assert find_sunflower(h, k) == find_sunflower(f, k)
        assert find_sunflower_with_core(h, mask_of([1]), k) == find_sunflower_with_core(
            f, mask_of([1]), k
        )
    assert find_sunflower(h, 3).core == mask_of([1])
    assert find_sunflower_with_core(h, mask_of([1]), 4) is None


def test_lexicographic_tie_break():
    # two disjoint 3-sunflowers; witness must use the lexicographically
    # smaller member sets
    f = fam((7, 8), (7, 9), (7, 10), (1, 2), (1, 3), (1, 4))
    s = find_sunflower(f, 3)
    assert s.member_sets() == [(1, 2), (1, 3), (1, 4)]


def test_matches_naive_oracle_random():
    rng = random.Random(20260822)
    for _ in range(500):
        n = rng.randint(4, 10)
        i = rng.randint(1, 4)
        universe = list(combinations(range(1, n + 1), i))
        m = rng.randint(1, min(12, len(universe)))
        f = SetFamily.from_vertex_sets(n, rng.sample(universe, m))
        k = rng.randint(2, 4)
        got = find_sunflower(f, k)
        assert (got is not None) == naive_has_sunflower(f, k)
        if got is not None:
            got.validate()
            assert all(mb in f.members for mb in got.members)
            assert got.k == k


def test_with_core_matches_naive_oracle_random():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(4, 9)
        universe = list(combinations(range(1, n + 1), 3))
        m = rng.randint(2, min(10, len(universe)))
        f = SetFamily.from_vertex_sets(n, rng.sample(universe, m))
        k = rng.randint(2, 3)
        core = mask_of(rng.sample(range(1, n + 1), rng.randint(0, 2)))
        got = find_sunflower_with_core(f, core, k)
        assert (got is not None) == naive_has_core_sunflower(f, core, k)
        if got is not None:
            got.validate()
            assert got.core == core


def test_er_guarantee_stress():
    # families at the guarantee size always contain the sunflower
    rng = random.Random(5)
    for _ in range(40):
        i = rng.randint(1, 3)
        k = rng.randint(2, 4)
        bound = er_bound(k, i)
        n = max(12, i * k + 8)
        universe = list(combinations(range(1, n + 1), i))
        if len(universe) < bound:
            n = i * k + 20
            universe = list(combinations(range(1, n + 1), i))
        if len(universe) < bound:
            continue
        f = SetFamily.from_vertex_sets(n, rng.sample(universe, bound))
        assert find_sunflower(f, k) is not None


def test_find_sunflower_builds_its_incidence_rows_once(monkeypatch):
    # the existence test and the witness scan share one set of rows
    import ifam.sunflower as sunflower

    calls = []
    real = sunflower._incidence_rows
    monkeypatch.setattr(sunflower, "_incidence_rows", lambda masks: calls.append(1) or real(masks))
    fam = SetFamily.from_vertex_sets(7, [(1, 2), (1, 3), (1, 4), (2, 3), (5, 6)])
    assert find_sunflower(fam, 3).core == mask_of((1,))
    assert len(calls) == 1
