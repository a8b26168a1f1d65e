"""Sunflower search against the existence oracle of test_core_search
and, for a given core, against naive enumeration of all k-subsets."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from math import factorial

import pytest

from ifam.hypergraph import Hypergraph, SetFamily, mask_of, vertices_of
from ifam.sunflower import Sunflower, find_sunflower, find_sunflower_with_core
from test_core_search import GENERATORS, mixed_size_families, oracle_sunflower_exists


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


@pytest.mark.parametrize("make", [list, lambda m: (x for x in m)], ids=["list", "generator"])
def test_a_sunflower_stores_its_members_as_a_tuple(make):
    # a list kept the sunflower unhashable and unequal to its tuple twin
    members = (mask_of([1, 2]), mask_of([1, 3]))
    s, twin = Sunflower(6, mask_of([1]), make(members)), Sunflower(6, mask_of([1]), members)
    assert s.members == members and s == twin and hash(s) == hash(twin)
    assert {s, twin} == {twin}


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


@pytest.mark.parametrize("core", [True, False, 2.0, "1", None])
def test_a_core_that_is_no_int_mask_is_refused(core):
    # True was read as the core {1}
    f = SetFamily.from_vertex_sets(5, [(1, 2), (1, 3), (1, 4)])
    with pytest.raises(TypeError, match=r"^core must be an int mask, got "):
        find_sunflower_with_core(f, core, 2)


@pytest.mark.parametrize("k", [3.0, True, "3", None])
def test_find_sunflower_refuses_a_k_that_is_no_int(k):
    # 3.0 reached the packing search, where range refused the float
    f = SetFamily.from_vertex_sets(5, [(2,), (2, 4), (3, 4), (1, 3, 4), (2, 3, 4)])
    with pytest.raises(TypeError, match=r"^k must be an int, got "):
        find_sunflower(f, k)


@pytest.mark.parametrize("k", [3.0, True, "3", None])
def test_find_sunflower_with_core_refuses_a_k_that_is_no_int(k):
    # 3.0 was answered as k = 3
    f = SetFamily.from_vertex_sets(5, [(1, 2), (1, 3), (1, 4)])
    with pytest.raises(TypeError, match=r"^k must be an int, got "):
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


def test_witness_has_the_least_core():
    # the cores {1} and {2} both carry a 3-sunflower and {1} is the lesser,
    # although storage order starts 23, 24 with core {2}; around {1} the
    # members are the least in storage order
    f = fam((2, 3), (2, 4), (1, 5), (1, 6), (1, 7), (2, 8))
    s = find_sunflower(f, 3)
    assert s.core_vertices() == (1,)
    assert s.member_sets() == [(1, 5), (1, 6), (1, 7)]


def test_a_matching_is_the_witness_before_any_core():
    # the star 12, 13, 14 holds the least member indices, but a 3-matching
    # has the empty core, which comes first
    f = fam((1, 2), (1, 3), (1, 4), (5, 6), (7, 8))
    s = find_sunflower(f, 3)
    assert s.core == 0
    assert s.member_sets() == [(1, 2), (5, 6), (7, 8)]
    assert find_sunflower_with_core(f, mask_of([1]), 3) is not None


def least_core_sunflower(f, k):
    """The witness rule by brute force: the first candidate core, empty
    first, then by size and vertex tuple, that carries a k-sunflower."""
    cores = {0} | {a & b for a, b in combinations(f.members, 2)}
    for core in sorted(cores, key=lambda t: (t.bit_count(), vertices_of(t))):
        s = find_sunflower_with_core(f, core, k)
        if s is not None:
            return s
    return None


def witness_families():
    """The KERNEL_PROPS generators, the mixed-size families of
    test_core_search, and families of 11- to 15-sets through vertex 1,
    which reach the pairwise-intersection cores."""
    rng = random.Random(23)
    for gen in GENERATORS:
        for _ in range(15):
            h = gen(rng, rng.choice((3, 4)))
            yield SetFamily(h.n, h.edges)
    yield from mixed_size_families()
    for _ in range(30):
        members = {
            mask_of((1, *rng.sample(range(2, 31), rng.randint(10, 14))))
            for _ in range(rng.randint(3, 9))
        }
        members.add(mask_of(range(16, 31)))
        yield SetFamily.from_masks(30, members)


def test_witness_is_the_sunflower_with_the_least_core():
    cores = Counter()
    for f in witness_families():
        for k in (2, 3, 4):
            s = find_sunflower(f, k)
            assert s == least_core_sunflower(f, k), (f, k)
            if s is not None:
                assert find_sunflower_with_core(f, s.core, k) == s
                cores[s.core.bit_count()] += 1
    assert cores[0] and len(cores) >= 4, cores


def test_the_pairwise_cores_give_the_walks_witness(monkeypatch):
    import ifam.sunflower as sunflower

    families = [
        f for f in witness_families()
        if max(m.bit_count() for m in f.members) <= sunflower._SUBSET_CAP
    ]
    walked = [find_sunflower(f, k) for f in families for k in (2, 3, 4)]
    assert sum(s is not None and s.core != 0 for s in walked) > 100
    monkeypatch.setattr(sunflower, "_SUBSET_CAP", 0)
    assert [find_sunflower(f, k) for f in families for k in (2, 3, 4)] == walked


@pytest.mark.parametrize("core, message", [
    (-1, r"^a core mask is nonnegative, got -1$"),
    (mask_of([2, 9]), r"^core \(2, 9\) leaves the ground set \[5\]$"),
])
def test_with_core_refuses_a_core_outside_the_ground_set(core, message):
    f = SetFamily.from_vertex_sets(5, [(1, 2), (1, 3), (1, 4)])
    with pytest.raises(ValueError, match=message):
        find_sunflower_with_core(f, core, 2)
    assert find_sunflower_with_core(f, mask_of([1]), 3).core == mask_of([1])


def test_matches_the_existence_oracle_random():
    rng = random.Random(20260822)
    for _ in range(500):
        n = rng.randint(4, 10)
        i = rng.randint(1, 4)
        universe = list(combinations(range(1, n + 1), i))
        m = rng.randint(1, min(12, len(universe)))
        f = SetFamily.from_vertex_sets(n, rng.sample(universe, m))
        k = rng.randint(2, 4)
        got = find_sunflower(f, k)
        assert (got is not None) == oracle_sunflower_exists(list(f.members), k)
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
    # the empty core and every later core share one set of rows
    import ifam.sunflower as sunflower

    calls = []
    real = sunflower._incidence_rows
    monkeypatch.setattr(sunflower, "_incidence_rows", lambda masks: calls.append(1) or real(masks))
    fam = SetFamily.from_vertex_sets(7, [(1, 2), (1, 3), (1, 4), (2, 3), (5, 6)])
    s = find_sunflower(fam, 3)
    assert s.core == 0
    assert s.member_sets() == [(2, 3), (1, 4), (5, 6)]
    assert len(calls) == 1
