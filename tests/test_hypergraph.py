"""Core hypergraph operations against brute-force oracles."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifam.constructions import ConstructionId, ConstructionParams, build_construction
from ifam.hypergraph import (
    Hypergraph,
    SetFamily,
    _bits,
    cover_number,
    delete_vertices,
    is_intersecting,
    mask_of,
    matching_number,
    min_cover,
    vertices_of,
)


def nu_oracle(masks):
    """Maximum matching by direct subset enumeration (exact, small m only)."""
    masks = list(masks)
    for k in range(len(masks), 0, -1):
        for sub in combinations(masks, k):
            ok = True
            for i in range(k):
                for j in range(i + 1, k):
                    if sub[i] & sub[j]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return k
    return 0


def tau_oracle(masks, n):
    """Minimum cover by direct subset enumeration (exact, small n only)."""
    masks = list(masks)
    if not masks:
        return 0
    for k in range(0, n + 1):
        for cand in combinations(range(1, n + 1), k):
            cm = mask_of(cand)
            if all(m & cm for m in masks):
                return k
    raise AssertionError("uncoverable")


def random_hypergraph(rng, n, r, m):
    universe = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    return Hypergraph.from_masks(n, r, rng.sample(universe, min(m, len(universe))))


def test_mask_roundtrip():
    assert mask_of([1, 3, 6]) == 0b100101
    assert vertices_of(0b100101) == (1, 3, 6)
    assert mask_of([]) == 0
    assert vertices_of(0) == ()


def test_mask_conversions_reject_out_of_contract_input():
    # a negative mask has infinitely many set bits: the peeling loop
    # used to run forever on it
    for mask in (-1, -6, -(1 << 70)):
        with pytest.raises(ValueError, match="nonnegative"):
            vertices_of(mask)
    for labels in ([0], [2, 0], [3, -1]):
        with pytest.raises(ValueError, match="labels start at 1"):
            mask_of(labels)


def naive_vertices(mask, n):
    return tuple(v for v in range(1, n + 1) if mask >> (v - 1) & 1)


@pytest.mark.parametrize("n", [1, 63, 64, 130])
def test_vertices_of_and_bits_match_the_position_loop(n):
    rng = random.Random(n)
    masks = [0, 1 << (n - 1), (1 << n) - 1]
    masks += [rng.getrandbits(n) for _ in range(200)]
    masks += [mask_of(rng.sample(range(1, n + 1), min(n, 3))) for _ in range(200)]
    for m in masks:
        want = naive_vertices(m, n)
        assert vertices_of(m) == want
        assert tuple(i + 1 for i in _bits(m)) == want


def test_validation():
    with pytest.raises(ValueError):
        Hypergraph(4, 3, (mask_of([1, 2]),))  # wrong size
    with pytest.raises(ValueError):
        Hypergraph(4, 3, (mask_of([2, 3, 5]),))  # out of range
    with pytest.raises(ValueError):
        Hypergraph(4, 2, (3, 3))  # duplicate
    h = Hypergraph.from_vertex_sets(5, 3, [(1, 2, 3), (1, 2, 3), (2, 3, 4)])
    assert len(h) == 2  # constructor dedupes


@pytest.mark.parametrize(
    "build, message",
    [
        # a negative n is reported before a negative r
        (lambda: Hypergraph(-1, -1, ()), "ground set size must be nonnegative, got -1"),
        (lambda: Hypergraph(3, -1, ()), "edge size must be nonnegative, got -1"),
        (lambda: Hypergraph(3, 2, (5, 3)),
         "edges must be strictly increasing masks (sorted, distinct)"),
        (lambda: Hypergraph(3, 2, (3, 3)),
         "edges must be strictly increasing masks (sorted, distinct)"),
        # leaving [n] is reported before a wrong size
        (lambda: Hypergraph(3, 2, (3, 8)), "edge (4,) leaves the ground set [3]"),
        (lambda: Hypergraph(3, 2, (3, 7)), "edge (1, 2, 3) has size 3, expected 2"),
        (lambda: SetFamily(-2, ()), "ground set size must be nonnegative, got -2"),
        (lambda: SetFamily(3, (1, 0)),
         "members must be strictly increasing masks (sorted, distinct)"),
        (lambda: SetFamily(3, (1, 1)),
         "members must be strictly increasing masks (sorted, distinct)"),
        (lambda: SetFamily(3, (1, 12)), "member (3, 4) leaves the ground set [3]"),
    ],
)
def test_family_contract_refusals(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_family_contract_accepts_mixed_sizes_and_the_empty_member():
    assert SetFamily(3, (0, 1, 6, 7)).sizes() == [0, 1, 2, 3]
    assert Hypergraph(0, 0, (0,)).edges == (0,)
    assert len(Hypergraph(4, 3, ())) == 0


def test_empty_conventions():
    h = Hypergraph(5, 3, ())
    assert is_intersecting(h)
    assert matching_number(h) == 0
    assert cover_number(h) == 0
    assert min_cover(h) == ()


def test_star_is_intersecting_with_cover_one():
    star = Hypergraph.from_vertex_sets(
        6, 3, [(1, a, b) for a, b in combinations(range(2, 7), 2)]
    )
    assert is_intersecting(star)
    assert matching_number(star) == 1
    assert cover_number(star) == 1
    assert min_cover(star) == (1,)


def test_two_disjoint_edges():
    h = Hypergraph.from_vertex_sets(6, 3, [(1, 2, 3), (4, 5, 6)])
    assert not is_intersecting(h)
    assert matching_number(h) == 2
    assert cover_number(h) == 2


def test_triangle_family():
    # three pairwise-intersecting edges with no common vertex
    h = Hypergraph.from_vertex_sets(6, 3, [(1, 2, 5), (2, 3, 6), (1, 3, 4)])
    assert is_intersecting(h)
    assert matching_number(h) == 1
    assert cover_number(h) == 2


def test_complete_k5_triples():
    k5 = Hypergraph.from_vertex_sets(5, 3, combinations(range(1, 6), 3))
    assert is_intersecting(k5)
    assert cover_number(k5) == 3
    assert matching_number(k5) == 1


def test_perfect_matching_family():
    h = Hypergraph.from_vertex_sets(9, 3, [(1, 2, 3), (4, 5, 6), (7, 8, 9)])
    assert matching_number(h) == 3
    assert cover_number(h) == 3


def test_nu_tau_against_oracles_random():
    rng = random.Random(20260822)
    for _ in range(120):
        n = rng.randint(2, 8)
        r = rng.randint(1, min(4, n))
        m = rng.randint(0, 9)
        h = random_hypergraph(rng, n, r, m)
        assert matching_number(h) == nu_oracle(h.edges)
        assert cover_number(h) == tau_oracle(h.edges, n)
        assert is_intersecting(h) == (nu_oracle(h.edges) <= 1)


def test_min_cover_is_a_cover():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(3, 9)
        h = random_hypergraph(rng, n, 3, rng.randint(1, 12))
        cov = mask_of(min_cover(h))
        assert all(e & cov for e in h.edges)
        assert len(vertices_of(cov)) == cover_number(h)


def test_set_family_nu_tau_min_cover_against_oracles():
    # mixed member sizes, some with the empty member; the first input is
    # one where first-fit greedy packing (1) falls below nu (2)
    rng = random.Random(20261018)
    families = [SetFamily.from_vertex_sets(6, [(1, 2), (1, 5), (2, 6)])]
    for _ in range(150):
        n = rng.randint(1, 8)
        universe = range(1 << n)
        masks = rng.sample(universe, min(rng.randint(0, 8), 1 << n))
        if rng.random() < 0.25:
            masks.append(0)
        families.append(SetFamily.from_masks(n, masks))
    assert matching_number(families[0]) == 2
    for f in families:
        assert matching_number(f) == nu_oracle(f.members), f
        if 0 in f.members:
            with pytest.raises(ValueError):
                cover_number(f)
            with pytest.raises(ValueError):
                min_cover(f)
            continue
        tau = tau_oracle(f.members, f.n)
        assert cover_number(f) == tau, f
        cov = mask_of(min_cover(f))
        assert all(m & cov for m in f.members), f
        assert cov.bit_count() == tau, f


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nu_tau_inequalities(data):
    n = data.draw(st.integers(2, 9))
    r = data.draw(st.integers(1, min(4, n)))
    universe = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    masks = data.draw(
        st.lists(st.sampled_from(universe), max_size=12, unique=True)
    )
    h = Hypergraph.from_masks(n, r, masks)
    nu = matching_number(h)
    tau = cover_number(h)
    assert nu <= tau <= r * nu or not h.edges
    assert is_intersecting(h) == (nu <= 1)


def test_delete_vertices_relabels_order_preserving():
    h = Hypergraph.from_vertex_sets(6, 3, [(1, 2, 3), (2, 4, 6), (4, 5, 6)])
    g = delete_vertices(h, [2])
    # vertices 3,4,5,6 become 2,3,4,5; edges meeting 2 vanish
    assert g.n == 5
    assert g.vertex_sets() == [(3, 4, 5)]
    g2 = delete_vertices(h, [])
    assert g2 == h


def test_delete_vertices_can_empty():
    h = Hypergraph.from_vertex_sets(4, 2, [(1, 2), (1, 3)])
    g = delete_vertices(h, [1])
    assert g.n == 3 and len(g) == 0


def test_delete_vertices_refuses_a_vertex_outside_the_ground_set():
    h = Hypergraph.from_vertex_sets(4, 2, [(1, 2), (3, 4)])
    with pytest.raises(ValueError, match="deleted vertices leave the ground set"):
        delete_vertices(h, [2, 5])


def link_graph(h, v):
    """The (r-1)-sets e - v over edges e containing v, on the same ground set."""
    if not 1 <= v <= h.n:
        raise ValueError(f"vertex {v} not in ground set [{h.n}]")
    bit = 1 << (v - 1)
    return SetFamily.from_masks(h.n, (e ^ bit for e in h.edges if e & bit))


def test_link_graph():
    h = Hypergraph.from_vertex_sets(5, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 5)])
    lk = link_graph(h, 1)
    assert lk.n == 5
    assert lk.vertex_sets() == [(2, 3), (4, 5)]
    assert link_graph(h, 5).vertex_sets() == [(1, 4), (2, 4)]
    with pytest.raises(ValueError):
        link_graph(h, 6)


def test_set_family_mixed_sizes():
    f = SetFamily.from_vertex_sets(6, [(1,), (1, 2, 3), (2, 4)])
    assert sorted(f.sizes()) == [1, 2, 3]
    assert cover_number(f) == 2  # {1,2} or {1,4}
    assert not is_intersecting(f)


def test_large_ground_set_falls_back():
    # masks wider than 64 bits take the same incidence-row path as small ones
    h = Hypergraph.from_vertex_sets(70, 3, [(1, 2, 70), (1, 64, 65), (2, 64, 69)])
    assert is_intersecting(h)
    h2 = Hypergraph.from_vertex_sets(70, 3, [(1, 2, 3), (64, 65, 70)])
    assert not is_intersecting(h2)


def pairwise_intersecting(masks):
    """Naive oracle: no two members are disjoint."""
    masks = list(masks)
    for i, e in enumerate(masks):
        for f in masks[i + 1 :]:
            if not e & f:
                return False
    return True


def majority_family(rng, n, uniform):
    """A seeded family, intersecting by construction unless spoiled.

    Every member holds a majority of a random core of at most three
    vertices, so any two of them meet.  Half the time one or two
    unconstrained members are added (for a SetFamily possibly the empty
    set), which usually breaks the property.
    """
    core = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
    need = len(core) // 2 + 1
    r = rng.randint(need, min(n, 6))

    def member(size, base):
        rest = [v for v in range(1, n + 1) if v not in base]
        return mask_of([*base, *rng.sample(rest, size - len(base))])

    masks = [
        member(r if uniform else rng.randint(need, min(n, 6)), rng.sample(core, need))
        for _ in range(rng.randint(0, 30))
    ]
    if rng.random() < 0.5:
        masks += [
            member(r if uniform else rng.randint(0, min(n, 6)), [])
            for _ in range(rng.randint(1, 2))
        ]
    return Hypergraph.from_masks(n, r, masks) if uniform else SetFamily.from_masks(n, masks)


@pytest.mark.parametrize("n", [*range(2, 10), 63, 64, 130])
def test_is_intersecting_matches_pairwise_oracle(n):
    rng = random.Random(20261017 + n)
    seen = set()
    for trial in range(200):
        f = majority_family(rng, n, uniform=trial % 2 == 0)
        want = pairwise_intersecting(f)
        assert is_intersecting(f) == want, f
        seen.add(want)
    assert seen == {True, False}


def test_is_intersecting_empty_member():
    assert is_intersecting(SetFamily(4, (0,)))
    assert not is_intersecting(SetFamily.from_vertex_sets(4, [(), (1, 2)]))
    assert not is_intersecting(SetFamily.from_vertex_sets(130, [(), (1,), (1, 130)]))
    assert is_intersecting(SetFamily.from_vertex_sets(130, [(1,), (1, 130), (1, 64, 65)]))


@pytest.mark.parametrize("i", [3, 4, 5])
def test_is_intersecting_on_h3_lifts(i):
    h = build_construction(ConstructionId.H3LIFT, ConstructionParams(n=130, r=4, i=i))
    assert is_intersecting(h)
    assert pairwise_intersecting(h.edges)
    # {127, ..., 130} misses the lifted edge {1, 2, 3, 4}
    g = Hypergraph.from_masks(130, 4, [*h.edges, mask_of(range(127, 131))])
    assert not is_intersecting(g)
    assert not pairwise_intersecting(g.edges)


def test_contains():
    h = Hypergraph.from_vertex_sets(70, 3, [(1, 2, 3), (2, 4, 6), (4, 5, 70)])
    for e in h.edges:
        assert e in h
    for vs in [(1, 2, 4), (3, 4, 5), (68, 69, 70)]:
        assert mask_of(vs) not in h
    assert 0 not in h
    assert (1 << 80) not in h
    assert mask_of([1, 2, 3]) not in Hypergraph(5, 3, ())
