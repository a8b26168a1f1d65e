"""Core hypergraph operations against brute-force oracles."""

from __future__ import annotations

import random
from collections import Counter
from functools import reduce
from itertools import combinations
from operator import and_

import pytest

from ifam.constructions import ConstructionId, ConstructionParams, build_construction
from ifam.hypergraph import (
    _ROW_BLOCK,
    Hypergraph,
    SetFamily,
    _bits,
    _cover_exists,
    _greedy_packing,
    _incidence_rows,
    _rows_intersect,
    _swap_masks,
    _transpose8,
    _two_cover,
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


@pytest.mark.parametrize("make", [tuple, list, lambda m: (x for x in m)],
                         ids=["tuple", "list", "generator"])
def test_families_store_their_masks_as_a_tuple(make):
    # a list made two equal families unequal and unhashable, and a
    # generator was used up by the check and stayed in the field
    masks = (mask_of([1, 2]), mask_of([1, 3]), mask_of([2, 3]))
    h, f = Hypergraph(3, 2, make(masks)), SetFamily(3, make(masks))
    assert h.edges == f.members == masks
    assert h == Hypergraph(3, 2, masks) and hash(h) == hash(Hypergraph(3, 2, masks))
    assert f == SetFamily(3, masks) and hash(f) == hash(SetFamily(3, masks))
    assert len(h) == len(f) == 3 and cover_number(h) == 2
    if make is tuple:
        assert h.edges is masks and f.members is masks


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


def test_two_cover_agrees_with_cover_number():
    # tau <= 2 read from the incidence rows against the cover search, on
    # random r-graphs and mixed-size families with no empty member
    rng = random.Random(20261020)
    taus = Counter()
    for trial in range(600):
        n = rng.randint(4, 12)
        if trial % 2:
            r = rng.randint(2, 4)
            members = random_hypergraph(rng, n, r, rng.randint(0, 30)).edges
        else:
            members = tuple(sorted({rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 12))}))
        tau = cover_number(SetFamily(n, members))
        assert _two_cover(members, _incidence_rows(members)) == (tau <= 2), (n, members)
        taus[tau] += 1
    assert {0, 1, 2, 3, 4} <= set(taus), taus


def test_min_cover_is_a_cover():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(3, 9)
        h = random_hypergraph(rng, n, 3, rng.randint(1, 12))
        cov = mask_of(min_cover(h))
        assert all(e & cov for e in h.edges)
        assert len(vertices_of(cov)) == cover_number(h)


def recursive_cover_exists(masks, k):
    """The cover search as a recursion, one call per chosen vertex: a
    cover mask of at most k vertices, or None."""
    if not masks:
        return 0
    if k <= 0 or len(_greedy_packing(masks)) > k:
        return None
    rest = min(masks, key=int.bit_count)
    while rest:
        low = rest & -rest
        rest ^= low
        got = recursive_cover_exists([m for m in masks if not m & low], k - 1)
        if got is not None:
            return got | low
    return None


def test_cover_search_matches_the_recursive_search():
    # the same cover, not just a cover: min_cover returns what it did
    rng = random.Random(20261032)
    found = Counter()
    for _ in range(1500):
        n = rng.randint(1, 10)
        masks = sorted({rng.getrandbits(n) for _ in range(rng.randint(0, 12))})
        for k in range(-1, 6):
            got = _cover_exists(masks, k)
            assert got == recursive_cover_exists(masks, k), (masks, k)
            found[got is None] += 1
    assert found[True] and found[False], found


def test_cover_search_needs_no_deep_recursion():
    # tau of 1,200 disjoint triples: the recursive search stopped near 995
    matching = Hypergraph.from_masks(3600, 3, [0b111 << 3 * j for j in range(1200)])
    assert cover_number(matching) == 1200
    assert min_cover(matching) == tuple(range(1, 3600, 3))
    assert _cover_exists(matching.edges, 1199) is None


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


def test_nu_tau_inequalities():
    rng = random.Random(20260822)
    for _ in range(200):
        n = rng.randint(2, 9)
        r = rng.randint(1, min(4, n))
        universe = [mask_of(c) for c in combinations(range(1, n + 1), r)]
        masks = rng.sample(universe, rng.randint(0, min(12, len(universe))))
        h = Hypergraph.from_masks(n, r, masks)
        nu = matching_number(h)
        tau = cover_number(h)
        assert nu <= tau <= r * nu or not h.edges
        assert is_intersecting(h) == (nu <= 1)


@pytest.mark.parametrize("v", [0, -1, 7])
def test_degree_refuses_a_vertex_outside_the_ground_set(v):
    h = Hypergraph.from_vertex_sets(6, 3, [(1, 2, 3), (1, 4, 5)])
    assert [h.degree(u) for u in range(1, 7)] == [2, 1, 1, 1, 1, 0]
    with pytest.raises(ValueError, match=rf"^vertex {v} is outside the ground set \[6\]$"):
        h.degree(v)


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


def star_with_noise(rng, n, uniform):
    """Members through one centre, then, half the time, one to three
    members that avoid it (for a SetFamily possibly the empty set)."""
    centre = rng.randint(1, n)
    others = [v for v in range(1, n + 1) if v != centre]
    r = rng.randint(1, min(n, 5))

    def size():
        return r if uniform else rng.randint(1, min(n, 5))

    masks = {mask_of([centre, *rng.sample(others, size() - 1)]) for _ in range(rng.randint(0, 25))}
    if rng.random() < 0.5:
        masks |= {
            mask_of(rng.sample(others, min(size() if uniform else rng.randint(0, 5), n - 1)))
            for _ in range(rng.randint(1, 3))
        }
    if uniform:
        masks = {m for m in masks if m.bit_count() == r}
        return Hypergraph.from_masks(n, r, masks)
    return SetFamily.from_masks(n, masks)


@pytest.mark.parametrize("n", [2, 5, 9, 64, 130])
def test_is_intersecting_matches_pairwise_oracle_on_stars_with_noise(n):
    rng = random.Random(20261019 + n)
    kinds = Counter()
    for trial in range(300):
        f = star_with_noise(rng, n, uniform=trial % 2 == 0)
        members = f.edges if isinstance(f, Hypergraph) else f.members
        common = bool(members) and reduce(and_, members) != 0
        want = pairwise_intersecting(members)
        assert is_intersecting(f) == want, f
        kinds[common, want] += 1
    # a common vertex, and without one both answers
    assert kinds[True, True] and kinds[False, True] and kinds[False, False], kinds
    assert not kinds[True, False]


@pytest.mark.parametrize("f, want", [
    (SetFamily(7, ()), True),
    (Hypergraph(7, 3, ()), True),
    (SetFamily(7, (0,)), True),
    (SetFamily.from_vertex_sets(7, [(2, 5)]), True),
    (Hypergraph.from_vertex_sets(130, 2, [(64, 130)]), True),
    (SetFamily.from_vertex_sets(7, [(), (1,)]), False),
    (SetFamily.from_vertex_sets(7, [(), (1, 2), (1, 3)]), False),
    (Hypergraph(0, 0, (0,)), True),
])
def test_is_intersecting_on_zero_one_and_empty_members(f, want):
    members = f.edges if isinstance(f, Hypergraph) else f.members
    assert pairwise_intersecting(members) == want
    assert is_intersecting(f) == want
    rows = _incidence_rows(members)
    assert rows == naive_rows(members)
    assert _rows_intersect(members, rows) == want


def naive_rows(members):
    """The incidence rows, one vertex at a time up to the highest vertex
    that a member holds: bit j of row v is set iff members[j] contains
    vertex v + 1."""
    width = max(members, default=0).bit_length()
    return [sum(1 << j for j, m in enumerate(members) if m >> v & 1) for v in range(width)]


@pytest.mark.parametrize("n", [*range(2, 10), 63, 64, 130])
def test_intersecting_rows_are_none_or_the_incidence_rows(n):
    # the rows are the naive rows, and the proof on them is the pairwise test
    rng = random.Random(20261026 + n)
    answers = Counter()
    for trial in range(200):
        make = majority_family if trial < 100 else star_with_noise
        f = make(rng, n, uniform=trial % 2 == 0)
        members = f.edges if isinstance(f, Hypergraph) else f.members
        rows = _incidence_rows(members)
        assert rows == naive_rows(members), f
        got = _rows_intersect(members, rows)
        assert got == pairwise_intersecting(members), f
        answers[got] += 1
    assert answers[True] and answers[False], answers


def off_star_family(m, n=40):
    """m - 2 sets {1, p, q, x, y} with p in {2, 3} and q in {4, 5}, in
    storage order, with a = {2, 3} at index 1 and b = {4, 5} last.  The
    largest star is the one through vertex 1, and a and b lie outside it:
    each meets every star member, and a and b are disjoint."""
    star = [
        mask_of((1, p, q, *xy))
        for p in (2, 3) for q in (4, 5) for xy in combinations(range(6, n + 1), 2)
    ]
    members = sorted(star)[: m - 2]
    members.insert(1, mask_of((2, 3)))
    return [*members, mask_of((4, 5))]


@pytest.mark.parametrize("m", [_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1])
def test_rows_and_the_proof_across_row_blocks(m):
    # b = {4, 5, 70} still meets every star member and misses a, and it
    # makes the members wider than a word, so they are written to the
    # buffer in blocks of _ROW_BLOCK
    members = off_star_family(m, 40)
    members[-1] = mask_of((4, 5, 70))
    assert len(members) == m and max(members).bit_length() > 64
    # the disjoint pair lies in the first and the last block
    rows = _incidence_rows(members)
    assert rows == naive_rows(members)
    assert not _rows_intersect(members, rows)
    assert not pairwise_intersecting([members[1], members[-1]])
    # without b the family is intersecting
    assert pairwise_intersecting(members[:-1])
    assert _rows_intersect(members[:-1], _incidence_rows(members[:-1]))
    # an empty member in the last block misses everyone
    spoiled = [*members[:-1], 0]
    assert _incidence_rows(spoiled) == naive_rows(spoiled)
    assert not _rows_intersect(spoiled, _incidence_rows(spoiled))
    # a lone empty member is intersecting, and holds no vertex to row
    assert _incidence_rows([0]) == []
    assert _rows_intersect([0], [])


@pytest.mark.parametrize("top", [1, 7, 8, 9, 63, 64, 65, 128, 129])
def test_rows_at_the_byte_and_word_boundaries_are_the_naive_rows(top):
    # the highest vertex held sets the width: one word up to 64, then
    # ceil(top / 8) bytes per member; as lists, tuples and with an empty
    # member, first, last or alone beside one member
    rng = random.Random(top)
    for m in (1, 2, 3, 17, 100):
        members = [mask_of(rng.sample(range(1, top + 1), rng.randint(1, min(top, 6))))
                   for _ in range(m)]
        members[rng.randrange(m)] |= 1 << (top - 1)
        for family in (members, tuple(members), [0, *members], [*members, 0]):
            rows = _incidence_rows(family)
            assert len(rows) == top
            assert rows == naive_rows(family), (top, family)


@pytest.mark.parametrize("members", [[], (), [0], (0,), [0, 1], [1, 0], [0, 1 << 64]],
                         ids=["empty list", "empty tuple", "lone empty member",
                              "lone empty member as a tuple", "empty member first",
                              "empty member last", "empty member beside a wide one"])
def test_rows_of_empty_members_are_the_naive_rows(members):
    assert _incidence_rows(members) == naive_rows(members)


@pytest.mark.parametrize("i", range(6))
def test_rows_of_the_lifts_are_the_naive_rows(i):
    h = build_construction(ConstructionId.H3LIFT, ConstructionParams(n=130, r=4, i=i))
    assert len(h) > 2 * _ROW_BLOCK
    rows = _incidence_rows(h.edges)
    assert rows == naive_rows(h.edges)
    assert rows == translated_rows(h.edges)
    assert _rows_intersect(h.edges, rows)


_DIGITS = tuple((b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8))


def translated_rows(members):
    """The incidence rows by another route, an oracle for the transpose:
    the members as little-endian words of w bytes, last member first,
    and each row parsed from the digits of its bit in every w-th byte,
    most significant member first."""
    n = max(members, default=0).bit_length()
    w = 8 if n <= 64 else n + 7 >> 3
    buf = b"".join([m.to_bytes(w, "little") for m in reversed(members)])
    return [int(buf[v >> 3 :: w].translate(_DIGITS[v & 7]), 2) for v in range(n)]


ROW_COUNTS = [0, 1, 7, 8, 9, 63, 64, 65, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1,
              2 * _ROW_BLOCK + 3]
ROW_WIDTHS = [1, 7, 8, 9, 63, 64, 65, 128, 129, 200]


@pytest.mark.parametrize("top", ROW_WIDTHS)
@pytest.mark.parametrize("m", ROW_COUNTS)
def test_rows_are_the_translate_readers_rows(m, top):
    # either side of an 8-member block, of a row block and of a word, as
    # a list and as a tuple, with an empty member first, inside and last
    rng = random.Random(1000 * m + top)
    members = [rng.getrandbits(top) & ~rng.getrandbits(top) for _ in range(m)]
    if m:
        members[rng.randrange(m)] |= 1 << (top - 1)
    families = [members, tuple(members)]
    if m >= 3:
        families += [[0, *members[1:]], [*members[:-1], 0],
                     [*members[: m // 2], 0, *members[m // 2 + 1 :]]]
    assert len(translated_rows(members)) == (top if m else 0)
    for family in families:
        want = translated_rows(family)
        assert _incidence_rows(family) == want, (m, top)
        if m <= 65 and top <= 65:
            assert want == naive_rows(family), (m, top)


@pytest.mark.parametrize("size, masks_size", [(8, 8), (24, 24), (24, 1024), (1024, 1024),
                                              (64, 3 * 1024), (17 * 1024, 17 * 1024)])
def test_the_8x8_transpose_swaps_bit_8i_plus_j_with_bit_8j_plus_i(size, masks_size):
    # an int of size bytes, under masks as long or longer: on single
    # bits, and on a random int against the transpose done bit by bit;
    # a second transpose restores the int
    swaps = _swap_masks(masks_size)
    rng = random.Random(size)
    for p in (0, 1, 7, 8, 9, 63, 8 * size - 1, rng.randrange(8 * size)):
        block, i, j = p >> 6, p >> 3 & 7, p & 7
        assert _transpose8(1 << p, swaps) == 1 << (64 * block + 8 * j + i), p
    x = rng.getrandbits(8 * size)
    want = 0
    for p in _bits(x):
        block, i, j = p >> 6, p >> 3 & 7, p & 7
        want |= 1 << (64 * block + 8 * j + i)
    assert _transpose8(x, swaps) == want
    assert _transpose8(want, swaps) == x


def _gate_cases():
    """(call, argument, expected message) for each shared gate."""
    from ifam.classifier import embed
    from ifam.constructions import size_formula
    from ifam.enumeration import canonical_form
    from ifam.io import hypergraph_to_json, serialize_hypergraph
    from ifam.kernel import b_kernel, kernel_bound, kernel_invariant_violations, paper_r
    from ifam.sunflower import find_sunflower, find_sunflower_with_core

    h = Hypergraph.from_vertex_sets(7, 3, [(1, 2, 3), (1, 4, 5)])
    f = SetFamily(h.n, h.edges)
    d = b_kernel(h, paper_r())
    p = (7, 3, 1)
    not_h = "h must be a Hypergraph, got SetFamily"
    not_family = "expected a Hypergraph or a SetFamily, got list"
    not_params = "params must be ConstructionParams, got tuple"
    not_d = "d must be a KernelDecomposition, got NoneType"
    return {
        "canonical_form": (lambda: canonical_form(f), not_h),
        "delete_vertices": (lambda: delete_vertices(f, [1]), not_h),
        "serialize_hypergraph": (lambda: serialize_hypergraph(f), not_h),
        "hypergraph_to_json": (lambda: hypergraph_to_json(f), not_h),
        "kernel_bound-family": (lambda: kernel_bound(f, d), not_h),
        "kernel_invariant_violations-family": (lambda: kernel_invariant_violations(f, d), not_h),
        "kernel_bound-None": (lambda: kernel_bound(h, None), not_d),
        "kernel_invariant_violations-None": (lambda: kernel_invariant_violations(h, None), not_d),
        "is_intersecting": (lambda: is_intersecting(list(h.edges)), not_family),
        "matching_number": (lambda: matching_number(list(h.edges)), not_family),
        "cover_number": (lambda: cover_number(list(h.edges)), not_family),
        "min_cover": (lambda: min_cover(list(h.edges)), not_family),
        "find_sunflower": (lambda: find_sunflower(list(h.edges), 3), not_family),
        "find_sunflower_with_core": (lambda: find_sunflower_with_core(list(h.edges), 1, 2),
                                     not_family),
        "build_construction": (lambda: build_construction(ConstructionId.EM, p), not_params),
        "size_formula": (lambda: size_formula(ConstructionId.EM, p), not_params),
        "embed": (lambda: embed(h, ConstructionId.EM, p), not_params),
    }


@pytest.mark.parametrize("name", list(_gate_cases()))
def test_shared_gates_refuse_an_argument_of_the_wrong_type(name):
    # each of these raised AttributeError on the missing field
    call, message = _gate_cases()[name]
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()
