"""The codegree walk behind `b_kernel` and `find_sunflower`, against the
subset-enumeration code it replaced.

The oracles score every proper nonempty subset of every member by
codegree (`oracle_b_star`) or every nonempty subset (`find_sunflower`),
and only then drop the light ones; the walk prunes by codegree as it
grows each core.  `oracle_b_star` is the only B* there is: `b_kernel`
collects B' on the walk without building B*, so it must find the
minimal members of the oracle's B*, and ask the packing engine the
oracle's questions about every candidate core that strictly contains
no member of B'.
"""

from __future__ import annotations

import gc
import random
from collections import Counter
from itertools import combinations

import pytest

import ifam.hypergraph
import ifam.kernel
from ifam.hypergraph import (
    Hypergraph,
    SetFamily,
    _bits,
    _incidence_rows,
    _pack_rows,
    is_intersecting,
    mask_of,
    matching_number,
    pack_exists,
    vertices_of,
)
from ifam.constructions import ConstructionId, ConstructionParams, build_construction
from ifam.kernel import b_kernel, paper_r, paper_rs
import ifam.sunflower
from ifam.sunflower import _SUBSET_CAP, _heavy_cores, find_sunflower
from ifam.verify import _random_greedy, _random_star_noise, _random_structured, verify


def oracle_candidates(h, scheme):
    """(core, petals, k) for every proper nonempty subset of an edge that
    enough edges contain, in first-seen order."""
    carriers: dict[int, list[int]] = {}
    for e in h.edges:
        vs = vertices_of(e)
        for size in range(1, h.r):
            for sub in combinations(vs, size):
                carriers.setdefault(mask_of(sub), []).append(e)
    thresholds = scheme.table(h.r)
    out = []
    for t, through in carriers.items():
        k = thresholds[t.bit_count()]
        if len(through) >= k:
            out.append((t, [e & ~t for e in through], k))
    return out


def oracle_b_star(h, scheme):
    """B*: every candidate core whose petals hold k pairwise disjoint ones."""
    if h.r < 2 or not h.edges:
        return SetFamily(h.n, ())
    cores = [
        t for t, petals, k in oracle_candidates(h, scheme)
        if pack_exists(petals, k) is not None
    ]
    return SetFamily.from_masks(h.n, cores)


def minimal_members(masks):
    masks = sorted(masks, key=lambda m: (m.bit_count(), m))
    out = []
    for m in masks:
        if not any(p & m == p for p in out):
            out.append(m)
    return out


def oracle_kernel(h, scheme):
    """(B', B'', layers) from all of B*: its inclusion-minimal members,
    the edges containing none of them, and the union split by size."""
    bp = minimal_members(oracle_b_star(h, scheme).members)
    bpp = [e for e in h.edges if not any(t & e == t for t in bp)]
    by_size = {}
    for m in sorted(set(bp) | set(bpp)):
        by_size.setdefault(m.bit_count(), []).append(m)
    return (
        SetFamily.from_masks(h.n, bp),
        SetFamily.from_masks(h.n, bpp),
        {i: SetFamily.from_masks(h.n, ms) for i, ms in sorted(by_size.items())},
    )


def kernel_parts(h, scheme):
    d = b_kernel(h, scheme)
    return d.b_prime, d.b_dprime, d.by_size


def sunflower_exists(masks, k):
    """Whether `find_sunflower` finds a k-sunflower among masks."""
    return find_sunflower(SetFamily.from_masks(max(masks, default=1).bit_length(), masks), k) is not None


def oracle_sunflower_exists(masks, k):
    if len(masks) < k:
        return False
    if pack_exists(masks, k) is not None:
        return True
    if max(m.bit_count() for m in masks) <= _SUBSET_CAP:
        codegree: Counter[int] = Counter()
        for m in masks:
            vs = vertices_of(m)
            for size in range(1, len(vs) + 1):
                for sub in combinations(vs, size):
                    codegree[mask_of(sub)] += 1
        candidates = [t for t, deg in codegree.items() if deg >= k]
    else:
        candidates = {a & b for a, b in combinations(masks, 2) if a & b}
    for t in candidates:
        petals = [m & ~t for m in masks if m & t == t]
        if len(petals) >= k and pack_exists(petals, k) is not None:
            return True
    return False


GENERATORS = (_random_star_noise, _random_structured, _random_greedy)
SCHEMES = (paper_r(), paper_rs(1), paper_rs(2), paper_rs(3))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.__name__)
def test_b_star_matches_oracle_on_kernel_props_families(gen, seed):
    rng = random.Random(seed)
    for _ in range(12):
        h = gen(rng, rng.choice((3, 4)))
        for scheme in SCHEMES:
            assert kernel_parts(h, scheme) == oracle_kernel(h, scheme), (h, scheme)
        masks = sorted(h.edges, key=vertices_of)
        for k in (2, 3, 5):
            assert sunflower_exists(masks, k) == oracle_sunflower_exists(masks, k)


def dense_star(rng, r):
    """Random r-sets through a few small centres of 1 to r - 1 vertices,
    so that codegrees reach the thresholds at several core sizes."""
    n = rng.randint(r + 1, 30)
    centres = [
        rng.sample(range(1, r + 1), rng.randint(1, r - 1)) for _ in range(2)
    ]
    edges = set()
    for _ in range(rng.randint(1, 120)):
        centre = rng.choice(centres)
        others = [v for v in range(1, n + 1) if v not in centre]
        edges.add(mask_of((*centre, *rng.sample(others, r - len(centre)))))
    return Hypergraph.from_masks(n, r, edges)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_b_star_matches_oracle_across_r_and_schemes(r):
    # the kernel against the definitions on the oracle's B*: B' is its
    # minimal members, and B'' the edges that contain no member of B*
    rng = random.Random(100 + r)
    core_sizes = Counter()
    for _ in range(25):
        h = dense_star(rng, r)
        for scheme in SCHEMES:
            star = oracle_b_star(h, scheme).members
            d = b_kernel(h, scheme)
            assert d.b_prime == SetFamily.from_masks(h.n, minimal_members(star)), (h, scheme)
            bare = [e for e in h.edges if not any(t & e == t for t in star)]
            assert d.b_dprime == SetFamily.from_masks(h.n, bare), (h, scheme)
            core_sizes.update(t.bit_count() for t in star)
    assert core_sizes, "no family reached a threshold"


def planted(r, core_size, k):
    """A k-sunflower of r-sets with core {1..core_size}, plus a few
    random edges through vertex 1 and the first petal, which never add a
    petal disjoint from that one's."""
    rng = random.Random(r * 100 + core_size * 10 + k)
    petal = r - core_size
    n = core_size + k * petal + 2
    core = tuple(range(1, core_size + 1))
    edges = {
        mask_of((*core, *range(core_size + 1 + i * petal, core_size + 1 + (i + 1) * petal)))
        for i in range(k)
    }
    others = [v for v in range(2, n + 1) if v != core_size + 1]
    for _ in range(5):
        edges.add(mask_of((1, core_size + 1, *rng.sample(others, r - 2))))
    return Hypergraph.from_masks(n, r, edges), mask_of(core)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_b_star_finds_planted_cores_of_every_size(r):
    for scheme in SCHEMES:
        for core_size in range(1, r):
            k = scheme.required(r, core_size)
            if k * (r - core_size) > 3000:
                continue
            for petals in (k - 1, k):
                h, core = planted(r, core_size, petals)
                star = oracle_b_star(h, scheme).members
                bp = b_kernel(h, scheme).b_prime
                assert bp == SetFamily.from_masks(h.n, minimal_members(star)), (r, scheme, core_size)
                # no proper subset of the core has more than two disjoint
                # petals, so a planted core in B* is minimal
                assert (core in star) == (petals == k)
                assert (core in bp.members) == (petals == k)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.__name__)
def test_b_kernel_matches_the_minimal_members_of_b_star_on_kernel_props_families(gen, seed):
    rng = random.Random(300 + seed)
    for _ in range(25):
        h = gen(rng, rng.choice((3, 4)))
        for scheme in SCHEMES:
            assert kernel_parts(h, scheme) == oracle_kernel(h, scheme), (h, scheme)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_b_kernel_matches_the_minimal_members_of_b_star_on_dense_stars(r):
    # other stars than test_b_star_matches_oracle_across_r_and_schemes draws
    rng = random.Random(400 + r)
    for _ in range(25):
        h = dense_star(rng, r)
        for scheme in SCHEMES:
            assert kernel_parts(h, scheme) == oracle_kernel(h, scheme), (h, scheme)


@pytest.mark.parametrize("n", [20, 60, 130])
def test_b_kernel_matches_the_minimal_members_of_b_star_on_lifts(n):
    for i in range(6):
        h = build_construction(ConstructionId.H3LIFT, ConstructionParams(n, 4, i=i))
        assert kernel_parts(h, paper_r()) == oracle_kernel(h, paper_r()), (n, i)


def walk_parts(h, scheme, intersecting):
    """(B', B'', layers) from the cover route or from the codegree walk."""
    d = ifam.kernel._b_kernel(h, scheme, _incidence_rows(h.edges), intersecting)
    return d.b_prime, d.b_dprime, d.by_size


def cover_route_families():
    """Intersecting families: the KERNEL_PROPS generators, dense stars,
    lifts, and the edges {1, 2, 3, y}, whose B' under the paper scheme
    is {1, 2, 3} although {1} covers them."""
    rng = random.Random(2027)
    drawn = [gen(rng, rng.choice((3, 4))) for gen in GENERATORS for _ in range(20)]
    drawn += [dense_star(rng, r) for r in (2, 3, 4, 5) for _ in range(15)]
    yield from filter(is_intersecting, drawn)
    for n in (8, 12, 20, 52, 60, 130):
        for i in range(6):
            yield build_construction(ConstructionId.H3LIFT, ConstructionParams(n, 4, i=i))
    for y in range(4, 131):
        yield Hypergraph.from_vertex_sets(130, 4, [(1, 2, 3, x) for x in range(4, y + 1)])


def test_the_cover_route_gives_the_walks_kernel_on_intersecting_families():
    accepted = Counter()
    for h in cover_route_families():
        assert is_intersecting(h)
        for scheme in SCHEMES:
            got = walk_parts(h, scheme, True)
            assert got == walk_parts(h, scheme, False), (h, scheme)
            accepted.update(t.bit_count() for t in got[0].members)
    assert set(accepted) == {1, 2, 3}, accepted
    h = Hypergraph.from_vertex_sets(130, 4, [(1, 2, 3, y) for y in range(4, 131)])
    assert b_kernel(h, paper_r()).b_prime.vertex_sets() == [(1, 2, 3)]
    assert is_cover(h, mask_of((1,)))


def test_b_kernel_matches_the_oracle_on_families_that_are_not_intersecting():
    rng = random.Random(404)
    accepted = 0
    checked = 0
    while checked < 60:
        r = rng.choice((2, 3, 4))
        n = rng.randint(2 * r, 12)
        # a dense star, so that cores reach the thresholds, and a few
        # random edges, one of them disjoint from the star's centre
        centre = rng.sample(range(1, n + 1), rng.randint(1, r - 1))
        others = [v for v in range(1, n + 1) if v not in centre]
        edges = {mask_of((*centre, *rng.sample(others, r - len(centre))))
                 for _ in range(rng.randint(0, 60))}
        edges.update(mask_of(rng.sample(range(1, n + 1), r)) for _ in range(rng.randint(1, 6)))
        edges.add(mask_of(rng.sample(others, r)))
        h = Hypergraph.from_masks(n, r, edges)
        if is_intersecting(h):
            continue
        checked += 1
        for scheme in SCHEMES:
            got = kernel_parts(h, scheme)
            assert got == oracle_kernel(h, scheme), (h, scheme)
            accepted += len(got[0])
    assert accepted > 0


def test_b_kernel_takes_the_cover_route_only_on_intersecting_families(monkeypatch):
    routes = []
    for name in ("_heavy_covers", "_heavy_cores"):
        real = getattr(ifam.kernel, name)
        monkeypatch.setattr(
            ifam.kernel, name, lambda *args, name=name, real=real: routes.append(name) or real(*args)
        )
    star = Hypergraph.from_vertex_sets(9, 3, [(1, 2, 3), (1, 4, 5), (1, 6, 7)])
    triangle = Hypergraph.from_vertex_sets(9, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6)])
    split = Hypergraph.from_vertex_sets(9, 3, [(1, 2, 3), (4, 5, 6)])
    for h, route in ((star, "_heavy_covers"), (triangle, "_heavy_covers"), (split, "_heavy_cores")):
        routes.clear()
        b_kernel(h, paper_r())
        assert routes == [route], h
    routes.clear()
    b_kernel(Hypergraph(9, 3, ()), paper_r())
    assert routes == []


def test_b_kernel_skips_the_packing_test_for_non_minimal_cores(monkeypatch):
    # the oracle packs 524 + 527 + 526 = 1,577 candidate cores on these
    # lifts; b_kernel tests only the heavy covers of fewer than r - 1
    # vertices that contain no accepted core: {1, 2} on each lift, where
    # tau = 2, and the covers of three vertices are accepted on their
    # carrier counts
    calls = []

    def counting(*args):
        calls.append(args[4])
        return _pack_rows(*args)

    monkeypatch.setattr(ifam.sunflower, "_pack_rows", counting)
    per_lift = []
    for i in (3, 4, 5):
        h = build_construction(ConstructionId.H3LIFT, ConstructionParams(130, 4, i=i))
        calls.clear()
        d = b_kernel(h, paper_r())
        per_lift.append(len(calls))
        # level by level: the tested cores come in nondecreasing size
        sizes = [t.bit_count() for t in calls]
        assert sizes == sorted(sizes)
        assert not any(
            a & t == a and a != t for a in d.b_prime.members for t in calls
        )
    assert per_lift == [1, 1, 1]


def test_only_the_accepted_cores_reach_the_packing_search_on_lifts(monkeypatch):
    # Every core that b_kernel tests on these lifts is a cover, and every
    # heavy cover of fewer than r - 1 vertices that it tests packs; a
    # cover of r - 1 vertices is accepted with no search.
    roots = []
    extend = ifam.hypergraph._extend

    def counting(*args):
        roots.append(True)  # one call per root
        return extend(*args)

    monkeypatch.setattr(ifam.hypergraph, "_extend", counting)
    per_lift = []
    for i in (3, 4, 5):
        h = build_construction(ConstructionId.H3LIFT, ConstructionParams(130, 4, i=i))
        roots.clear()
        d = b_kernel(h, paper_r())
        per_lift.append(sum(roots))
        assert sum(roots) == sum(t.bit_count() < h.r - 1 for t in d.b_prime.members)
    assert per_lift == [1, 1, 1]


def petals_of(masks, carriers, core):
    return [masks[j] & ~core for j in _bits(carriers)]


def is_cover(h, t):
    return all(e & t for e in h.edges)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_b_kernel_asks_the_packing_engine_the_oracle_questions(r, monkeypatch):
    # with the same petals in the same order and the same k, the packing
    # test gets: on a family that is not intersecting, exactly the oracle
    # candidates that strictly contain no member of B' (the walk changes
    # which subsets are enumerated, and skips only the cores that cannot
    # be minimal); on an intersecting one, those of them that are covers
    # of fewer than r - 1 vertices
    rng = random.Random(200 + r)
    kinds = Counter()
    for _ in range(10):
        h = dense_star(rng, r)
        intersecting = is_intersecting(h)
        kinds[intersecting] += 1
        for scheme in SCHEMES:
            asked = []

            def recording(masks, rows, carriers, k, core, least):
                asked.append((core, tuple(petals_of(masks, carriers, core)), k))
                return _pack_rows(masks, rows, carriers, k, core, least)

            monkeypatch.setattr(ifam.sunflower, "_pack_rows", recording)
            bp = b_kernel(h, scheme).b_prime.members
            want = [
                (t, tuple(p), k) for t, p, k in oracle_candidates(h, scheme)
                if not any(a & t == a and a != t for a in bp)
                and (not intersecting or is_cover(h, t) and t.bit_count() < r - 1)
            ]
            assert sorted(asked) == sorted(want)
    assert len(kinds) == 2, kinds


def mixed_size_families(count=300, n=8):
    """Families of 0- to 5-sets on [n], all with the empty member, half
    with {1}, a third with {1, 2} inside three larger members."""
    rng = random.Random(7)
    for trial in range(count):
        members = {0, mask_of((1,))} if trial % 2 else {0}
        for _ in range(rng.randint(1, 14)):
            size = rng.randint(0, 5)
            members.add(mask_of(rng.sample(range(1, n + 1), size)))
        if trial % 3 == 0:
            # a member equal to a core: {1, 2} inside several members
            members.update(mask_of(s) for s in ((1, 2), (1, 2, 3), (1, 2, 4), (1, 2, 5, 6)))
        yield SetFamily.from_masks(n, members)


def test_mixed_size_families_with_empty_member_and_member_as_core():
    hits = 0
    for fam in mixed_size_families():
        masks = sorted(fam.members, key=vertices_of)
        for k in (2, 3, 4):
            want = oracle_sunflower_exists(masks, k)
            assert sunflower_exists(masks, k) == want, (fam, k)
            assert (find_sunflower(fam, k) is not None) == want
            hits += want
    assert hits > 0


def test_core_equal_to_a_member_is_found():
    # {1}, {1,2}, {1,3}, {1,4} meet pairwise exactly in the member {1};
    # every pair of residues {2}, {3}, {4}, {} is disjoint, but the empty
    # core needs four pairwise-disjoint members and there are none
    fam = SetFamily.from_vertex_sets(6, [(1,), (1, 2), (1, 3), (1, 4)])
    masks = sorted(fam.members, key=vertices_of)
    assert not pack_exists(masks, 4)
    assert sunflower_exists(masks, 4)
    assert oracle_sunflower_exists(masks, 4)
    assert find_sunflower(fam, 4).core == mask_of((1,))


def test_members_above_the_subset_cap_use_pairwise_intersections():
    rng = random.Random(11)
    n = 24
    for _ in range(20):
        members = {mask_of(range(1, _SUBSET_CAP + 2))}
        for _ in range(rng.randint(3, 10)):
            size = rng.randint(_SUBSET_CAP - 2, _SUBSET_CAP + 3)
            members.add(mask_of((1, *rng.sample(range(2, n + 1), size - 1))))
        masks = sorted(members, key=vertices_of)
        for k in (2, 3):
            assert sunflower_exists(masks, k) == oracle_sunflower_exists(masks, k)
    big = [mask_of((1, *range(2 + 13 * i, 15 + 13 * i))) for i in range(3)]
    assert min(m.bit_count() for m in big) > _SUBSET_CAP
    assert sunflower_exists(big, 3) and oracle_sunflower_exists(big, 3)


def oracle_heavy_cores(masks, need, accepted=()):
    """Level by level, in lexicographic vertex order, every T of the
    level's size that at least need(|T|) masks contain and that contains
    no core of ``accepted`` as it reads then, with the bitset of those
    masks; the stream ends at the first level with no such T.  Each
    level is scored anew over every subset of every mask."""
    size = 1
    while True:
        carriers: dict[int, int] = {}
        for j, m in enumerate(masks):
            for sub in combinations(vertices_of(m), size):
                t = mask_of(sub)
                carriers[t] = carriers.get(t, 0) | 1 << j
        heavy = sorted((t for t, c in carriers.items() if c.bit_count() >= need(size)),
                       key=vertices_of)
        found = False
        for t in heavy:
            if not any(a & t == a for a in accepted):
                found = True
                yield t, carriers[t]
        if not found:
            return
        size += 1


def walk_stream(masks, need, accepted):
    rows = _incidence_rows(masks)
    return _heavy_cores(rows, (1 << len(masks)) - 1, need, accepted)


def core_stream(walk, h, need, accept):
    """The (core, carriers) stream of walk(h.edges, need, accepted).
    With accept, the caller keeps each core that packs need(|core|)
    petals, as b_kernel does, and the walk reads the kept cores."""
    rows = _incidence_rows(h.edges)
    accepted = []
    out = []
    for t, sub in walk(h.edges, need, accepted if accept else ()):
        out.append((t, sub))
        size = t.bit_count()
        if accept and _pack_rows(h.edges, rows, sub, need(size), t, h.r - size) is not None:
            accepted.append(t)
    return out


def em_subfamilies(rng):
    """Random halves of EM(n, r, s) for s = 2 and 3: families that are
    not intersecting, so b_kernel walks their cores."""
    for n, r in ((10, 3), (12, 3), (12, 4), (14, 4)):
        for s in (2, 3):
            em = build_construction(ConstructionId.EM, ConstructionParams(n, r, s=s))
            h = Hypergraph.from_masks(n, r, rng.sample(em.edges, len(em) // 2))
            assert not is_intersecting(h)
            yield h


def walk_families():
    rng = random.Random(2026)
    for gen in GENERATORS:
        for _ in range(10):
            yield gen(rng, rng.choice((3, 4)))
    for r in (2, 3, 4, 5):
        for _ in range(5):
            yield dense_star(rng, r)
    for i in range(6):
        yield build_construction(ConstructionId.H3LIFT, ConstructionParams(20, 4, i=i))
    yield from em_subfamilies(rng)


@pytest.mark.parametrize("accept", [False, True], ids=["all", "accepted"])
def test_the_core_walk_yields_the_oracle_stream(accept):
    # under both schemes, with the multiplicity held past r - 1 as in
    # b_kernel, and under the constant multiplicities 2 and r + 1
    yielded = Counter()
    for h in walk_families():
        needs = [
            lambda size, t=s.table(h.r), top=h.r - 1: t[min(size, top)]
            for s in (paper_r(), paper_rs(2))
        ]
        needs += [lambda size, k=k: k for k in (2, h.r + 1)]
        for need in needs:
            want = core_stream(oracle_heavy_cores, h, need, accept)
            assert core_stream(walk_stream, h, need, accept) == want, h
            yielded[is_intersecting(h)] += len(want)
    # both kinds of family reach the walk with cores to yield
    assert yielded[False] and yielded[True], yielded


def test_heavy_cores_is_lazy_and_complete_for_constant_need():
    masks = [mask_of(s) for s in ((1, 2, 3), (1, 2, 4), (1, 2), (2, 5), ())]
    rows = _incidence_rows(masks)
    asked = []

    def need(size):
        asked.append(size)
        return 2

    walk = _heavy_cores(rows, (1 << len(masks)) - 1, need)
    assert asked == []  # nothing is walked before the first core is asked for
    assert next(walk) == (mask_of((1,)), 0b111)
    assert petals_of(masks, 0b111, mask_of((1,))) == [
        mask_of((2, 3)), mask_of((2, 4)), mask_of((2,))
    ]
    got = dict([(mask_of((1,)), 0b111), *walk])
    assert set(got) == {mask_of((1,)), mask_of((1, 2)), mask_of((2,))}
    assert petals_of(masks, got[mask_of((1, 2))], mask_of((1, 2))) == [
        mask_of((3,)), mask_of((4,)), 0
    ]
    assert got[mask_of((2,))] == 0b1111
    assert list(_heavy_cores([], 0, lambda size: 2)) == []


def test_the_core_walk_and_the_packing_engine_leave_no_cyclic_garbage():
    # A reference cycle would keep a call's incidence rows alive until the
    # next full collection, so memory would grow from call to call.
    rng = random.Random(5)
    hs = [dense_star(rng, r) for r in (3, 4) for _ in range(3)]
    gc.collect()
    gc.disable()
    try:
        for h in hs:
            b_kernel(h, paper_r())
            find_sunflower(h, 3)
            matching_number(h)
            pack_exists(h.edges, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_sweeps_leave_no_cyclic_garbage():
    # The canonicity test, the maximal-clique search and the schema
    # embedding search recurse through module-level functions: a closure
    # that calls itself is a reference cycle.
    gc.collect()
    gc.disable()
    try:
        assert verify("TH4_MAIN", n=6).passed
        assert verify("FOLK", max_support=7).passed
        assert gc.collect() == 0
    finally:
        gc.enable()
