"""Canonical forms and isomorph-free enumeration.

Completeness evidence comes from independent oracles: a Burnside orbit
count over the full symmetric group at n <= 5, a naive sweep of all
subsets of the fixed covering-pair frame at n <= 6 (with and without an
edge cap), every maximal clique of the edge compatibility graph at
n <= 7, and the orbit-stabilizer identity at n = 6 and 7: over the
classes of intersecting 3-graphs with cover number at most two, the sum
of n!/|Aut| must equal the labelled count, with both |Aut| and the count
found without canonical forms.  The orderly generator and the canonical
Bron-Kerbosch filter reach each class once; these oracles skip no
labeled family.  The maximal sweep seeded with canonical prefixes is
also checked against the one it replaced, Bron-Kerbosch through {1..r}
alone, over a grid of (n, r).
"""

from __future__ import annotations

import hashlib
import math
import random
from itertools import combinations, permutations

import pytest

from ifam.constructions import ConstructionId, ConstructionParams, build_construction
import ifam.enumeration
from ifam.enumeration import (
    EnumerationFilter,
    _canonical_masks,
    _edge_pool,
    canonical_form,
    enumerate_intersecting,
)
from ifam.hypergraph import (
    Hypergraph,
    _bits,
    cover_number,
    is_intersecting,
    mask_of,
    vertices_of,
)

P = ConstructionParams
C = ConstructionId

SEED = 20260822


def relabeled(h, rng):
    perm = list(range(1, h.n + 1))
    rng.shuffle(perm)
    tab = {v: perm[v - 1] for v in range(1, h.n + 1)}
    return Hypergraph.from_masks(
        h.n, h.r,
        {mask_of(tuple(tab[v] for v in vertices_of(e))) for e in h.edges},
    )


def random_family(rng, n, r, m):
    pool = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    return Hypergraph.from_masks(n, r, rng.sample(pool, m))


def invariant_key(h):
    """Cheap relabeling-invariant fingerprint: isomorphic families share
    it, but families that share it need not be isomorphic."""
    degs = [0] * (h.n + 1)
    pair = {}
    for e in h.edges:
        vs = vertices_of(e)
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


# -- canonical form ---------------------------------------------------------


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(SEED)
    fams = [
        build_construction(C.HM_T, P(8, 3, t=1)),
        build_construction(C.FP, P(9, 3)),
        build_construction(C.H3FAM, P(8, 3, i=4)),
        build_construction(C.EM, P(7, 3, s=2)),
        build_construction(C.HM_DP, P(9, 4)),
        build_construction(C.HM0, P(9, 4)),
    ]
    fams += [random_family(rng, 7, 3, rng.randint(1, 12)) for _ in range(20)]
    fams += [random_family(rng, 8, 4, rng.randint(1, 15)) for _ in range(10)]
    for h in fams:
        ref = canonical_form(h)
        for _ in range(6):
            assert canonical_form(relabeled(h, rng)) == ref


def test_canonical_form_is_a_true_relabeling():
    # the canonical masks must be an actual relabeled copy of the family
    rng = random.Random(SEED)
    for _ in range(30):
        h = random_family(rng, 7, 3, rng.randint(1, 10))
        cf = canonical_form(h)
        g = Hypergraph.from_masks(h.n, h.r, cf)
        assert len(g) == len(h)
        assert canonical_form(g) == cf
        assert invariant_key(g) == invariant_key(h)


def test_canonical_form_separates_the_six_families():
    forms = {canonical_form(build_construction(C.H3FAM, P(9, 3, i=i))) for i in range(6)}
    assert len(forms) == 6
    a = canonical_form(build_construction(C.HM_T, P(12, 4, t=1)))
    b = canonical_form(build_construction(C.HM0, P(12, 4)))
    assert a != b


def brute_force_form(h):
    """The definition: the least sorted mask tuple over all n! relabelings."""
    return min(
        tuple(
            sorted(mask_of(tuple(pi[v - 1] for v in vertices_of(e))) for e in h.edges)
        )
        for pi in permutations(range(1, h.n + 1))
    )


def test_canonical_form_minimality_small():
    # brute-force the definition on tiny inputs
    rng = random.Random(SEED)
    shapes = [(n, r) for n in (4, 5, 6) for r in (2, 3, 4) if r < n]
    for i in range(210):
        n, r = shapes[i % len(shapes)]
        h = random_family(rng, n, r, rng.randint(0, min(8, math.comb(n, r))))
        assert canonical_form(h) == brute_force_form(h), h.edges


def differential_pairs(rng):
    """Pairs of families on the same (n, r): relabeled copies, random
    families of equal size (each against the next one drawn, and every
    pair sharing an invariant_key), and symmetric inputs against their
    copies and against equal-size families one edge swap away."""
    pairs = []
    for n, r in ((6, 2), (6, 3), (7, 3)):
        pool = [mask_of(c) for c in combinations(range(1, n + 1), r)]
        by_key = {}
        prev = {}
        for _ in range(60):
            m = rng.randint(3, 8)
            h = Hypergraph.from_masks(n, r, rng.sample(pool, m))
            pairs.append((h, relabeled(h, rng)))
            if m in prev:
                pairs.append((prev[m], h))
            prev[m] = h
            by_key.setdefault(invariant_key(h), []).append(h)
        for group in by_key.values():
            pairs.extend(combinations(group, 2))
    k5 = Hypergraph.from_masks(7, 3, {mask_of(c) for c in combinations(range(1, 6), 3)})
    symmetric = [
        k5,
        build_construction(C.FP, P(7, 3)),
        build_construction(C.EM, P(7, 3, s=1)),
        build_construction(C.EM, P(6, 2, s=1)),
    ]
    for h in symmetric:
        pool = [mask_of(c) for c in combinations(range(1, h.n + 1), h.r)]
        pairs.append((h, relabeled(h, rng)))
        pairs.append((h, Hypergraph.from_masks(h.n, h.r, rng.sample(pool, len(h)))))
        for _ in range(4):
            out = rng.choice(h.edges)
            add = rng.choice([e for e in pool if e not in h.edges])
            swapped = relabeled(
                Hypergraph.from_masks(h.n, h.r, [e for e in h.edges if e != out] + [add]),
                rng,
            )
            pairs.append((h, swapped))
    return pairs


def test_canonicity_test_agrees_with_canonical_form():
    # run with a tuple as its own bound, the search finds nothing below it
    # exactly when the tuple is canonical; otherwise it returns a lower
    # relabeling of the same family
    rng = random.Random(SEED)
    fams = [h for pair in differential_pairs(rng) for h in pair]
    fams += [Hypergraph.from_masks(h.n, h.r, canonical_form(h)) for h in fams]
    verdicts = set()
    for h in fams:
        key = canonical_form(h)
        got = _canonical_masks(h.n, h.r, h.edges, h.edges)
        assert (got is None) == (key == h.edges), h.edges
        if got is not None:
            assert got < h.edges
            assert canonical_form(Hypergraph.from_masks(h.n, h.r, got)) == key
        verdicts.add(got is None)
    assert verdicts == {True, False}


def test_invariant_key_respects_isomorphism():
    rng = random.Random(SEED)
    for _ in range(20):
        h = random_family(rng, 7, 3, rng.randint(1, 10))
        assert invariant_key(relabeled(h, rng)) == invariant_key(h)


# -- completeness oracles ---------------------------------------------------


def burnside_class_count(n, r, pred):
    """Orbit count of nonempty edge subsets satisfying pred, by averaging
    fixed-point counts over the full symmetric group."""
    pool = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    total = 0
    for pi in permutations(range(1, n + 1)):
        img = {
            e: mask_of(tuple(pi[v - 1] for v in vertices_of(e))) for e in pool
        }
        seen, orbits = set(), []
        for e in pool:
            if e in seen:
                continue
            orb, cur = [], e
            while cur not in seen:
                seen.add(cur)
                orb.append(cur)
                cur = img[cur]
            orbits.append(orb)
        for pick in range(1, 1 << len(orbits)):
            fam = [
                e
                for j, orb in enumerate(orbits)
                if pick >> j & 1
                for e in orb
            ]
            if pred(Hypergraph.from_masks(n, r, fam)):
                total += 1
    assert total % math.factorial(n) == 0
    return total // math.factorial(n)


def test_enumeration_matches_burnside_at_tiny_n():
    for n, expected in ((4, None), (5, None)):
        got = len(list(enumerate_intersecting(n, 3, EnumerationFilter(min_edges=1))))
        oracle = burnside_class_count(n, 3, is_intersecting)
        assert got == oracle, n


def test_non_intersecting_tau2_sweep_matches_burnside():
    f = EnumerationFilter(intersecting=False, tau_le=2, min_edges=1)
    got = len(enumerate_intersecting(5, 2, f))
    assert got == burnside_class_count(5, 2, lambda h: cover_number(h) <= 2)
    assert got == 19


def labelled_tau2_count(n, r):
    """Labelled intersecting r-graphs on [n] with at least one edge and
    cover number at most two: a clique recursion over the bitset edge
    compatibility graph that tracks which vertex pairs still cover the
    clique and prunes when none does (covering is hereditary)."""
    pool = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    pairs = [mask_of(p) for p in combinations(range(1, n + 1), 2)]
    later = [
        sum(1 << j for j in range(i + 1, len(pool)) if pool[i] & pool[j])
        for i in range(len(pool))
    ]
    covering = [sum(1 << k for k, p in enumerate(pairs) if p & e) for e in pool]

    def count(cands, alive):
        total = 0
        while cands:
            i = (cands & -cands).bit_length() - 1
            cands &= cands - 1
            still = alive & covering[i]
            if still:
                total += 1 + count(cands & later[i], still)
        return total

    return count((1 << len(pool)) - 1, (1 << len(pairs)) - 1)


def automorphism_count(h):
    """Permutations of [n] that map the edge set onto itself, by
    backtracking that sends each vertex to one of equal degree and checks
    each edge once its largest vertex is mapped."""
    edges = set(h.edges)
    deg = [0] + [h.degree(v) for v in range(1, h.n + 1)]
    closing = [[e for e in h.edges if e.bit_length() == v] for v in range(h.n + 1)]
    image = [0] * (h.n + 1)

    def extend(v, used):
        if v > h.n:
            return 1
        total = 0
        for w in range(1, h.n + 1):
            if used >> w & 1 or deg[w] != deg[v]:
                continue
            image[v] = w
            if all(
                mask_of(tuple(image[u] for u in vertices_of(e))) in edges
                for e in closing[v]
            ):
                total += extend(v + 1, used | 1 << w)
        return total

    return extend(1, 0)


@pytest.mark.parametrize("n, labelled", [(6, 54_870), (7, 1_246_070)])
def test_orbit_stabilizer_identity(n, labelled):
    # an isomorph-free list that lost or repeated a class would miss the
    # count of labelled families that its orbits must add up to
    fams = enumerate_intersecting(n, 3, EnumerationFilter(tau_le=2, min_edges=1))
    orbits = [math.factorial(n) // automorphism_count(h) for h in fams]
    assert sum(orbits) == labelled_tau2_count(n, 3) == labelled


def test_four_point_classes_are_the_edge_counts():
    out = list(enumerate_intersecting(4, 3, EnumerationFilter(min_edges=1)))
    assert [len(h) for h in out] == [1, 2, 3, 4]
    with_empty = list(enumerate_intersecting(4, 3))
    assert [len(h) for h in with_empty] == [0, 1, 2, 3, 4]


def test_pair_frame_matches_naive_sweep_at_n6():
    got = {
        canonical_form(h)
        for h in enumerate_intersecting(6, 3, EnumerationFilter(tau_le=2, min_edges=1))
    }
    pool = [mask_of(c) for c in combinations(range(1, 7), 3) if mask_of(c) & 3]
    assert len(pool) == 16
    naive = set()
    for pick in range(1, 1 << 16):
        fam = [pool[j] for j in range(16) if pick >> j & 1]
        h = Hypergraph.from_masks(6, 3, fam)
        if not is_intersecting(h) or cover_number(h) > 2:
            continue
        naive.add(canonical_form(h))
    assert got == naive
    assert len(got) == 174


def class_keys(n, r, families, admit=lambda h: True):
    """Canonical forms, in output order, of the classes of the admitted
    families.  A family that is not a relabeled copy of one met before
    adds its whole orbit, found by brute-force relabeling, and one
    canonical form, so each class is canonicalized once."""
    edges = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    images = [
        {e: mask_of(tuple(pi[v - 1] for v in vertices_of(e))) for e in edges}
        for pi in permutations(range(1, n + 1))
    ]
    seen, keys = set(), []
    for fam in map(frozenset, families):
        if fam in seen:
            continue
        h = Hypergraph.from_masks(n, r, fam)
        if not admit(h):
            continue
        seen.update(frozenset(img[e] for e in fam) for img in images)
        keys.append(canonical_form(h))
    return sorted(keys, key=lambda c: (len(c), c))


def frame_oracle(n, r, cap):
    """Classes of every intersecting subset of the edges meeting {1, 2}
    with at most cap edges."""
    pool = [mask_of(c) for c in combinations(range(1, n + 1), r) if mask_of(c) & 3]
    subsets = (
        [pool[j] for j in range(len(pool)) if pick >> j & 1]
        for pick in range(1 << len(pool))
    )
    return class_keys(
        n, r, (s for s in subsets if cap is None or len(s) <= cap), is_intersecting
    )


@pytest.mark.parametrize("cap", [None, 3, 4])
@pytest.mark.parametrize(
    "n, r", [(n, r) for r in (2, 3, 4) for n in range(r, 7)]
)
def test_frame_output_matches_every_frame_subset(n, r, cap):
    # every family on the frame has cover number at most two, and every
    # such class has a copy on the frame
    f = EnumerationFilter(tau_le=2, max_edges=cap)
    got = [h.edges for h in enumerate_intersecting(n, r, f)]
    assert got == frame_oracle(n, r, cap)


# -- maximal families -------------------------------------------------------


def maximal_oracle(n, r):
    """Classes of all maximal cliques of the edge compatibility graph,
    found by Bron-Kerbosch over Python sets."""
    pool = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    meets = {e: {g for g in pool if g != e and g & e} for e in pool}
    cliques = []

    def grow(clique, cands, excluded):
        if not cands and not excluded:
            cliques.append(clique)
            return
        pivot = max(cands | excluded, key=lambda u: len(cands & meets[u]))
        for e in sorted(cands - meets[pivot]):
            grow(clique + [e], cands & meets[e], excluded & meets[e])
            cands = cands - {e}
            excluded = excluded | {e}

    grow([], set(pool), set())
    return class_keys(n, r, cliques)


@pytest.mark.parametrize(
    "n, r", [(n, r) for r in (2, 3) for n in range(r, 8)]
)
def test_maximal_output_matches_all_maximal_cliques(n, r):
    f = EnumerationFilter(maximal_only=True)
    got = [h.edges for h in enumerate_intersecting(n, r, f)]
    assert got == maximal_oracle(n, r)


def test_maximal_families_at_five_points():
    out = list(
        enumerate_intersecting(5, 3, EnumerationFilter(maximal_only=True, tau_ge=3))
    )
    assert [len(h) for h in out] == [10]
    k5 = Hypergraph.from_masks(
        5, 3, {mask_of(c) for c in combinations(range(1, 6), 3)}
    )
    assert canonical_form(out[0]) == canonical_form(k5)


def test_maximal_families_are_maximal():
    pool6 = [mask_of(c) for c in combinations(range(1, 7), 3)]
    out = list(enumerate_intersecting(6, 3, EnumerationFilter(maximal_only=True)))
    assert len(out) == 13
    for h in out:
        edges = set(h.edges)
        for e in pool6:
            if e in edges:
                continue
            assert not all(e & g for g in edges), "extendable family reported maximal"


def anchored_maximal_classes(n, r):
    """The maximal sweep before prefix seeding: Bron-Kerbosch through
    {1..r} alone, one canonicity test per maximal clique through it."""
    pool = _edge_pool(n, r)
    k = len(pool)
    nbr = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if pool[i] & pool[j]:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
    out = []
    if k:
        anchored_expand(n, r, pool, nbr, out, 1, nbr[0], 0)
    else:
        out.append(())
    out.sort(key=lambda c: (len(c), c))
    return [Hypergraph.from_masks(n, r, c) for c in out]


def anchored_expand(n, r, pool, nbr, out, rset, p, x):
    if p == 0 and x == 0:
        clique = tuple(pool[i] for i in _bits(rset))
        if _canonical_masks(n, r, clique, clique) is None:
            out.append(clique)
        return
    pivot = max(_bits(p | x), key=lambda u: (p & nbr[u]).bit_count())
    rest = p & ~nbr[pivot]
    for v in _bits(rest):
        vb = 1 << v
        anchored_expand(n, r, pool, nbr, out, rset | vb, p & nbr[v], x & nbr[v])
        p &= ~vb
        x |= vb


_ANCHORED_GRID = [
    (n, r)
    for r, top in ((1, 5), (2, 10), (3, 9), (4, 7), (5, 8))
    for n in range(r, top + 1)
]


@pytest.mark.parametrize("bounds", [{}, {"tau_ge": 3}], ids=["all", "tau_ge3"])
@pytest.mark.parametrize("n, r", _ANCHORED_GRID)
def test_prefix_seeded_maximal_sweep_matches_the_anchored_one(n, r, bounds):
    f = EnumerationFilter(maximal_only=True, **bounds)
    got = enumerate_intersecting(n, r, f, ceiling=n)
    admit = EnumerationFilter(intersecting=False, **bounds).admits
    want = [h for h in anchored_maximal_classes(n, r) if admit(h)]
    assert got == want


def test_maximal_sweep_tests_only_seeds_and_their_cliques(monkeypatch):
    # seeding Bron-Kerbosch with the canonical 4-edge prefixes skips the
    # cliques whose prefix is not canonical; through {1..3} alone the
    # sweep made 1,860 canonicity tests, one per maximal clique
    calls = 0
    real = ifam.enumeration._canonical_masks

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(ifam.enumeration, "_canonical_masks", counting)
    fams = enumerate_intersecting(7, 3, EnumerationFilter(maximal_only=True))
    assert class_list_digest(fams) == "e7bede545cdd49a1"
    assert calls == 451


# -- golden class lists -----------------------------------------------------


def class_list_digest(fams):
    return hashlib.sha256(repr([h.edges for h in fams]).encode()).hexdigest()[:16]


# digests of the class lists as written when every admitted candidate got
# the full canonical search, before the class index
@pytest.mark.parametrize(
    "n, r, f, classes, digest",
    [
        (6, 3, EnumerationFilter(tau_le=2, min_edges=1), 174, "278b8246d9a2bbe4"),
        (7, 3, EnumerationFilter(tau_le=2, min_edges=1), 578, "5f652c74ed4db9cf"),
        (6, 4, EnumerationFilter(tau_le=2), 155, "c7eee510457a0c06"),
        (7, 3, EnumerationFilter(maximal_only=True), 15, "e7bede545cdd49a1"),
        (6, 3, EnumerationFilter(), 194, "03976f61d2a580a5"),
        (5, 3, EnumerationFilter(max_edges=4), 14, "694f7ac059175509"),
    ],
)
def test_golden_class_lists(n, r, f, classes, digest):
    fams = enumerate_intersecting(n, r, f)
    assert len(fams) == classes
    assert class_list_digest(fams) == digest


@pytest.mark.parametrize(
    "n, f, classes",
    [
        (6, EnumerationFilter(tau_le=2, min_edges=1), 174),
        (7, EnumerationFilter(maximal_only=True), 15),
    ],
)
def test_sweeps_run_no_full_canonical_search(monkeypatch, n, f, classes):
    # the canonicity test replaces every full search
    calls = []

    def counting(h):
        calls.append(h)
        return canonical_form(h)

    monkeypatch.setattr(ifam.enumeration, "canonical_form", counting)
    assert len(enumerate_intersecting(n, 3, f)) == classes
    assert calls == []


def test_canonicity_test_decides_swaps_on_first_use(monkeypatch):
    # the transposition skip asks only about pairs the search reaches; a
    # table of every degree-equal pair made 9,840 calls on this sweep, and
    # the sweep through {1..3} alone made 312 (most of its tests now run
    # on small, symmetric seed prefixes)
    calls = 0
    real = ifam.enumeration._transposition_fixes

    def counting(masks, a, b):
        nonlocal calls
        calls += 1
        return real(masks, a, b)

    monkeypatch.setattr(ifam.enumeration, "_transposition_fixes", counting)
    fams = enumerate_intersecting(7, 3, EnumerationFilter(tau_ge=3, maximal_only=True))
    assert len(fams) == 8
    assert class_list_digest(fams) == "b5223c1bcbe65fb5"
    assert calls == 408


def test_orderly_sweep_rechecks_only_the_lower_bounds(monkeypatch):
    # the prune holds every prefix to intersecting and tau <= 2 with one
    # bounded cover search per child, so the 578 emitted classes cost no
    # further cover call
    asked = []
    real = ifam.enumeration._cover_exists
    monkeypatch.setattr(ifam.enumeration, "_cover_exists",
                        lambda masks, k: asked.append(k) or real(masks, k))
    every = enumerate_intersecting(7, 3, EnumerationFilter(tau_le=2, min_edges=1))
    assert len(every) == 578
    assert len(asked) == 1_506 and set(asked) == {2}
    # a lower bound on tau is not hereditary: each class is checked once,
    # by one search for a cover of tau_ge - 1 vertices
    asked.clear()
    got = enumerate_intersecting(7, 3, EnumerationFilter(tau_le=2, tau_ge=2, min_edges=1))
    assert got == [h for h in every if cover_number(h) == 2]
    assert asked == [2] * 1_506 + [1] * 578


def test_maximal_sweep_still_applies_every_bound():
    f = EnumerationFilter(maximal_only=True)
    every = enumerate_intersecting(7, 3, f)
    for bounds in (
        dict(min_edges=8),
        dict(max_edges=9),
        dict(tau_le=2),
        dict(tau_ge=3),
    ):
        got = enumerate_intersecting(7, 3, EnumerationFilter(maximal_only=True, **bounds))
        want = [h for h in every if EnumerationFilter(**bounds).admits(h)]
        assert got == want and 0 < len(got) < len(every), bounds


# -- interface discipline ---------------------------------------------------


def test_deterministic_output():
    f = EnumerationFilter(tau_le=2, min_edges=1)
    a = [tuple(h.edges) for h in enumerate_intersecting(6, 3, f)]
    b = [tuple(h.edges) for h in enumerate_intersecting(6, 3, f)]
    assert a == b
    assert a == sorted(a, key=lambda t: (len(t), tuple(sorted(t))))


def test_edge_count_filters():
    f = EnumerationFilter(tau_le=2, min_edges=3, max_edges=5)
    out = list(enumerate_intersecting(6, 3, f))
    assert out
    assert all(3 <= len(h) <= 5 for h in out)
    assert all(cover_number(h) <= 2 for h in out)


def test_tau_ge_filter():
    out = list(
        enumerate_intersecting(5, 3, EnumerationFilter(maximal_only=True, tau_ge=3))
    )
    assert all(cover_number(h) >= 3 for h in out)


def test_the_tau_bounds_read_the_exact_cover_number():
    # each bound is one bounded cover search; tau_ge = 0 admits every
    # family, the empty one (tau = 0) included
    rng = random.Random(20261022)
    families = [Hypergraph(5, 2, ())]
    for _ in range(150):
        n, r = rng.randint(3, 8), rng.randint(1, 3)
        pool = _edge_pool(n, r)
        families.append(Hypergraph.from_masks(n, r, rng.sample(pool, rng.randint(1, min(10, len(pool))))))
    seen = set()
    for h in families:
        tau = cover_number(h)
        seen.add(tau)
        for le in (None, 0, 1, 2, 3, 4):
            for ge in (None, 0, 1, 2, 3, 4):
                if le is not None and ge is not None and le < ge:
                    continue
                f = EnumerationFilter(intersecting=False, tau_le=le, tau_ge=ge)
                want = (le is None or tau <= le) and (ge is None or tau >= ge)
                assert f.admits(h) == want, (h, le, ge)
    assert {0, 1, 2, 3, 4} <= seen, seen


def test_the_default_filter_refuses_a_non_intersecting_family():
    disjoint = Hypergraph.from_vertex_sets(6, 3, [(1, 2, 3), (4, 5, 6)])
    assert not EnumerationFilter().admits(disjoint)
    assert EnumerationFilter(intersecting=False).admits(disjoint)


def test_filter_validation():
    with pytest.raises(ValueError):
        enumerate_intersecting(5, 3, EnumerationFilter(tau_le=1, tau_ge=2))
    with pytest.raises(ValueError):
        enumerate_intersecting(5, 3, EnumerationFilter(min_edges=5, max_edges=2))
    with pytest.raises(ValueError):
        enumerate_intersecting(5, 3, EnumerationFilter(maximal_only=True, intersecting=False))
    with pytest.raises(ValueError):
        enumerate_intersecting(5, 3, EnumerationFilter(tau_le=-1))


@pytest.mark.parametrize(
    "field, value",
    [
        ("maximal_only", "no"),
        ("intersecting", 1),
        ("tau_le", True),
        ("max_edges", 2.5),
        ("tau_le", "2"),
    ],
)
def test_filter_fields_of_the_wrong_type_are_refused(field, value):
    with pytest.raises(TypeError, match=field):
        enumerate_intersecting(5, 3, EnumerationFilter(**{field: value}))


def test_a_filter_that_is_not_an_enumeration_filter_is_refused():
    with pytest.raises(TypeError, match="EnumerationFilter"):
        enumerate_intersecting(5, 3, "x")


@pytest.mark.parametrize("n, r", [(True, 1), (5, False), (5.0, 3), (5, "3")])
def test_n_and_r_must_be_ints(n, r):
    with pytest.raises(TypeError, match="must be an int"):
        enumerate_intersecting(n, r)


def test_ceiling_and_pool_guards():
    with pytest.raises(ValueError):
        list(enumerate_intersecting(10, 3, EnumerationFilter(tau_le=2)))
    with pytest.raises(ValueError):
        list(enumerate_intersecting(12, 3, EnumerationFilter(tau_le=2), ceiling=11))
    # unrestricted sweep refused on a big pool even under the ceiling
    with pytest.raises(ValueError):
        list(enumerate_intersecting(9, 3, EnumerationFilter()))
    with pytest.raises(ValueError):
        enumerate_intersecting(0, 3, EnumerationFilter())
