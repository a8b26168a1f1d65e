"""Canonical forms and isomorph-free enumeration.

Completeness evidence comes from independent oracles: a Burnside orbit
count over the full symmetric group at n <= 5, a naive sweep of all
subsets of the fixed covering-pair frame at n <= 6 (with and without an
edge cap), and every maximal clique of the edge compatibility graph at
n <= 7.  The generators skip labeled copies by symmetry; these oracles
skip none.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest

from ifam.constructions import ConstructionId, ConstructionParams, build_construction
from ifam.enumeration import (
    EnumerationFilter,
    canonical_form,
    enumerate_intersecting,
    invariant_key,
)
from ifam.hypergraph import (
    Hypergraph,
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


def test_canonical_form_minimality_small():
    # brute-force the definition on tiny inputs
    rng = random.Random(SEED)
    for _ in range(12):
        h = random_family(rng, 5, 3, rng.randint(1, 5))
        ref = min(
            tuple(
                sorted(
                    mask_of(tuple(pi[v - 1] for v in vertices_of(e)))
                    for e in h.edges
                )
            )
            for pi in permutations(range(1, 6))
        )
        assert canonical_form(h) == ref


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
    import math

    assert total % math.factorial(n) == 0
    return total // math.factorial(n)


def test_enumeration_matches_burnside_at_tiny_n():
    for n, expected in ((4, None), (5, None)):
        got = len(list(enumerate_intersecting(n, 3, EnumerationFilter(min_edges=1))))
        oracle = burnside_class_count(n, 3, is_intersecting)
        assert got == oracle, n


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


def test_filter_validation():
    with pytest.raises(ValueError):
        enumerate_intersecting(5, 3, EnumerationFilter(tau_le=1, tau_ge=2))
    with pytest.raises(ValueError):
        enumerate_intersecting(5, 3, EnumerationFilter(min_edges=5, max_edges=2))
    with pytest.raises(ValueError):
        enumerate_intersecting(5, 3, EnumerationFilter(maximal_only=True, intersecting=False))
    with pytest.raises(ValueError):
        enumerate_intersecting(5, 3, EnumerationFilter(tau_le=-1))


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
