"""Containment search, pattern verdicts, and the two decomposition routines.

The load-bearing test here plays the search engine against a brute-force
oracle: for every small family and template the claimed witness is
re-validated, and every "no" is confirmed by trying all injective role
assignments.  Builders and the legality predicate read the same generator
records; recovering each construction edge-for-edge from the predicate
ties them together, and the golden edge sets in test_constructions.py pin
the builders independently of those records.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations, permutations

import pytest

import ifam
from ifam.classifier import (
    Embedding,
    Verdict,
    VerdictKind,
    _ladder,
    classify,
    classify_3graph,
    classify_rgraph,
    decompose_matching,
    decompose_th4prime,
    embed,
    embedding_is_valid,
)
from ifam.constructions import (
    ConstructionError,
    ConstructionId,
    ConstructionParams,
    build_construction,
    special_vertices,
)
from ifam.hypergraph import (
    Hypergraph,
    SetFamily,
    cover_number,
    is_intersecting,
    mask_of,
    matching_number,
    vertices_of,
)

P = ConstructionParams
C = ConstructionId

SEED = 20260822


def built(cid, n, r, **kw):
    return build_construction(cid, P(n, r, **kw))


def relabeled(h, rng):
    perm = list(range(1, h.n + 1))
    rng.shuffle(perm)
    tab = {v: perm[v - 1] for v in range(1, h.n + 1)}
    return Hypergraph.from_masks(
        h.n, h.r,
        {mask_of(tuple(tab[v] for v in vertices_of(e))) for e in h.edges},
    )


def random_intersecting(rng, n, r, target):
    universe = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    rng.shuffle(universe)
    picked = []
    for e in universe:
        if all(e & f for f in picked):
            picked.append(e)
            if len(picked) == target:
                break
    return Hypergraph.from_masks(n, r, picked)


def brute_embed(h, cid, params):
    """Exhaustive witness search over all injective role assignments."""
    names = sorted(special_vertices(cid, params))
    for image in permutations(range(1, h.n + 1), len(names)):
        emb = Embedding(cid, params, tuple(zip(names, image)))
        if embedding_is_valid(h, emb):
            return emb
    return None


# -- verdict and embedding plumbing -----------------------------------------


def star_witness(n, r):
    h = built(C.EM, n, r, s=1)
    emb = embed(h, C.EM, P(n, r, s=1))
    assert emb is not None
    return emb


def test_verdict_witness_discipline():
    emb = star_witness(8, 3)
    v = Verdict(VerdictKind.STAR, embedding=emb)
    assert v.describe() == "STAR"
    with pytest.raises(ValueError):
        Verdict(VerdictKind.STAR)
    with pytest.raises(ValueError):
        Verdict(VerdictKind.NONE, embedding=emb)
    with pytest.raises(ValueError):
        Verdict(VerdictKind.HM_T, embedding=emb)
    with pytest.raises(ValueError):
        Verdict(VerdictKind.H3, embedding=emb)
    assert Verdict(VerdictKind.HM_T, t=2, embedding=emb).describe() == "HM_T(t=2)"
    assert Verdict(VerdictKind.H3, i=5, embedding=emb).describe() == "H3(5)"
    assert Verdict(VerdictKind.TAU_GE_3).describe() == "TAU_GE_3"


def test_embedding_mapping_round_trip():
    emb = star_witness(9, 4)
    assert emb.mapping == dict(emb.roles)
    assert set(emb.mapping) == {"x1"}


def test_embedding_is_valid_rejects_malformed():
    h = built(C.HM0, 7, 3)
    good = embed(h, C.HM0, P(7, 3))
    assert good is not None
    roles = good.mapping
    # role name set must match the template exactly
    bad = dict(roles)
    bad["q"] = bad.pop("x")
    assert not embedding_is_valid(h, Embedding(C.HM0, P(7, 3), tuple(bad.items())))
    short = tuple(list(good.roles)[:-1])
    assert not embedding_is_valid(h, Embedding(C.HM0, P(7, 3), short))
    # images must be injective and on the ground set
    vals = sorted(roles.values())
    dup = (("x", vals[0]), ("x1", vals[0]), ("x2", vals[1]))
    assert not embedding_is_valid(h, Embedding(C.HM0, P(7, 3), dup))
    out = (("x", 8), ("x1", vals[0]), ("x2", vals[1]))
    assert not embedding_is_valid(h, Embedding(C.HM0, P(7, 3), out))
    # invalid template parameters answer False rather than raising
    assert not embedding_is_valid(h, Embedding(C.EM, P(7, 3, s=9), (("x1", 1),)))
    # wrong uniformity or ground set answers False
    assert not embedding_is_valid(h, Embedding(C.HM0, P(8, 3), good.roles))


def test_embedding_is_valid_checks_every_edge():
    h = built(C.EM, 8, 3, s=1)
    noisy = Hypergraph.from_masks(8, 3, set(h.edges) | {mask_of((2, 3, 4))})
    emb = Embedding(C.EM, P(8, 3, s=1), (("x1", 1),))
    assert embedding_is_valid(h, emb)
    assert not embedding_is_valid(noisy, emb)


def test_embed_input_validation():
    h = built(C.HM0, 7, 3)
    with pytest.raises(ValueError):
        embed(h, C.HM0, P(8, 3))
    with pytest.raises(ValueError):
        embed(h, C.HM_DP, P(7, 4))
    with pytest.raises(ConstructionError):
        embed(h, C.EM, P(7, 3, s=5))
    with pytest.raises(ConstructionError):
        embed(h, C.H3FAM, P(7, 3, i=7))


# -- checkers recover the builders ------------------------------------------

CHECKER_GRID = (
    [
        (C.EM, P(7, 3, s=2)),
        (C.EM, P(8, 4, s=1)),
        (C.HM_T, P(7, 3, t=1)),
        (C.HM_T, P(8, 3, t=2)),
        (C.HM_T, P(9, 4, t=2)),
        (C.HM_T, P(8, 4, t=4)),
        (C.HM0, P(7, 3)),
        (C.HM0, P(9, 4)),
        (C.HM_DP, P(9, 4)),
        (C.FP, P(7, 3)),
        (C.FP, P(8, 4)),
        (C.FP, P(10, 5)),
    ]
    + [(C.H3FAM, P(7, 3, i=i)) for i in range(6)]
    + [(C.H3LIFT, P(8, 4, i=i)) for i in range(6)]
)


def test_legality_predicate_recovers_each_construction():
    for cid, p in CHECKER_GRID:
        target = set(build_construction(cid, p).edges)
        identity = Embedding(cid, p, tuple(sorted(special_vertices(cid, p).items())))
        legal = set()
        for c in combinations(range(1, p.n + 1), p.r):
            e = mask_of(c)
            if embedding_is_valid(Hypergraph.from_masks(p.n, p.r, {e}), identity):
                legal.add(e)
        assert legal == target, (cid, p)


# -- search vs brute force --------------------------------------------------


def corpus(rng, n):
    specs = [
        (C.EM, dict(s=1)),
        (C.EM, dict(s=2)),
        (C.HM_T, dict(t=1)),
        (C.HM_T, dict(t=2)),
        (C.HM0, {}),
        (C.FP, {}),
    ] + [(C.H3FAM, dict(i=i)) for i in range(6)]
    fams = []
    for cid, kw in specs:
        h = build_construction(cid, P(n, 3, **kw))
        fams.append(h)
        fams.append(relabeled(h, rng))
        edges = sorted(h.edges)
        keep = rng.sample(edges, max(1, len(edges) - 4))
        fams.append(Hypergraph.from_masks(n, 3, keep))
    for _ in range(6):
        fams.append(random_intersecting(rng, n, 3, rng.randint(3, 12)))
    fams.append(Hypergraph.from_masks(n, 3, {mask_of((1, 2, 3))}))
    return fams


def templates_3(n, max_roles):
    out = [
        (C.EM, P(n, 3, s=1)),
        (C.EM, P(n, 3, s=2)),
        (C.HM_T, P(n, 3, t=1)),
        (C.HM_T, P(n, 3, t=2)),
        (C.HM0, P(n, 3)),
        (C.FP, P(n, 3)),
    ] + [(C.H3FAM, P(n, 3, i=i)) for i in range(6)]
    return [(cid, p) for cid, p in out if len(special_vertices(cid, p)) <= max_roles]


def test_embed_agrees_with_brute_force():
    rng = random.Random(SEED)
    # all templates at n = 6; the heavier six-role ones are skipped at n = 7
    for n, max_roles in ((6, 6), (7, 5)):
        for h in corpus(rng, n):
            for cid, p in templates_3(n, max_roles):
                got = embed(h, cid, p)
                if got is not None:
                    assert embedding_is_valid(h, got), (cid, p)
                else:
                    assert brute_embed(h, cid, p) is None, (cid, p, sorted(h.edges))


def swapped(h, rng, pool):
    """H with one edge replaced by a set of `pool` outside H, if any."""
    outside = sorted(set(pool) - set(h.edges))
    if not outside or not h.edges:
        return h
    edges = sorted(h.edges)
    edges[rng.randrange(len(edges))] = rng.choice(outside)
    return Hypergraph.from_masks(h.n, h.r, edges)


def check_against_brute_force(h, cid, p, hits, misses):
    got = embed(h, cid, p)
    if got is not None:
        assert embedding_is_valid(h, got), (cid, p)
        hits.add(p)
    else:
        assert brute_embed(h, cid, p) is None, (cid, p, sorted(h.edges))
        misses.add(p)


def lifted_corpus(rng):
    """r = 4 families on n = 6, 7: every two 4-sets meet, so every family
    is intersecting and the lift searches see arbitrary inputs."""
    fams = []
    for n in (6, 7):
        pool = [mask_of(c) for c in combinations(range(1, n + 1), 4)]
        for i in range(6):
            lift = relabeled(built(C.H3LIFT, n, 4, i=i), rng)
            edges = sorted(lift.edges)
            sub = Hypergraph.from_masks(n, 4, rng.sample(edges, max(1, len(edges) * 2 // 3)))
            fams += [sub, swapped(sub, rng, pool)]
        for _ in range(4):
            fams.append(Hypergraph.from_masks(n, 4, rng.sample(pool, rng.randint(3, 9))))
    return fams


def test_lifted_embed_agrees_with_brute_force():
    hits, misses = set(), set()
    for h in lifted_corpus(random.Random(SEED)):
        for i in range(6):
            check_against_brute_force(h, C.H3LIFT, P(h.n, 4, i=i), hits, misses)
    for i in range(6):
        assert any(p.i == i for p in hits), i
        assert any(p.i == i for p in misses), i


TAILED_GRID = [(C.HM_T, P(8, 4, t=t)) for t in (1, 2, 3)] + [(C.HM_DP, P(8, 4))]


def tailed_corpus(rng):
    """(family, template, parameters): five families per tailed or
    double-pair instance on [8], drawn from that instance."""
    pool = [mask_of(c) for c in combinations(range(1, 9), 4)]
    out = []
    for cid, p in TAILED_GRID:
        h = relabeled(build_construction(cid, p), rng)
        sub = Hypergraph.from_masks(8, 4, rng.sample(sorted(h.edges), len(h) // 2))
        fams = [h, sub, swapped(h, rng, pool), swapped(sub, rng, pool),
                random_intersecting(rng, 8, 4, 8)]
        out += [(g, cid, p) for g in fams]
    return out


def test_tailed_and_double_pair_embed_agree_with_brute_force():
    hits, misses = set(), set()
    for g, cid, p in tailed_corpus(random.Random(SEED)):
        check_against_brute_force(g, cid, p, hits, misses)
    assert hits == misses == {p for _, p in TAILED_GRID}


# Every edge holds vertex 1 and vertex 2; the other pairs are disjoint.
PAIR_SPINE = Hypergraph.from_vertex_sets(8, 4, [(1, 2, 3, 4), (1, 2, 5, 6), (1, 2, 7, 8)])


def star_corpus(cid, p):
    """Families on [8] whose edges all pass through vertex 1 (before
    relabeling): the edges of the instance through its apex, with one
    swapped, the full star, part of it, and PAIR_SPINE."""
    rng = random.Random(SEED)
    star = [mask_of((1, *c)) for c in combinations(range(2, 9), 3)]
    part = [e for e in build_construction(cid, p).edges if e & 1]
    outside = sorted(set(star) - set(part))
    return [
        Hypergraph.from_masks(8, 4, part),
        relabeled(Hypergraph.from_masks(8, 4, part[1:] + [rng.choice(outside)]), rng),
        Hypergraph.from_masks(8, 4, star),
        relabeled(Hypergraph.from_masks(8, 4, rng.sample(star, 6)), rng),
        PAIR_SPINE,
    ]


@pytest.mark.parametrize("cid, p", TAILED_GRID)
def test_star_families_embed_as_brute_force_says(cid, p):
    # a family whose edges all pass through one vertex leaves no edge off
    # that apex, so the searches take their star branches there: the
    # tail-guessing residue search for HM_T when the links need more than
    # r - 1 cover vertices, and _dp_star for HM_DP
    hits, misses = set(), set()
    for h in star_corpus(cid, p):
        check_against_brute_force(h, cid, p, hits, misses)
    assert hits == misses == {p}


def test_star_residue_search_tries_each_tail_set_once(monkeypatch):
    # on the full star every edge through the apex holds three of the
    # eleven other vertices, so the 165 edges offer each one-vertex tail
    # 45 times: one bounded cover count-up for the links and one per
    # distinct tail
    import ifam.classifier

    calls = []
    real = ifam.classifier._min_cover_mask
    monkeypatch.setattr(ifam.classifier, "_min_cover_mask",
                        lambda masks, bound: calls.append(bound) or real(masks, bound))
    star = Hypergraph.from_masks(12, 4, [mask_of((1, *c)) for c in combinations(range(2, 13), 3)])
    assert embed(star, C.HM_T, P(12, 4, t=1)) is None
    assert calls == [3] * 12


def asked_cover_sizes(monkeypatch, call):
    """call()'s answer and every k that the cover search was asked with."""
    import ifam.hypergraph

    asked = []
    real = ifam.hypergraph._cover_exists
    monkeypatch.setattr(ifam.hypergraph, "_cover_exists",
                        lambda masks, k: asked.append(k) or real(masks, k))
    return call(), asked


def test_embed_asks_each_cover_question_at_its_bound(monkeypatch):
    # EM(n, 3, 2) holds the families of tau <= 2 and HM_T(t = 1) needs a
    # cover of r - 1 links, so no larger cover is asked for, whatever the
    # exact tau (6 and 3 here, 9 for the star's links)
    pool = [mask_of(c) for c in combinations(range(1, 13), 3)]
    seeded = Hypergraph.from_masks(12, 3, random.Random(1).sample(pool, 40))
    fano = Hypergraph.from_vertex_sets(7, 3, [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6),
                                             (2, 5, 7), (3, 4, 7), (3, 5, 6)])
    assert cover_number(seeded) == 6 and cover_number(fano) == 3
    for h, searched in ((seeded, []), (fano, [1, 2])):
        got, asked = asked_cover_sizes(monkeypatch, lambda: embed(h, C.EM, P(h.n, 3, s=2)))
        assert got is None and asked == searched
    star = Hypergraph.from_masks(12, 4, [mask_of((1, *c)) for c in combinations(range(2, 13), 3)])
    got, asked = asked_cover_sizes(monkeypatch, lambda: embed(star, C.HM_T, P(12, 4, t=1)))
    assert got is None and asked and max(asked) <= 3


def test_double_pair_star_with_an_empty_residue():
    # apex 1 and base vertex 2 meet every edge, so _dp_star has nothing
    # left for the pairs and pads the base and both pairs with free labels
    emb = embed(PAIR_SPINE, C.HM_DP, P(8, 4))
    assert emb.mapping == {"x": 1, "x1": 2, "x2": 3, "y1": 4, "y1p": 5, "y2": 6, "y2p": 7}


def test_double_pair_pads_the_second_pair_when_no_edge_pins_it():
    # apex 1 misses only {2, 3, 4, 5}; with the first pair {2, 3} and base
    # {4, 5}, no edge is left for the second pair, which takes free labels
    h = Hypergraph.from_vertex_sets(8, 4, [(2, 3, 4, 5), (1, 4, 5, 7)])
    hits, misses = set(), set()
    check_against_brute_force(h, C.HM_DP, P(8, 4), hits, misses)
    emb = embed(h, C.HM_DP, P(8, 4))
    assert emb.mapping == {"x": 1, "x1": 4, "x2": 5, "y1": 2, "y1p": 3, "y2": 6, "y2p": 7}


# Not intersecting: {1, 3, 4, 6} and {2, 5, 7, 8} are disjoint.  On the
# way to refusing it, the HM_T search meets a demanded tail outside the
# pool that every edge off the base allows, and the HM_DP search a first
# pair that misses an edge the base misses.
DISJOINT_PAIR = Hypergraph.from_vertex_sets(
    8, 4, [(1, 3, 4, 6), (1, 3, 5, 7), (1, 5, 6, 8), (2, 5, 7, 8)]
)


@pytest.mark.parametrize("cid, p", [(C.HM_T, P(8, 4, t=1)), (C.HM_DP, P(8, 4))])
def test_searches_refuse_a_non_intersecting_family_as_brute_force_does(cid, p):
    hits, misses = set(), set()
    check_against_brute_force(DISJOINT_PAIR, cid, p, hits, misses)
    assert misses == {p}


def test_all_tails_search_refuses_a_base_that_an_apex_edge_misses():
    # with t = n - r > r - 1 every edge through the apex meets the base.
    # Apex 1 misses only {2, 3, 4, 5}: dropping 2 leaves the base
    # {3, 4, 5}, which {1, 2, 6, 7} misses, so that base proposes nothing;
    # dropping 3 leaves {2, 4, 5}, and its candidate is the first proposed
    from ifam.classifier import _embed_hm_t
    from ifam.constructions import _resolve

    h = Hypergraph.from_vertex_sets(9, 4, [(2, 3, 4, 5), (1, 5, 6, 7), (1, 2, 6, 7)])
    p = P(9, 4, t=5)
    hits, misses = set(), set()
    check_against_brute_force(h, C.HM_T, p, hits, misses)
    assert hits == {p}
    assert next(_embed_hm_t(h, _resolve(C.HM_T, p))) == (1, 2, 4, 5, 3, 6, 7, 8, 9)
    assert embed(h, C.HM_T, p).mapping == {
        "x": 1, "x1": 2, "x2": 4, "x3": 5, "y1": 3, "y2": 6, "y3": 7, "y4": 8, "y5": 9,
    }


TIGHT = [(C.EM, P(r + s, r, s=s)) for r in (3, 4) for s in (1, 2, 3)] + [
    (C.HM0, P(r + 1, r)) for r in (3, 4)
]


@pytest.mark.parametrize("cid, p", TIGHT)
def test_embed_agrees_with_brute_force_on_the_least_ground_set(cid, p):
    # n is the least that the size rule allows, so padding a candidate
    # may need every label that the rule leaves free
    rng = random.Random(SEED)
    pool = [mask_of(c) for c in combinations(range(1, p.n + 1), p.r)]
    fams = [build_construction(cid, p), Hypergraph.from_masks(p.n, p.r, pool)]
    fams += [relabeled(Hypergraph.from_masks(p.n, p.r, rng.sample(pool, k)), rng)
             for k in range(1, len(pool))]
    hits, misses = set(), set()
    for h in fams:
        check_against_brute_force(h, cid, p, hits, misses)
    # every r-set of [r + s] is needed to push the cover number past s;
    # on [r + 1] an r-set holds two of any three vertices, so HM0 holds all
    assert hits == {p}
    assert misses == ({p} if cid is C.EM else set())


# -- containment facts ------------------------------------------------------

SELF_GRID = (
    [
        (C.EM, P(12, 3, s=3)),
        (C.EM, P(10, 5, s=2)),
        (C.HM_T, P(12, 4, t=1)),
        (C.HM_T, P(12, 4, t=3)),
        (C.HM_T, P(12, 4, t=8)),
        (C.HM_T, P(14, 5, t=4)),
        (C.HM0, P(12, 4)),
        (C.HM_DP, P(12, 4)),
        (C.HM_DP, P(12, 5)),
        (C.FP, P(10, 3)),
        (C.FP, P(9, 4)),
    ]
    + [(C.H3FAM, P(10, 3, i=i)) for i in range(6)]
    + [(C.H3LIFT, P(10, 4, i=i)) for i in range(6)]
    + [(C.H3LIFT, P(9, 5, i=2))]
)


def test_every_construction_embeds_in_itself():
    rng = random.Random(SEED)
    for cid, p in SELF_GRID:
        h = build_construction(cid, p)
        assert embed(h, cid, p) is not None, (cid, p)
        assert embed(relabeled(h, rng), cid, p) is not None, (cid, p)


def test_subfamilies_still_embed():
    rng = random.Random(SEED)
    grid = [
        (C.HM_T, P(12, 4, t=2)),
        (C.HM0, P(11, 4)),
        (C.HM_DP, P(12, 4)),
        (C.FP, P(9, 3)),
        (C.H3LIFT, P(10, 4, i=4)),
    ]
    for cid, p in grid:
        h = build_construction(cid, p)
        edges = sorted(h.edges)
        for _ in range(3):
            keep = rng.sample(edges, len(edges) * 2 // 3)
            sub = Hypergraph.from_masks(p.n, p.r, keep)
            assert embed(sub, cid, p) is not None, (cid, p)


def test_empty_family_embeds_anywhere():
    empty = Hypergraph.from_masks(9, 4, [])
    for cid, p in [(C.HM_DP, P(9, 4)), (C.HM_T, P(9, 4, t=2)), (C.EM, P(9, 4, s=1))]:
        emb = embed(empty, cid, p)
        assert emb is not None and embedding_is_valid(empty, emb)


def test_tailed_patterns_are_not_nested():
    for t in (2, 3):
        h = built(C.HM_T, 15, 4, t=t)
        assert embed(h, C.HM_T, P(15, 4, t=t - 1)) is None


def test_double_pair_avoids_all_tailed_patterns():
    h = built(C.HM_DP, 15, 4)
    for t in (1, 2, 3, 11):
        assert embed(h, C.HM_T, P(15, 4, t=t)) is None


def test_embed_rejects_unsound_search_under_optimize():
    # a search only proposes; embed certifies each candidate with a check
    # that survives -O: a label outside [n], a label that misses an edge
    # and a repeated label are each refused, a sound candidate is kept
    script = (
        "import ifam.classifier as c\n"
        "from ifam import ConstructionId as C, ConstructionParams as P, Hypergraph\n"
        "h = Hypergraph.from_vertex_sets(9, 3, [(1, 2, 3), (1, 4, 5)])\n"
        "c._SEARCHES['EM', False] = lambda h, res: iter([(10,), (2,)])\n"
        "print(c.embed(h, C.EM, P(9, 3, s=1)))\n"
        "c._SEARCHES['EM', False] = lambda h, res: iter([(10,), (2,), (1,)])\n"
        "print(c.embed(h, C.EM, P(9, 3, s=1)).roles)\n"
        "pair = Hypergraph.from_vertex_sets(9, 3, [(1, 2, 3), (1, 2, 4)])\n"
        "c._SEARCHES['HM0', False] = lambda h, res: iter([(1, 1, 2), (1, 2, 10)])\n"
        "print(c.embed(pair, C.HM0, P(9, 3)))\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(ifam.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["None", "(('x1', 1),)", "None", ""]


def test_embed_is_deterministic():
    h = built(C.HM_DP, 12, 4)
    a = embed(h, C.HM_DP, P(12, 4))
    b = embed(h, C.HM_DP, P(12, 4))
    assert a == b


def test_every_resolvable_template_has_a_search():
    from ifam.classifier import _SEARCHES
    from ifam.constructions import _resolve

    keys = set()
    for r in (3, 4, 5):
        for n in range(r + 1, 2 * r + 3):
            for cid in C:
                for kw in ({}, *({k: v} for k in "sti" for v in range(n))):
                    p = P(n, r, **kw)
                    try:
                        res = _resolve(cid, p)
                    except ConstructionError:
                        continue
                    keys.add((res.template.name, res.lifted))
    assert keys == set(_SEARCHES)


def witness_corpus(rng):
    """Seeded 3-, 4- and 5-graphs: large and small relabeled subfamilies
    of every template, each also with one edge swapped for an outside
    set, greedy intersecting families, and K5 as a 3-graph."""
    specs = [
        (7, 3, C.EM, dict(s=1)), (7, 3, C.EM, dict(s=2)), (7, 3, C.HM_T, dict(t=1)),
        (7, 3, C.HM_T, dict(t=2)), (7, 3, C.HM0, {}), (7, 3, C.FP, {}),
        *((7, 3, C.H3FAM, dict(i=i)) for i in range(6)),
        (9, 4, C.EM, dict(s=1)), (9, 4, C.EM, dict(s=2)),
        *((9, 4, C.HM_T, dict(t=t)) for t in (1, 2, 3, 5)),
        (9, 4, C.HM0, {}), (9, 4, C.HM_DP, {}), (9, 4, C.FP, {}),
        *((9, 4, C.H3LIFT, dict(i=i)) for i in range(6)),
        (11, 5, C.HM_T, dict(t=2)), (11, 5, C.HM_DP, {}),
    ]
    fams = []
    for n, r, cid, kw in specs:
        h = relabeled(build_construction(cid, P(n, r, **kw)), rng)
        edges = sorted(h.edges)
        pool = [mask_of(c) for c in combinations(range(1, n + 1), r)]
        for size in (len(edges) - 1, len(edges) // 3):
            sub = Hypergraph.from_masks(n, r, rng.sample(edges, max(1, size)))
            fams += [sub, swapped(sub, rng, pool)]
    for n, r in ((7, 3), (8, 3), (9, 4), (10, 4)):
        for _ in range(4):
            fams.append(random_intersecting(rng, n, r, rng.randint(3, 14)))
    fams.append(Hypergraph.from_vertex_sets(7, 3, combinations(range(1, 6), 3)))
    return fams


def test_classify_witnesses_are_pinned():
    # every verdict and witness role map on the corpus, pinned: a search
    # that proposes its candidates in another order changes the digest
    verdicts = [classify(h) for h in witness_corpus(random.Random(SEED))]
    pinned = [(v.describe(), v.embedding.roles if v.embedding else None) for v in verdicts]
    assert {d for d, _ in pinned} == {
        "STAR", "HM0", "HM_DP", "TAU_GE_3", "NONE",
        *(f"HM_T(t={t})" for t in (1, 2, 3, 5)), *(f"H3({i})" for i in range(6)),
    }
    assert hashlib.sha256(repr(pinned).encode()).hexdigest()[:16] == "0680d14dd2904386"


# -- classification ---------------------------------------------------------


def test_classify_3graph_recovers_family_index():
    for n in (6, 9):
        for i in range(6):
            v = classify_3graph(built(C.H3FAM, n, 3, i=i))
            assert (v.kind, v.i) == (VerdictKind.H3, i), (n, i)
            assert v.describe() == f"H3({i})"


def test_classify_3graph_star_and_cover_three():
    star = built(C.EM, 9, 3, s=1)
    v = classify_3graph(star)
    assert v.kind is VerdictKind.STAR
    assert v.embedding.mapping == {"x1": 1}
    k5 = Hypergraph.from_masks(5, 3, {mask_of(c) for c in combinations(range(1, 6), 3)})
    assert classify_3graph(k5).kind is VerdictKind.TAU_GE_3
    fp = built(C.FP, 9, 3)
    assert classify_3graph(fp).kind is VerdictKind.TAU_GE_3
    # the name answers every r, as classify does
    assert classify_3graph(built(C.HM0, 9, 4)).kind is VerdictKind.HM0


def test_classify_3graph_non_intersecting_cover_three_is_none():
    k7 = Hypergraph.from_masks(7, 3, {mask_of(c) for c in combinations(range(1, 8), 3)})
    assert cover_number(k7) >= 3 and len(k7) == 35
    assert classify_3graph(k7).kind is VerdictKind.NONE
    triples = Hypergraph.from_vertex_sets(9, 3, [(1, 2, 3), (4, 5, 6), (7, 8, 9)])
    assert cover_number(triples) == 3
    assert classify_3graph(triples).kind is VerdictKind.NONE


def test_classify_3graph_sparse_family_lands_in_a_pattern():
    h = Hypergraph.from_masks(
        6, 3, {mask_of(c) for c in [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)]}
    )
    assert cover_number(h) == 2
    v = classify_3graph(h)
    assert (v.kind, v.i) == (VerdictKind.H3, 4)


def test_classify_rgraph_recovers_templates():
    for t in (1, 2, 3, 8):
        v = classify_rgraph(built(C.HM_T, 12, 4, t=t))
        assert (v.kind, v.t) == (VerdictKind.HM_T, t)
    assert classify_rgraph(built(C.HM0, 9, 4)).kind is VerdictKind.HM0
    assert classify_rgraph(built(C.HM_DP, 15, 4)).kind is VerdictKind.HM_DP
    v = classify_rgraph(built(C.HM_T, 14, 5, t=3))
    assert (v.kind, v.t) == (VerdictKind.HM_T, 3)


def test_classify_rgraph_survives_relabeling():
    rng = random.Random(SEED)
    g = relabeled(built(C.HM_T, 12, 4, t=2), rng)
    v = classify_rgraph(g)
    assert (v.kind, v.t) == (VerdictKind.HM_T, 2)
    v = classify_rgraph(relabeled(built(C.HM_DP, 12, 4), rng))
    assert v.kind is VerdictKind.HM_DP


def test_classify_rgraph_none_and_errors(monkeypatch):
    # every 4-subset of a 7 point ground set: intersecting with cover number 4,
    # so no two-cover template can host it, and none is tried
    t7 = Hypergraph.from_masks(
        7, 4, {mask_of(c) for c in combinations(range(1, 8), 4)}
    )
    assert cover_number(t7) == 4
    embeds = []
    monkeypatch.setattr(ifam.classifier, "embed", lambda *args: embeds.append(args))
    assert classify_rgraph(t7).kind is VerdictKind.NONE
    assert classify(t7).kind is VerdictKind.NONE
    assert embeds == []
    monkeypatch.undo()
    # the name answers r = 3 and cover number one, as classify does
    assert classify_rgraph(built(C.HM0, 9, 3)).describe() == "H3(0)"
    assert classify_rgraph(built(C.EM, 10, 4, s=1)).kind is VerdictKind.STAR


def test_classify_dispatches_by_uniformity():
    assert classify_3graph is classify_rgraph is classify
    assert classify(built(C.H3FAM, 8, 3, i=4)) == classify_3graph(built(C.H3FAM, 8, 3, i=4))
    hm = built(C.HM_T, 12, 4, t=2)
    assert classify(hm) == classify_rgraph(hm)
    star = classify(built(C.EM, 9, 4, s=1))
    assert star.kind is VerdictKind.STAR and star.embedding.mapping == {"x1": 1}


def test_classify_edge_cases():
    # one edge on n = r: cover number one, but no star template fits
    assert classify(Hypergraph.from_vertex_sets(4, 4, [(1, 2, 3, 4)])).kind is VerdictKind.NONE
    split = Hypergraph.from_vertex_sets(9, 4, [(1, 2, 3, 4), (5, 6, 7, 8)])
    assert classify(split).kind is VerdictKind.NONE
    assert classify(Hypergraph.from_vertex_sets(5, 2, [(1, 2), (3, 4)])).kind is VerdictKind.NONE
    assert classify(Hypergraph.from_vertex_sets(5, 2, [(1, 2), (1, 3)])).kind is VerdictKind.STAR
    triangle = Hypergraph.from_vertex_sets(5, 2, [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(ValueError):
        classify(triangle)


def test_classify_searches_for_tau_once(monkeypatch):
    # the ladder reads tau as <= 1, 2 or >= 3: a common vertex settles the
    # star with no search, one bounded search for a two-vertex cover
    # settles the rest, and no exact cover number is computed
    calls = {"_cover_exists": 0, "cover_number": 0}
    for mod, name in ((ifam.classifier, "_cover_exists"), (ifam.hypergraph, "cover_number")):
        def counting(*args, name=name, fn=getattr(mod, name)):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(mod, name, counting)
    k5 = Hypergraph.from_masks(5, 3, {mask_of(c) for c in combinations(range(1, 6), 3)})
    matching = Hypergraph.from_vertex_sets(12, 4, [(1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)])
    cases = [
        (built(C.HM_T, 12, 4, t=2), VerdictKind.HM_T, 1),
        (built(C.HM0, 9, 4), VerdictKind.HM0, 1),
        (built(C.HM_DP, 12, 5), VerdictKind.HM_DP, 1),
        (built(C.EM, 9, 4, s=1), VerdictKind.STAR, 0),
        (Hypergraph(9, 4, ()), VerdictKind.STAR, 0),
        (k5, VerdictKind.TAU_GE_3, 1),
        (matching, VerdictKind.NONE, 1),
    ]
    for h, kind, searches in cases:
        calls.update(_cover_exists=0, cover_number=0)
        assert classify(h).kind is kind
        assert calls == {"_cover_exists": searches, "cover_number": 0}, kind


def test_each_classifier_checks_its_guards_once(monkeypatch):
    calls = {"_cover_exists": 0, "is_intersecting": 0}
    for name in calls:
        def counting(*args, name=name, fn=getattr(ifam.classifier, name)):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(ifam.classifier, name, counting)
    # an r >= 4 family climbs the ladder with no proof that it is
    # intersecting; only an r = 3 family with cover number 3 is proved
    h3, hm = built(C.H3FAM, 8, 3, i=4), built(C.HM_T, 12, 4, t=2)
    k5 = Hypergraph.from_masks(5, 3, {mask_of(c) for c in combinations(range(1, 6), 3)})
    for h, verdict, proofs in ((h3, "H3(4)", 0), (hm, "HM_T(t=2)", 0), (k5, "TAU_GE_3", 1)):
        calls.update(_cover_exists=0, is_intersecting=0)
        assert classify(h).describe() == verdict
        assert calls == {"_cover_exists": 1, "is_intersecting": proofs}, verdict


def rung_names(rungs, n, r):
    names = []
    for kind, cid, p in rungs:
        assert (p.n, p.r) == (n, r)
        extra = [f"{k}={v}" for k, v in (("s", p.s), ("t", p.t), ("i", p.i)) if v is not None]
        names.append(" ".join([kind.value, cid.value, *extra]))
    return names


def test_ladder_lists_the_rungs_in_paper_order():
    ladders = {
        3: ["STAR EM s=1", *(f"H3 H3FAM i={i}" for i in range(6))],
        4: ["STAR EM s=1", "HM_T HM_T t=1", "HM_T HM_T t=2", "HM_T HM_T t=3",
            "HM_T HM_T t=8", "HM0 HM0", "HM_DP HM_DP"],
        5: ["STAR EM s=1", "HM_T HM_T t=1", "HM_T HM_T t=2", "HM_T HM_T t=3",
            "HM_T HM_T t=4", "HM_T HM_T t=7", "HM_DP HM_DP"],
    }
    for r, want in ladders.items():
        assert rung_names(_ladder(12, r, None), 12, r) == want
        # a cover number keeps the star alone, or everything past it
        assert rung_names(_ladder(12, r, 1), 12, r) == want[:1]
        assert rung_names(_ladder(12, r, 2), 12, r) == want[1:]
        # every rung past the star has a two-vertex cover
        assert _ladder(12, r, 3) == ()
    # t = n - r is listed once when it is already below r
    assert rung_names(_ladder(7, 4, 2), 7, 4) == [
        "HM_T HM_T t=1", "HM_T HM_T t=2", "HM_T HM_T t=3", "HM0 HM0", "HM_DP HM_DP"]
    assert _ladder(6, 2, 2) == ()


# -- matching decomposition -------------------------------------------------


def test_decompose_matching_two_center_star():
    h = built(C.EM, 12, 3, s=2)
    assert matching_number(h) == 2
    z, v = decompose_matching(h, 2)
    assert z == (1,)
    assert v.kind is VerdictKind.STAR
    assert v.embedding.params.n == 11


def test_decompose_matching_planted_apex():
    # a full star at a fresh apex over a shifted copy of the classic
    # two-cover family: peeling the apex must expose the planted pattern
    base = built(C.HM_T, 14, 4, t=1)
    shifted = {
        mask_of(tuple(x + 1 for x in vertices_of(e))) for e in base.edges
    }
    star = {mask_of((1, *c)) for c in combinations(range(2, 16), 3)}
    h = Hypergraph.from_masks(15, 4, shifted | star)
    assert matching_number(h) == 2
    z, v = decompose_matching(h, 2)
    assert z == (1,)
    assert (v.kind, v.t) == (VerdictKind.HM_T, 1)
    assert v.embedding.params.n == 14


def test_decompose_matching_intersecting_case():
    star = built(C.EM, 9, 3, s=1)
    z, v = decompose_matching(star, 1)
    assert z == () and v.kind is VerdictKind.STAR
    k5 = Hypergraph.from_masks(5, 3, {mask_of(c) for c in combinations(range(1, 6), 3)})
    z, v = decompose_matching(k5, 1)
    assert z == () and v.kind is VerdictKind.TAU_GE_3


def test_decompose_matching_unrescuable():
    cp = {mask_of(c) for c in combinations(range(1, 6), 3)}
    cp |= {mask_of(c) for c in combinations(range(6, 11), 3)}
    h = Hypergraph.from_masks(10, 3, cp)
    assert matching_number(h) == 2
    z, v = decompose_matching(h, 2)
    assert z is None and v.kind is VerdictKind.NONE


def test_decompose_matching_rejects_bad_bounds():
    h = built(C.EM, 12, 3, s=2)
    with pytest.raises(ValueError):
        decompose_matching(h, 0)
    with pytest.raises(ValueError):
        decompose_matching(h, 1)  # matching number exceeds the bound
    with pytest.raises(ValueError):
        decompose_matching(h, 20)  # cannot peel more vertices than exist


@pytest.mark.parametrize("s", [True, False, 2.0, "2"])
def test_decompose_matching_refuses_a_bound_that_is_no_int(s):
    # True ran as s = 1 on this intersecting family
    with pytest.raises(TypeError, match=r"^s must be an int, got "):
        decompose_matching(built(C.EM, 12, 3, s=1), s)


@pytest.mark.parametrize("name, args", [
    ("classify", ()), ("classify_3graph", ()), ("classify_rgraph", ()),
    ("embed", (C.EM, P(7, 3, s=1))),
    ("embedding_is_valid", (Embedding(C.EM, P(7, 3, s=1), (("x1", 1),)),)),
    ("decompose_matching", (1,)), ("decompose_th4prime", ()),
], ids=lambda x: x if isinstance(x, str) else "")
def test_entry_points_refuse_an_h_that_is_no_hypergraph(name, args):
    # classify read the missing attribute r and raised AttributeError
    fn = getattr(ifam.classifier, name)
    f = SetFamily.from_vertex_sets(7, [(1, 2, 3), (1, 4, 5)])
    with pytest.raises(TypeError, match=r"^h must be a Hypergraph, got SetFamily$"):
        fn(f, *args)
    with pytest.raises(TypeError, match=r"^h must be a Hypergraph, got tuple$"):
        fn(f.members, *args)


# -- kernel reduction decomposition -----------------------------------------


def test_th4prime_star_short_circuit():
    h = built(C.EM, 12, 4, s=1)
    hp, removed, v = decompose_th4prime(h)
    assert removed == 0
    assert set(hp.edges) == set(h.edges)
    assert v.kind is VerdictKind.STAR


def test_th4prime_triple_pattern_reduces_exactly():
    h = built(C.HM0, 52, 4)
    hp, removed, v = decompose_th4prime(h)
    assert removed == 0
    assert set(hp.edges) == set(h.edges)
    assert (v.kind, v.i) == (VerdictKind.H3, 0)
    assert embedding_is_valid(hp, v.embedding)


def test_th4prime_classic_family_peels_its_tail_edge():
    # at n >= 54 the apex pairs enter the kernel but the all-tails edge
    # contains none of them; what survives is exactly the apex star
    h = built(C.HM_T, 54, 4, t=1)
    hp, removed, v = decompose_th4prime(h)
    assert removed == 1
    assert len(hp) == len(h) - 1
    assert v.kind is VerdictKind.STAR
    assert embedding_is_valid(hp, v.embedding)
    assert set(hp.edges) < set(h.edges)


def test_th4prime_partial_kernel_is_still_sound():
    # below the triple threshold the six extra cores never qualify, so the
    # lifted pair family keeps only its pair edges and reports a star
    h = built(C.H3LIFT, 52, 4, i=3)
    hp, removed, v = decompose_th4prime(h)
    assert removed == 284
    assert len(hp) == len(h) - removed
    assert v.kind is VerdictKind.STAR
    assert set(hp.edges) < set(h.edges)
    assert embedding_is_valid(hp, v.embedding)


def test_th4prime_lifted_family_at_scale():
    h = built(C.H3LIFT, 130, 4, i=3)
    hp, removed, v = decompose_th4prime(h)
    assert removed == 0
    assert (v.kind, v.i) == (VerdictKind.H3, 3)
    assert embedding_is_valid(hp, v.embedding)


def test_th4prime_on_a_family_whose_sampled_edges_share_a_vertex():
    # the AND of a family's edges reads every 64th edge first; here those
    # edges share vertex 1 and one edge that the sample skips misses it,
    # so the family has no common vertex and goes through the kernel
    h = built(C.H3LIFT, 52, 4, i=1)
    stray = [j for j, e in enumerate(h.edges) if not e & 1]
    assert len(stray) == 48 and all(j % 64 for j in stray)
    hp, removed, v = decompose_th4prime(h)
    assert (removed, v.describe(), v.embedding.roles) == (48, "STAR", (("x1", 1),))
    assert hp.edges == tuple(e for e in h.edges if e & 1)
    # one stray at index 4 meeting every edge through 1 (a Hilton-Milner
    # family), then one that misses an edge through 1
    base = mask_of((2, 3, 4, 5))
    star = [mask_of(c) for c in combinations(range(1, 13), 4) if c[0] == 1]
    hm = Hypergraph.from_masks(12, 4, [e for e in star if e & base] + [base])
    assert hm.edges.index(base) == 4
    hp, removed, v = decompose_th4prime(hm)
    assert (hp.edges, removed, v.describe(), v.embedding.roles) == ((), 131, "STAR", (("x1", 1),))
    split = Hypergraph.from_masks(12, 4, [*star, base])
    assert split.edges.index(base) == 4
    with pytest.raises(ValueError, match="needs an intersecting family"):
        decompose_th4prime(split)


def test_th4prime_on_a_star_of_thousands_of_edges():
    star = built(C.EM, 30, 4, s=1)
    assert len(star) == 3654
    hp, removed, v = decompose_th4prime(star)
    assert hp is star
    assert (removed, v.describe(), v.embedding.roles) == (0, "STAR", (("x1", 1),))


def count_calls(monkeypatch, names):
    """A dict counting the calls to each hypergraph function in names,
    wherever a module of the package imported it."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(ifam.hypergraph, name)

        def counting(*args, name=name, fn=fn):
            calls[name] += 1
            return fn(*args)

        for mod in (ifam.hypergraph, ifam.classifier, ifam.kernel, ifam.sunflower):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting)
    return calls


def test_th4prime_checks_its_hypotheses_once(monkeypatch):
    # the one set of incidence rows (its one _incidence_rows call) carries
    # the proof that h is intersecting, and the kernel and the reduction
    # read it, so neither proves it again nor builds rows of its own;
    # tau <= 2 is read from the same rows, so the one cover search is
    # classify's bounded one on the shadow, and no exact tau is computed
    names = ("_rows_intersect", "_incidence_rows", "_cover_exists", "cover_number")
    h = built(C.H3LIFT, 130, 4, i=3)
    calls = count_calls(monkeypatch, names)
    hp, removed, v = decompose_th4prime(h)
    assert (removed, v.describe()) == (0, "H3(3)")
    assert hp is h
    assert calls == {"_rows_intersect": 1, "_incidence_rows": 1, "_cover_exists": 1,
                     "cover_number": 0}
    # a common vertex proves a star intersecting with tau = 1, and the star
    # path reads no rows; its one cover search is the star witness's
    # minimum cover
    star = built(C.EM, 40, 4, s=1)
    want = classify(star)
    calls.update(dict.fromkeys(names, 0))
    assert decompose_th4prime(star) == (star, 0, want)
    assert calls == {**dict.fromkeys(names, 0), "_cover_exists": 1}


def test_th4prime_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose_th4prime(built(C.HM0, 9, 3))
    split = Hypergraph.from_masks(
        9, 4, {mask_of((1, 2, 3, 4)), mask_of((5, 6, 7, 8))}
    )
    with pytest.raises(ValueError):
        decompose_th4prime(split)
    t7 = Hypergraph.from_masks(
        7, 4, {mask_of(c) for c in combinations(range(1, 8), 4)}
    )
    assert is_intersecting(t7) and cover_number(t7) >= 3
    with pytest.raises(ValueError):
        decompose_th4prime(t7)
    with pytest.raises(ValueError):
        decompose_th4prime(Hypergraph.from_vertex_sets(4, 4, [(1, 2, 3, 4)]))
