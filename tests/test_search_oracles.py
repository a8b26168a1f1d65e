"""The classifier's search kernels against their plain restatements.

The oracles below are the straightforward forms of three kernels in
``ifam.classifier``: the tailed and double-pair searches try every apex
label in [n], the schema search rescans every edge at every node through
a per-edge generator test, and the witness check loops over the edges
and, for each, over the generator masks.  The library anchors the apex
on the first k + 1 edges, resumes its scan at the parent's pending edge
and peels the edges generator by generator; it must yield the same
candidates in the same order, and its check must give the same answer
on every one of them.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest

from ifam.classifier import (
    _SEARCHES,
    _dp_roles,
    _dp_star,
    _hm_t_finish,
    _hm_t_star_residue,
    _lowest_free,
    _pair_anchor_cands,
    _two_cover_cands,
    _witness_check,
    embed,
)
from ifam.constructions import ConstructionId, ConstructionParams, _resolve, build_construction
from ifam.hypergraph import (
    Hypergraph,
    SetFamily,
    cover_number,
    mask_of,
    min_cover,
    vertices_of,
)
from ifam.kernel import _incidence_rows, _reduce_to_3graph, b_kernel, paper_r

from test_classifier import (
    DISJOINT_PAIR,
    SEED,
    TAILED_GRID,
    TIGHT,
    corpus,
    random_intersecting,
    relabeled,
    star_corpus,
    swapped,
    lifted_corpus,
    tailed_corpus,
    templates_3,
)

P = ConstructionParams
C = ConstructionId


def _bit(v):
    return 1 << (v - 1)


def _and_all(masks, full):
    out = full
    for m in masks:
        out &= m
    return out


# -- the oracles ------------------------------------------------------------


def oracle_embed_hm_t(h, res):
    t, r, n = res.k, h.r, h.n
    edges = h.edges
    full = (1 << n) - 1
    for xv in range(1, n + 1):
        xb = _bit(xv)
        e0 = [e for e in edges if not e & xb]
        if len(e0) > t:
            continue
        if len(e0) >= 2:
            inter = _and_all(e0, full)
            if inter.bit_count() != r - 1:
                continue
            xcands = [inter]
        elif len(e0) == 1:
            xcands = [e0[0] & ~_bit(v) for v in vertices_of(e0[0])]
        else:
            links = [e & ~xb for e in edges]
            mc = mask_of(min_cover(SetFamily.from_masks(n, links)))
            if mc.bit_count() > r - 1:
                if t <= r - 1:
                    yield from _hm_t_star_residue(h, t, r, xv, links)
                continue
            xcands = [mc | mask_of(_lowest_free(n, xb | mc, r - 1 - mc.bit_count()))]
        for xmask in xcands:
            yield from _hm_t_finish(h, t, r, xv, xmask, e0)


def oracle_embed_hm_dp(h, res):
    r, n = h.r, h.n
    edges = h.edges
    for xv in range(1, n + 1):
        xb = _bit(xv)
        e0 = [e for e in edges if not e & xb]
        if len(e0) > 2:
            continue
        if len(e0) == 2:
            xmask = e0[0] & e0[1]
            if xmask.bit_count() == r - 2:
                yield _dp_roles(xv, xmask, e0[0] & ~xmask, e0[1] & ~xmask)
        elif len(e0) == 1:
            for pairverts in combinations(vertices_of(e0[0]), 2):
                p1 = mask_of(pairverts)
                xmask = e0[0] & ~p1
                bad2 = [g for g in edges if g & xb and not g & xmask]
                if any(not g & p1 for g in bad2):
                    continue
                for p2 in _two_cover_cands(bad2, xb | xmask | p1, n):
                    yield _dp_roles(xv, xmask, p1, p2)
        else:
            yield from _dp_star(h, xv)


def oracle_schema_dfs(h, res, assigned=()):
    return _oracle_schema_rec(h.edges, h.n, len(res.names), res.gens, set(), dict(assigned))


def _oracle_satisfied(schemas, e, asg):
    for schema in schemas:
        m = 0
        for role in schema:
            v = asg.get(role)
            if v is None:
                m = -1
                break
            m |= _bit(v)
        if m >= 0 and not m & ~e:
            return True
    return False


def _oracle_schema_rec(edges, n, width, schemas, memo, asg):
    key = tuple(sorted(asg.items()))
    if key in memo:
        return
    memo.add(key)
    pend = next((e for e in edges if not _oracle_satisfied(schemas, e, asg)), None)
    used = set(asg.values())
    if pend is None:
        fill = (v for v in range(1, n + 1) if v not in used)
        yield tuple([asg[j] if j in asg else next(fill) for j in range(width)])
        return
    everts = [v for v in vertices_of(pend) if v not in used]
    for schema in schemas:
        unassigned = []
        conflict = False
        for role in schema:
            v = asg.get(role)
            if v is None:
                unassigned.append(role)
            elif not pend & _bit(v):
                conflict = True
                break
        if conflict or not unassigned or len(everts) < len(unassigned):
            continue
        for combo in permutations(everts, len(unassigned)):
            nxt = dict(asg)
            nxt.update(zip(unassigned, combo))
            yield from _oracle_schema_rec(edges, n, width, schemas, memo, nxt)


def oracle_embed_pair(h, res):
    for pv, qv in _pair_anchor_cands(h):
        yield from oracle_schema_dfs(h, res, ((0, pv), (1, qv)))


def oracle_witness_check(h, res):
    edges, n = h.edges, h.n
    names, gens = res.names, res.gens
    size = len(names)

    def fits(vertices):
        if len(vertices) != size or len(set(vertices)) != size:
            return None
        if min(vertices) < 1 or max(vertices) > n:
            return None
        bits = [1 << (v - 1) for v in vertices]
        masks = []
        for gen in gens:
            m = 0
            for j in gen:
                m |= bits[j]
            masks.append(m)
        for e in edges:
            for m in masks:
                if not m & ~e:
                    break
            else:
                return None
        return dict(zip(names, vertices))

    return fits


# the library's searches with the three rewritten kernels swapped back
ORACLE_SEARCHES = {
    **_SEARCHES,
    ("HM_T", False): oracle_embed_hm_t,
    ("HM_T", True): oracle_embed_pair,
    ("HM_DP", False): oracle_embed_hm_dp,
    ("FP", False): oracle_schema_dfs,
    ("H3", False): oracle_embed_pair,
    ("H3", True): oracle_embed_pair,
}


def oracle_embed(h, cid, p):
    """``embed``'s role map (or None) with the oracle searches and check."""
    res = _resolve(cid, p)
    if not h.edges:
        return dict(zip(res.names, range(1, len(res.names) + 1)))
    fits = oracle_witness_check(h, res)
    return next(filter(None, map(fits, ORACLE_SEARCHES[res.template.name, res.lifted](h, res))),
                None)


def assert_same_kernels(h, cid, p):
    """The full candidate stream and the check on every candidate agree
    with the oracles; returns the number of candidates."""
    res = _resolve(cid, p)
    key = res.template.name, res.lifted
    got = list(_SEARCHES[key](h, res)) if h.edges else []
    want = list(ORACLE_SEARCHES[key](h, res)) if h.edges else []
    assert got == want, (cid, p, sorted(h.edges))
    fits, oracle_fits = _witness_check(h, res), oracle_witness_check(h, res)
    for cand in got:
        assert fits(cand) == oracle_fits(cand), (cid, p, cand)
    emb = embed(h, cid, p)
    assert (emb.mapping if emb else None) == oracle_embed(h, cid, p), (cid, p)
    return len(got)


# -- the inputs -------------------------------------------------------------


def tau2_families(rng, n, r, cid, kw):
    """Relabeled subfamilies of one template instance, each also with an
    edge swapped for an outside r-set; cover number two is kept."""
    h = relabeled(build_construction(cid, P(n, r, **kw)), rng)
    edges = sorted(h.edges)
    pool = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    fams = [h]
    for size in (len(edges) - 1, len(edges) // 2, len(edges) // 4, 3):
        sub = Hypergraph.from_masks(n, r, rng.sample(edges, max(1, size)))
        fams += [sub, swapped(sub, rng, pool)]
    return [g for g in fams if cover_number(g) == 2]


def r4_templates(n):
    return [(C.HM_T, P(n, 4, t=t)) for t in dict.fromkeys([1, 2, 3, n - 4])] + [
        (C.HM_DP, P(n, 4))
    ]


def lift_shadow(n, i):
    """The 3-uniform shadow that ``decompose_th4prime`` classifies on
    H3LIFT(n, 4, i)."""
    h = build_construction(C.H3LIFT, P(n, 4, i=i))
    rows = _incidence_rows(h.edges)
    return _reduce_to_3graph(h, b_kernel(h, paper_r()), rows)[1]


# -- the differential tests -------------------------------------------------


def test_kernels_match_on_the_brute_force_corpus():
    rng = random.Random(SEED)
    for n in (6, 7):
        for h in corpus(rng, n):
            for cid, p in templates_3(n, 6):
                assert_same_kernels(h, cid, p)


def test_kernels_match_on_the_brute_force_lifts():
    for h in lifted_corpus(random.Random(SEED)):
        for i in range(6):
            assert_same_kernels(h, C.H3LIFT, P(h.n, 4, i=i))


def test_kernels_match_on_the_brute_force_tailed_and_double_pair_families():
    for h, cid, p in tailed_corpus(random.Random(SEED)):
        assert_same_kernels(h, cid, p)


@pytest.mark.parametrize("cid, p", TAILED_GRID)
def test_kernels_match_on_the_brute_force_star_families(cid, p):
    for h in star_corpus(cid, p) + [DISJOINT_PAIR]:
        assert_same_kernels(h, cid, p)


@pytest.mark.parametrize("cid, p", TIGHT)
def test_the_check_matches_on_the_least_ground_set(cid, p):
    pool = [mask_of(c) for c in combinations(range(1, p.n + 1), p.r)]
    for k in range(1, len(pool) + 1):
        assert_same_kernels(Hypergraph.from_masks(p.n, p.r, pool[:k]), cid, p)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_kernels_match_on_seeded_tau2_four_graphs(n):
    # r = 4, cover number two, drawn from every tailed pattern (t = n - r
    # included), the double-pair and triple patterns and the lifts
    rng = random.Random(SEED + n)
    specs = [(C.HM_T, dict(t=t)) for t in dict.fromkeys([1, 2, 3, n - 4])]
    specs += [(C.HM_DP, {}), (C.HM0, {})]
    specs += [(C.H3LIFT, dict(i=i)) for i in range(6)]
    fams = [g for cid, kw in specs for g in tau2_families(rng, n, 4, cid, kw)]
    fams += [random_intersecting(rng, n, 4, rng.randint(3, 12)) for _ in range(6)]
    hits, misses = set(), set()
    for h in fams:
        for cid, p in r4_templates(n):
            assert_same_kernels(h, cid, p)
            (misses if embed(h, cid, p) is None else hits).add(p)
    # every search both finds a witness and refuses one on these inputs
    assert hits == misses == {p for _, p in r4_templates(n)}


@pytest.mark.parametrize("n, r", [(6, 3), (7, 3), (8, 4)])
def test_kernels_match_on_fano_pattern_families(n, r):
    rng = random.Random(SEED)
    fp = build_construction(C.FP, P(n, r))
    pool = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    edges = sorted(fp.edges)
    fams = [fp, relabeled(fp, rng)]
    for size in (len(edges) - 1, len(edges) // 2, 4):
        sub = relabeled(Hypergraph.from_masks(n, r, rng.sample(edges, size)), rng)
        fams += [sub, swapped(sub, rng, pool)]
    for h in fams:
        assert_same_kernels(h, C.FP, P(n, r))


@pytest.mark.parametrize("i", range(6))
def test_kernels_match_on_the_lift_shadows_at_130_points(i):
    # the shadows that decompose_th4prime classifies on H3LIFT(130, 4, i),
    # against every rung of the 3-uniform ladder
    h3 = lift_shadow(130, i)
    for j in range(6):
        assert_same_kernels(h3, C.H3FAM, P(130, 3, i=j))
    assert embed(h3, C.H3FAM, P(130, 3, i=i)) is not None


def apexes(h, k):
    """The labels that at most k edges avoid: the only apex candidates
    of a tailed pattern with k tails or of the double-pair pattern (k = 2)."""
    return [v for v in range(1, h.n + 1) if sum(not e & _bit(v) for e in h.edges) <= k]


@pytest.mark.parametrize("t", [1, 2, 3])
def test_an_apex_found_only_in_edge_t_plus_one(t):
    # the first t edges avoid the one apex candidate, so a search anchored
    # on them alone would find no witness; the anchor on t + 1 edges keeps
    # it.  Base {1, 2, 3}, tails 4.., apex 9: the base+tail edges sort first
    n, r = 12, 4
    tails = tuple(range(4, 4 + t))
    edges = [mask_of((1, 2, 3, y)) for y in tails]
    edges += [mask_of((9, b, *c)) for b in (1, 2, 3) for c in combinations((10, 11, 12), 2)]
    edges.append(mask_of((9, *tails, *range(10, 10 + r - 1 - t))))
    h = Hypergraph.from_masks(n, r, edges)
    assert apexes(h, t) == [9]
    assert all(not e & _bit(9) for e in h.edges[:t]) and h.edges[t] & _bit(9)
    p = P(n, r, t=t)
    assert assert_same_kernels(h, C.HM_T, p) > 0
    assert embed(h, C.HM_T, p).mapping["x"] == 9


def test_a_double_pair_apex_found_only_in_the_third_edge():
    # apex 9 misses the two base+pair edges, which sort first, and every
    # other label misses more than two edges
    n, r = 12, 4
    edges = [(1, 2, 3, 4), (1, 2, 5, 6), (9, 1, 10, 11), (9, 1, 10, 12), (9, 2, 10, 11),
             (9, 2, 11, 12), (9, 3, 5, 10), (9, 4, 6, 11)]
    h = Hypergraph.from_vertex_sets(n, r, edges)
    assert apexes(h, 2) == [9]
    assert all(not e & _bit(9) for e in h.edges[:2]) and h.edges[2] & _bit(9)
    assert assert_same_kernels(h, C.HM_DP, P(n, r)) > 0
    assert embed(h, C.HM_DP, P(n, r)).mapping["x"] == 9
