"""The matching decomposition against the version that ranked its
candidates by the rs kernel and proved nu <= s before it peeled.

``oracle_decompose_matching`` is that version.  The two rank the
vertices alike wherever the rs kernel's singleton layer B_1 is empty,
which needs n < 1 + (r - 1)(rs)^2, so they must give the same (Z,
verdict) on every input here but the pinned n = 74 family, and the same
refusal on every family with a matching of s + 1 edges.  The oracle
refuses a 2-graph as soon as some H - Z is a triangle; on 2-graphs the
answer is checked against ``brute_two_graph``, which reads it off the
definitions.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import combinations

import pytest

import ifam.classifier
from ifam.classifier import (
    Verdict,
    VerdictKind,
    _ladder,
    classify,
    decompose_matching,
    embedding_is_valid,
)
from ifam.constructions import (
    ConstructionError,
    ConstructionId,
    ConstructionParams,
    build_construction,
)
from ifam.hypergraph import (
    Hypergraph,
    SetFamily,
    delete_vertices,
    mask_of,
    matching_number,
    pack_exists,
    vertices_of,
)
from ifam.kernel import b_kernel, paper_rs


def oracle_decompose_matching(h, s):
    """The matching decomposition as it read before: refuse nu > s with
    the exact search, then rank the vertices by the rs kernel's layer
    B_1, then by degree, then by label."""
    if pack_exists(h.edges, s + 1) is not None:
        raise ValueError("family has a larger matching than the stated bound")
    if s == 1:
        return ((), classify(h))
    decomp = b_kernel(h, paper_rs(s))
    b1 = {vertices_of(m)[0] for m in decomp.by_size.get(1, SetFamily.from_masks(h.n, ())).members}
    order = sorted(range(1, h.n + 1), key=lambda v: (v not in b1, -h.degree(v), v))
    for zs in combinations(order, s - 1):
        v = classify(delete_vertices(h, zs))
        if v.kind not in (VerdictKind.NONE, VerdictKind.TAU_GE_3):
            return (tuple(sorted(zs)), v)
    return (None, Verdict(VerdictKind.NONE))


# nu = 2, and no vertex leaves a family that fits a rung
TWO_K5 = Hypergraph.from_vertex_sets(
    10, 3, [*combinations(range(1, 6), 3), *combinations(range(6, 11), 3)])


def counting(calls):
    """pack_exists, recording the k of every call in calls."""
    def search(masks, k):
        calls.append(k)
        return pack_exists(masks, k)
    return search


def outcome(fn, h, s):
    try:
        return fn(h, s)
    except ValueError as exc:
        return str(exc)


def planted(base, apexes, rng):
    """base with the full stars of `apexes` new vertices n0 + 1, ... added,
    relabelled by a random permutation; returns the family and the apex
    labels."""
    n0, r = base.n, base.r
    n = n0 + apexes
    edges = set(base.edges)
    for a in range(n0 + 1, n + 1):
        edges |= {mask_of((a, *c)) for c in combinations(
            [v for v in range(1, n + 1) if v != a], r - 1)}
    label = list(range(1, n + 1))
    rng.shuffle(label)
    h = Hypergraph.from_masks(
        n, r, [mask_of(label[v - 1] for v in vertices_of(e)) for e in edges])
    return h, tuple(sorted(label[a - 1] for a in range(n0 + 1, n + 1)))


def tau_two_rungs(n0, r):
    """(parameters, family) of each rung past the star on [n0]."""
    for _, cid, params in _ladder(n0, r, 2):
        try:
            yield params, build_construction(cid, params)
        except ConstructionError:
            continue


@pytest.mark.parametrize("r", [3, 4])
@pytest.mark.parametrize("s", [2, 3])
def test_planted_apex_stars_agree_with_the_oracle(monkeypatch, r, s):
    # s - 1 apex stars over each tau = 2 rung, randomly relabelled: the
    # same (Z, verdict), Z is the apex set, and no exact search runs.
    # s apex stars make nu = s + 1 wherever r(s + 1) vertices fit, and
    # both refuse: first-fit finds s + 1 edges, or every Z misses and the
    # exact search finds them
    searches = []
    monkeypatch.setattr(ifam.classifier, "pack_exists", counting(searches))
    rng = random.Random(1000 * r + s)
    hits = refused = late = 0
    for n0 in range(6, 13):
        for params, base in tau_two_rungs(n0, r):
            h, apexes = planted(base, s - 1, rng)
            got = decompose_matching(h, s)
            assert got == oracle_decompose_matching(h, s), (params, s)
            assert got[0] == apexes and got[1].kind is not VerdictKind.NONE
            assert searches == []
            hits += 1
            h, _ = planted(base, s, rng)
            if h.n >= r * (s + 1):
                assert matching_number(h) == s + 1
                assert outcome(decompose_matching, h, s) == outcome(
                    oracle_decompose_matching, h, s
                ) == "family has a larger matching than the stated bound"
                refused += 1
                late += searches == [s + 1]
                searches.clear()
    # four disjoint 4-sets need n0 + 3 >= 16 vertices, past n0 = 12
    assert hits >= 30 and (0 < late < refused or (r, s) == (4, 3)), (hits, refused, late)


def test_random_small_families_agree_with_the_oracle():
    # the bounds nu - 1, nu and nu + 1: a refusal, then hits or misses.
    # The oracle refuses an r = 2 family as soon as some H - Z is a
    # triangle, which classify refuses; there the answer is the
    # brute-force one, a later Z or a miss
    rng = random.Random(34)
    seen = set()
    for _ in range(300):
        n, r = rng.randint(5, 9), rng.choice((2, 3, 4))
        pool = list(combinations(range(1, n + 1), r))
        h = Hypergraph.from_vertex_sets(n, r, rng.sample(pool, rng.randint(1, min(12, len(pool)))))
        nu = matching_number(h)
        for s in range(max(1, nu - 1), nu + 2):
            want = outcome(oracle_decompose_matching, h, s)
            got = outcome(decompose_matching, h, s)
            if want == TRIANGLE_REFUSAL:
                assert brief(got) == brute_two_graph(h, s), (h, s)
                seen.add(("past a triangle", got[0] is not None))
            else:
                assert got == want, (h, s)
                seen.add(want if isinstance(want, str) else want[0] is not None)
    assert seen == {
        "family has a larger matching than the stated bound",
        ("past a triangle", False),
        True,
        False,
    }


TRIANGLE_REFUSAL = "no templates for intersecting families with r=2 < 3"


def brief(answer):
    """(Z, verdict kind) of an answer, or the refusal's message."""
    return answer if isinstance(answer, str) else (answer[0], answer[1].kind)


def brute_two_graph(h, s):
    """(Z, verdict kind) or the refusal, for a 2-graph, from the
    definitions: refuse nu > s; else try the (s - 1)-sets of the vertices
    by degree, highest first, then by label, in lexicographic order, and
    take the first whose removal leaves edges with a common vertex (or
    none) on at least three vertices, where the star template EM(n', 2,
    s=1) lives; at s = 1 the one Z = () gets NONE when it misses."""
    edges = [set(e) for e in h.vertex_sets()]
    nu = max(k for k in range(4) if any(
        all(not a & b for a, b in combinations(c, 2)) for c in combinations(edges, k)))
    if nu > s:
        return "family has a larger matching than the stated bound"
    degree = {v: sum(v in e for e in edges) for v in range(1, h.n + 1)}
    order = sorted(degree, key=lambda v: (-degree[v], v))
    for zs in combinations(order, s - 1):
        rest = [e for e in edges if not e & set(zs)]
        if h.n - len(zs) >= 3 and (not rest or set.intersection(*rest)):
            return (tuple(sorted(zs)), VerdictKind.STAR)
    return ((), VerdictKind.NONE) if s == 1 else (None, VerdictKind.NONE)


def two_graphs(n):
    """Every 2-graph on [n], one per subset of the pairs."""
    pairs = list(combinations(range(1, n + 1), 2))
    for chosen in range(1 << len(pairs)):
        yield Hypergraph.from_vertex_sets(
            n, 2, [p for i, p in enumerate(pairs) if chosen >> i & 1])


def check_two_graph(h, s):
    got = outcome(decompose_matching, h, s)
    assert brief(got) == brute_two_graph(h, s), (h, s)
    if not isinstance(got, str) and got[1].kind is VerdictKind.STAR:
        assert embedding_is_valid(delete_vertices(h, got[0]), got[1].embedding)
    return brief(got)


def test_a_two_graph_that_peels_to_a_triangle_tries_the_next_z():
    # 14, 24, 15, 25, 56, 17, 27, 47 with s = 3: the degree order is
    # 1, 2, 4, 5, 7, 6, 3, and Z = (1, 5) leaves the triangle 24, 27, 47,
    # which classify refuses; the next hit is Z = (4, 5), which leaves
    # 17 and 27, a star through 7
    h = Hypergraph.from_vertex_sets(
        7, 2, [(1, 4), (2, 4), (1, 5), (2, 5), (5, 6), (1, 7), (2, 7), (4, 7)])
    with pytest.raises(ValueError, match="r=2 < 3"):
        oracle_decompose_matching(h, 3)
    z, v = decompose_matching(h, 3)
    assert (z, v.kind) == ((4, 5), VerdictKind.STAR)
    assert embedding_is_valid(delete_vertices(h, z), v.embedding)
    assert check_two_graph(h, 3) == ((4, 5), VerdictKind.STAR)
    # a triangle alone: nu = 1, intersecting with no star; Z = () misses
    # at s = 1, and any one vertex leaves a star at s = 2
    triangle = Hypergraph.from_vertex_sets(4, 2, [(1, 2), (1, 3), (2, 3)])
    assert check_two_graph(triangle, 1) == ((), VerdictKind.NONE)
    assert check_two_graph(triangle, 2) == ((1,), VerdictKind.STAR)


@pytest.mark.parametrize("n", range(1, 6))
def test_every_two_graph_on_at_most_five_vertices_agrees_with_brute_force(n):
    seen = set()
    for h in two_graphs(n):
        for s in range(1, min(n + 1, 4) + 1):
            got = check_two_graph(h, s)
            seen.add(got if isinstance(got, str) else (got[0] is not None, got[1]))
    if n >= 4:
        assert seen == {
            "family has a larger matching than the stated bound",
            (True, VerdictKind.STAR),
            (True, VerdictKind.NONE),
            (False, VerdictKind.NONE),
        }, seen


def test_random_two_graphs_on_six_and_seven_vertices_agree_with_brute_force():
    # six to nine edges; where the oracle refuses at a triangle, a later
    # Z is found or every Z misses
    rng = random.Random(35)
    kinds = Counter()
    for _ in range(600):
        n = rng.choice((6, 7))
        pairs = list(combinations(range(1, n + 1), 2))
        h = Hypergraph.from_vertex_sets(n, 2, rng.sample(pairs, rng.randint(6, 9)))
        for s in (1, 2, 3):
            got = check_two_graph(h, s)
            kinds[got if isinstance(got, str) else got[0] is not None] += 1
            if outcome(oracle_decompose_matching, h, s) == TRIANGLE_REFUSAL:
                kinds["past a triangle", got[0] is not None] += 1
    assert kinds[True] >= 50 and kinds[False] >= 50, kinds
    assert kinds["family has a larger matching than the stated bound"] >= 50, kinds
    assert kinds["past a triangle", True] and kinds["past a triangle", False], kinds


def test_the_unrescuable_family_and_the_intersecting_case_agree():
    star = build_construction(ConstructionId.EM, ConstructionParams(9, 3, s=1))
    k5 = Hypergraph.from_vertex_sets(5, 3, combinations(range(1, 6), 3))
    cases = [(TWO_K5, 2), (TWO_K5, 3), (TWO_K5, 1), (star, 1), (k5, 1)]
    for h, s in cases:
        assert outcome(decompose_matching, h, s) == outcome(oracle_decompose_matching, h, s)
    assert decompose_matching(TWO_K5, 2) == (None, Verdict(VerdictKind.NONE))
    assert outcome(decompose_matching, TWO_K5, 1).startswith("family has a larger matching")
    assert decompose_matching(k5, 1)[1].kind is VerdictKind.TAU_GE_3


def test_a_heavy_singleton_core_moves_z_to_the_highest_degree():
    # n = 74, r = 3, s = 2: vertex 1 has 36 = (rs)^2 disjoint petals, so
    # the rs kernel puts it in B_1 and the old ranking tried it first;
    # vertex 2 carries all 190 pairs inside {3..22} and has the higher
    # degree.  Either peel leaves a star, and both witnesses hold.
    petals = [(1, v, v + 1) for v in range(3, 75, 2)]
    pairs = [(2, *p) for p in combinations(range(3, 23), 2)]
    h = Hypergraph.from_vertex_sets(74, 3, petals + pairs)
    assert matching_number(h) == 2 and (h.degree(1), h.degree(2)) == (36, 190)
    b1 = b_kernel(h, paper_rs(2)).by_size[1].members
    assert [vertices_of(m) for m in b1] == [(1,)]
    for fn, z in ((oracle_decompose_matching, (1,)), (decompose_matching, (2,))):
        got_z, v = fn(h, 2)
        assert got_z == z and v.kind is VerdictKind.STAR
        assert embedding_is_valid(delete_vertices(h, z), v.embedding)


def test_the_exact_search_runs_only_on_a_miss(monkeypatch):
    calls = []
    monkeypatch.setattr(ifam.classifier, "pack_exists", counting(calls))
    base = build_construction(ConstructionId.HM_DP, ConstructionParams(9, 4))
    h, apexes = planted(base, 1, random.Random(5))
    assert decompose_matching(h, 2)[0] == apexes
    assert calls == []
    assert decompose_matching(TWO_K5, 2) == (None, Verdict(VerdictKind.NONE))
    assert calls == [3]


@pytest.mark.parametrize("cid, params, s", [
    (ConstructionId.HM_T, ConstructionParams(14, 4, t=1), 2),
    (ConstructionId.HM_T, ConstructionParams(16, 4, t=1), 3),
    (ConstructionId.HM_DP, ConstructionParams(16, 4), 3),
    (ConstructionId.HM_T, ConstructionParams(18, 4, t=2), 4),
], ids=["HM_T14", "HM_T16", "HM_DP16", "HM_T18"])
def test_planted_families_at_scale(cid, params, s):
    # 567 to 3,255 edges; the exact nu <= s search takes seconds on the
    # larger three, and a hit never runs it
    base = build_construction(cid, params)
    h, apexes = planted(base, s - 1, random.Random(7))
    start = time.perf_counter()
    z, v = decompose_matching(h, s)
    elapsed = time.perf_counter() - start
    assert z == apexes
    assert (v.kind, v.t) == (classify(base).kind, params.t)
    assert v.embedding.template is cid and embedding_is_valid(delete_vertices(h, z), v.embedding)
    assert elapsed < 0.5, elapsed
