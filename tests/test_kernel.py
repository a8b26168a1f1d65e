"""Kernel decomposition structure, bounds, invariants, and the 3-graph reduction."""

from __future__ import annotations

import importlib.util
import random
import re
from collections import Counter
from functools import reduce
from itertools import combinations
from math import comb
from operator import and_
from pathlib import Path

import pytest

import ifam.hypergraph
import ifam.kernel
import ifam.sunflower
from ifam.constructions import ConstructionId, ConstructionParams, build_construction
from ifam.hypergraph import (
    Hypergraph,
    SetFamily,
    _incidence_rows,
    cover_number,
    is_intersecting,
    mask_of,
    vertices_of,
)
from ifam.kernel import (
    KernelDecomposition,
    _reduce_to_3graph,
    ThresholdScheme,
    b_kernel,
    kernel_bound,
    kernel_invariant_violations,
    paper_r,
    paper_rs,
)
from ifam.sunflower import find_sunflower
from ifam.verify import _random_greedy, _random_star_noise, _random_structured
from test_core_search import oracle_b_star


def full_star(n, r, x=1):
    others = [v for v in range(1, n + 1) if v != x]
    return Hypergraph.from_vertex_sets(
        n, r, [(x, *c) for c in combinations(others, r - 1)]
    )


def hm_classic(n, r):
    return build_construction(ConstructionId.HM_T, ConstructionParams(n=n, r=r, t=1))


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


def test_scheme_tables():
    assert paper_r().table(4) == {1: 5, 2: 25, 3: 125}
    assert paper_r().table(3) == {1: 4, 2: 16}
    assert paper_rs(2).table(4) == {1: 64, 2: 512, 3: 4096}
    assert paper_rs(1).table(3) == {1: 9, 2: 27}


def test_scheme_claim_thresholds():
    s = paper_r()
    assert s.claim_threshold(4, 2) == 5
    assert s.claim_threshold(4, 3) == 25
    assert not s.claim_applies(4, 1)  # threshold 1 is vacuous
    t = paper_rs(2)
    assert t.claim_threshold(4, 1) == 8
    assert t.claim_applies(4, 1)


def test_scheme_validation():
    with pytest.raises(ValueError):
        ThresholdScheme("bogus")
    with pytest.raises(ValueError, match=r"^scheme kind 'rs' needs an integer s >= 1, got None$"):
        ThresholdScheme("rs")
    with pytest.raises(ValueError, match=r"^scheme kind 'rs' needs an integer s >= 1, got 1\.5$"):
        paper_rs(1.5)
    with pytest.raises(ValueError, match=r"^scheme kind 'rs' needs an integer s >= 1, got True$"):
        paper_rs(True)
    with pytest.raises(ValueError, match=r"^scheme kind 'rs' needs an integer s >= 1, got 0$"):
        paper_rs(0)
    with pytest.raises(ValueError):
        ThresholdScheme("r", s=2)
    with pytest.raises(ValueError):
        paper_r().required(4, 0)
    with pytest.raises(ValueError):
        paper_r().required(4, 4)


def test_full_star_kernel_is_the_center():
    h = full_star(15, 3)
    d = b_kernel(h, paper_r())
    assert d.b_prime.vertex_sets() == [(1,)]
    assert len(d.b_dprime) == 0
    assert set(d.by_size) == {1}
    assert kernel_bound(h, d) == comb(14, 2) == len(h)
    assert kernel_invariant_violations(h, d) == []


def test_full_star_larger_cores_appear_with_room():
    # pairs through the center become cores once 16 disjoint singleton
    # petals fit, i.e. from n = 18 for triple systems
    bs17 = oracle_b_star(full_star(17, 3), paper_r())
    assert bs17.vertex_sets() == [(1,)]
    bs18 = oracle_b_star(full_star(18, 3), paper_r())
    assert (1,) in bs18.vertex_sets()
    assert all(1 in s for s in bs18.vertex_sets())
    assert {s for s in bs18.vertex_sets() if len(s) == 2} == {
        (1, a) for a in range(2, 19)
    }
    # the pairs all contain the center, so B' keeps the center alone
    assert b_kernel(full_star(18, 3), paper_r()).b_prime.vertex_sets() == [(1,)]


def test_single_edge_kernel():
    h = Hypergraph.from_vertex_sets(9, 3, [(1, 2, 3)])
    d = b_kernel(h, paper_r())
    assert len(oracle_b_star(h, paper_r())) == 0
    assert d.b_dprime.members == h.edges
    assert kernel_bound(h, d) == 1
    assert kernel_invariant_violations(h, d) == []


def test_empty_family_kernel():
    h = Hypergraph(8, 3, ())
    d = b_kernel(h, paper_r())
    assert len(d.b()) == 0
    assert kernel_bound(h, d) == 0
    assert d.by_size == {}


def test_hm_kernel_below_threshold_scale():
    # at n = 51 no core reaches its multiplicity, so the kernel is the
    # family itself via the no-member edges
    h = hm_classic(51, 4)
    d = b_kernel(h, paper_r())
    assert len(oracle_b_star(h, paper_r())) == 0
    assert len(d.b_dprime) == len(h)
    assert kernel_bound(h, d) == len(h)
    assert kernel_invariant_violations(h, d) == []


def test_hm_kernel_structure_at_scale():
    # at n = 52 the four pairs through the apex qualify and the lone
    # apex-free edge survives as the only no-member edge
    h = hm_classic(52, 4)
    d = b_kernel(h, paper_r())
    expected_pairs = {(1, w) for w in (2, 3, 4, 5)}
    assert set(d.b_prime.vertex_sets()) == expected_pairs
    assert set(oracle_b_star(h, paper_r()).vertex_sets()) == expected_pairs
    assert d.b_dprime.vertex_sets() == [(2, 3, 4, 5)]
    assert set(d.by_size) == {2, 4}
    assert kernel_bound(h, d) == 4 * comb(50, 2) + 1 == 4901
    assert len(h) == 4611 <= 4901
    assert kernel_invariant_violations(h, d) == []


def test_kernel_invariants_random_families():
    rng = random.Random(20260822)
    for _ in range(60):
        r = rng.choice([3, 4])
        n = rng.randint(r + 2, 14)
        h = random_intersecting(rng, n, r, rng.randint(1, 25))
        d = b_kernel(h, paper_r())
        assert kernel_invariant_violations(h, d) == []
        assert kernel_bound(h, d) >= len(h)


def fam(n, *sets):
    return SetFamily.from_vertex_sets(n, sets)


# One hand-built decomposition per invariant.  The layers are derived from
# B' and B'', so two faults cannot come alone: a bare edge is what breaks
# the counting bound, and a singleton in B with cover number 2 must miss
# the member that covers some edge (here B is not intersecting).
# FAN is the intersecting pair 123, 145, with cover number 1; TRIANGLE is
# 123, 145, 246, with cover number 2.
FAN = Hypergraph.from_vertex_sets(5, 3, [(1, 2, 3), (1, 4, 5)])
TRIANGLE = Hypergraph.from_vertex_sets(6, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6)])
STAR6 = Hypergraph.from_vertex_sets(6, 3, [(1, v, 6) for v in range(2, 6)])
FAN_PARTS = fam(5, (1, 2, 3), (1, 4, 5))
KERNEL_FAULTS = [
    # B = {23} leaves 145 bare; its layer keeps the counting bound at 3
    (FAN, KernelDecomposition(fam(5, (2, 3)), fam(5)),
     ["edge (1, 4, 5) contains no kernel member"]),
    (FAN, KernelDecomposition(fam(5, (1,), (1, 2)), fam(5)),
     ["kernel members (1,) and (1, 2) are nested"]),
    (FAN, KernelDecomposition(fam(5, (2,), (4,)), fam(5)),
     ["kernel of an intersecting family is not intersecting"]),
    (TRIANGLE, KernelDecomposition(fam(6, (1,)), fam(6, (2, 4, 6))),
     ["kernel of an intersecting family is not intersecting",
      "layer 1 nonempty for an intersecting family with cover number >= 2"]),
    # under the paper scheme layer 2 of a 3-graph may not hold a 4-sunflower
    (STAR6, KernelDecomposition(fam(6, *[(1, v) for v in range(2, 6)]), fam(6)),
     ["layer 2 contains a 4-sunflower"]),
    (FAN, KernelDecomposition(fam(5), fam(5, (1, 2, 3))),
     ["edge (1, 4, 5) contains no kernel member", "counting bound below the family size"]),
]


@pytest.mark.parametrize("h, d, messages", KERNEL_FAULTS, ids=[m[-1] for *_, m in KERNEL_FAULTS])
def test_kernel_checker_reports_each_fault(h, d, messages):
    assert kernel_invariant_violations(h, d) == messages


def test_a_kernel_member_above_r_vertices_bounds_no_edge():
    # no r-set contains a member of four vertices, so its layer counts 0
    # in the bound instead of asking comb for a negative k
    h = Hypergraph.from_vertex_sets(6, 3, [(1, 2, 3), (1, 4, 5)])
    d = KernelDecomposition(fam(6, (1, 2, 3, 4)), fam(6))
    assert kernel_bound(h, d) == 0
    assert kernel_invariant_violations(h, d) == [
        "edge (1, 2, 3) contains no kernel member",
        "counting bound below the family size",
    ]
    # beside a member that does bound edges, only that member counts
    assert kernel_bound(h, KernelDecomposition(fam(6, (1,), (2, 3, 4, 5)), fam(6))) == comb(5, 2)


def test_kernel_checker_reports_the_nested_pair_of_the_smallest_layers():
    # (4,) < (4, 5) across layers 1 and 2 is reported; (3,) < (1, 2, 3)
    # (layers 1 and 3) and (1, 2) < (1, 2, 3) (layers 2 and 3) hold too
    d = KernelDecomposition(fam(5, (3,), (4,), (1, 2), (4, 5)), fam(5, (1, 2, 3)))
    assert kernel_invariant_violations(FAN, d) == [
        "kernel members (4,) and (4, 5) are nested",
        "kernel of an intersecting family is not intersecting",
    ]


def test_kernel_layers_are_derived_from_both_parts():
    d = KernelDecomposition(fam(5, (4,), (1, 2)), fam(5, (1, 2, 3), (2, 3, 5)))
    assert d.by_size == {1: fam(5, (4,)), 2: fam(5, (1, 2)), 3: fam(5, (1, 2, 3), (2, 3, 5))}
    assert list(d.by_size) == [1, 2, 3]
    assert KernelDecomposition(fam(5), fam(5)).by_size == {}
    with pytest.raises(ValueError, match=r"^B' and B'' lie on ground sets \[5\] and \[6\]$"):
        KernelDecomposition(fam(5, (1,)), fam(6))


def test_kernel_rs_scheme_runs_same_pipeline():
    h = full_star(19, 3)
    d = b_kernel(h, paper_rs(1))
    # multiplicity 9 for singletons: satisfied at n = 19
    assert d.b_prime.vertex_sets() == [(1,)]
    assert kernel_invariant_violations(h, d) == []
    d2 = b_kernel(h, paper_rs(2))
    # multiplicity 36 is out of reach, kernel falls back to the edges
    assert len(oracle_b_star(h, paper_rs(2))) == 0
    assert len(d2.b_dprime) == len(h)


def test_b_kernel_skips_a_core_whose_prefix_is_no_core(monkeypatch):
    # {1, 2} is a core (16 petals {x}) and so is {2} (petals {1, 3},
    # {19, 20}, {21, 22}, {23, 24}); {1} is heavy but no core, since every
    # edge through 1 contains 2.  The edge {25, 26, 27} meets no other, so
    # the family is not intersecting and the codegree walk runs.  It
    # reaches {1, 2} through {1}, after it has accepted {2}, and must skip it.
    h = Hypergraph.from_vertex_sets(
        27, 3,
        [(1, 2, x) for x in range(3, 19)] + [(2, 19, 20), (2, 21, 22), (2, 23, 24), (25, 26, 27)],
    )
    assert not is_intersecting(h)
    assert oracle_b_star(h, paper_r()).vertex_sets() == [(2,), (1, 2)]
    tested = []
    real = ifam.sunflower._pack_rows
    monkeypatch.setattr(
        ifam.sunflower, "_pack_rows", lambda *args: tested.append(args[4]) or real(*args)
    )
    d = b_kernel(h, paper_r())
    assert d.b_prime.vertex_sets() == [(2,)]
    assert d.b_dprime.vertex_sets() == [(25, 26, 27)]
    assert tested == [mask_of((1,)), mask_of((2,))]


def test_b_kernel_refuses_a_set_family():
    with pytest.raises(TypeError, match=r"^h must be a Hypergraph, got SetFamily$"):
        b_kernel(SetFamily.from_vertex_sets(5, [(1, 3)]), paper_r())


def test_b_kernel_refuses_a_missing_scheme():
    with pytest.raises(TypeError, match=r"^scheme must be a ThresholdScheme, got NoneType$"):
        b_kernel(full_star(6, 3), None)


def test_b_dprime_uses_subset_not_equality():
    # an edge equal to nothing in B* but containing a core is excluded
    h = full_star(15, 3)
    d = b_kernel(h, paper_r())
    assert all(1 in e for e in h.vertex_sets())
    assert len(d.b_dprime) == 0


def reduce_on_rows(h, d):
    """The reduction of a family that is intersecting with cover number
    at most 2, on incidence rows built here."""
    return _reduce_to_3graph(h, d, _incidence_rows(h.edges))


def test_reduce_full_star_is_empty():
    h = full_star(15, 3)
    d = b_kernel(h, paper_r())
    hp, h3 = reduce_on_rows(h, d)
    assert len(hp) == 0 and len(h3) == 0


def test_reduce_triangle_base_at_scale():
    # the 4-uniform two-of-three family reduces exactly onto its
    # 3-uniform counterpart
    h4 = build_construction(ConstructionId.HM0, ConstructionParams(n=52, r=4))
    d = b_kernel(h4, paper_r())
    assert set(d.b_prime.vertex_sets()) == {(1, 2), (1, 3), (2, 3)}
    assert len(d.b_dprime) == 0
    hp, h3 = reduce_on_rows(h4, d)
    assert len(hp) == len(h4)
    base = build_construction(ConstructionId.HM0, ConstructionParams(n=52, r=3))
    assert h3.edges == base.edges
    assert is_intersecting(h3)
    assert cover_number(h3) == 2


def test_reduce_contract_on_random_pair_covered_families():
    rng = random.Random(31)
    count = 0
    for _ in range(60):
        r = rng.choice([3, 4])
        n = rng.randint(r + 4, 13)
        h = random_intersecting(rng, n, r, rng.randint(3, 20))
        if cover_number(h) > 2:
            continue
        count += 1
        d = b_kernel(h, paper_r())
        hp, h3 = reduce_on_rows(h, d)
        assert set(hp.edges) <= set(h.edges)
        assert h3.r == 3
        if h3.edges:
            assert is_intersecting(h3)
            assert cover_number(h3) <= 2
    assert count > 5


def b_dprime_oracle(h, d):
    """The edges of H containing no member of B', by a scan."""
    return tuple(e for e in h.edges if not any(t & e == t for t in d.b_prime.members))


KERNEL_PROPS_GENERATORS = (_random_star_noise, _random_structured, _random_greedy)
SCHEMES = (paper_r(), paper_rs(1), paper_rs(2), paper_rs(3))


def kernel_props_corpus(seed, count):
    """(H, scheme) from the KERNEL_PROPS generators, every scheme each."""
    rng = random.Random(seed)
    for index in range(count):
        h = KERNEL_PROPS_GENERATORS[index % 3](rng, rng.choice((3, 4)))
        for scheme in SCHEMES:
            yield h, scheme


def test_b_dprime_is_the_edges_containing_no_b_prime_member_on_kernel_props_families():
    empty = 0
    for h, scheme in kernel_props_corpus(41, 90):
        d = b_kernel(h, scheme)
        assert d.b_dprime.members == b_dprime_oracle(h, d), (h, scheme)
        empty += not d.b_prime.members
    assert 0 < empty < 360


@pytest.mark.parametrize("n", [20, 60])
def test_b_dprime_is_the_edges_containing_no_b_prime_member_on_lifts(n):
    for i in range(6):
        h = build_construction(ConstructionId.H3LIFT, ConstructionParams(n, 4, i=i))
        d = b_kernel(h, paper_r())
        assert d.b_dprime.members == b_dprime_oracle(h, d), (n, i)


def test_b_kernel_builds_its_incidence_rows_once(monkeypatch):
    # the core walk, the packing tests and B'' all read one set of rows
    calls = []
    real = ifam.kernel._incidence_rows
    monkeypatch.setattr(ifam.kernel, "_incidence_rows",
                        lambda masks: calls.append(1) or real(masks))
    for h, scheme in [(full_star(15, 3), paper_r()), (hm_classic(52, 4), paper_r()),
                      (hm_classic(20, 4), paper_r()), (Hypergraph(8, 3, ()), paper_r())]:
        calls.clear()
        d = b_kernel(h, scheme)
        assert d.b_dprime.members == b_dprime_oracle(h, d)
        assert len(calls) == 1


@pytest.mark.parametrize("check, family, decomposed, message", [
    # H3LIFT(21, 4, 3) has 269 edges; the decomposition of H3LIFT(20, 4, 3)
    # would bound it by 245
    (kernel_bound, 21, 20, "the decomposition lies on [20], the family on [21]"),
    (kernel_invariant_violations, 20, 21, "the decomposition lies on [21], the family on [20]"),
])
def test_a_decomposition_of_another_ground_set_is_refused(check, family, decomposed, message):
    def lift(n):
        return build_construction(ConstructionId.H3LIFT, ConstructionParams(n, 4, i=3))

    with pytest.raises(ValueError, match=re.escape(message)):
        check(lift(family), b_kernel(lift(decomposed), paper_r()))


def scan_reduce_oracle(h, d):
    """The reduction by scans: each edge is tested against every B_2 and
    B_3 member, and the triples through a B_2 member t are t plus one
    vertex of a kept edge through t."""
    b2 = d.by_size[2].members if 2 in d.by_size else ()
    b3 = d.by_size[3].members if 3 in d.by_size else ()
    kept = [e for e in h.edges if any(t & e == t for t in b2 + b3)]
    triples = set(b3)
    for t in b2:
        for e in kept:
            if e & t == t:
                triples.update(t | 1 << (v - 1) for v in vertices_of(e & ~t))
    return Hypergraph.from_masks(h.n, h.r, kept), Hypergraph.from_masks(h.n, 3, triples)


def test_reduction_matches_the_scan_on_kernel_props_families():
    outcomes = Counter()
    for h, scheme in kernel_props_corpus(20261020, 150):
        if not is_intersecting(h) or cover_number(h) > 2:
            continue
        d = b_kernel(h, scheme)
        hp, h3 = reduce_on_rows(h, d)
        assert (hp, h3) == scan_reduce_oracle(h, d), (h, scheme)
        outcomes["none kept" if not hp.edges else "all kept" if hp == h else "some kept"] += 1
        outcomes["triples"] += bool(h3.edges)
    # an empty and a whole retained family, and shadows; the lifts below
    # take the partial path
    assert min(outcomes.values()) > 100 and len(outcomes) == 3, outcomes


@pytest.mark.parametrize("n", [20, 52, 60])
def test_reduction_matches_the_scan_on_lifts(n):
    for i in range(6):
        h = build_construction(ConstructionId.H3LIFT, ConstructionParams(n, 4, i=i))
        d = b_kernel(h, paper_r())
        hp, h3 = reduce_on_rows(h, d)
        assert (hp, h3) == scan_reduce_oracle(h, d), (n, i)
        if (n, i) == (52, 3):  # the partial path
            assert len(h) - len(hp) == 284


def checker_oracle(h, d):
    """The invariant checker as it read before it learnt which pairs of
    B can fail: it tests every edge for coverage and all of B, built as
    one family, for the intersecting property."""
    out = []
    layers = d.by_size
    small = [t for i, layer in layers.items() if i < h.r for t in layer.members]
    top = set(layers[h.r].members) if h.r in layers else set()
    bare = next((e for e in h.edges if e not in top and not any(t & e == t for t in small)), None)
    if bare is not None:
        out.append(f"edge {vertices_of(bare)} contains no kernel member")
    nested = next(((a, c) for i, j in combinations(layers, 2) for a in layers[i].members
                   for c in layers[j].members if a & c == a), None)
    if nested is not None:
        out.append("kernel members {} and {} are nested".format(*map(vertices_of, nested)))
    intersecting = is_intersecting(h)
    if intersecting and not is_intersecting(d.b()):
        out.append("kernel of an intersecting family is not intersecting")
    if d.scheme.kind == "r" and intersecting and 1 in layers and cover_number(h) >= 2:
        out.append("layer 1 nonempty for an intersecting family with cover number >= 2")
    if intersecting:
        for i, layer in layers.items():
            thr = d.scheme.claim_threshold(h.r, i)
            if d.scheme.claim_applies(h.r, i) and len(layer) >= thr:
                if find_sunflower(layer, thr) is not None:
                    out.append(f"layer {i} contains a {thr}-sunflower")
    if kernel_bound(h, d) < len(h):
        out.append("counting bound below the family size")
    return out


def reproving_checker(h, d):
    """The invariant checker as it read before it learnt to read
    b_kernel's proof: it proves again that H is intersecting, whatever d
    carries, and tests only the pairs of B that can fail."""
    out = []
    layers = d.by_size
    edges = set(h.edges)
    small = [t for i, layer in layers.items() if i < h.r for t in layer.members]
    rest = sorted(edges.difference(layers[h.r].members)) if h.r in layers else h.edges
    bare = next((e for e in rest if not any(t & e == t for t in small)), None)
    if bare is not None:
        out.append(f"edge {vertices_of(bare)} contains no kernel member")
    nested = next(((a, c) for i, j in combinations(layers, 2) for a in layers[i].members
                   for c in layers[j].members if a & c == a), None)
    if nested is not None:
        out.append("kernel members {} and {} are nested".format(*map(vertices_of, nested)))
    intersecting = is_intersecting(h)
    if intersecting:
        strays = [*d.b_prime.members, *set(d.b_dprime.members).difference(edges)]
        members = [t for layer in layers.values() for t in layer.members]
        if not all(x & y or x == y for x in strays for y in members):
            out.append("kernel of an intersecting family is not intersecting")
    if d.scheme.kind == "r" and intersecting and 1 in layers and not reduce(and_, h.edges, -1):
        out.append("layer 1 nonempty for an intersecting family with cover number >= 2")
    if intersecting:
        for i, layer in layers.items():
            thr = d.scheme.claim_threshold(h.r, i)
            if d.scheme.claim_applies(h.r, i) and len(layer) >= thr:
                if find_sunflower(layer, thr) is not None:
                    out.append(f"layer {i} contains a {thr}-sunflower")
    if kernel_bound(h, d) < len(h):
        out.append("counting bound below the family size")
    return out


def mutations(rng, h, d):
    """Hand-built faulty variants of d: a B' member dropped, a set that
    misses a B' member added to B'', a non-edge added to B'', and the
    empty set put in B'."""
    n, bp, bpp = h.n, d.b_prime.members, d.b_dprime.members

    def variant(prime, dprime):
        return KernelDecomposition(SetFamily.from_masks(n, prime), SetFamily.from_masks(n, dprime),
                                   d.scheme)

    if bp:
        drop = rng.randrange(len(bp))
        yield variant(bp[:drop] + bp[drop + 1:], bpp)
        t = rng.choice(bp)
        rest = [v for v in range(1, n + 1) if not t >> (v - 1) & 1]
        miss = mask_of(rng.sample(rest, min(len(rest), rng.randint(1, h.r))))
        yield variant(bp, bpp + (miss,))
    for _ in range(20):
        e = mask_of(rng.sample(range(1, n + 1), h.r))
        if e not in h:
            yield variant(bp, bpp + (e,))
            break
    yield variant((0,) + bp, bpp)


def test_checker_matches_its_oracle_on_kernel_props_families_and_their_mutations():
    rng = random.Random(20261019)
    messages = Counter()
    decompositions = 0
    for h, scheme in kernel_props_corpus(20261019, 150):
        d = b_kernel(h, scheme)
        for v in (d, *mutations(rng, h, d)):
            got = kernel_invariant_violations(h, v)
            assert got == checker_oracle(h, v) == reproving_checker(h, v), (h, v)
            messages.update(got)
            decompositions += 1
    assert decompositions > 1500
    # the four kinds of fault that a mutation can bring all show up
    kinds = Counter(re.sub(r"\(.*?\)", "T", m) for m in messages.elements())
    assert kinds["edge T contains no kernel member"] > 20, kinds
    assert kinds["kernel members T and T are nested"] > 400, kinds
    assert kinds["kernel of an intersecting family is not intersecting"] > 400, kinds
    assert kinds["counting bound below the family size"] > 20, kinds


@pytest.mark.parametrize("h, d, messages", KERNEL_FAULTS, ids=[m[-1] for *_, m in KERNEL_FAULTS])
def test_checker_matches_its_oracle_on_the_hand_built_faults(h, d, messages):
    assert d._proof is None
    assert checker_oracle(h, d) == reproving_checker(h, d) == messages
    rng = random.Random(len(h) * 31 + len(messages))
    for v in mutations(rng, h, d):
        got = kernel_invariant_violations(h, v)
        assert got == checker_oracle(h, v) == reproving_checker(h, v), v


@pytest.mark.parametrize("h, d, messages", [
    # B = {{}} alone is intersecting, as is any one-member family
    (Hypergraph(5, 3, ()), KernelDecomposition(fam(5, ()), fam(5)), []),
    (Hypergraph(5, 3, ()), KernelDecomposition(fam(5, ()), fam(5, ())), []),
    (FAN, KernelDecomposition(fam(5, ()), FAN_PARTS),
     ["kernel members () and (1, 2, 3) are nested",
      "kernel of an intersecting family is not intersecting"]),
], ids=["empty set alone", "empty set in both parts", "empty set beside the edges"])
def test_checker_matches_its_oracle_on_the_empty_member(h, d, messages):
    assert kernel_invariant_violations(h, d) == checker_oracle(h, d) == messages


def families_stream(seed):
    """The (H, scheme) stream of the benchmark's families workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.Families().setup(seed, None)


def twin(h):
    """h on a tuple of its own: equal edges, another object."""
    other = Hypergraph(h.n, h.r, tuple(list(h.edges)))
    assert other == h and (other.edges is not h.edges or not h.edges)
    return other


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_the_checker_reading_the_proof_matches_the_reproving_checker_on_families(seed):
    kinds = Counter()
    for h, scheme in families_stream(seed):
        d = b_kernel(h, scheme)
        got = kernel_invariant_violations(h, d)
        assert got == reproving_checker(h, d) == kernel_invariant_violations(twin(h), d), h
        kinds[d._proof[1]] += 1
    # the stream holds families of both kinds
    assert kinds[True] > 1000 and kinds[False] > 100, kinds


def count_calls(monkeypatch):
    """Count the checker's proofs that H is intersecting and every set of
    incidence rows built outside the sunflower search, which builds the
    rows of a layer it is asked about."""
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(ifam.kernel, "is_intersecting")
    counted(ifam.kernel, "_incidence_rows")
    counted(ifam.hypergraph, "_incidence_rows")
    return calls


def test_the_checker_proves_nothing_again_on_a_b_kernel_result(monkeypatch):
    corpus = [*kernel_props_corpus(20261034, 60), *list(families_stream(1))[:400]]
    decompositions = [(h, b_kernel(h, scheme)) for h, scheme in corpus]
    calls = count_calls(monkeypatch)
    for h, d in decompositions:
        kernel_invariant_violations(h, d)
    assert calls == {}, calls
    # the proof is read for the tuple it was made on, not for an equal one
    # or for a decomposition built by hand
    for h, d in decompositions[:50]:
        if not h.edges:
            continue
        calls.clear()
        kernel_invariant_violations(twin(h), d)
        assert calls["is_intersecting"] == 1, h
        calls.clear()
        kernel_invariant_violations(h, KernelDecomposition(d.b_prime, d.b_dprime, d.scheme))
        assert calls["is_intersecting"] == 1, h


def test_the_proof_leaves_equality_hash_and_repr_as_they_were():
    for h, scheme in kernel_props_corpus(20261035, 30):
        d = b_kernel(h, scheme)
        d2 = KernelDecomposition(d.b_prime, d.b_dprime, d.scheme)
        assert d._proof == (h.edges, is_intersecting(h)) and d._proof[0] is h.edges
        assert d2._proof is None
        assert d == d2 and hash(d) == hash(d2) and repr(d) == repr(d2)
        assert repr(d) == (f"KernelDecomposition(b_prime={d.b_prime!r}, b_dprime={d.b_dprime!r}, "
                           f"scheme={d.scheme!r}, by_size={d.by_size!r})")
    with pytest.raises(TypeError):
        KernelDecomposition(fam(5), fam(5), paper_r(), _proof=((), True))
