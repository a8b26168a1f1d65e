"""Acceptance suite: the nine primary criteria, one test each.

Every test prints a single "criterion N: PASS/FAIL" line (visible with
pytest -s or in the captured output) and enforces its stated time
budget where one exists.  Criterion 5 runs at n = 6 and at n = 7, where
its scopes (a) and (b) are non-vacuous.
"""

import random
import time
from itertools import combinations
from math import comb, factorial

from ifam.classifier import (
    VerdictKind,
    classify,
    decompose_matching,
    decompose_th4prime,
    embed,
)
from ifam.constructions import (
    ConstructionError,
    ConstructionId,
    ConstructionParams,
    build_construction,
    validate_construction_params,
)
from ifam.enumeration import EnumerationFilter, enumerate_intersecting
from ifam.hypergraph import (
    Hypergraph,
    SetFamily,
    cover_number,
    is_intersecting,
    mask_of,
    matching_number,
)
from ifam.sunflower import find_sunflower
from ifam.verify import verify
from test_core_search import oracle_sunflower_exists


def report(num, ok, detail, elapsed):
    word = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {word} - {detail} [{elapsed:.1f}s]")


def test_criterion_1_formula_enumeration_agreement():
    start = time.perf_counter()
    rep = verify("COUNTS", r_values=(3, 4, 5), n_max=20)
    elapsed = time.perf_counter() - start
    ok = rep.passed and elapsed < 10
    report(1, ok, f"{rep.checked} size agreements including 5 pinned spot values", elapsed)
    assert rep.passed
    assert elapsed < 10


def test_criterion_2_structural_parameters():
    start = time.perf_counter()
    grids = {3: (6, 8, 14, 20), 4: (8, 10, 14), 5: (10, 12, 14)}
    checked = 0
    for r, ns in grids.items():
        for n in ns:
            cands = [(ConstructionId.EM, ConstructionParams(n, r, s=s)) for s in (1, 2, 3)]
            cands += [(ConstructionId.HM_T, ConstructionParams(n, r, t=t))
                      for t in (*range(0, r), n - r)]
            cands += [(ConstructionId.HM0, ConstructionParams(n, r)),
                      (ConstructionId.HM_DP, ConstructionParams(n, r)),
                      (ConstructionId.FP, ConstructionParams(n, r))]
            if r == 3:
                cands += [(ConstructionId.H3FAM, ConstructionParams(n, r, i=i))
                          for i in range(6)]
            else:
                cands += [(ConstructionId.H3LIFT, ConstructionParams(n, r, i=i))
                          for i in range(6)]
            for cid, p in cands:
                try:
                    validate_construction_params(cid, p)
                except ConstructionError:
                    continue
                h = build_construction(cid, p)
                checked += 1
                if cid is ConstructionId.EM:
                    # the s >= 2 instances bound the matching, not the
                    # pairwise intersections
                    if n >= r * (p.s + 1):
                        assert matching_number(h) == p.s, (cid, p)
                    if p.s == 1:
                        assert is_intersecting(h)
                        assert cover_number(h) == 1
                    continue
                assert is_intersecting(h), (cid, p)
                if cid in (ConstructionId.HM_T, ConstructionId.HM0, ConstructionId.HM_DP):
                    assert cover_number(h) == 2, (cid, p)
                elif cid is ConstructionId.FP:
                    assert cover_number(h) == 3, (cid, p)
    elapsed = time.perf_counter() - start
    ok = elapsed < 10
    report(2, ok, f"{checked} constructions: intersecting plus pinned tau and nu", elapsed)
    assert elapsed < 10


def test_criterion_3_non_containments():
    start = time.perf_counter()
    hm_dp = build_construction(ConstructionId.HM_DP, ConstructionParams(15, 4))
    for t in (1, 2, 3, 11):
        emb = embed(hm_dp, ConstructionId.HM_T, ConstructionParams(15, 4, t=t))
        assert emb is None, f"HM_DP(15,4) embedded with t={t}"
    for t in (2, 3):
        h = build_construction(ConstructionId.HM_T, ConstructionParams(15, 4, t=t))
        emb = embed(h, ConstructionId.HM_T, ConstructionParams(15, 4, t=t - 1))
        assert emb is None, f"HM_T(15,4,{t}) embedded at t={t - 1}"
    elapsed = time.perf_counter() - start
    ok = elapsed < 30
    report(3, ok, "6 non-containments at n=15, r=4 refuted by exhaustive embed", elapsed)
    assert elapsed < 30


def test_criterion_4_ten_edge_bound_for_tau_ge_3():
    start = time.perf_counter()
    rep = verify("FOLK", max_support=9)
    elapsed = time.perf_counter() - start
    sizes = sorted(w["edges"] for w in rep.witnesses)
    k5 = any(w["k5"] for w in rep.witnesses)
    fp = any(w["fp_type"] for w in rep.witnesses)
    ok = rep.passed and k5 and fp and sizes and set(sizes) == {10}
    report(4, ok,
           f"{rep.checked} maximal classes, {len(sizes)} extremal with 10 edges, "
           "K5 and FP-type witnesses present, no 11-edge family", elapsed)
    assert rep.passed
    assert k5 and fp
    assert set(sizes) == {10}


def test_criterion_5_classification_at_n6():
    start = time.perf_counter()
    main = verify("TH4_MAIN", n=6)
    part_a = verify("TH4_A", n=6)
    part_b = verify("TH4_B", n=6)
    elapsed = time.perf_counter() - start
    tails = part_b.witnesses[0]["tail_template_sizes"]
    ok = (main.passed and part_a.passed and part_b.passed
          and main.checked == 174 and set(tails.values()) == {10})
    report(5, ok,
           f"all {main.checked} classes got verdicts; scopes (a)={part_a.checked} "
           f"(b)={part_b.checked} clean; tail templates have n+4 edges", elapsed)
    assert main.passed and part_a.passed and part_b.passed
    assert main.checked == 174
    assert set(tails.values()) == {10}


def test_criterion_5_classification_at_n7():
    start = time.perf_counter()
    fams = enumerate_intersecting(7, 3, EnumerationFilter(tau_le=2, min_edges=1))
    pairs = [(h, classify(h)) for h in fams]
    bad_main = [h for h, v in pairs if v.kind not in (VerdictKind.STAR, VerdictKind.H3)]
    first_four_set = {
        id(h) for h, v in pairs
        if v.kind is VerdictKind.STAR or (v.kind is VerdictKind.H3 and v.i <= 2)
    }
    seven_set = {id(h) for h, v in pairs
                 if v.kind in (VerdictKind.STAR, VerdictKind.H3)}
    scope_a = [h for h, _ in pairs if len(h) >= 11]
    scope_b = [h for h, _ in pairs if len(h) > 11]
    bad_a = [h for h in scope_a if id(h) not in seven_set]
    bad_b = [h for h in scope_b if id(h) not in first_four_set]
    tails = [len(build_construction(ConstructionId.H3FAM, ConstructionParams(7, 3, i=i)))
             for i in (3, 4, 5)]
    elapsed = time.perf_counter() - start
    ok = (len(pairs) == 578 and not bad_main and not bad_a and not bad_b
          and scope_a and scope_b and tails == [11, 11, 11])
    report("5(n=7)", ok,
           f"{len(pairs)} classes, scopes (a)={len(scope_a)} (b)={len(scope_b)} "
           "non-vacuous and clean; tail templates have 11 edges", elapsed)
    assert len(pairs) == 578
    assert not bad_main
    assert scope_a and not bad_a
    assert scope_b and not bad_b
    assert tails == [11, 11, 11]


def test_criterion_6_two_edges_off_a_vertex():
    start = time.perf_counter()
    rep = verify("LEMMA_2EDGES", n=6)
    elapsed = time.perf_counter() - start
    ok = rep.passed and rep.checked == 160
    report(6, ok,
           f"{rep.checked} hypothesis classes all inside the five stated families",
           elapsed)
    assert rep.passed
    assert rep.checked == 160


def test_criterion_7_kernel_invariants():
    start = time.perf_counter()
    rep = verify("KERNEL_PROPS", count=1000, seed=20260822)
    elapsed = time.perf_counter() - start
    ok = rep.passed and elapsed < 60
    report(7, ok, f"{rep.checked} random families, zero invariant violations", elapsed)
    assert rep.passed
    assert elapsed < 60


def test_criterion_8_sunflower_oracle_and_guarantee():
    start = time.perf_counter()
    rng = random.Random(1753)
    decisions = 0
    for _ in range(500):
        n = rng.randint(4, 12)
        target = rng.randint(1, 12)
        pool = set()
        while len(pool) < target:
            pool.add(mask_of(rng.sample(range(1, n + 1), rng.randint(1, 4))))
        fam = SetFamily.from_masks(n, pool)
        for k in (2, 3, 4):
            found = find_sunflower(fam, k)
            assert (found is not None) == oracle_sunflower_exists(list(fam.members), k)
            if found is not None:
                assert set(found.members) <= set(fam.members)
            decisions += 1
    guaranteed = 0
    for i in (1, 2, 3):
        for k in (2, 3, 4):
            bound = k**i * factorial(i)
            n = next(n for n in range(3, 40) if comb(n, i) >= bound + 8)
            for _ in range(3):
                pool = set()
                while len(pool) < bound:
                    pool.add(mask_of(rng.sample(range(1, n + 1), i)))
                fam = SetFamily.from_masks(n, pool)
                assert find_sunflower(fam, k) is not None, (i, k)
                guaranteed += 1
    elapsed = time.perf_counter() - start
    report(8, True,
           f"{decisions} oracle decisions in full agreement; "
           f"{guaranteed} threshold-size families all yielded sunflowers", elapsed)


def test_criterion_9_decompositions():
    start = time.perf_counter()
    em = build_construction(ConstructionId.EM, ConstructionParams(12, 3, s=2))
    zs, v = decompose_matching(em, 2)
    assert zs == (1,)
    assert v.kind is VerdictKind.STAR

    base = build_construction(ConstructionId.HM_T, ConstructionParams(14, 4, t=1))
    shifted = [m << 1 for m in base.edges]
    apex = [mask_of((1, *c)) for c in combinations(range(2, 16), 3)]
    planted = Hypergraph.from_masks(15, 4, shifted + apex)
    zs, v = decompose_matching(planted, 2)
    assert zs == (1,)
    assert v.kind is VerdictKind.HM_T
    assert v.t == 1

    lifted = 0
    for i in range(6):
        h = build_construction(ConstructionId.H3LIFT, ConstructionParams(130, 4, i=i))
        hp, removed, verdict = decompose_th4prime(h)
        assert removed == 0, f"lift i={i} dropped {removed} edges"
        assert hp == h
        assert verdict.kind is VerdictKind.H3
        assert verdict.i == i, f"lift i={i} classified as {verdict.describe()}"
        lifted += 1
    elapsed = time.perf_counter() - start
    report(9, True,
           "matching decompositions recovered Z and verdicts; "
           f"{lifted} lifted families reduced with removed=0", elapsed)
