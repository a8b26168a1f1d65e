"""Scripted verification of the finite statements behind the structure
results.

Each statement quantifies over a finite (or finitely sampled) space of
intersecting families.  A check reduces the statement to an explicit
search and packages the outcome as a VerificationReport: the parameter
range covered, a pass or fail flag, the extremal witnesses found, and,
on failure, counterexamples carrying the family in the same text format
that parse_hypergraph reads back, so every failure is replayable.

Statements
----------
FOLK
    Intersecting 3-graphs with cover number at least three and support
    at most ``max_support`` have at most ten edges, and the bound is
    attained.  The search runs over maximal families only, which is
    sound for both halves of the claim: a transversal of a superfamily
    covers every subfamily, so extending a family never lowers the
    cover number below three, and the maximum size is attained by a
    maximal family.  A family that is maximal on its own support and
    needs three cover vertices stays maximal on a larger ground set,
    because an added edge meets the support in at most two vertices
    and no two vertices cover such a family.  Enumerating maximal
    families on ``max_support`` vertices therefore sees one copy of
    every maximal candidate with smaller support as well.

TH4_MAIN
    Every intersecting 3-graph on n vertices with cover number at most
    two is contained in the full star or in one of the six indexed
    3-uniform templates.  Checked by classifying every isomorphism
    class with at least one edge.

TH4_A
    Every intersecting 3-graph with at least eleven edges is contained
    in one of the seven templates.  No cover-number hypothesis is
    needed: a family needing three cover vertices has at most ten
    edges, so the enumeration with cover number at most two is the
    complete scope.  At n = 6 the largest such family has ten edges,
    so the scope is empty and the statement holds vacuously; n = 7 is
    the first ground set where it bites.

TH4_B
    Every intersecting 3-graph with more than n + 4 edges is contained
    in one of the first four templates (star or index 0, 1, 2), and
    the three remaining templates (index 3, 4, 5) each have exactly
    n + 4 edges, witnessing that the size threshold is sharp.

LEMMA_2EDGES
    An intersecting 3-graph on n >= 6 vertices with a vertex x whose
    deletion leaves at most two edges is contained in the full star or
    in one of the index 0, 1, 2, 4 templates.  The hypothesis class is
    enumerated exactly rather than filtered from a larger sweep: up to
    relabeling x = 1, so every candidate is a subfamily of the star at
    vertex 1 together with at most two edges avoiding 1.  No bound on
    the cover number is assumed, so a hypothetical candidate needing
    three cover vertices would surface here and fail the membership
    test.

COUNTS
    The size formulas agree with the built edge counts for EM, HM_T,
    HM0, HM_DP, FP, and the six indexed 3-uniform templates across a
    parameter grid, plus pinned spot values.

KERNEL_PROPS
    The kernel decomposition invariants hold on seeded pseudorandom
    families mixing dense stars with noise, subfamilies of structured
    instances, and greedy random intersecting families.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable

from .classifier import Verdict, VerdictKind, classify_3graph, embed
from .constructions import (
    ConstructionError,
    ConstructionId,
    ConstructionParams,
    build_construction,
    size_formula,
    validate_construction_params,
)
from .enumeration import (
    DEFAULT_CEILING,
    EnumerationFilter,
    canonical_form,
    enumerate_intersecting,
)
from .hypergraph import Hypergraph, cover_number, mask_of
from .io import serialize_hypergraph
from .kernel import ThresholdScheme, b_kernel, kernel_invariant_violations, paper_r, paper_rs

FOLK_MAX_EDGES = 10


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one statement check.

    ``counterexamples`` entries always carry the offending family under
    the key ``hypergraph`` in parse_hypergraph format; the list is empty
    exactly when the check passed.
    """

    statement: str
    params: dict[str, Any]
    passed: bool
    witnesses: list[dict[str, Any]]
    counterexamples: list[dict[str, Any]]
    wall_time: float
    checked: int

    def __post_init__(self) -> None:
        if not self.passed and not self.counterexamples:
            raise ValueError("a failing report must record a counterexample")

    def to_json(self) -> dict[str, Any]:
        return {
            "statement": self.statement,
            "params": dict(self.params),
            "passed": self.passed,
            "checked": self.checked,
            "witnesses": [dict(w) for w in self.witnesses],
            "counterexamples": [dict(c) for c in self.counterexamples],
            "wall_time": self.wall_time,
        }

    def summary(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return (
            f"{self.statement}: {word} ({self.checked} cases, "
            f"{len(self.counterexamples)} counterexamples, {self.wall_time:.2f}s)"
        )


def _family_record(h: Hypergraph, **extra: Any) -> dict[str, Any]:
    rec: dict[str, Any] = {
        "n": h.n,
        "r": h.r,
        "edges": len(h),
        "hypergraph": serialize_hypergraph(h),
    }
    rec.update(extra)
    return rec


# -- FOLK -------------------------------------------------------------------


def _k5_triples(n: int) -> Hypergraph:
    masks = [mask_of(c) for c in combinations(range(1, 6), 3)]
    return Hypergraph.from_masks(n, 3, masks)


def _verify_folk(
    max_support: int = 9, ceiling: int = DEFAULT_CEILING
) -> tuple[dict[str, Any], int, bool, list[dict[str, Any]], list[dict[str, Any]]]:
    params = {"max_support": max_support, "ceiling": ceiling}
    if max_support < 5:
        raise ValueError("FOLK needs max_support >= 5 (no 3-graph below five "
                         "vertices has cover number three)")
    f = EnumerationFilter(tau_ge=3, maximal_only=True)
    fams = enumerate_intersecting(max_support, 3, f, ceiling=ceiling)
    counterexamples = [
        _family_record(h, reason="more than ten edges with cover number >= 3")
        for h in fams
        if len(h) > FOLK_MAX_EDGES
    ]
    max_size = max((len(h) for h in fams), default=0)
    extremal = [h for h in fams if len(h) == max_size]

    k5_key = canonical_form(_k5_triples(max_support))
    fp_key = None
    if max_support >= 7:
        fp_key = canonical_form(build_construction(ConstructionId.FP,
                                                   ConstructionParams(max_support, 3)))
    witnesses = []
    k5_found = fp_found = False
    for h in extremal:
        key = canonical_form(h)
        is_k5 = key == k5_key
        is_fp = fp_key is not None and key == fp_key
        k5_found = k5_found or is_k5
        fp_found = fp_found or is_fp
        witnesses.append(_family_record(h, tau=cover_number(h), k5=is_k5, fp_type=is_fp))

    if max_size != FOLK_MAX_EDGES:
        counterexamples.append(_family_record(
            _k5_triples(max_support),
            reason=f"extremal size is {max_size}, expected {FOLK_MAX_EDGES}; "
                   "this family should have been found"))
    if not k5_found:
        counterexamples.append(_family_record(
            _k5_triples(max_support),
            reason="expected extremal witness (complete 3-graph on five "
                   "vertices) missing from the search"))
    if fp_key is not None and not fp_found:
        counterexamples.append(_family_record(
            build_construction(ConstructionId.FP, ConstructionParams(max_support, 3)),
            reason="expected extremal witness (triangle-based family) "
                   "missing from the search"))
    return params, len(fams), witnesses, counterexamples


# -- TH4 family of checks ---------------------------------------------------

_FIRST_FOUR = frozenset({0, 1, 2})


def _verdict_in_first_four(v: Verdict) -> bool:
    if v.kind is VerdictKind.STAR:
        return True
    return v.kind is VerdictKind.H3 and v.i in _FIRST_FOUR


def _tau2_classes(n: int, ceiling: int) -> list[tuple[Hypergraph, Verdict]]:
    f = EnumerationFilter(tau_le=2, min_edges=1)
    fams = enumerate_intersecting(n, 3, f, ceiling=ceiling)
    return [(h, classify_3graph(h)) for h in fams]


def _verdict_histogram(pairs: list[tuple[Hypergraph, Verdict]]) -> list[dict[str, Any]]:
    counts: dict[str, int] = {}
    for _, v in pairs:
        counts[v.describe()] = counts.get(v.describe(), 0) + 1
    return [{"verdict": k, "classes": counts[k]} for k in sorted(counts)]


def _verify_th4_main(
    n: int = 6, ceiling: int = DEFAULT_CEILING
) -> tuple[dict[str, Any], int, bool, list[dict[str, Any]], list[dict[str, Any]]]:
    params = {"n": n, "ceiling": ceiling}
    pairs = _tau2_classes(n, ceiling)
    counterexamples = [
        _family_record(h, verdict=v.describe(),
                       reason="no containing template among the seven")
        for h, v in pairs
        if v.kind not in (VerdictKind.STAR, VerdictKind.H3)
    ]
    return params, len(pairs), _verdict_histogram(pairs), counterexamples


def _verify_th4_a(
    n: int = 6, ceiling: int = DEFAULT_CEILING
) -> tuple[dict[str, Any], int, bool, list[dict[str, Any]], list[dict[str, Any]]]:
    params = {"n": n, "ceiling": ceiling}
    pairs = _tau2_classes(n, ceiling)
    scope = [(h, v) for h, v in pairs if len(h) >= 11]
    counterexamples = [
        _family_record(h, verdict=v.describe(),
                       reason="at least eleven edges but not inside any of "
                              "the seven templates")
        for h, v in scope
        if v.kind not in (VerdictKind.STAR, VerdictKind.H3)
    ]
    max_size = max((len(h) for h, _ in pairs), default=0)
    witnesses = [{
        "families_in_scope": len(scope),
        "largest_family": max_size,
        "note": "scope is empty, statement vacuous at this n" if not scope else
                "scope checked exhaustively",
    }]
    return params, len(scope), witnesses, counterexamples


def _verify_th4_b(
    n: int = 6, ceiling: int = DEFAULT_CEILING
) -> tuple[dict[str, Any], int, bool, list[dict[str, Any]], list[dict[str, Any]]]:
    params = {"n": n, "ceiling": ceiling}
    pairs = _tau2_classes(n, ceiling)
    scope = [(h, v) for h, v in pairs if len(h) > n + 4]
    counterexamples = [
        _family_record(h, verdict=v.describe(),
                       reason="more than n + 4 edges but not inside the first "
                              "four templates")
        for h, v in scope
        if not _verdict_in_first_four(v)
    ]
    tail_sizes = {}
    for i in (3, 4, 5):
        built = build_construction(ConstructionId.H3FAM, ConstructionParams(n, 3, i=i))
        tail_sizes[f"H3({i})"] = len(built)
        if len(built) != n + 4:
            counterexamples.append(_family_record(
                built, reason=f"template index {i} has {len(built)} edges, "
                              f"expected n + 4 = {n + 4}"))
    witnesses = [{
        "families_in_scope": len(scope),
        "threshold": n + 4,
        "tail_template_sizes": tail_sizes,
    }]
    return params, len(scope), witnesses, counterexamples


# -- LEMMA_2EDGES -----------------------------------------------------------

_LEMMA_TEMPLATES: tuple[tuple[ConstructionId, dict[str, int]], ...] = (
    (ConstructionId.EM, {"s": 1}),
    (ConstructionId.H3FAM, {"i": 0}),
    (ConstructionId.H3FAM, {"i": 1}),
    (ConstructionId.H3FAM, {"i": 2}),
    (ConstructionId.H3FAM, {"i": 4}),
)


def _lemma_candidates(n: int) -> list[Hypergraph]:
    """One representative per isomorphism class of intersecting 3-graphs
    on [n] having a vertex whose deletion leaves at most two edges.

    Normal form: the distinguished vertex is 1, so a candidate is any
    set of star edges at 1 plus an outside part of at most two edges
    avoiding 1.  Star edges pairwise meet at 1 and the outside part is
    kept pairwise intersecting, so intersectivity reduces to each kept
    star edge meeting each outside edge, which is enforced up front.
    """
    star_pool = [mask_of((1, a, b)) for a, b in combinations(range(2, n + 1), 2)]
    out_pool = [mask_of(c) for c in combinations(range(2, n + 1), 3)]
    outside: list[tuple[int, ...]] = [()]
    outside.extend((e,) for e in out_pool)
    outside.extend(p for p in combinations(out_pool, 2) if p[0] & p[1])
    seen: dict[tuple[int, ...], Hypergraph] = {}
    for part in outside:
        ok = [e for e in star_pool if all(e & f for f in part)]
        for pick in range(1 << len(ok)):
            fam = [ok[j] for j in range(len(ok)) if pick >> j & 1]
            fam.extend(part)
            h = Hypergraph.from_masks(n, 3, fam)
            key = canonical_form(h)
            if key not in seen:
                seen[key] = Hypergraph.from_masks(n, 3, key)
    reps = sorted(seen.values(), key=lambda h: (len(h), h.edges))
    return reps


def _verify_lemma_2edges(
    n: int = 6,
) -> tuple[dict[str, Any], int, bool, list[dict[str, Any]], list[dict[str, Any]]]:
    params = {"n": n}
    if n < 6:
        raise ValueError("LEMMA_2EDGES is stated for n >= 6")
    reps = _lemma_candidates(n)
    hits: dict[str, int] = {}
    counterexamples = []
    for h in reps:
        found = None
        for cid, kw in _LEMMA_TEMPLATES:
            emb = embed(h, cid, ConstructionParams(n, 3, **kw))
            if emb is not None:
                found = "STAR" if cid is ConstructionId.EM else f"H3({kw['i']})"
                break
        if found is None:
            counterexamples.append(_family_record(
                h, tau=cover_number(h),
                reason="a vertex deletion leaves at most two edges but no "
                       "template of the five contains the family"))
        else:
            hits[found] = hits.get(found, 0) + 1
    witnesses = [{"template": k, "classes": hits[k]} for k in sorted(hits)]
    return params, len(reps), witnesses, counterexamples


# -- COUNTS -----------------------------------------------------------------

_SPOT_VALUES: tuple[tuple[ConstructionId, ConstructionParams, int], ...] = (
    (ConstructionId.HM_T, ConstructionParams(6, 3, t=0), 10),
    (ConstructionId.HM_T, ConstructionParams(9, 4, t=1), 53),
    (ConstructionId.HM_T, ConstructionParams(10, 4, t=2), 70),
    (ConstructionId.HM_DP, ConstructionParams(12, 5), 303),
    (ConstructionId.EM, ConstructionParams(10, 3, s=2), 64),
)


def _counts_grid(r_values: tuple[int, ...], n_max: int):
    for r in r_values:
        for n in range(2 * r, n_max + 1):
            for s in (1, 2, 3):
                yield ConstructionId.EM, ConstructionParams(n, r, s=s)
            for t in (*range(0, r), n - r):
                yield ConstructionId.HM_T, ConstructionParams(n, r, t=t)
            yield ConstructionId.HM0, ConstructionParams(n, r)
            yield ConstructionId.HM_DP, ConstructionParams(n, r)
            yield ConstructionId.FP, ConstructionParams(n, r)
            if r == 3:
                for i in range(6):
                    yield ConstructionId.H3FAM, ConstructionParams(n, r, i=i)


def _verify_counts(
    r_values: tuple[int, ...] = (3, 4, 5), n_max: int = 20
) -> tuple[dict[str, Any], int, bool, list[dict[str, Any]], list[dict[str, Any]]]:
    params = {"r_values": list(r_values), "n_max": n_max}
    checked = 0
    counterexamples = []
    for cid, p in _counts_grid(tuple(r_values), n_max):
        try:
            expected = size_formula(cid, p)
        except ConstructionError:
            continue
        built = build_construction(cid, p)
        checked += 1
        if len(built) != expected:
            counterexamples.append(_family_record(
                built, template=cid.value, params=vars(p),
                reason=f"formula gives {expected}, built family has {len(built)} edges"))
    spot_table = []
    for cid, p, value in _SPOT_VALUES:
        got = len(build_construction(cid, p))
        checked += 1
        spot_table.append({"template": cid.value, "params": vars(p),
                           "expected": value, "built": got})
        if got != value:
            counterexamples.append(_family_record(
                build_construction(cid, p), template=cid.value, params=vars(p),
                reason=f"pinned size {value}, built family has {got} edges"))
    witnesses = [{"grid_cells": checked - len(_SPOT_VALUES), "spot_values": spot_table}]
    return params, checked, witnesses, counterexamples


# -- KERNEL_PROPS -----------------------------------------------------------


def _random_star_noise(rng: random.Random, r: int) -> Hypergraph:
    n = rng.randint(r + 2, 30)
    center = rng.randint(1, n)
    others = [v for v in range(1, n + 1) if v != center]
    picked: list[int] = []
    chosen: set[int] = set()
    for _ in range(rng.randint(1, 60)):
        e = mask_of((center, *rng.sample(others, r - 1)))
        if e not in chosen:
            chosen.add(e)
            picked.append(e)
    for _ in range(rng.randint(0, 8)):
        e = mask_of(rng.sample(range(1, n + 1), r))
        if e not in chosen and all(e & f for f in picked):
            chosen.add(e)
            picked.append(e)
    return Hypergraph.from_masks(n, r, picked)


def _random_structured(rng: random.Random, r: int) -> Hypergraph:
    n = rng.randint(2 * r + 1, 30)
    options: list[tuple[ConstructionId, ConstructionParams]] = [
        (ConstructionId.EM, ConstructionParams(n, r, s=rng.randint(1, 3))),
        (ConstructionId.HM_T, ConstructionParams(n, r, t=rng.choice([*range(0, r), n - r]))),
        (ConstructionId.HM0, ConstructionParams(n, r)),
        (ConstructionId.HM_DP, ConstructionParams(n, r)),
    ]
    cid, p = rng.choice(options)
    try:
        validate_construction_params(cid, p)
    except ConstructionError:
        cid, p = ConstructionId.HM_T, ConstructionParams(n, r, t=1)
    h = build_construction(cid, p)
    k = rng.randint(1, min(len(h), 200))
    sub = rng.sample(h.edges, k)
    return Hypergraph.from_masks(n, r, sub)


def _random_greedy(rng: random.Random, r: int) -> Hypergraph:
    n = rng.randint(r + 2, 13)
    pool = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    rng.shuffle(pool)
    target = rng.randint(1, 25)
    picked: list[int] = []
    for e in pool:
        if all(e & f for f in picked):
            picked.append(e)
            if len(picked) == target:
                break
    return Hypergraph.from_masks(n, r, picked)


def _random_family(rng: random.Random) -> Hypergraph:
    r = rng.choice((3, 4))
    mode = rng.randrange(3)
    if mode == 0:
        return _random_star_noise(rng, r)
    if mode == 1:
        return _random_structured(rng, r)
    return _random_greedy(rng, r)


def _verify_kernel_props(
    count: int = 1000, seed: int = 20260822
) -> tuple[dict[str, Any], int, bool, list[dict[str, Any]], list[dict[str, Any]]]:
    params = {"count": count, "seed": seed}
    if count < 1:
        raise ValueError("KERNEL_PROPS needs count >= 1")
    rng = random.Random(seed)
    counterexamples = []
    largest = 0
    for index in range(count):
        h = _random_family(rng)
        largest = max(largest, len(h))
        scheme: ThresholdScheme = paper_rs(rng.randint(1, 3)) if index % 5 == 4 else paper_r()
        d = b_kernel(h, scheme)
        violations = kernel_invariant_violations(h, d)
        if violations:
            counterexamples.append(_family_record(
                h, scheme=scheme.name, case_index=index, violations=violations,
                reason="kernel invariants violated"))
    witnesses = [{"families": count, "largest_family": largest, "seed": seed}]
    return params, count, witnesses, counterexamples


# -- dispatcher -------------------------------------------------------------

_HANDLERS: dict[str, Callable[..., tuple]] = {
    "FOLK": _verify_folk,
    "TH4_MAIN": _verify_th4_main,
    "TH4_A": _verify_th4_a,
    "TH4_B": _verify_th4_b,
    "LEMMA_2EDGES": _verify_lemma_2edges,
    "COUNTS": _verify_counts,
    "KERNEL_PROPS": _verify_kernel_props,
}

STATEMENTS = tuple(_HANDLERS)


def verify(statement: str, **params: Any) -> VerificationReport:
    """Run one statement check and return its report.

    Raises ValueError for an unknown statement or out-of-range
    parameters, and propagates the enumeration ceiling error when a
    requested ground set exceeds the configured ceiling.
    """
    name = str(statement).upper()
    if name not in _HANDLERS:
        known = ", ".join(STATEMENTS)
        raise ValueError(f"unknown statement {statement!r}; expected one of {known}")
    start = time.perf_counter()
    used, checked, witnesses, counterexamples = _HANDLERS[name](**params)
    return VerificationReport(
        statement=name,
        params=used,
        passed=not counterexamples,
        witnesses=witnesses,
        counterexamples=counterexamples,
        wall_time=time.perf_counter() - start,
        checked=checked,
    )
