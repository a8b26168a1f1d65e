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
    so the scope is empty and the statement holds vacuously; n = 7, the
    default, is the first ground set where it bites.

TH4_B
    Every intersecting 3-graph with more than n + 4 edges is contained
    in one of the first four templates (star or index 0, 1, 2), and
    the three remaining templates (index 3, 4, 5) each have exactly
    n + 4 edges, witnessing that the size threshold is sharp.  The
    default is n = 7, as for TH4_A: at n = 6 no family is in scope.

LEMMA_2EDGES
    An intersecting 3-graph on n >= 6 vertices with a vertex x whose
    deletion leaves at most two edges is contained in the full star or
    in one of the index 0, 1, 2, 4 templates.  The hypothesis class is
    enumerated exactly rather than filtered from a larger sweep: up to
    relabeling x = 1, so every candidate is a subfamily of the star at
    vertex 1 together with at most two edges avoiding 1.  No bound on
    the cover number is assumed, so a hypothetical candidate needing
    three cover vertices would surface here and fail the membership
    test.  The default is n = 7 (539 classes); n = 6 has 160, and n
    above the enumeration ceiling is refused.

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

import inspect
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Any, Callable

from .hypergraph import Hypergraph, cover_number, mask_of

# ``import ifam`` loads this module, so it imports nothing at the top
# beyond the core types; each check imports the engines and the
# constructions it runs.
if TYPE_CHECKING:
    from .classifier import Verdict
    from .kernel import ThresholdScheme

FOLK_MAX_EDGES = 10

# What each ``_verify_*`` handler returns: the parameters it used, the
# number of cases it checked, its witnesses and its counterexamples.
_Outcome = tuple[dict[str, Any], int, list[dict[str, Any]], list[dict[str, Any]]]


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
        return asdict(self)

    def summary(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return (
            f"{self.statement}: {word} ({self.checked} cases, "
            f"{len(self.counterexamples)} counterexamples, {self.wall_time:.2f}s)"
        )


def _family_record(h: Hypergraph, **extra: Any) -> dict[str, Any]:
    from .io import serialize_hypergraph

    rec: dict[str, Any] = {
        "n": h.n,
        "r": h.r,
        "edges": len(h),
        "hypergraph": serialize_hypergraph(h),
    }
    rec.update(extra)
    return rec


def _resolve_ceiling(ceiling: int | None) -> int:
    from .enumeration import DEFAULT_CEILING

    return DEFAULT_CEILING if ceiling is None else ceiling


# -- FOLK -------------------------------------------------------------------


def _k5_triples(n: int) -> Hypergraph:
    masks = [mask_of(c) for c in combinations(range(1, 6), 3)]
    return Hypergraph.from_masks(n, 3, masks)


def _verify_folk(
    max_support: int = 9, ceiling: int | None = None
) -> _Outcome:
    from .constructions import ConstructionId, ConstructionParams, build_construction
    from .enumeration import EnumerationFilter, canonical_form, enumerate_intersecting

    ceiling = _resolve_ceiling(ceiling)
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
        # representatives are rebuilt from their canonical masks
        is_k5 = h.edges == k5_key
        is_fp = h.edges == fp_key
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


def _require_n_range(statement: str, n: int, ceiling: int | None = None) -> int:
    """The enumeration ceiling, once 6 <= n <= ceiling: the seven
    templates, and the statements about them, need n >= 6, and no sweep
    runs past the ceiling."""
    ceiling = _resolve_ceiling(ceiling)
    if n < 6:
        raise ValueError(f"{statement} is stated for n >= 6")
    if n > ceiling:
        raise ValueError(f"n={n} exceeds the enumeration ceiling {ceiling}")
    return ceiling


def _th4_scope(
    statement: str, n: int, ceiling: int | None, in_scope: Callable[[Hypergraph], bool]
) -> tuple[dict[str, Any], list[Hypergraph], list[tuple[Hypergraph, Verdict]]]:
    """The parameters, every tau <= 2 class on [n] with an edge, and the
    classes in scope paired with their verdicts; only those are classified."""
    from .classifier import classify
    from .enumeration import EnumerationFilter, enumerate_intersecting

    ceiling = _require_n_range(statement, n, ceiling)
    fams = enumerate_intersecting(n, 3, EnumerationFilter(tau_le=2, min_edges=1),
                                  ceiling=ceiling)
    scope = [(h, classify(h)) for h in fams if in_scope(h)]
    return {"n": n, "ceiling": ceiling}, fams, scope


def _refused(
    scope: list[tuple[Hypergraph, Verdict]], h3_indices: range, reason: str
) -> list[dict[str, Any]]:
    """A counterexample for each class whose verdict is neither the star nor
    H3(i) with i in ``h3_indices``."""
    from .classifier import VerdictKind

    return [
        _family_record(h, verdict=v.describe(), reason=reason)
        for h, v in scope
        if v.kind is not VerdictKind.STAR
        and not (v.kind is VerdictKind.H3 and v.i in h3_indices)
    ]


def _verify_th4_main(
    n: int = 6, ceiling: int | None = None
) -> _Outcome:
    params, _, scope = _th4_scope("TH4_MAIN", n, ceiling, lambda h: True)
    counts = Counter(v.describe() for _, v in scope)
    histogram = [{"verdict": k, "classes": c} for k, c in sorted(counts.items())]
    return params, len(scope), histogram, _refused(
        scope, range(6), "no containing template among the seven")


def _verify_th4_a(
    n: int = 7, ceiling: int | None = None
) -> _Outcome:
    params, fams, scope = _th4_scope("TH4_A", n, ceiling, lambda h: len(h) >= 11)
    witnesses = [{
        "families_in_scope": len(scope),
        "largest_family": max((len(h) for h in fams), default=0),
        "note": "scope is empty, statement vacuous at this n" if not scope else
                "scope checked exhaustively",
    }]
    return params, len(scope), witnesses, _refused(
        scope, range(6), "at least eleven edges but not inside any of the seven templates")


def _verify_th4_b(
    n: int = 7, ceiling: int | None = None
) -> _Outcome:
    from .constructions import ConstructionId, ConstructionParams, build_construction

    params, _, scope = _th4_scope("TH4_B", n, ceiling, lambda h: len(h) > n + 4)
    counterexamples = _refused(
        scope, range(3), "more than n + 4 edges but not inside the first four templates")
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

def _lemma_candidates(n: int) -> list[Hypergraph]:
    """One representative per isomorphism class of intersecting 3-graphs
    on [n] having a vertex whose deletion leaves at most two edges.

    Both conditions survive deleting edges and relabeling, so the orderly
    generator prunes with them directly.
    """
    from .enumeration import _orderly

    def keep(fam: tuple[int, ...], e: int) -> bool:
        if not all(e & g for g in fam):
            return False
        child = (*fam, e)
        return any(
            sum(g >> v & 1 for g in child) >= len(child) - 2 for v in range(n)
        )

    return _orderly(n, 3, keep)


def _verify_lemma_2edges(n: int = 7) -> _Outcome:
    from .classifier import VerdictKind, _first_fit, _ladder

    params = {"n": n}
    _require_n_range("LEMMA_2EDGES", n)
    # the lemma's five templates, the star and H3(0, 1, 2, 4), in ladder
    # order; H3(3) stays off, or it would mask H3(4)
    rungs = [rung for rung in _ladder(n, 3, None) if rung[2].i in (None, 0, 1, 2, 4)]
    reps = _lemma_candidates(n)
    hits: Counter[str] = Counter()
    counterexamples = []
    for h in reps:
        v = _first_fit(h, rungs)
        if v.kind is VerdictKind.NONE:
            counterexamples.append(_family_record(
                h, tau=cover_number(h),
                reason="a vertex deletion leaves at most two edges but no "
                       "template of the five contains the family"))
        else:
            hits[v.describe()] += 1
    witnesses = [{"template": k, "classes": c} for k, c in sorted(hits.items())]
    return params, len(reps), witnesses, counterexamples


# -- COUNTS -----------------------------------------------------------------

# (template, ConstructionParams fields, pinned size); plain data, so that
# loading this module loads no construction code
_SPOT_VALUES: tuple[tuple[str, dict[str, int], int], ...] = (
    ("HM_T", {"n": 6, "r": 3, "t": 0}, 10),
    ("HM_T", {"n": 9, "r": 4, "t": 1}, 53),
    ("HM_T", {"n": 10, "r": 4, "t": 2}, 70),
    ("HM_DP", {"n": 12, "r": 5}, 303),
    ("EM", {"n": 10, "r": 3, "s": 2}, 64),
)


def _counts_grid(r_values: tuple[int, ...], n_max: int):
    from .constructions import ConstructionId, ConstructionParams

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
) -> _Outcome:
    from .constructions import (
        ConstructionError,
        ConstructionId,
        ConstructionParams,
        build_construction,
        size_formula,
    )

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
    for name, fields, value in _SPOT_VALUES:
        cid, p = ConstructionId(name), ConstructionParams(**fields)
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
    from .constructions import (
        ConstructionError,
        ConstructionId,
        ConstructionParams,
        build_construction,
        validate_construction_params,
    )

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
) -> _Outcome:
    from .kernel import b_kernel, kernel_invariant_violations, paper_r, paper_rs

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

_HANDLERS: dict[str, Callable[..., _Outcome]] = {
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

    Raises ValueError for an unknown statement, a parameter the
    statement does not take or an out-of-range one, and propagates the
    enumeration ceiling error when a requested ground set exceeds the
    configured ceiling.
    """
    name = str(statement).upper()
    if name not in _HANDLERS:
        known = ", ".join(STATEMENTS)
        raise ValueError(f"unknown statement {statement!r}; expected one of {known}")
    handler = _HANDLERS[name]
    unknown = sorted(set(params).difference(inspect.signature(handler).parameters))
    if unknown:
        raise ValueError(f"parameter not accepted by {name}: {', '.join(unknown)}")
    start = time.perf_counter()
    used, checked, witnesses, counterexamples = handler(**params)
    return VerificationReport(
        statement=name,
        params=used,
        passed=not counterexamples,
        witnesses=witnesses,
        counterexamples=counterexamples,
        wall_time=time.perf_counter() - start,
        checked=checked,
    )
