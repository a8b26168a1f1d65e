"""Containment testing and structure classification for intersecting families.

Every construction in this package is determined by a small set of special
vertices (an apex, a base set, tail vertices, ...) together with its
generators, short sets of those roles listed in the construction's record:
an r-set belongs to the instantiated construction exactly when it contains
one of the template's generators.  An ``Embedding`` therefore records only
where the special vertices go; the remaining template vertices are
interchangeable filler and are never matched explicitly.

``embed`` decides, completely, whether a family is a subfamily of a
construction instance on the same ground set, and returns a witness
role assignment when one exists.  It splits that work in two:

* a search, one per template, proposes candidate vertex tuples, one
  vertex per role in layout order.  A search must be complete (some
  candidate is a witness whenever one exists) but need not be sound;
* one check certifies a candidate: its labels are distinct labels of
  [n], and every edge contains a generator under that role map.  The
  first accepted candidate is the witness, and ``embedding_is_valid``
  runs the same check on a given role map.

A search never runs short of free labels to pad a candidate with:
``_resolve`` has checked the template's size rule before any search
runs, and ``fits`` refuses a short tuple on its length.

The searches are anchored:

* the apex candidate fixes the set of edges that avoid it, and those
  edges pin down the base set (two such edges intersect in exactly the
  base, one leaves r choices, none reduces to a covering problem);
* a triple template is anchored on a covering pair, since every edge
  meets two of the three special vertices;
* the pair patterns and the lifted tailed patterns, whose first two
  roles meet every generator, are anchored on a covering pair as well
  and then branch on the first edge not yet explained, which keeps the
  search tree small without giving up completeness.

Classification is one ladder.  ``_ladder`` lists the (kind, template,
parameters) rungs in the paper's order, keeping those that can hold a
family of a given cover number, and ``_first_fit`` reports the first
rung whose instance contains the family.  ``classify`` is the one entry
point and the one place the cover-number and intersecting guards are
written; ``classify_3graph`` is ``classify`` restricted to r = 3, and
``classify_rgraph`` climbs the ladder for r >= 4 families with cover
number at least two.  ``decompose_matching`` peels a small vertex set
so that the rest of the family collapses onto a single classified
structure, and ``decompose_th4prime`` runs the kernel reduction to a
3-uniform shadow, classifies the shadow, and lifts the verdict back to
the r-uniform family.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, islice, permutations

from .constructions import (
    ConstructionError,
    ConstructionId,
    ConstructionParams,
    Resolved,
    _resolve,
)
from .hypergraph import (
    Hypergraph,
    SetFamily,
    cover_number,
    delete_vertices,
    is_intersecting,
    mask_of,
    min_cover,
    pack_exists,
    vertices_of,
)
from .kernel import _reduce_to_3graph, b_kernel, paper_r, paper_rs

__all__ = [
    "VerdictKind",
    "Verdict",
    "Embedding",
    "embed",
    "embedding_is_valid",
    "classify",
    "classify_3graph",
    "classify_rgraph",
    "decompose_matching",
    "decompose_th4prime",
]


class VerdictKind(str, Enum):
    STAR = "STAR"
    HM_T = "HM_T"
    HM0 = "HM0"
    HM_DP = "HM_DP"
    H3 = "H3"
    TAU_GE_3 = "TAU_GE_3"
    NONE = "NONE"


_WITNESS_KINDS = frozenset(
    {VerdictKind.STAR, VerdictKind.HM_T, VerdictKind.HM0, VerdictKind.HM_DP, VerdictKind.H3}
)


@dataclass(frozen=True)
class Embedding:
    """A role -> vertex witness that H sits inside a construction instance."""

    template: ConstructionId
    params: ConstructionParams
    roles: tuple[tuple[str, int], ...]

    @property
    def mapping(self) -> dict[str, int]:
        return dict(self.roles)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a classification: a kind plus its witness when one exists."""

    kind: VerdictKind
    t: int | None = None
    i: int | None = None
    embedding: Embedding | None = None

    def __post_init__(self) -> None:
        if self.kind in _WITNESS_KINDS and self.embedding is None:
            raise ValueError(f"verdict {self.kind.value} needs an embedding witness")
        if self.kind not in _WITNESS_KINDS and self.embedding is not None:
            raise ValueError(f"verdict {self.kind.value} carries no witness")
        if self.kind is VerdictKind.HM_T and self.t is None:
            raise ValueError("HM_T verdict needs t")
        if self.kind is VerdictKind.H3 and self.i is None:
            raise ValueError("H3 verdict needs i")

    def describe(self) -> str:
        if self.kind is VerdictKind.HM_T:
            return f"HM_T(t={self.t})"
        if self.kind is VerdictKind.H3:
            return f"H3({self.i})"
        return self.kind.value


# -- mask utilities ---------------------------------------------------------


def _bit(v: int) -> int:
    return 1 << (v - 1)


def _and_all(masks, full: int) -> int:
    out = full
    for m in masks:
        out &= m
    return out


def _lowest_free(n: int, excluded: int, count: int) -> list[int]:
    """The `count` smallest labels outside `excluded`, fewer if [n] runs out."""
    return list(islice((v for v in range(1, n + 1) if not excluded & _bit(v)), count))


# -- template membership ----------------------------------------------------


@lru_cache(maxsize=256)
def _slots(res: Resolved) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """The role names in layout order, and each generator as the positions
    of its roles in that order."""
    names = res.roles
    place = {role: j for j, role in enumerate(names)}
    return names, tuple(tuple(place[role] for role in gen) for gen in res.generators)


def _witness_check(h: Hypergraph, res: Resolved):
    """``fits(vertices)``: the role map that puts the vertices on the
    template's roles in layout order, if they are distinct labels of [n]
    and every edge of H is a member under it, else None.

    This is the one certificate for a witness: ``embed`` keeps the first
    search candidate it accepts and ``embedding_is_valid`` runs it on a
    given role map.  An edge of size r is a member exactly when it equals
    a generator of size r or contains a smaller one.  The generators are
    read once; each call only puts vertices on their roles.
    """
    edges, n = h.edges, h.n
    names, gens = _slots(res)
    size = len(names)

    def fits(vertices) -> dict[str, int] | None:
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


def embedding_is_valid(h: Hypergraph, emb: Embedding) -> bool:
    """Check an embedding witness edge by edge against the template's generators."""
    p = emb.params
    if p.n != h.n or p.r != h.r:
        return False
    try:
        res = _resolve(emb.template, p)
    except ConstructionError:
        return False
    names = _slots(res)[0]
    roles = emb.mapping
    if set(roles) != set(names):
        return False
    return _witness_check(h, res)([roles[name] for name in names]) is not None


# -- covering-pair candidates -----------------------------------------------


def _two_cover_cands(masks, forbidden: int, n: int):
    """Pairs {u, v} outside `forbidden` meeting every mask (complete).

    When some mask exists, one endpoint lies in the first mask, which
    anchors the enumeration; if no constraint pins the partner, the
    lexicographically least free vertex serves, since any choice works.
    """
    full = (1 << n) - 1
    if not masks:
        yield mask_of(_lowest_free(n, forbidden, 2))
        return
    seen = set()
    for u in vertices_of(masks[0] & ~forbidden):
        ub = _bit(u)
        miss = [m for m in masks if not m & ub]
        if miss:
            cands = vertices_of(_and_all(miss, full) & ~(forbidden | ub))
        else:
            cands = _lowest_free(n, forbidden | ub, 1)
        for v in cands:
            pair = ub | _bit(v)
            if pair not in seen:
                seen.add(pair)
                yield pair


def _pair_anchor_cands(h: Hypergraph):
    """Ordered covering pairs (p, q), anchored on the first edge."""
    edges = h.edges
    full = (1 << h.n) - 1
    e0 = edges[0]
    seen = set()
    for p in vertices_of(e0):
        pb = _bit(p)
        miss = [e for e in edges if not e & pb]
        if miss:
            qcands = vertices_of(_and_all(miss, full))
        else:
            qcands = tuple(v for v in range(1, h.n + 1) if v != p)
        for q in qcands:
            for pair in ((p, q), (q, p)):
                if pair not in seen:
                    seen.add(pair)
                    yield pair


# -- per-template searches --------------------------------------------------
#
# Each search takes a family with at least one edge and the resolved
# template, and yields candidate vertex tuples, one vertex per role in
# layout order.  ``embed`` keeps the first candidate that ``fits``
# accepts, so a search only proposes: it need not check its candidates,
# and it stops as soon as one is accepted.  The comments argue
# completeness: whenever a witness exists, some candidate is one.


def _embed_em(h: Hypergraph, res: Resolved):
    # H fits iff the s centers can cover it, i.e. tau(H) <= s.
    s = res.k
    mc = min_cover(h)
    if len(mc) <= s:
        yield tuple(sorted(list(mc) + _lowest_free(h.n, mask_of(mc), s - len(mc))))


def _embed_hm0(h: Hypergraph, res: Resolved):
    # Every edge meets two of the triple, hence meets every pair inside
    # it: anchor on covering pairs, then the third vertex must lie in
    # every edge meeting the pair only once.
    edges = h.edges
    full = (1 << h.n) - 1
    tried = set()
    for pv, qv in _pair_anchor_cands(h):
        pair = _bit(pv) | _bit(qv)
        if pair in tried:
            continue
        tried.add(pair)
        singles = [e for e in edges if (e & pair).bit_count() == 1]
        if singles:
            ccands = vertices_of(_and_all(singles, full) & ~pair)
        else:
            ccands = _lowest_free(h.n, pair, 1)
        for cv in ccands:
            yield tuple(sorted((pv, qv, cv)))


def _hm_t_finish(h: Hypergraph, t: int, r: int, xv: int, xmask: int, e0: list[int]):
    """Fix apex and base (r - 1 labels other than the apex), then solve
    for the tail set."""
    xb = _bit(xv)
    demand = 0
    for e in e0:
        demand |= e & ~xmask
    bad = [e for e in h.edges if e & xb and not e & xmask]
    full = (1 << h.n) - 1
    if bad:
        if t > r - 1:
            return
        pool = _and_all(bad, full) & ~(xb | xmask)
        if demand & ~pool:
            return
    else:
        pool = full & ~(xb | xmask)
    # a pool short of tails yields a short tuple, which fits refuses
    fills = _lowest_free(h.n, full & ~(pool & ~demand), t - demand.bit_count())
    yield (xv, *vertices_of(xmask), *vertices_of(demand | mask_of(fills)))


def _embed_hm_t(h: Hypergraph, res: Resolved):
    t, r, n = res.k, h.r, h.n
    edges = h.edges
    full = (1 << n) - 1
    for xv in range(1, n + 1):
        xb = _bit(xv)
        e0 = [e for e in edges if not e & xb]
        if len(e0) > t:
            # Edges avoiding the apex are pairwise-distinct base+tail
            # sets, so there are at most t of them.
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
                # No small cover exists: some edges must carry the whole
                # tail, and the tail lies inside each of them.  Guess the
                # first such edge and the tail, then cover the rest.
                if t <= r - 1:
                    yield from _hm_t_star_residue(h, t, r, xv, links)
                continue
            xcands = [mc | mask_of(_lowest_free(n, xb | mc, r - 1 - mc.bit_count()))]
        for xmask in xcands:
            yield from _hm_t_finish(h, t, r, xv, xmask, e0)


def _hm_t_star_residue(h: Hypergraph, t: int, r: int, xv: int, links: list[int]):
    n = h.n
    xb = _bit(xv)
    for c0 in h.edges:
        for yverts in combinations(vertices_of(c0 & ~xb), t):
            ymask = mask_of(yverts)
            residue = [l for l in links if ymask & ~(l | xb)]
            sets2 = [l & ~ymask for l in residue]
            mc = mask_of(min_cover(SetFamily.from_masks(n, sets2)))
            if mc.bit_count() > r - 1:
                continue
            pads = _lowest_free(n, xb | ymask | mc, r - 1 - mc.bit_count())
            yield (xv, *vertices_of(mc | mask_of(pads)), *yverts)


def _embed_hm_dp(h: Hypergraph, res: Resolved):
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


def _dp_star(h: Hypergraph, xv: int):
    # All edges contain the apex.  A base vertex outside the support hits
    # nothing, so base and tail candidates may be confined to the support
    # of the links, with free labels as padding.
    r, n = h.r, h.n
    xb = _bit(xv)
    links = [e & ~xb for e in h.edges]
    sup = 0
    for l in links:
        sup |= l
    supverts = vertices_of(sup)
    for k in range(0, r - 1):
        for xhit in combinations(supverts, k):
            xh = mask_of(xhit)
            residue = [l for l in links if not l & xh]
            if not residue:
                xmask = xh | mask_of(_lowest_free(n, xb | xh, r - 2 - k))
                a, b, c, d = _lowest_free(n, xb | xmask, 4)
                yield _dp_roles(xv, xmask, _bit(a) | _bit(b), _bit(c) | _bit(d))
                continue
            for p1 in _two_cover_cands(residue, xb | xh, n):
                for p2 in _two_cover_cands(residue, xb | xh | p1, n):
                    pads = _lowest_free(n, xb | xh | p1 | p2, r - 2 - k)
                    yield _dp_roles(xv, xh | mask_of(pads), p1, p2)


def _dp_roles(xv: int, xmask: int, p1: int, p2: int) -> tuple[int, ...]:
    """Apex, base and the two tail pairs (the lesser pair first) in layout order."""
    pairs = sorted((vertices_of(p1), vertices_of(p2)))
    return (xv, *vertices_of(xmask), *pairs[0], *pairs[1])


# -- schema-driven backtracking (FP and the covering-pair patterns) ---------


def _schema_dfs(h: Hypergraph, res: Resolved, assigned: dict[int, int]):
    """Branch on the first edge that no fully-assigned generator explains,
    and yield each complete assignment (free labels fill the roles no
    generator needed) as a vertex tuple in layout order.  `assigned` maps
    role positions to vertices.

    Complete: a valid total assignment extending `assigned` explains that
    edge through some generator, whose unassigned roles then take values
    inside the edge; that extension is among the branches.
    """
    names, schemas = _slots(res)
    return _schema_rec(h.edges, h.n, len(names), schemas, set(), dict(assigned))


def _schema_satisfied(schemas, e: int, asg: dict[int, int]) -> bool:
    """Does some fully-assigned generator of the schemas lie inside e?"""
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


def _schema_rec(edges, n: int, width: int, schemas, memo: set, asg: dict[int, int]):
    """One node of ``_schema_dfs``; memo holds the assignments already
    searched.  A module-level generator, not a closure: a closure that
    calls itself is a reference cycle, which would keep the search state
    alive until the next full garbage collection."""
    key = tuple(sorted(asg.items()))
    if key in memo:
        return
    memo.add(key)
    pend = next((e for e in edges if not _schema_satisfied(schemas, e, asg)), None)
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
            yield from _schema_rec(edges, n, width, schemas, memo, nxt)


def _embed_fp(h: Hypergraph, res: Resolved):
    return _schema_dfs(h, res, {})


def _embed_pair(h: Hypergraph, res: Resolved):
    # The first two roles meet every generator (v1, v2 of the pair
    # patterns; apex and first base vertex of HM_T(3, t)), so they cover
    # H: anchor them on each covering pair, then branch.
    for pv, qv in _pair_anchor_cands(h):
        yield from _schema_dfs(h, res, {0: pv, 1: qv})


# -- public embedding dispatcher --------------------------------------------

# Resolved template name and whether H is a lift of it (its generators are
# 3-uniform while H is not) -> the anchored search for that template.
_SEARCHES = {
    ("EM", False): _embed_em,
    ("HM0", False): _embed_hm0,
    ("HM0", True): _embed_hm0,
    ("HM_T", False): _embed_hm_t,
    ("HM_T", True): _embed_pair,
    ("HM_DP", False): _embed_hm_dp,
    ("FP", False): _embed_fp,
    ("H3", False): _embed_pair,
    ("H3", True): _embed_pair,
}


def embed(
    h: Hypergraph, template: ConstructionId, params: ConstructionParams
) -> Embedding | None:
    """A complete containment test: is H a subfamily of the instantiated
    template on the same ground set?  Returns a witness or None.

    Raises ValueError when the ground set or uniformity disagree, and
    ConstructionError when the parameters name no valid instance.
    """
    cid = ConstructionId(template)
    if params.n != h.n or params.r != h.r:
        raise ValueError(
            f"template on n={params.n}, r={params.r} cannot host a family "
            f"on n={h.n}, r={h.r}"
        )
    res = _resolve(cid, params)
    if h.edges:
        candidates = _SEARCHES[res.template.name, res.r != h.r](h, res)
    else:
        candidates = [tuple(range(1, len(_slots(res)[0]) + 1))]
    for roles in filter(None, map(_witness_check(h, res), candidates)):
        return Embedding(template=cid, params=params, roles=tuple(sorted(roles.items())))
    return None


# -- classification ---------------------------------------------------------


def _first_fit(h: Hypergraph, rungs) -> Verdict:
    """The verdict of the first (kind, template, parameters) rung whose
    instance contains H, skipping parameters that name no instance on
    H's ground set; NONE when no rung fits."""
    for kind, cid, params in rungs:
        try:
            emb = embed(h, cid, params)
        except ConstructionError:
            continue
        if emb is not None:
            return Verdict(kind, t=params.t, i=params.i, embedding=emb)
    return Verdict(VerdictKind.NONE)


# one ladder per (n, r, tau): the classifiers run thousands of times on a
# few shapes, and rebuilding the parameter records would cost every call
@lru_cache(maxsize=256)
def _ladder(n: int, r: int, tau: int | None) -> tuple:
    """The (kind, template, parameters) rungs for r-uniform families on
    [n], in the paper's order: the star, then for r = 3 the six tail
    patterns by index, and for r >= 4 the tailed patterns with t
    ascending through r - 1 and then the all-tails value n - r, the
    triple pattern (r = 4 only) and the double-pair pattern.

    A cover number keeps the rungs that can hold such a family: the star
    when it is at most one, the rest otherwise (none for r < 3); None
    keeps the whole ladder.
    """
    rungs = [(VerdictKind.STAR, ConstructionId.EM, ConstructionParams(n, r, s=1))]
    if r == 3:
        rungs += [
            (VerdictKind.H3, ConstructionId.H3FAM, ConstructionParams(n, 3, i=i))
            for i in range(6)
        ]
    elif r >= 4:
        rungs += [
            (VerdictKind.HM_T, ConstructionId.HM_T, ConstructionParams(n, r, t=t))
            for t in dict.fromkeys([*range(1, r), n - r])
        ]
        if r == 4:
            rungs.append((VerdictKind.HM0, ConstructionId.HM0, ConstructionParams(n, r)))
        rungs.append((VerdictKind.HM_DP, ConstructionId.HM_DP, ConstructionParams(n, r)))
    if tau is None:
        return tuple(rungs)
    return tuple(rungs[:1] if tau <= 1 else rungs[1:])


def classify_3graph(h: Hypergraph) -> Verdict:
    """``classify`` for r = 3: the first containing template among the
    star and the six 3-uniform patterns.

    Intersecting families with cover number three or more are reported
    as such (they have at most ten edges); non-intersecting ones get NONE.
    """
    if h.r != 3:
        raise ValueError(f"classify_3graph needs r = 3, got r={h.r}")
    return classify(h)


def classify_rgraph(h: Hypergraph) -> Verdict:
    """The first containing template for r >= 4 families with cover
    number two or more, past the star on the ladder.  NONE is an allowed
    outcome here.
    """
    if h.r < 4:
        raise ValueError(f"classify_rgraph needs r >= 4, got r={h.r}")
    tau = cover_number(h)
    if tau < 2:
        raise ValueError("classify_rgraph needs cover number at least 2")
    return _first_fit(h, _ladder(h.n, h.r, tau))


def classify(h: Hypergraph) -> Verdict:
    """The verdict for any family: the one classification entry point.

    A family is tried on the ladder rungs for its cover number: the star
    when that is at most one (NONE when no star template fits the ground
    set), the six 3-uniform patterns when r = 3 and it is two.  Past that
    a family that is not intersecting is NONE, an intersecting 3-graph is
    TAU_GE_3 (it has at most ten edges), and r >= 4 goes on to the
    ladder.  Raises ValueError for an intersecting family with cover
    number two or more and r < 3.
    """
    tau = cover_number(h)
    if tau <= 1 or (h.r == 3 and tau == 2):
        return _first_fit(h, _ladder(h.n, h.r, tau))
    if not is_intersecting(h):
        return Verdict(VerdictKind.NONE)
    if h.r == 3:
        if len(h) > 10:
            raise AssertionError("intersecting 3-graph with tau >= 3 exceeding ten edges")
        return Verdict(VerdictKind.TAU_GE_3)
    if h.r < 3:
        raise ValueError(f"no templates for intersecting families with r={h.r} < 3")
    return _first_fit(h, _ladder(h.n, h.r, tau))


# -- decompositions ---------------------------------------------------------


def decompose_matching(
    h: Hypergraph, s: int
) -> tuple[tuple[int, ...] | None, Verdict]:
    """Peel s - 1 vertices so the rest is a star or a classified pattern.

    Candidate vertices are ranked by membership in the singleton kernel
    layer of the product-threshold scheme, then by degree, then by label;
    candidate sets are tried in the induced lexicographic order and the
    first success wins, which also settles ties by least Z.  The verdict
    describes the peeled family on its relabeled ground set (labels keep
    their relative order).
    """
    if s < 1:
        raise ValueError(f"matching bound must be positive, got s={s}")
    if s - 1 > h.n:
        raise ValueError(f"cannot peel {s - 1} vertices from a ground set of {h.n}")
    if pack_exists(h.edges, s + 1) is not None:
        raise ValueError("family has a larger matching than the stated bound")
    if s == 1:
        return ((), classify(h))
    decomp = b_kernel(h, paper_rs(s))
    b1 = {vertices_of(m)[0] for m in decomp.by_size.get(1, SetFamily.from_masks(h.n, ())).members}
    order = sorted(
        range(1, h.n + 1), key=lambda v: (v not in b1, -h.degree(v), v)
    )
    for zs in combinations(order, s - 1):
        h2 = delete_vertices(h, zs)
        v = classify(h2)
        if v.kind not in (VerdictKind.NONE, VerdictKind.TAU_GE_3):
            return (tuple(sorted(zs)), v)
    return (None, Verdict(VerdictKind.NONE))


def decompose_th4prime(h: Hypergraph) -> tuple[Hypergraph, int, Verdict]:
    """Kernel-reduce to a 3-uniform shadow, classify it, lift the verdict.

    Returns (retained family, number of edges removed, lifted verdict).
    The retained edges each contain a small kernel member; at small n the
    kernel can be all of H, leaving an empty residue, in which case the
    verdict describes the empty family.
    """
    if h.r < 4:
        raise ValueError(f"decompose_th4prime needs r >= 4, got r={h.r}")
    if not is_intersecting(h):
        raise ValueError("decompose_th4prime needs an intersecting family")
    tau = cover_number(h)
    if tau >= 3:
        raise ValueError("decompose_th4prime needs cover number at most 2")
    if tau <= 1:
        star = _first_fit(h, _ladder(h.n, h.r, tau))
        if star.kind is VerdictKind.NONE:
            raise ValueError(f"no star template on n={h.n}, r={h.r}: needs n >= r + 1")
        return (h, 0, star)
    decomp = b_kernel(h, paper_r())
    # h is intersecting with tau = 2, checked above
    hp, h3 = _reduce_to_3graph(h, decomp)
    removed = len(h) - len(hp)
    v3 = classify_3graph(h3)
    # the shadow's witness lifts as it stands: the star's center, or the
    # pattern's roles inside every r-set containing one of its triples
    if v3.kind is VerdictKind.STAR:
        lifted = ConstructionId.EM, ConstructionParams(h.n, h.r, s=1)
    elif v3.kind is VerdictKind.H3:
        lifted = ConstructionId.H3LIFT, ConstructionParams(h.n, h.r, i=v3.i)
    else:
        raise AssertionError("three-uniform shadow produced no liftable verdict")
    emb = Embedding(*lifted, v3.embedding.roles)
    if not embedding_is_valid(hp, emb):
        raise AssertionError(f"retained edges escape the lifted {v3.describe()} witness")
    return (hp, removed, Verdict(v3.kind, i=v3.i, embedding=emb))
