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
  [n], and every edge contains a generator under that role map (it
  drops the edges that contain each generator in turn, and accepts when
  none is left).  The first accepted candidate is the witness, and
  ``embedding_is_valid`` runs the same check on a given role map.

A search never runs short of free labels to pad a candidate with:
``_resolve`` has checked the template's size rule before any search
runs, and ``fits`` refuses a short tuple on its length.

The searches are anchored:

* the apex candidate fixes the set of edges that avoid it, and those
  edges pin down the base set (two such edges intersect in exactly the
  base, one leaves r choices, none reduces to a covering problem).  At
  most k edges may avoid the apex (t for the tailed patterns, 2 for the
  double pair), so it lies in one of the first k + 1 edges: only their
  union is tried, ascending, or every label when there are k or fewer;
* a triple template is anchored on a covering pair, since every edge
  meets two of the three special vertices;
* the pair patterns and the lifted tailed patterns, whose first two
  roles meet every generator, are anchored on a covering pair as well
  and then branch on the first edge not yet explained, which keeps the
  search tree small without giving up completeness.  A child extends
  its parent's assignment, so the edges its parent explained stay
  explained and its scan resumes at its parent's pending edge.  The
  memo keeps an assignment's first visit, and any start at or before
  its first pending edge finds that edge, so the resumed scan branches
  as a full rescan would.

Classification is one ladder.  ``_ladder`` lists the (kind, template,
parameters) rungs in the paper's order, keeping those that can hold a
family of a given cover number, and ``_first_fit`` reports the first
rung whose instance contains the family.  ``classify`` is the one entry
to the ladder, for every r, and the one place the cover-number and
intersecting guards are written; ``classify_3graph`` and
``classify_rgraph`` are other names for it.  Every rung is an
intersecting template, so a family that is not intersecting fits none,
and a hit of ``decompose_matching`` (peel a few vertices so that the
rest fits a rung) proves its matching bound.  ``decompose_th4prime``,
the one guarded entry to the kernel reduction, classifies a 3-uniform
shadow and lifts the verdict back to the r-uniform family.  Each public
function refuses an h that is no ``Hypergraph`` with a TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from itertools import combinations, islice, permutations
from operator import and_, or_

from .constructions import (
    ConstructionError,
    ConstructionId,
    ConstructionParams,
    Resolved,
    _need_params,
    _resolve,
)
from .hypergraph import (
    Hypergraph,
    _common,
    _cover_exists,
    _greedy_packing,
    _incidence_rows,
    _min_cover_mask,
    _need,
    _rows_intersect,
    _two_cover,
    delete_vertices,
    is_intersecting,
    mask_of,
    pack_exists,
    vertices_of,
)
from .kernel import _b_kernel, _reduce_to_3graph, paper_r

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


def _lowest_free(n: int, excluded: int, count: int) -> list[int]:
    """The `count` smallest labels outside `excluded`, fewer if [n] runs out."""
    return list(islice((v for v in range(1, n + 1) if not excluded & _bit(v)), count))


# -- template membership ----------------------------------------------------


def _witness_check(h: Hypergraph, res: Resolved):
    """``fits(vertices)``: the role map that puts the vertices on the
    template's roles in layout order, if they are distinct labels of [n]
    and every edge of H is a member under it, else None.

    This is the one certificate for a witness, which ``embed`` and
    ``embedding_is_valid`` both run.  An edge is a member exactly when it
    contains a generator; the role table comes with the resolved
    instance, each generator as the positions of its roles in layout
    order, and each call only puts vertices on them.  An edge e contains
    the generator's mask m when e & m == m: the test builds no
    complement ~e, a throwaway int as wide as [n] for every edge.
    """
    edges, n = h.edges, h.n
    names, gens = res.names, res.gens
    size = len(names)

    def fits(vertices) -> dict[str, int] | None:
        if len(vertices) != size or len(set(vertices)) != size:
            return None
        if min(vertices) < 1 or max(vertices) > n:
            return None
        bits = [1 << (v - 1) for v in vertices]
        rest = edges
        for gen in gens:
            m = 0
            for j in gen:
                m |= bits[j]
            rest = [e for e in rest if e & m != m]
        return None if rest else dict(zip(names, vertices))

    return fits


def embedding_is_valid(h: Hypergraph, emb: Embedding) -> bool:
    """Check an embedding witness edge by edge against the template's
    generators.  An emb that is no Embedding, or one whose params are no
    ConstructionParams, is refused with a TypeError."""
    _need(h, Hypergraph, "h")
    _need(emb, Embedding, "emb")
    p = emb.params
    _need_params(p)
    if p.n != h.n or p.r != h.r:
        return False
    try:
        res = _resolve(emb.template, p)
    except ConstructionError:
        return False
    roles = emb.mapping
    if set(roles) != set(res.names):
        return False
    return _witness_check(h, res)([roles[name] for name in res.names]) is not None


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
            cands = vertices_of(reduce(and_, miss, full) & ~(forbidden | ub))
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
            qcands = vertices_of(reduce(and_, miss, full))
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
    # H fits iff the s centers cover it (tau(H) <= s): no search past s
    s = res.k
    mc = _min_cover_mask(h.edges, s)
    if mc is not None:
        yield vertices_of(mc | mask_of(_lowest_free(h.n, mc, s - mc.bit_count())))


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
            ccands = vertices_of(reduce(and_, singles, full) & ~pair)
        else:
            ccands = _lowest_free(h.n, pair, 1)
        for cv in ccands:
            yield tuple(sorted((pv, qv, cv)))


def _apex_cands(edges, k: int, n: int):
    """The apex candidates when at most k edges may avoid the apex: the
    union of the first k + 1 edges, ascending (a label outside it avoids
    all of them), or all of [n] when there are k edges or fewer."""
    return range(1, n + 1) if len(edges) <= k else vertices_of(reduce(or_, edges[: k + 1]))


def _hm_t_finish(h: Hypergraph, t: int, r: int, xv: int, xmask: int, e0: list[int]):
    """Fix apex and base (r - 1 labels other than the apex), then solve
    for the tail set."""
    xb = _bit(xv)
    demand = reduce(or_, e0, 0) & ~xmask
    bad = [e for e in h.edges if e & xb and not e & xmask]
    full = (1 << h.n) - 1
    if bad:
        if t > r - 1:
            return
        pool = reduce(and_, bad, full) & ~(xb | xmask)
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
    for xv in _apex_cands(edges, t, n):
        xb = _bit(xv)
        e0 = [e for e in edges if not e & xb]
        if len(e0) > t:
            # Edges avoiding the apex are pairwise-distinct base+tail
            # sets, so there are at most t of them.
            continue
        if len(e0) >= 2:
            inter = reduce(and_, e0)
            if inter.bit_count() != r - 1:
                continue
            xcands = [inter]
        elif len(e0) == 1:
            xcands = [e0[0] & ~_bit(v) for v in vertices_of(e0[0])]
        else:
            # every edge holds the apex, so the links are sorted and distinct
            links = [e & ~xb for e in edges]
            mc = _min_cover_mask(links, r - 1)
            if mc is None:
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
    # each tail set once, in order of first meeting: a repeat proposes the same roles
    tails = dict.fromkeys(mask_of(y) for l in links for y in combinations(vertices_of(l), t))
    for ymask in tails:
        residue = [l for l in links if ymask & ~(l | xb)]
        mc = _min_cover_mask(sorted({l & ~ymask for l in residue}), r - 1)
        if mc is None:
            continue
        pads = _lowest_free(n, xb | ymask | mc, r - 1 - mc.bit_count())
        yield (xv, *vertices_of(mc | mask_of(pads)), *vertices_of(ymask))


def _embed_hm_dp(h: Hypergraph, res: Resolved):
    r, n = h.r, h.n
    edges = h.edges
    for xv in _apex_cands(edges, 2, n):
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
    supverts = vertices_of(reduce(or_, links, 0))
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


def _schema_dfs(h: Hypergraph, res: Resolved, assigned=()):
    """Branch on the first edge that no fully-assigned generator explains,
    and yield each complete assignment (free labels fill the roles no
    generator needed) as a vertex tuple in layout order.  The generators
    are ``res.gens``, role positions in ``res.names``; `assigned` holds
    (position, vertex) pairs fixed in advance, none for FP.

    Complete: a valid total assignment extending `assigned` explains that
    edge through some generator, whose unassigned roles then take values
    inside the edge; that extension is among the branches.
    """
    asg = tuple(map(dict(assigned).get, range(len(res.names))))
    return _schema_rec(h.edges, h.n, res.gens, set(), asg, 0)


def _schema_rec(edges, n: int, schemas, memo: set, asg: tuple, start: int):
    """One node of ``_schema_dfs``: `asg` holds a vertex or None per role
    position, `start` the parent's pending edge, and memo the assignments
    already searched.  A module-level generator, not a closure: a closure
    that calls itself is a reference cycle, which would keep the search
    state alive until the next full garbage collection.

    A generator's mask m explains the edge e when e & m == m, and a
    role's one vertex lies in e when their AND is nonzero: both tests
    read e as it is, with no complement built per edge."""
    if asg in memo:
        return
    memo.add(asg)
    # an unassigned role's bit is -1, so a generator holding one ORs to -1
    bits = [1 << (v - 1) if v else -1 for v in asg]
    done = []
    for gen in schemas:
        m = 0
        for j in gen:
            m |= bits[j]
        if m >= 0:
            done.append(m)
    for start in range(start, len(edges)):
        pend = edges[start]
        if all(pend & m != m for m in done):
            break
    else:
        fill = (v for v in range(1, n + 1) if v not in asg)
        yield tuple([v or next(fill) for v in asg])
        return
    everts = [v for v in vertices_of(pend) if v not in asg]
    for schema in schemas:
        unassigned = []
        for j in schema:
            if bits[j] < 0:
                unassigned.append(j)
            elif not pend & bits[j]:
                break
        else:
            # each such generator has a role left; too few labels permute to nothing
            for combo in permutations(everts, len(unassigned)):
                nxt = list(asg)
                for j, v in zip(unassigned, combo):
                    nxt[j] = v
                yield from _schema_rec(edges, n, schemas, memo, tuple(nxt), start)


def _embed_pair(h: Hypergraph, res: Resolved):
    # The first two roles meet every generator (v1, v2 of the pair
    # patterns; apex and first base vertex of HM_T(3, t)), so they cover
    # H: anchor them on each covering pair, then branch.
    for pv, qv in _pair_anchor_cands(h):
        yield from _schema_dfs(h, res, ((0, pv), (1, qv)))


# -- public embedding dispatcher --------------------------------------------

# Resolved template name and whether it is lifted (its generators are
# 3-uniform while H is not) -> the anchored search for that template.
_SEARCHES = {
    ("EM", False): _embed_em,
    ("HM0", False): _embed_hm0,
    ("HM0", True): _embed_hm0,
    ("HM_T", False): _embed_hm_t,
    ("HM_T", True): _embed_pair,
    ("HM_DP", False): _embed_hm_dp,
    ("FP", False): _schema_dfs,
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
    _need(h, Hypergraph, "h")
    _need_params(params)
    cid = ConstructionId(template)
    if params.n != h.n or params.r != h.r:
        raise ValueError(
            f"template on n={params.n}, r={params.r} cannot host a family "
            f"on n={h.n}, r={h.r}"
        )
    res = _resolve(cid, params)
    if h.edges:
        candidates = _SEARCHES[res.template.name, res.lifted](h, res)
    else:
        candidates = [tuple(range(1, len(res.names) + 1))]
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
    when it is at most one, the rest when it is two (none for r < 3), and
    none from three on, as every template past the star has a two-vertex
    cover; None keeps the whole ladder.
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
    return tuple(rungs[:1] if tau <= 1 else rungs[1:] if tau == 2 else ())


def classify(h: Hypergraph) -> Verdict:
    """The verdict for any family: the one classification entry point.

    A family is tried on the ladder rungs for its cover number: the star
    when that is at most one (NONE when no star template fits the ground
    set), the six 3-uniform patterns when r = 3 and it is two, and the
    templates past the star when r >= 4 (none from three on).  Only those
    three cases are told apart, and with no unbounded cover search: tau
    is at most one when the family has no edge or its edges share a
    vertex (a nonzero AND), else it is two exactly when the bounded
    search ``_cover_exists`` finds a cover of two vertices.  Every rung
    is an intersecting template, so a family that is not intersecting
    fits none and gets NONE from the ladder: no r >= 4 family needs a
    proof that it is intersecting.  An r <= 3 family past its rungs
    does, as the proof tells its answers apart: NONE when it is not
    intersecting, else TAU_GE_3 for r = 3 (at most ten edges) and a
    ValueError for r < 3.
    """
    _need(h, Hypergraph, "h")
    v = _verdict(h)
    if v is None:
        raise ValueError(f"no templates for intersecting families with r={h.r} < 3")
    return v


def _verdict(h: Hypergraph) -> Verdict | None:
    """classify(h), or None for an intersecting r <= 2 family past the
    star, which classify refuses and ``decompose_matching`` counts as a
    miss."""
    if _common(h.edges):
        tau = 1
    else:
        tau = 2 if _cover_exists(h.edges, 2) is not None else 3
    if tau <= 1 or h.r >= 4 or (h.r == 3 and tau == 2):
        return _first_fit(h, _ladder(h.n, h.r, tau))
    if not is_intersecting(h):
        return Verdict(VerdictKind.NONE)
    if h.r == 3:
        if len(h) > 10:
            raise AssertionError("intersecting 3-graph with tau >= 3 exceeding ten edges")
        return Verdict(VerdictKind.TAU_GE_3)
    return None


# kept for the callers outside the library that use these names
classify_3graph = classify_rgraph = classify


# -- decompositions ---------------------------------------------------------


def decompose_matching(
    h: Hypergraph, s: int
) -> tuple[tuple[int, ...] | None, Verdict]:
    """Peel s - 1 vertices so the rest is a star or a classified pattern.

    Candidate vertices are ranked by degree, highest first, then by
    label; the (s - 1)-sets are tried in the induced lexicographic order
    and the first success wins.  The verdict describes the peeled family
    on its relabeled ground set (labels keep their relative order).  An
    s that is no int, a bool included, is refused with a TypeError, and
    a family with s + 1 pairwise disjoint edges with a ValueError.  A hit
    proves nu <= s (Frankl's transversal argument): H - Z fits a rung, an
    intersecting template, so it holds one edge of a matching at most,
    and Z meets s - 1 more at most.  So before peeling only a first-fit
    matching is tried, and the exact search runs only when no Z works.
    For r <= 2 the star is the one rung, so a Z that leaves a family
    with no common vertex, a triangle included, is a miss like any other
    (and at s = 1, an intersecting triangle gets NONE).
    """
    _need(h, Hypergraph, "h")
    if isinstance(s, bool) or not isinstance(s, int):
        raise TypeError(f"s must be an int, got {s!r}")
    if s < 1:
        raise ValueError(f"matching bound must be positive, got s={s}")
    if s - 1 > h.n:
        raise ValueError(f"cannot peel {s - 1} vertices from a ground set of {h.n}")
    if s == 1 and is_intersecting(h):
        v = _verdict(h)
        return ((), Verdict(VerdictKind.NONE) if v is None else v)
    if s > 1 and len(_greedy_packing(h.edges)) <= s:
        order = sorted(range(1, h.n + 1), key=lambda v: (-h.degree(v), v))
        for zs in combinations(order, s - 1):
            v = _verdict(delete_vertices(h, zs))
            if v is not None and v.kind not in (VerdictKind.NONE, VerdictKind.TAU_GE_3):
                return (tuple(sorted(zs)), v)
        if pack_exists(h.edges, s + 1) is None:
            return (None, Verdict(VerdictKind.NONE))
    raise ValueError("family has a larger matching than the stated bound")


def decompose_th4prime(h: Hypergraph) -> tuple[Hypergraph, int, Verdict]:
    """Kernel-reduce to a 3-uniform shadow, classify it, lift the verdict.

    Returns (retained family, number of edges removed, lifted verdict).
    The retained edges each contain a small kernel member; at small n the
    kernel can be all of H, leaving an empty residue, in which case the
    verdict describes the empty family.  When no edge is removed, the
    retained family is h itself.

    The incidence rows are built once, by the proof that h is
    intersecting, and tau <= 2 is read from them (``_two_cover``); the
    kernel, told that h is intersecting, takes its cores from the covers
    on them, B'' and the reduction read them too, and the reduction
    takes its kept edges and triples from the carriers of the layer-2
    and layer-3 members instead of scanning the edges.  A common vertex
    proves h intersecting with cover number 1 (0 with no edges), and
    that path builds no rows and runs no cover search.  The AND that
    looks for it (``_common``) reads a sample of every 64th edge first
    and stops there when the sample has no common vertex.
    """
    _need(h, Hypergraph, "h")
    if h.r < 4:
        raise ValueError(f"decompose_th4prime needs r >= 4, got r={h.r}")
    if _common(h.edges):
        # classify offers the star rung alone for every tau <= 1
        star = classify(h)
        if star.kind is VerdictKind.NONE:
            raise ValueError(f"no star template on n={h.n}, r={h.r}: needs n >= r + 1")
        return (h, 0, star)
    rows = _incidence_rows(h.edges)
    if not _rows_intersect(h.edges, rows):
        raise ValueError("decompose_th4prime needs an intersecting family")
    if not _two_cover(h.edges, rows):
        raise ValueError("decompose_th4prime needs cover number at most 2")
    decomp = _b_kernel(h, paper_r(), rows, intersecting=True)
    # h is intersecting with tau = 2, checked above
    hp, h3 = _reduce_to_3graph(h, decomp, rows)
    removed = len(h) - len(hp)
    v3 = classify(h3)
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
