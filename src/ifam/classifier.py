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
role assignment when one exists.  The searches are exact but anchored:

* the apex candidate fixes the set of edges that avoid it, and those
  edges pin down the base set (two such edges intersect in exactly the
  base, one leaves r choices, none reduces to a covering problem);
* a triple template is anchored on a covering pair, since every edge
  meets two of the three special vertices;
* patterns built from a covering pair plus a bounded set of exceptional
  triples are resolved by branching on the first edge not yet explained,
  which keeps the search tree small without giving up completeness.

``classify_3graph`` and ``classify_rgraph`` run the containment tests in
a fixed documented order and report the first hit; ``classify`` is the one
entry point that picks between them for any family.  ``decompose_matching``
peels a small vertex set so that the rest of the family collapses onto a
single classified structure, and ``decompose_th4prime`` runs the kernel
reduction to a 3-uniform shadow, classifies the shadow, and lifts the
verdict back to the r-uniform family.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, permutations

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
from .kernel import b_kernel, paper_r, paper_rs, reduce_to_3graph

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


def _lowest_free(n: int, excluded: int, count: int) -> list[int] | None:
    """The `count` smallest labels outside `excluded`, or None if too few."""
    if count <= 0:
        return []
    out: list[int] = []
    for v in range(1, n + 1):
        if not excluded & _bit(v):
            out.append(v)
            if len(out) == count:
                return out
    return None


def _family(n: int, masks) -> SetFamily:
    return SetFamily.from_masks(n, masks)


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
    template's roles in layout order, if every edge of H is a member
    under it, else None.

    An edge of size r is a member exactly when it equals a generator of
    size r or contains a smaller one.  The generators are read once; each
    call only puts vertices on their roles.
    """
    edges = h.edges
    names, gens = _slots(res)

    def fits(vertices) -> dict[str, int] | None:
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


def _roles_fit(h: Hypergraph, res: Resolved, roles: dict[str, int]) -> bool:
    """Exactly the template's role names, on distinct labels of [n], with
    every edge of H a member of the instance."""
    names = _slots(res)[0]
    if set(roles) != set(names):
        return False
    values = list(roles.values())
    if len(set(values)) != len(values):
        return False
    if any(not 1 <= v <= h.n for v in values):
        return False
    return _witness_check(h, res)([roles[name] for name in names]) is not None


def embedding_is_valid(h: Hypergraph, emb: Embedding) -> bool:
    """Check an embedding witness edge by edge against the template's generators."""
    p = emb.params
    if p.n != h.n or p.r != h.r:
        return False
    try:
        res = _resolve(emb.template, p)
    except ConstructionError:
        return False
    return _roles_fit(h, res, emb.mapping)


# -- covering-pair candidates -----------------------------------------------


def _two_cover_cands(masks, forbidden: int, n: int):
    """Pairs {u, v} outside `forbidden` meeting every mask (complete).

    When some mask exists, one endpoint lies in the first mask, which
    anchors the enumeration; if no constraint pins the partner, the
    lexicographically least free vertex serves, since any choice works.
    """
    full = (1 << n) - 1
    if not masks:
        free = _lowest_free(n, forbidden, 2)
        if free:
            yield _bit(free[0]) | _bit(free[1])
        return
    seen = set()
    for u in vertices_of(masks[0] & ~forbidden):
        ub = _bit(u)
        miss = [m for m in masks if not m & ub]
        if miss:
            cands = vertices_of(_and_all(miss, full) & ~(forbidden | ub))
        else:
            free = _lowest_free(n, forbidden | ub, 1)
            cands = tuple(free) if free else ()
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
            if q == p:
                continue
            for pair in ((p, q), (q, p)):
                if pair not in seen:
                    seen.add(pair)
                    yield pair


# -- per-template searches --------------------------------------------------
#
# Each search takes a family with at least one edge, the resolved template
# and its ``fits`` check, and returns a full role assignment or None.  They
# all end with a ``fits`` pass over every edge, so a returned witness is
# sound by construction; the comments argue completeness.


def _embed_em(h: Hypergraph, res: Resolved, fits) -> dict[str, int] | None:
    # H fits iff the s centers can cover it, i.e. tau(H) <= s.
    s = res.k
    mc = min_cover(h)
    if len(mc) > s:
        return None
    excluded = mask_of(mc)
    pads = _lowest_free(h.n, excluded, s - len(mc))
    if pads is None:
        return None
    return dict(zip(res.roles, sorted(list(mc) + pads)))


def _embed_hm0(h: Hypergraph, res: Resolved, fits) -> dict[str, int] | None:
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
            free = _lowest_free(h.n, pair, 1)
            ccands = tuple(free) if free else ()
        for cv in ccands:
            got = fits(sorted((pv, qv, cv)))
            if got:
                return got
    return None


def _hm_t_finish(
    h: Hypergraph, t: int, r: int, xv: int, xmask: int, e0: list[int], fits
) -> dict[str, int] | None:
    """Fix apex and base, then solve for the tail set."""
    xb = _bit(xv)
    if xmask & xb or xmask.bit_count() != r - 1:
        return None
    demand = 0
    for e in e0:
        if xmask & ~e:
            return None
        demand |= e & ~xmask
    if demand.bit_count() > t or demand & xb:
        return None
    bad = [e for e in h.edges if e & xb and not e & xmask]
    full = (1 << h.n) - 1
    if bad:
        if t > r - 1:
            return None
        pool = _and_all(bad, full) & ~(xb | xmask)
        if demand & ~pool:
            return None
    else:
        pool = full & ~(xb | xmask)
    fills = _lowest_free(h.n, full & ~(pool & ~demand), t - demand.bit_count())
    if fills is None:
        return None
    return fits((xv, *vertices_of(xmask), *vertices_of(demand | mask_of(fills))))


def _embed_hm_t(h: Hypergraph, res: Resolved, fits) -> dict[str, int] | None:
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
            xcands = []
            links = [e & ~xb for e in edges]
            mc = min_cover(_family(n, links))
            if len(mc) <= r - 1:
                pads = _lowest_free(n, xb | mask_of(mc), r - 1 - len(mc))
                if pads is not None:
                    xcands = [mask_of(mc) | mask_of(pads)]
            if not xcands and t <= r - 1:
                # No small cover exists: some edges must carry the whole
                # tail, and the tail lies inside each of them.  Guess the
                # first such edge and the tail, then cover the rest.
                got = _hm_t_star_residue(h, t, r, xv, links, fits)
                if got:
                    return got
                continue
        for xmask in xcands:
            got = _hm_t_finish(h, t, r, xv, xmask, e0, fits)
            if got:
                return got
    return None


def _hm_t_star_residue(
    h: Hypergraph, t: int, r: int, xv: int, links: list[int], fits
) -> dict[str, int] | None:
    n = h.n
    xb = _bit(xv)
    full = (1 << n) - 1
    for c0 in h.edges:
        for yverts in combinations(vertices_of(c0 & ~xb), t):
            ymask = mask_of(yverts)
            residue = [l for l in links if ymask & ~(l | xb)]
            sets2 = [l & ~ymask for l in residue]
            if any(s == 0 for s in sets2):
                continue
            mc = min_cover(_family(n, sets2))
            if len(mc) > r - 1:
                continue
            pads = _lowest_free(n, xb | ymask | mask_of(mc), r - 1 - len(mc))
            if pads is None:
                continue
            got = fits((xv, *vertices_of(mask_of(mc) | mask_of(pads)), *yverts))
            if got:
                return got
    return None


def _embed_hm_dp(h: Hypergraph, res: Resolved, fits) -> dict[str, int] | None:
    r, n = h.r, h.n
    edges = h.edges
    for xv in range(1, n + 1):
        xb = _bit(xv)
        e0 = [e for e in edges if not e & xb]
        if len(e0) > 2:
            continue
        if len(e0) == 2:
            xmask = e0[0] & e0[1]
            if xmask.bit_count() != r - 2:
                continue
            got = _dp_try(xv, xmask, e0[0] & ~xmask, e0[1] & ~xmask, fits)
            if got:
                return got
        elif len(e0) == 1:
            for pairverts in combinations(vertices_of(e0[0]), 2):
                p1 = mask_of(pairverts)
                xmask = e0[0] & ~p1
                bad2 = [g for g in edges if g & xb and not g & xmask]
                if any(not g & p1 for g in bad2):
                    continue
                for p2 in _two_cover_cands(bad2, xb | xmask | p1, n):
                    got = _dp_try(xv, xmask, p1, p2, fits)
                    if got:
                        return got
        else:
            got = _dp_star(h, xv, fits)
            if got:
                return got
    return None


def _dp_star(h: Hypergraph, xv: int, fits) -> dict[str, int] | None:
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
                pads = _lowest_free(n, xb | xh, r - 2 - k)
                if pads is None:
                    continue
                xmask = xh | mask_of(pads)
                frees = _lowest_free(n, xb | xmask, 4)
                if frees is None:
                    continue
                got = _dp_try(
                    xv, xmask,
                    _bit(frees[0]) | _bit(frees[1]), _bit(frees[2]) | _bit(frees[3]),
                    fits,
                )
                if got:
                    return got
                continue
            for p1 in _two_cover_cands(residue, xb | xh, n):
                for p2 in _two_cover_cands(residue, xb | xh | p1, n):
                    pads = _lowest_free(n, xb | xh | p1 | p2, r - 2 - k)
                    if pads is None:
                        continue
                    got = _dp_try(xv, xh | mask_of(pads), p1, p2, fits)
                    if got:
                        return got
    return None


def _dp_try(xv: int, xmask: int, p1: int, p2: int, fits) -> dict[str, int] | None:
    if p1.bit_count() != 2 or p2.bit_count() != 2:
        return None
    if xmask & (p1 | p2) or p1 & p2 or _bit(xv) & (xmask | p1 | p2):
        return None
    pairs = sorted((vertices_of(p1), vertices_of(p2)))
    return fits((xv, *vertices_of(xmask), *pairs[0], *pairs[1]))


# -- schema-driven backtracking (FP and the pair-plus-extras patterns) ------


def _schema_dfs(
    h: Hypergraph,
    all_roles: tuple[str, ...],
    schemas: list[tuple[str, ...]],
    assigned: dict[str, int],
) -> dict[str, int] | None:
    """Branch on the first edge no fully-assigned schema explains.

    Complete: a valid total assignment extending `assigned` explains that
    edge through some schema, whose unassigned roles then take values
    inside the edge; that extension is among the branches.
    """
    edges = h.edges
    n = h.n
    memo: set[tuple] = set()

    def satisfied(e: int, asg: dict[str, int]) -> bool:
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

    def rec(asg: dict[str, int]) -> dict[str, int] | None:
        key = tuple(sorted(asg.items()))
        if key in memo:
            return None
        memo.add(key)
        pend = None
        for e in edges:
            if not satisfied(e, asg):
                pend = e
                break
        if pend is None:
            used = set(asg.values())
            fill = (v for v in range(1, n + 1) if v not in used)
            out = dict(asg)
            try:
                for role in all_roles:
                    if role not in out:
                        out[role] = next(fill)
            except StopIteration:
                return None
            return out
        used = set(asg.values())
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
                got = rec(nxt)
                if got:
                    return got
        return None

    return rec(dict(assigned))


def _embed_fp(h: Hypergraph, res: Resolved, fits) -> dict[str, int] | None:
    return _schema_dfs(h, res.roles, res.generators, {})


def _embed_h3_pair(h: Hypergraph, res: Resolved, fits) -> dict[str, int] | None:
    names, schemas = res.roles, res.generators
    for pv, qv in _pair_anchor_cands(h):
        got = _schema_dfs(h, names, schemas, {"v1": pv, "v2": qv})
        if got:
            return got
    return None


def _embed_h3_lift_tail(h: Hypergraph, res: Resolved, fits) -> dict[str, int] | None:
    # Lifted tailed pattern: edges avoiding the apex contain the (2-vertex)
    # base and meet the tail; edges missing the base contain apex and tail.
    t, n = res.k, h.n
    edges = h.edges
    full = (1 << n) - 1

    for xv in range(1, n + 1):
        xb = _bit(xv)
        e0 = [e for e in edges if not e & xb]
        if e0:
            inter = _and_all(e0, full)
            xcands = [mask_of(c) for c in combinations(vertices_of(inter), 2)]
            for xmask in xcands:
                bad = [e for e in edges if e & xb and not e & xmask]
                pool = (_and_all(bad, full) if bad else full) & ~(xb | xmask)
                e0m = [e & ~(xmask | xb) for e in e0]
                if any(m == 0 for m in e0m):
                    continue
                if t == 1:
                    for yv in vertices_of(_and_all(e0m, full) & pool):
                        got = fits((xv, *vertices_of(xmask), yv))
                        if got:
                            return got
                else:
                    forb = full & ~pool
                    for ymask in _two_cover_cands(e0m, forb, n):
                        got = fits((xv, *vertices_of(xmask), *vertices_of(ymask)))
                        if got:
                            return got
        else:
            links = [e & ~xb for e in edges]
            for xmask in _two_cover_cands(links, xb, n):
                frees = _lowest_free(n, xb | xmask, t)
                if frees is None:
                    continue
                got = fits((xv, *vertices_of(xmask), *frees))
                if got:
                    return got
            for c0 in edges:
                for yverts in combinations(vertices_of(c0 & ~xb), t):
                    ymask = mask_of(yverts)
                    residue = [l & ~ymask for l in links if ymask & ~l]
                    if any(s == 0 for s in residue):
                        continue
                    for xmask in _two_cover_cands(residue, xb | ymask, n):
                        got = fits((xv, *vertices_of(xmask), *yverts))
                        if got:
                            return got
    return None


# -- public embedding dispatcher --------------------------------------------

# Resolved template name and whether H is a lift of it (its generators are
# 3-uniform while H is not) -> the anchored search for that template.
_SEARCHES = {
    ("EM", False): _embed_em,
    ("HM0", False): _embed_hm0,
    ("HM0", True): _embed_hm0,
    ("HM_T", False): _embed_hm_t,
    ("HM_T", True): _embed_h3_lift_tail,
    ("HM_DP", False): _embed_hm_dp,
    ("FP", False): _embed_fp,
    ("H3", False): _embed_h3_pair,
    ("H3", True): _embed_h3_pair,
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
        search = _SEARCHES[res.template.name, res.r != h.r]
        roles = search(h, res, _witness_check(h, res))
    else:
        roles = res.layout
    if roles is None:
        return None
    if not _roles_fit(h, res, roles):
        raise AssertionError("search returned an unsound witness")
    return Embedding(template=cid, params=params, roles=tuple(sorted(roles.items())))


# -- classification ---------------------------------------------------------


def _star_verdict(h: Hypergraph) -> Verdict | None:
    try:
        emb = embed(h, ConstructionId.EM, ConstructionParams(h.n, h.r, s=1))
    except ConstructionError:
        return None
    if emb is None:
        return None
    return Verdict(VerdictKind.STAR, embedding=emb)


def classify_3graph(h: Hypergraph) -> Verdict:
    """First containing template among the six 3-uniform patterns.

    Order: star first, then the tail patterns by index.  Intersecting
    families with cover number three or more are reported as such (they
    have at most ten edges); non-intersecting ones get NONE.
    """
    if h.r != 3:
        raise ValueError(f"classify_3graph needs r = 3, got r={h.r}")
    tau = cover_number(h)
    if tau <= 1:
        star = _star_verdict(h)
        return star if star is not None else Verdict(VerdictKind.NONE)
    if tau == 2:
        for i in range(6):
            try:
                emb = embed(h, ConstructionId.H3FAM, ConstructionParams(h.n, 3, i=i))
            except ConstructionError:
                continue
            if emb is not None:
                return Verdict(VerdictKind.H3, i=i, embedding=emb)
    elif is_intersecting(h):
        if len(h) > 10:
            raise AssertionError("intersecting 3-graph with tau >= 3 exceeding ten edges")
        return Verdict(VerdictKind.TAU_GE_3)
    return Verdict(VerdictKind.NONE)


def classify_rgraph(h: Hypergraph) -> Verdict:
    """First containing template for r >= 4 families with cover number two.

    Order: tailed patterns with t ascending through r - 1 and then the
    all-tails value n - r, the triple pattern (r = 4 only), and the
    double-pair pattern.  NONE is an allowed outcome here.
    """
    if h.r < 4:
        raise ValueError(f"classify_rgraph needs r >= 4, got r={h.r}")
    if cover_number(h) < 2:
        raise ValueError("classify_rgraph needs cover number at least 2")
    seen = set()
    for t in [*range(1, h.r), h.n - h.r]:
        if t in seen:
            continue
        seen.add(t)
        try:
            emb = embed(h, ConstructionId.HM_T, ConstructionParams(h.n, h.r, t=t))
        except ConstructionError:
            continue
        if emb is not None:
            return Verdict(VerdictKind.HM_T, t=t, embedding=emb)
    if h.r == 4:
        try:
            emb = embed(h, ConstructionId.HM0, ConstructionParams(h.n, h.r))
        except ConstructionError:
            emb = None
        if emb is not None:
            return Verdict(VerdictKind.HM0, embedding=emb)
    try:
        emb = embed(h, ConstructionId.HM_DP, ConstructionParams(h.n, h.r))
    except ConstructionError:
        emb = None
    if emb is not None:
        return Verdict(VerdictKind.HM_DP, embedding=emb)
    return Verdict(VerdictKind.NONE)


def classify(h: Hypergraph) -> Verdict:
    """The verdict for any family: the one classification entry point.

    r = 3 goes to ``classify_3graph``.  Otherwise a family with cover
    number at most one is a star (or NONE when no star template fits the
    ground set), a family that is not intersecting is NONE, and r >= 4
    goes to ``classify_rgraph``.  Raises ValueError for an intersecting
    family with cover number two or more and r < 3.
    """
    if h.r == 3:
        return classify_3graph(h)
    if cover_number(h) <= 1:
        star = _star_verdict(h)
        return star if star is not None else Verdict(VerdictKind.NONE)
    if not is_intersecting(h):
        return Verdict(VerdictKind.NONE)
    if h.r >= 4:
        return classify_rgraph(h)
    raise ValueError(f"no templates for intersecting families with r={h.r} < 3")


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
    b1 = {vertices_of(m)[0] for m in decomp.by_size.get(1, _family(h.n, ())).members}
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
        star = _star_verdict(h)
        if star is None:
            raise ValueError(f"no star template on n={h.n}, r={h.r}: needs n >= r + 1")
        return (h, 0, star)
    decomp = b_kernel(h, paper_r())
    hp, h3 = reduce_to_3graph(h, decomp)
    removed = len(h) - len(hp)
    v3 = classify_3graph(h3)
    if v3.kind is VerdictKind.STAR:
        center = v3.embedding.mapping["x1"]
        emb = Embedding(
            ConstructionId.EM,
            ConstructionParams(h.n, h.r, s=1),
            (("x1", center),),
        )
        if not embedding_is_valid(hp, emb):
            raise AssertionError("retained edges escape the lifted star")
        return (hp, removed, Verdict(VerdictKind.STAR, embedding=emb))
    if v3.kind is VerdictKind.H3:
        emb = Embedding(
            ConstructionId.H3LIFT,
            ConstructionParams(h.n, h.r, i=v3.i),
            v3.embedding.roles,
        )
        if not embedding_is_valid(hp, emb):
            raise AssertionError("retained edges escape the lifted pattern")
        return (hp, removed, Verdict(VerdictKind.H3, i=v3.i, embedding=emb))
    raise AssertionError("three-uniform shadow produced no liftable verdict")
