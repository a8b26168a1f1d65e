"""Extremal intersecting-family constructions with canonical vertex layouts.

Every builder places its special vertices on the lowest labels, in the
order given by the layout table below; all remaining labels are
interchangeable filler.  ``special_vertices`` returns the role -> label
map that ``gen --layout`` prints.

======== ====================================================================
id       layout and edge rules
======== ====================================================================
EM       centers x1..xs = 1..s; edges: every r-set meeting {1..s}.
         (s = 1 is the full star.)
HM_T     apex x = 1; base X = x1..x_{r-1} = 2..r; tails y1..yt = r+1..r+t.
         Edges: (1) x and some xi both in e; (2) e = X + yj;
         (3) if 1 <= t <= r-1, every e containing {x, y1..yt}.
         t is restricted to {0} u {1..r-1} u {n-r}; t = 0 is an alias
         for HM0 (a genuinely different special-vertex pattern).
HM0      triple T = {1, 2, 3}; edges: every r-set containing at least
         two vertices of T.
HM_DP    apex x = 1; base X = x1..x_{r-2} = 2..r-1; tail pairs
         {y1, y1'} = {r, r+1} and {y2, y2'} = {r+2, r+3}.
         Edges: (1) x and some xi both in e; (2) x in e and e meets both
         tail pairs; (3) e = X + {y1, y1'} or e = X + {y2, y2'}.
FP       x = 1; Y = 2..r+1 with marked pair y1, y2 = 2, 3; Z = r+2..2r.
         Generators: all {x, y, z} with y in Y, z in Z; Y itself;
         {x, y1, y2}; Z + y1; Z + y2.  Edges: every r-set containing a
         generator.
H3FAM    3-uniform families, n >= 6, index i in 0..5:
         i = 0, 1, 2: HM0(n, 3) / HM_T(n, 3, t = i).
         i = 3: v1, v2 = 1, 2; Y = {3, 4, 5}; edges {v1, v2, w} for all
         w, plus the six triples with one of v1, v2 and two of Y.
         i = 4, 5: v1, v2 = 1, 2; z11, z11', z21, z21' = 3, 4, 5, 6;
         edges {v1, v2, w} for all w, plus six listed triples (two
         sharpness variants of the same pattern).
H3LIFT   every r-set containing an edge of H3FAM(n, i).
======== ====================================================================

Each template is one ``Template`` record in ``_TEMPLATES``: its parameter
constraints, its roles in layout order, its generators as tuples of role
names, and its closed-form size where one exists.  The records are the
single source for building (every r-set containing a generator),
membership checking (``classifier``), roles (``special_vertices``) and
validation.  ``size_formula`` returns the closed-form count where one
exists and is enumeration-backed (the size of the built edge set) for FP,
for HM_DP at r = 4, and for H3LIFT.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import comb
from typing import Any, Callable, NamedTuple

from .hypergraph import Hypergraph, mask_of

__all__ = [
    "ConstructionId",
    "ConstructionParams",
    "ConstructionError",
    "build_construction",
    "validate_construction_params",
    "size_formula",
    "special_vertices",
    "layout_table",
    "choose",
]


def choose(a: int, b: int) -> int:
    """Binomial coefficient with C(a, b) = 0 whenever b < 0 or a < b."""
    if b < 0 or a < b:
        return 0
    return comb(a, b)


class ConstructionId(str, Enum):
    EM = "EM"
    HM_T = "HM_T"
    HM0 = "HM0"
    HM_DP = "HM_DP"
    FP = "FP"
    H3FAM = "H3FAM"
    H3LIFT = "H3LIFT"


@dataclass(frozen=True)
class ConstructionParams:
    n: int
    r: int
    s: int | None = None
    t: int | None = None
    i: int | None = None


class ConstructionError(ValueError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConstructionError(message)


# -- closed-form sizes -------------------------------------------------------


def em_size(n: int, r: int, s: int) -> int:
    return choose(n, r) - choose(n - s, r)


def hm0_size(n: int, r: int) -> int:
    return 3 * choose(n - 3, r - 2) + choose(n - 3, r - 3)


def hm_t_size(n: int, r: int, t: int) -> int:
    if t == 0:
        return hm0_size(n, r)
    base = choose(n - 1, r - 1) - choose(n - r, r - 1)
    extra = t
    if t <= r - 1:
        extra += choose(n - r - t, r - 1 - t)
    return base + extra


def hm_dp_size(n: int, r: int) -> int:
    if r == 4:
        return len(build_construction(ConstructionId.HM_DP, ConstructionParams(n, r)))
    return (
        choose(n - 1, r - 1)
        - choose(n - r + 1, r - 1)
        + 4 * choose(n - r - 3, r - 3)
        + 4 * choose(n - r - 3, r - 4)
        + choose(n - r - 3, r - 5)
        + 2
    )


# -- the template records ---------------------------------------------------

Roles = tuple[str, ...]


@dataclass(frozen=True)
class Template:
    """One template: its constraints, roles, generators and size.

    ``rules(n, r, k)`` lists (holds, message) pairs, where k is the value
    of the extra parameter named ``param``; ``roles(r, k)`` lists the role
    names in canonical-label order (role j sits on label j);
    ``generators(r, k)`` lists the generator sets as tuples of role names;
    ``size(n, r, k)`` is the closed-form edge count where one exists.  The
    H3FAM and H3LIFT records carry rules only: their index names another
    record (see ``_resolve``).
    """

    name: str
    param: str | None
    rules: Callable[[int, int, Any], tuple[tuple[bool, str], ...]]
    roles: Callable[[int, Any], Roles] | None = None
    generators: Callable[[int, Any], list[Roles]] | None = None
    size: Callable[[int, int, Any], int] | None = None


def _names(prefix: str, count: int) -> Roles:
    return tuple(f"{prefix}{j}" for j in range(1, count + 1))


def _hm0_rules(n: int, r: int, _=None) -> tuple[tuple[bool, str], ...]:
    return (
        (r >= 3, f"HM0 needs r >= 3, got r={r}"),
        (n >= r + 1, f"HM0 needs n >= r + 1, got n={n}, r={r}"),
    )


def _hm_t_rules(n: int, r: int, t: int) -> tuple[tuple[bool, str], ...]:
    if t == 0:
        return _hm0_rules(n, r)
    return (
        (r >= 3, f"HM_T needs r >= 3, got r={r}"),
        (n >= 2 * r, f"HM_T needs n >= 2r, got n={n}, r={r}"),
        (1 <= t <= r - 1 or t == n - r,
         f"HM_T needs t in {{0}} u {{1..{r - 1}}} u {{{n - r}}}, got t={t}"),
    )


def _hm_t_gens(r: int, t: int) -> list[Roles]:
    xs, ys = _names("x", r - 1), _names("y", t)
    gens = [("x", x) for x in xs] + [(*xs, y) for y in ys]
    if t <= r - 1:
        gens.append(("x", *ys))
    return gens


def _hm_dp_gens(r: int, _) -> list[Roles]:
    xs = _names("x", r - 2)
    return (
        [("x", x) for x in xs]
        + [("x", a, b) for a in ("y1", "y1p") for b in ("y2", "y2p")]
        + [(*xs, "y1", "y1p"), (*xs, "y2", "y2p")]
    )


def _fp_gens(r: int, _) -> list[Roles]:
    ys, zs = _names("y", r), _names("z", r - 1)
    return (
        [("x", y, z) for y in ys for z in zs]
        + [ys, ("x", "y1", "y2"), (*zs, "y1"), (*zs, "y2")]
    )


# The six triples of the pair patterns H3(3), H3(4) and H3(5), by role.
_H3_TRIPLES: dict[int, list[Roles]] = {
    3: [(v, a, b) for v in ("v1", "v2") for a, b in combinations(("y1", "y2", "y3"), 2)],
    4: [("v1", "z11", "z11p"), ("v1", "z21", "z21p"), ("v2", "z11", "z21"),
        ("v2", "z11", "z21p"), ("v2", "z11p", "z21"), ("v2", "z11p", "z21p")],
    5: [("v1", "z11", "z11p"), ("v1", "z21", "z21p"), ("v1", "z11", "z21p"),
        ("v2", "z11", "z21p"), ("v2", "z11", "z21"), ("v2", "z11p", "z21p")],
}

_HM0 = Template(
    "HM0", None, _hm0_rules,
    roles=lambda r, _: ("x", "x1", "x2"),
    generators=lambda r, _: [("x", "x1"), ("x", "x2"), ("x1", "x2")],
    size=lambda n, r, _: hm0_size(n, r),
)
_HM_T = Template(
    "HM_T", "t", _hm_t_rules,
    roles=lambda r, t: ("x", *_names("x", r - 1), *_names("y", t)),
    generators=_hm_t_gens,
    size=hm_t_size,
)
_H3_PAIR = Template(
    "H3", "i", lambda n, r, i: (),
    roles=lambda r, i: ("v1", "v2", *(("y1", "y2", "y3") if i == 3
                                       else ("z11", "z11p", "z21", "z21p"))),
    generators=lambda r, i: [("v1", "v2"), *_H3_TRIPLES[i]],
    size=lambda n, r, i: n + 4,
)

_TEMPLATES: dict[ConstructionId, Template] = {
    ConstructionId.EM: Template(
        "EM", "s",
        lambda n, r, s: (
            (s >= 1, f"EM needs s >= 1, got s={s}"),
            (r >= 1, f"EM needs r >= 1, got r={r}"),
            (n >= r + s, f"EM needs n >= r + s, got n={n}, r={r}, s={s}"),
        ),
        roles=lambda r, s: _names("x", s),
        generators=lambda r, s: [(x,) for x in _names("x", s)],
        size=em_size,
    ),
    ConstructionId.HM_T: _HM_T,
    ConstructionId.HM0: _HM0,
    ConstructionId.HM_DP: Template(
        "HM_DP", None,
        lambda n, r, _: (
            (r >= 4, f"HM_DP needs r >= 4, got r={r}"),
            (n >= r + 4, f"HM_DP needs n >= r + 4, got n={n}, r={r}"),
        ),
        roles=lambda r, _: ("x", *_names("x", r - 2), "y1", "y1p", "y2", "y2p"),
        generators=_hm_dp_gens,
        size=lambda n, r, _: hm_dp_size(n, r),
    ),
    ConstructionId.FP: Template(
        "FP", None,
        lambda n, r, _: (
            (r >= 3, f"FP needs r >= 3, got r={r}"),
            (n >= 2 * r, f"FP needs n >= 2r, got n={n}, r={r}"),
        ),
        roles=lambda r, _: ("x", *_names("y", r), *_names("z", r - 1)),
        generators=_fp_gens,
    ),
    ConstructionId.H3FAM: Template(
        "H3FAM", "i",
        lambda n, r, i: (
            (r == 3, f"H3FAM is 3-uniform, got r={r}"),
            (0 <= i <= 5, f"H3FAM needs i in 0..5, got i={i}"),
            (n >= 6, f"H3FAM needs n >= 6, got n={n}"),
        ),
    ),
    ConstructionId.H3LIFT: Template(
        "H3LIFT", "i",
        lambda n, r, i: (
            (r >= 4, f"H3LIFT needs r >= 4, got r={r}"),
            (0 <= i <= 5, f"H3LIFT needs i in 0..5, got i={i}"),
            (n >= r + 1, f"H3LIFT needs n >= r + 1, got n={n}, r={r}"),
            (n >= 6, f"H3LIFT needs n >= 6, got n={n}"),
        ),
    ),
}


class Resolved(NamedTuple):
    """A construction instance after alias resolution.

    ``r`` is the uniformity of the record's generators: 3 for the H3
    patterns and their lifts, ``p.r`` otherwise.
    """

    template: Template
    r: int
    k: Any

    @property
    def roles(self) -> Roles:
        return self.template.roles(self.r, self.k)

    @property
    def generators(self) -> list[Roles]:
        return self.template.generators(self.r, self.k)

    @property
    def layout(self) -> dict[str, int]:
        """Role -> vertex label: role j sits on label j."""
        return {role: j for j, role in enumerate(self.roles, start=1)}


def _resolve(cid: ConstructionId, p: ConstructionParams) -> Resolved:
    """Validate (cid, p) and resolve the aliases once: HM_T with t = 0 is
    HM0; H3FAM and H3LIFT index i names HM0 (i = 0), HM_T(r = 3, t = i)
    (i = 1, 2) or the pair pattern {v1, v2} plus six triples (i = 3..5).

    Every public entry point that takes (cid, p) validates here, and
    only here.
    """
    rec = _TEMPLATES[ConstructionId(cid)]
    k = getattr(p, rec.param) if rec.param else None
    if rec.param and k is None:
        raise ConstructionError(f"{rec.name} needs parameter {rec.param}")
    for holds, message in rec.rules(p.n, p.r, k):
        _require(holds, message)
    r = p.r
    if rec.generators is None:
        rec, r = (_HM0 if k == 0 else _HM_T if k in (1, 2) else _H3_PAIR), 3
    if rec is _HM_T and k == 0:
        rec = _HM0
    return Resolved(rec, r, k)


def _build(res: Resolved, p: ConstructionParams) -> Hypergraph:
    label = res.layout
    edges = set()
    for gen in res.generators:
        g = mask_of(label[role] for role in gen)
        rest = [v for v in range(1, p.n + 1) if not g & (1 << (v - 1))]
        for c in combinations(rest, p.r - len(gen)):
            edges.add(g | mask_of(c))
    return Hypergraph.from_masks(p.n, p.r, edges)


# -- public entry points ----------------------------------------------------


def validate_construction_params(cid: ConstructionId, p: ConstructionParams) -> None:
    """Raise ConstructionError unless (cid, p) names a buildable instance.

    Checks the record's rules without materializing any edges, so callers
    can vet parameters for large n cheaply.
    """
    _resolve(cid, p)


def build_construction(cid: ConstructionId, p: ConstructionParams) -> Hypergraph:
    """Every r-set on [n] that contains one of the template's generators."""
    return _build(_resolve(cid, p), p)


def size_formula(cid: ConstructionId, p: ConstructionParams) -> int:
    res = _resolve(cid, p)
    if res.template.size is None or res.r != p.r:
        return len(_build(res, p))
    return res.template.size(p.n, p.r, res.k)


def special_vertices(cid: ConstructionId, p: ConstructionParams) -> dict[str, int]:
    """Role -> vertex label map for the canonical layout."""
    return _resolve(cid, p).layout


def layout_table() -> str:
    """The layout documentation block printed by the CLI."""
    doc = __doc__ or ""
    start = doc.index("========")
    end = doc.rindex("========") + len("========")
    return doc[start:end]
