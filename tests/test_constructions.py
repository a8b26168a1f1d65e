"""Construction builders versus closed-form sizes and cover/matching facts.

Every closed form is re-derived here as an explicit binomial expression and
checked against the literal size of the generated edge list, so the formula
and the generator act as oracles for each other.
"""

from __future__ import annotations

import hashlib
import re
from itertools import combinations
from math import comb

import pytest

from ifam.constructions import (
    ConstructionError,
    ConstructionId,
    ConstructionParams,
    _resolve,
    build_construction,
    em_size,
    fp_size,
    hm0_size,
    hm_dp_size,
    hm_t_size,
    layout_table,
    size_formula,
    special_vertices,
)
from ifam.hypergraph import (
    Hypergraph,
    cover_number,
    is_intersecting,
    mask_of,
    matching_number,
)
from ifam.verify import _counts_grid


def build(cid, n, r, **kw):
    return build_construction(cid, ConstructionParams(n=n, r=r, **kw))


# -- sizes against explicit binomial expressions ----------------------------


def test_em_size_formula():
    for n, r, s in [(9, 3, 1), (10, 3, 2), (12, 3, 3), (11, 4, 2), (14, 5, 2)]:
        h = build(ConstructionId.EM, n, r, s=s)
        assert len(h) == comb(n, r) - comb(n - s, r) == em_size(n, r, s)


def test_em_spot_value():
    assert em_size(10, 3, 2) == 64
    assert len(build(ConstructionId.EM, 10, 3, s=2)) == 64


def test_hm0_size_formula():
    for n, r in [(6, 3), (9, 3), (9, 4), (12, 5)]:
        h = build(ConstructionId.HM0, n, r)
        assert len(h) == 3 * comb(n - 3, r - 2) + comb(n - 3, r - 3) == hm0_size(n, r)


def test_hm0_spot_value():
    # ten triples on six points
    assert hm0_size(6, 3) == 10
    assert len(build(ConstructionId.HM0, 6, 3)) == 10


def test_hm_t_size_formula():
    for n, r, t in [(9, 4, 1), (10, 4, 2), (10, 4, 3), (12, 5, 2), (9, 3, 1), (10, 3, 7)]:
        h = build(ConstructionId.HM_T, n, r, t=t)
        expected = comb(n - 1, r - 1) - comb(n - r, r - 1) + t
        if t <= r - 1:
            expected += comb(n - r - t, r - 1 - t)
        assert len(h) == expected == hm_t_size(n, r, t)


def test_hm_t_one_matches_classic_form():
    # t = 1 collapses to C(n-1, r-1) - C(n-r-1, r-1) + 1
    for n, r in [(9, 4), (12, 4), (11, 5)]:
        assert hm_t_size(n, r, 1) == comb(n - 1, r - 1) - comb(n - r - 1, r - 1) + 1
    assert hm_t_size(9, 4, 1) == 53


def test_hm_t_two_spot_value():
    assert hm_t_size(10, 4, 2) == 70


def test_hm_t_zero_aliases_triangle_base():
    assert build(ConstructionId.HM_T, 9, 4, t=0) == build(ConstructionId.HM0, 9, 4)


def test_hm_t_strictly_decreasing_in_t():
    for n, r in [(16, 4), (20, 5)]:
        sizes = [hm_t_size(n, r, t) for t in range(1, r)]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_hm_dp_size_formula():
    # r = 4 included: the closed form covers it, its last binomial being 0
    for n, r in [*((n, 4) for n in range(8, 18)), (12, 5), (13, 5), (14, 6)]:
        h = build(ConstructionId.HM_DP, n, r)
        expected = (
            comb(n - 1, r - 1)
            - comb(n - r + 1, r - 1)
            + 4 * comb(n - r - 3, r - 3)
            + 4 * comb(n - r - 3, r - 4)
            + (comb(n - r - 3, r - 5) if r >= 5 else 0)
            + 2
        )
        assert len(h) == expected == hm_dp_size(n, r)


def test_hm_dp_spot_value():
    assert hm_dp_size(12, 5) == 303


def test_hm_dp_r4_counts_by_enumeration():
    for n in [8, 9, 12]:
        h = build(ConstructionId.HM_DP, n, 4)
        assert hm_dp_size(n, 4) == len(h)
        assert size_formula(ConstructionId.HM_DP, ConstructionParams(n=n, r=4)) == len(h)


def test_fp_edge_count_r3():
    # with r = 3 every generator already has three vertices
    h = build(ConstructionId.FP, 12, 3)
    assert len(h) == 10
    h6 = build(ConstructionId.FP, 6, 3)
    assert len(h6) == 10


def test_fp_size_formula():
    for r in range(3, 7):
        for n in range(2 * r, 21):
            assert fp_size(n, r) == len(build(ConstructionId.FP, n, r)), (n, r)


def test_size_formula_builds_no_fp(monkeypatch):
    import ifam.constructions

    def refuse(*args):
        raise AssertionError("size_formula built the family")

    monkeypatch.setattr(ifam.constructions, "_build", refuse)
    assert size_formula(ConstructionId.FP, ConstructionParams(n=12, r=3)) == 10
    assert size_formula(ConstructionId.FP, ConstructionParams(n=20, r=6)) == fp_size(20, 6)


def test_h3fam_sizes():
    for i in (3, 4, 5):
        for n in (6, 8, 11):
            h = build(ConstructionId.H3FAM, n, 3, i=i)
            assert len(h) == n + 4
            assert size_formula(ConstructionId.H3FAM, ConstructionParams(n=n, r=3, i=i)) == n + 4
    assert len(build(ConstructionId.H3FAM, 8, 3, i=1)) == 3 * 8 - 8
    assert len(build(ConstructionId.H3FAM, 6, 3, i=2)) == 10


def test_h3fam_spot_value():
    assert len(build(ConstructionId.H3FAM, 8, 3, i=3)) == 12


def test_size_formula_matches_builders_everywhere():
    cases = []
    for n in range(6, 13):
        cases.append((ConstructionId.EM, ConstructionParams(n=n, r=3, s=2)))
        cases.append((ConstructionId.HM0, ConstructionParams(n=n, r=4)))
        if n >= 8:
            cases.append((ConstructionId.HM_T, ConstructionParams(n=n, r=4, t=2)))
            cases.append((ConstructionId.HM_DP, ConstructionParams(n=n, r=4)))
            cases.append((ConstructionId.FP, ConstructionParams(n=n, r=4)))
        for i in range(6):
            cases.append((ConstructionId.H3FAM, ConstructionParams(n=n, r=3, i=i)))
        if n >= 7:
            for i in range(6):
                cases.append((ConstructionId.H3LIFT, ConstructionParams(n=n, r=4, i=i)))
    for cid, p in cases:
        assert size_formula(cid, p) == len(build_construction(cid, p)), (cid, p)


# -- intersecting / cover / matching structure ------------------------------


def test_all_star_free_constructions_are_intersecting():
    families = [
        build(ConstructionId.EM, 10, 3, s=1),
        build(ConstructionId.HM0, 8, 3),
        build(ConstructionId.HM_T, 9, 4, t=2),
        build(ConstructionId.HM_T, 10, 4, t=6),
        build(ConstructionId.HM_DP, 9, 4),
        build(ConstructionId.HM_DP, 12, 5),
        build(ConstructionId.FP, 8, 3),
        build(ConstructionId.FP, 10, 4),
    ]
    families += [build(ConstructionId.H3FAM, 8, 3, i=i) for i in range(6)]
    families += [build(ConstructionId.H3LIFT, 9, 4, i=i) for i in range(6)]
    for h in families:
        assert is_intersecting(h), h
        assert matching_number(h) == 1


def test_em_matching_and_cover_equal_s():
    for n, r, s in [(9, 3, 2), (12, 3, 3), (12, 4, 2), (15, 3, 4)]:
        h = build(ConstructionId.EM, n, r, s=s)
        assert matching_number(h) == s
        assert cover_number(h) == s
        assert not is_intersecting(h)


def test_cover_number_two_families():
    assert cover_number(build(ConstructionId.HM0, 8, 3)) == 2
    assert cover_number(build(ConstructionId.HM_T, 9, 4, t=1)) == 2
    assert cover_number(build(ConstructionId.HM_T, 9, 4, t=3)) == 2
    assert cover_number(build(ConstructionId.HM_DP, 9, 4)) == 2
    for i in range(6):
        assert cover_number(build(ConstructionId.H3FAM, 7, 3, i=i)) == 2
        assert cover_number(build(ConstructionId.H3LIFT, 8, 4, i=i)) == 2


def test_fp_cover_number_three():
    for n, r in [(6, 3), (8, 3), (8, 4), (10, 5)]:
        assert cover_number(build(ConstructionId.FP, n, r)) == 3


def test_fp_r3_is_exactly_its_generators():
    h = build(ConstructionId.FP, 9, 3)
    sv = special_vertices(ConstructionId.FP, ConstructionParams(n=9, r=3))
    x = sv["x"]
    ys = [v for k, v in sv.items() if k.startswith("y")]
    zs = [v for k, v in sv.items() if k.startswith("z")]
    assert mask_of(ys) in h
    assert all(mask_of([x, y, z]) in h for y in ys for z in zs)


# -- special vertex layouts -------------------------------------------------


def test_special_vertices_hm_t():
    sv = special_vertices(ConstructionId.HM_T, ConstructionParams(n=10, r=4, t=2))
    assert sv["x"] == 1
    assert [sv[f"x{i}"] for i in range(1, 4)] == [2, 3, 4]
    assert [sv[f"y{j}"] for j in range(1, 3)] == [5, 6]


def test_special_vertices_hm_dp():
    sv = special_vertices(ConstructionId.HM_DP, ConstructionParams(n=12, r=5))
    assert sv["x"] == 1
    assert sv["y1"] == 5 and sv["y1p"] == 6
    assert sv["y2"] == 7 and sv["y2p"] == 8


def test_special_vertices_consistent_with_edges():
    # every special vertex really appears in the built family's support
    cases = [
        (ConstructionId.EM, ConstructionParams(n=9, r=3, s=2)),
        (ConstructionId.HM0, ConstructionParams(n=8, r=3)),
        (ConstructionId.HM_T, ConstructionParams(n=9, r=4, t=1)),
        (ConstructionId.HM_DP, ConstructionParams(n=9, r=4)),
        (ConstructionId.FP, ConstructionParams(n=8, r=3)),
        (ConstructionId.H3FAM, ConstructionParams(n=7, r=3, i=4)),
    ]
    for cid, p in cases:
        h = build_construction(cid, p)
        support = set(h.support())
        for role, v in special_vertices(cid, p).items():
            assert v in support, (cid, role)


# -- parameter validation ---------------------------------------------------


def test_parameter_validation():
    with pytest.raises(ConstructionError):
        build(ConstructionId.EM, 5, 3, s=0)
    with pytest.raises(ConstructionError):
        build(ConstructionId.EM, 5, 3, s=3)  # n < r + s
    with pytest.raises(ConstructionError):
        build(ConstructionId.HM_T, 7, 4, t=2)  # n < 2r
    with pytest.raises(ConstructionError):
        build(ConstructionId.HM_T, 12, 4, t=5)  # t outside 0..r-1 and n-r
    with pytest.raises(ConstructionError):
        build(ConstructionId.HM0, 4, 4)  # n < r + 1
    with pytest.raises(ConstructionError):
        build(ConstructionId.HM_DP, 7, 4)  # n < r + 4
    with pytest.raises(ConstructionError):
        build(ConstructionId.HM_DP, 10, 3)  # r < 4
    with pytest.raises(ConstructionError):
        build(ConstructionId.FP, 5, 3)  # n < 2r
    with pytest.raises(ConstructionError):
        build(ConstructionId.H3FAM, 5, 3, i=3)  # n < 6
    with pytest.raises(ConstructionError):
        build(ConstructionId.H3FAM, 8, 4, i=3)  # r must be 3
    with pytest.raises(ConstructionError):
        build(ConstructionId.H3LIFT, 8, 3, i=0)  # r must exceed 3
    with pytest.raises(ConstructionError):
        build(ConstructionId.EM, 9, 3)  # missing s
    with pytest.raises(ConstructionError):
        build(ConstructionId.H3FAM, 8, 3)  # missing i


@pytest.mark.parametrize("fn, cid, p", [
    (size_formula, ConstructionId.EM, ConstructionParams(n=5, r=3, s=0)),
    (size_formula, ConstructionId.HM_T, ConstructionParams(n=12, r=4, t=5)),
    (size_formula, ConstructionId.HM_DP, ConstructionParams(n=7, r=5)),
    (size_formula, ConstructionId.HM0, ConstructionParams(n=3, r=3)),
    (special_vertices, ConstructionId.H3FAM, ConstructionParams(n=5, r=3, i=4)),
    (special_vertices, ConstructionId.H3LIFT, ConstructionParams(n=8, r=4, i=9)),
])
def test_size_and_layout_reject_what_build_rejects(fn, cid, p):
    with pytest.raises(ConstructionError):
        build_construction(cid, p)
    with pytest.raises(ConstructionError):
        fn(cid, p)


@pytest.mark.parametrize("field, value", [
    ("n", 7.0), ("n", True), ("n", None), ("r", "3"), ("r", 3.0),
    ("s", True), ("s", 1.0), ("t", False), ("t", "1"), ("i", True), ("i", 2.5),
])
def test_params_refuse_a_field_that_is_no_int(field, value):
    # i=True built H3(1); n=7.0 left embed answering None and the builder
    # failing deep inside range()
    kw = {"n": 7, "r": 3, field: value}
    want = rf"^{field} must be an int, got {re.escape(repr(value))}$"
    with pytest.raises(TypeError, match=want):
        ConstructionParams(**kw)


def test_params_refusals_reach_the_public_calls():
    from ifam.classifier import embed

    h = build(ConstructionId.EM, 7, 3, s=1)
    with pytest.raises(TypeError, match=r"^i must be an int, got True$"):
        build_construction(ConstructionId.H3FAM, ConstructionParams(7, 3, i=True))
    with pytest.raises(TypeError, match=r"^n must be an int, got 7\.0$"):
        embed(h, ConstructionId.EM, ConstructionParams(7.0, 3, s=1))
    with pytest.raises(TypeError, match=r"^n must be an int, got 7\.0$"):
        build_construction(ConstructionId.EM, ConstructionParams(7.0, 3, s=1))
    # the extra parameters may be left out; n and r may not
    assert ConstructionParams(7, 3) == ConstructionParams(7, 3, s=None, t=None, i=None)
    with pytest.raises(TypeError, match=r"^r must be an int, got None$"):
        ConstructionParams(7, None)


def test_layout_table_mentions_every_construction():
    table = layout_table()
    for cid in ConstructionId:
        assert cid.value in table


# -- lift structure ---------------------------------------------------------


def test_h3lift_edges_contain_a_base_edge():
    for i in range(6):
        base = build(ConstructionId.H3FAM, 8, 3, i=i)
        lifted = build(ConstructionId.H3LIFT, 8, 4, i=i)
        for e in lifted.edges:
            assert any(b & e == b for b in base.edges)
        # and every r-superset of a base edge is present
        for b in base.edges:
            rest = [v for v in range(1, 9) if not (b >> (v - 1)) & 1]
            for extra in combinations(rest, 1):
                assert (b | mask_of(extra)) in lifted


# -- golden edge sets -------------------------------------------------------
#
# Edge count and the first 16 hex digits of the sha256 of the sorted edge
# masks, recorded from the per-template builders before the generator table
# replaced them.  The grid is the COUNTS grid for r in {3, 4} and n <= 12,
# plus H3LIFT at n in {8, 10}, r in {4, 5}; None marks parameters that must
# be rejected.  This pin does not depend on the generator table, so it stays
# an independent oracle for build_construction.

GOLDEN = {
    "EM 6 3 s=1": (10, "a051d581e7048e92"),
    "EM 6 3 s=2": (16, "ad2fd891de36732c"),
    "EM 6 3 s=3": (19, "79d4c61fc8868e39"),
    "HM_T 6 3 t=0": (10, "545324356a0c21f4"),
    "HM_T 6 3 t=1": (10, "0de703df359ac67f"),
    "HM_T 6 3 t=2": (10, "46785e3dbacab510"),
    "HM_T 6 3 t=3": (10, "545324356a0c21f4"),
    "HM0 6 3": (10, "545324356a0c21f4"),
    "HM_DP 6 3": None,
    "FP 6 3": (10, "3fb18b2fb656dd70"),
    "H3FAM 6 3 i=0": (10, "545324356a0c21f4"),
    "H3FAM 6 3 i=1": (10, "0de703df359ac67f"),
    "H3FAM 6 3 i=2": (10, "46785e3dbacab510"),
    "H3FAM 6 3 i=3": (10, "912777c9294c701c"),
    "H3FAM 6 3 i=4": (10, "8bbcb85b69f472c9"),
    "H3FAM 6 3 i=5": (10, "fb28fa07f20d4202"),
    "EM 7 3 s=1": (15, "99957c633e0c81f5"),
    "EM 7 3 s=2": (25, "f276f272c0899240"),
    "EM 7 3 s=3": (31, "b24cdfd3d8afe434"),
    "HM_T 7 3 t=0": (13, "0be4ac0ed7b4de50"),
    "HM_T 7 3 t=1": (13, "01a9705cfb9716b5"),
    "HM_T 7 3 t=2": (12, "1fee43051bc761c8"),
    "HM_T 7 3 t=4": (13, "0be4ac0ed7b4de50"),
    "HM0 7 3": (13, "0be4ac0ed7b4de50"),
    "HM_DP 7 3": None,
    "FP 7 3": (10, "3fb18b2fb656dd70"),
    "H3FAM 7 3 i=0": (13, "0be4ac0ed7b4de50"),
    "H3FAM 7 3 i=1": (13, "01a9705cfb9716b5"),
    "H3FAM 7 3 i=2": (12, "1fee43051bc761c8"),
    "H3FAM 7 3 i=3": (11, "160834f7283fd3d3"),
    "H3FAM 7 3 i=4": (11, "aa0914c904c13501"),
    "H3FAM 7 3 i=5": (11, "aef800823d1e1d75"),
    "EM 8 3 s=1": (21, "556de61eeb79e05e"),
    "EM 8 3 s=2": (36, "57356772ebeb21a4"),
    "EM 8 3 s=3": (46, "0d75058216b36ed0"),
    "HM_T 8 3 t=0": (16, "698277004c49014c"),
    "HM_T 8 3 t=1": (16, "3d0a95e3bbda91ee"),
    "HM_T 8 3 t=2": (14, "e31f3b8b182518d3"),
    "HM_T 8 3 t=5": (16, "698277004c49014c"),
    "HM0 8 3": (16, "698277004c49014c"),
    "HM_DP 8 3": None,
    "FP 8 3": (10, "3fb18b2fb656dd70"),
    "H3FAM 8 3 i=0": (16, "698277004c49014c"),
    "H3FAM 8 3 i=1": (16, "3d0a95e3bbda91ee"),
    "H3FAM 8 3 i=2": (14, "e31f3b8b182518d3"),
    "H3FAM 8 3 i=3": (12, "385c93407e5a32a1"),
    "H3FAM 8 3 i=4": (12, "90b840c5a448e6ea"),
    "H3FAM 8 3 i=5": (12, "048e650af145a18a"),
    "EM 9 3 s=1": (28, "c0354397f9c4d0ec"),
    "EM 9 3 s=2": (49, "42ac657dd6c01aad"),
    "EM 9 3 s=3": (64, "5ec3170348a9ff39"),
    "HM_T 9 3 t=0": (19, "f90f63a237bb9975"),
    "HM_T 9 3 t=1": (19, "e897cb84a62b95e6"),
    "HM_T 9 3 t=2": (16, "2a1e1606888f0e46"),
    "HM_T 9 3 t=6": (19, "f90f63a237bb9975"),
    "HM0 9 3": (19, "f90f63a237bb9975"),
    "HM_DP 9 3": None,
    "FP 9 3": (10, "3fb18b2fb656dd70"),
    "H3FAM 9 3 i=0": (19, "f90f63a237bb9975"),
    "H3FAM 9 3 i=1": (19, "e897cb84a62b95e6"),
    "H3FAM 9 3 i=2": (16, "2a1e1606888f0e46"),
    "H3FAM 9 3 i=3": (13, "ec0cadefbca370ca"),
    "H3FAM 9 3 i=4": (13, "42c62835bdab1e75"),
    "H3FAM 9 3 i=5": (13, "a2b326aedefe1fae"),
    "EM 10 3 s=1": (36, "c65dc43229006f09"),
    "EM 10 3 s=2": (64, "92ec5dcd57dfdf47"),
    "EM 10 3 s=3": (85, "39adbf2abc7a5a1e"),
    "HM_T 10 3 t=0": (22, "154cf2141ed81b39"),
    "HM_T 10 3 t=1": (22, "5ef62a94d49274e2"),
    "HM_T 10 3 t=2": (18, "41569cf5fed79075"),
    "HM_T 10 3 t=7": (22, "154cf2141ed81b39"),
    "HM0 10 3": (22, "154cf2141ed81b39"),
    "HM_DP 10 3": None,
    "FP 10 3": (10, "3fb18b2fb656dd70"),
    "H3FAM 10 3 i=0": (22, "154cf2141ed81b39"),
    "H3FAM 10 3 i=1": (22, "5ef62a94d49274e2"),
    "H3FAM 10 3 i=2": (18, "41569cf5fed79075"),
    "H3FAM 10 3 i=3": (14, "1f27d40da8dbd2e9"),
    "H3FAM 10 3 i=4": (14, "6201be20e07d731b"),
    "H3FAM 10 3 i=5": (14, "e9c16af6ee21c6af"),
    "EM 11 3 s=1": (45, "8db7de4085f1a0b6"),
    "EM 11 3 s=2": (81, "6c1f4784420d435c"),
    "EM 11 3 s=3": (109, "f34d61c478d455f5"),
    "HM_T 11 3 t=0": (25, "aa9759171585b5d3"),
    "HM_T 11 3 t=1": (25, "a7a6bfb58efd3189"),
    "HM_T 11 3 t=2": (20, "2e9e1faf0067382d"),
    "HM_T 11 3 t=8": (25, "aa9759171585b5d3"),
    "HM0 11 3": (25, "aa9759171585b5d3"),
    "HM_DP 11 3": None,
    "FP 11 3": (10, "3fb18b2fb656dd70"),
    "H3FAM 11 3 i=0": (25, "aa9759171585b5d3"),
    "H3FAM 11 3 i=1": (25, "a7a6bfb58efd3189"),
    "H3FAM 11 3 i=2": (20, "2e9e1faf0067382d"),
    "H3FAM 11 3 i=3": (15, "f0ff30eddd1bdf25"),
    "H3FAM 11 3 i=4": (15, "e524e17f419c81f5"),
    "H3FAM 11 3 i=5": (15, "e6e5d9b952cdfc51"),
    "EM 12 3 s=1": (55, "25102667bdccd374"),
    "EM 12 3 s=2": (100, "85d75fbd26911825"),
    "EM 12 3 s=3": (136, "a7289bad527a5142"),
    "HM_T 12 3 t=0": (28, "08742f7dccfe5976"),
    "HM_T 12 3 t=1": (28, "956a26f071fd6bbc"),
    "HM_T 12 3 t=2": (22, "2a4487ee00c0c645"),
    "HM_T 12 3 t=9": (28, "08742f7dccfe5976"),
    "HM0 12 3": (28, "08742f7dccfe5976"),
    "HM_DP 12 3": None,
    "FP 12 3": (10, "3fb18b2fb656dd70"),
    "H3FAM 12 3 i=0": (28, "08742f7dccfe5976"),
    "H3FAM 12 3 i=1": (28, "956a26f071fd6bbc"),
    "H3FAM 12 3 i=2": (22, "2a4487ee00c0c645"),
    "H3FAM 12 3 i=3": (16, "6f31f11cd44550da"),
    "H3FAM 12 3 i=4": (16, "0a022cf5dcdcdb21"),
    "H3FAM 12 3 i=5": (16, "aa02c996c604ea0f"),
    "EM 8 4 s=1": (35, "16237e72991b857f"),
    "EM 8 4 s=2": (55, "cb1686332fd3d332"),
    "EM 8 4 s=3": (65, "36346f8be344426d"),
    "HM_T 8 4 t=0": (35, "69b7d13c49a3b495"),
    "HM_T 8 4 t=1": (35, "c75f0c40b1768b5a"),
    "HM_T 8 4 t=2": (35, "e88c258915b36555"),
    "HM_T 8 4 t=3": (35, "8d33ba829ca4a16b"),
    "HM_T 8 4 t=4": (35, "35ba692c8b226a99"),
    "HM0 8 4": (35, "69b7d13c49a3b495"),
    "HM_DP 8 4": (35, "fa9e0f9f636cd8ce"),
    "FP 8 4": (35, "7370cddee6c42baa"),
    "EM 9 4 s=1": (56, "6dc304a8fff36041"),
    "EM 9 4 s=2": (91, "21215da018476419"),
    "EM 9 4 s=3": (111, "93dba5ef4a6f3aed"),
    "HM_T 9 4 t=0": (51, "1a798093b56127be"),
    "HM_T 9 4 t=1": (53, "056536e0c3c5d962"),
    "HM_T 9 4 t=2": (51, "b1f43f227231a982"),
    "HM_T 9 4 t=3": (50, "f29159bd21433a63"),
    "HM_T 9 4 t=5": (51, "158dec3f70debcde"),
    "HM0 9 4": (51, "1a798093b56127be"),
    "HM_DP 9 4": (50, "475a5aa77d33ef66"),
    "FP 9 4": (48, "bb2760cb82107664"),
    "EM 10 4 s=1": (84, "086b145902fe8c1f"),
    "EM 10 4 s=2": (140, "bee706c5442763c2"),
    "EM 10 4 s=3": (175, "4666400700edc49c"),
    "HM_T 10 4 t=0": (70, "ab9fc5be27d66b6e"),
    "HM_T 10 4 t=1": (75, "24a299638515e406"),
    "HM_T 10 4 t=2": (70, "bd07b7189bf9c0ef"),
    "HM_T 10 4 t=3": (68, "0322512baf38c2fb"),
    "HM_T 10 4 t=6": (70, "d60638ea59e49224"),
    "HM0 10 4": (70, "ab9fc5be27d66b6e"),
    "HM_DP 10 4": (67, "7a624c951f4b74e9"),
    "FP 10 4": (61, "0993cb76089c004b"),
    "EM 11 4 s=1": (120, "8705bffc0d8d2702"),
    "EM 11 4 s=2": (204, "c06db3dd8de09e21"),
    "EM 11 4 s=3": (260, "2848f0a8b229f569"),
    "HM_T 11 4 t=0": (92, "05cc9625fb1328ac"),
    "HM_T 11 4 t=1": (101, "45f7acf32d52ed12"),
    "HM_T 11 4 t=2": (92, "b5da54aac5e3160b"),
    "HM_T 11 4 t=3": (89, "fbf21e3fe2ffbaa7"),
    "HM_T 11 4 t=7": (92, "208ae77b2593d10f"),
    "HM0 11 4": (92, "05cc9625fb1328ac"),
    "HM_DP 11 4": (86, "2b8cd4f1c0953220"),
    "FP 11 4": (74, "b18d2e08e19a7f81"),
    "EM 12 4 s=1": (165, "c778d421d0ee82e7"),
    "EM 12 4 s=2": (285, "2cdc2e9c01af93e3"),
    "EM 12 4 s=3": (369, "29e525c4680761b1"),
    "HM_T 12 4 t=0": (117, "18b097287bba14fe"),
    "HM_T 12 4 t=1": (131, "be94579795f9746e"),
    "HM_T 12 4 t=2": (117, "c54b284b594f6208"),
    "HM_T 12 4 t=3": (113, "9a95fab503a1dd5c"),
    "HM_T 12 4 t=8": (117, "f685259750e3db08"),
    "HM0 12 4": (117, "18b097287bba14fe"),
    "HM_DP 12 4": (107, "c84a02168ae0384a"),
    "FP 12 4": (87, "cf1778a7d66ec1d1"),
    "H3LIFT 8 4 i=0": (35, "69b7d13c49a3b495"),
    "H3LIFT 8 4 i=1": (35, "35ba692c8b226a99"),
    "H3LIFT 8 4 i=2": (35, "fc0d62f621dbf6e7"),
    "H3LIFT 8 4 i=3": (35, "492605d546f99eba"),
    "H3LIFT 8 4 i=4": (35, "ec1f5d0fd648343f"),
    "H3LIFT 8 4 i=5": (35, "2ccf2a6acfd6b232"),
    "H3LIFT 8 5 i=0": (40, "0af615e4623479ab"),
    "H3LIFT 8 5 i=1": (40, "a88967ea754b68a0"),
    "H3LIFT 8 5 i=2": (42, "e18688c3a82311d9"),
    "H3LIFT 8 5 i=3": (44, "593d79c5b20add92"),
    "H3LIFT 8 5 i=4": (44, "58e80b381f2444a3"),
    "H3LIFT 8 5 i=5": (44, "4320a3c0d39cd391"),
    "H3LIFT 10 4 i=0": (70, "ab9fc5be27d66b6e"),
    "H3LIFT 10 4 i=1": (70, "d60638ea59e49224"),
    "H3LIFT 10 4 i=2": (65, "7baa98e1954ac4d4"),
    "H3LIFT 10 4 i=3": (60, "f8b212286e2632d8"),
    "H3LIFT 10 4 i=4": (60, "9098b239d9b41ecb"),
    "H3LIFT 10 4 i=5": (60, "4e84ca6bf689db4b"),
    "H3LIFT 10 5 i=0": (126, "b6e2c85e2a71bc4c"),
    "H3LIFT 10 5 i=1": (126, "483be78f83ba58e4"),
    "H3LIFT 10 5 i=2": (126, "3de165d33c1b3758"),
    "H3LIFT 10 5 i=3": (126, "e4d859526927cecc"),
    "H3LIFT 10 5 i=4": (126, "c1827ddbbbe31d7f"),
    "H3LIFT 10 5 i=5": (126, "113eb127439b191f"),
}


def _golden_case(key):
    cid, n, r, *extra = key.split()
    kw = {k: int(v) for k, v in (item.split("=") for item in extra)}
    return ConstructionId(cid), ConstructionParams(n=int(n), r=int(r), **kw)


def _edge_digest(h):
    text = ",".join(map(str, sorted(h.edges)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_build_matches_golden_edge_set(key):
    cid, p = _golden_case(key)
    if GOLDEN[key] is None:
        with pytest.raises(ConstructionError):
            build_construction(cid, p)
        return
    h = build_construction(cid, p)
    assert (len(h), _edge_digest(h)) == GOLDEN[key]


# -- the builder against its mask_of form -----------------------------------


def _build_with_mask_of(res, p):
    """The builder as it was before the single-bit sums: one mask_of call
    per r-set."""
    edges = set()
    for gen in res.gens:
        g = mask_of(j + 1 for j in gen)
        rest = [v for v in range(1, p.n + 1) if not g & (1 << (v - 1))]
        for c in combinations(rest, p.r - len(gen)):
            edges.add(g | mask_of(c))
    return Hypergraph.from_masks(p.n, p.r, edges)


def _counts_grid_and_lifts():
    for cid, p in _counts_grid((3, 4, 5), 20):
        yield cid, p
    for i in range(6):
        yield ConstructionId.H3LIFT, ConstructionParams(130, 4, i=i)


def test_build_matches_mask_of_builder():
    built = 0
    for cid, p in _counts_grid_and_lifts():
        try:
            res = _resolve(cid, p)
        except ConstructionError:
            continue
        assert build_construction(cid, p) == _build_with_mask_of(res, p), (cid, p)
        built += 1
    assert built == 500 + 6
