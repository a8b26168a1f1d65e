import hashlib

import pytest

from ifam.enumeration import EnumerationFilter, canonical_form, enumerate_intersecting
from ifam.io import parse_hypergraph
from ifam.verify import STATEMENTS, VerificationReport, _lemma_candidates, verify


def digest(families):
    return hashlib.sha256(repr([h.edges for h in families]).encode()).hexdigest()[:16]


def test_report_requires_counterexample_on_fail():
    with pytest.raises(ValueError):
        VerificationReport("COUNTS", {}, False, [], [], 0.0, 1)
    rep = VerificationReport("COUNTS", {}, True, [], [], 0.0, 1)
    assert rep.to_json()["passed"] is True


def test_unknown_statement():
    with pytest.raises(ValueError):
        verify("NOPE")


def test_statement_name_case_insensitive():
    rep = verify("counts")
    assert rep.statement == "COUNTS"
    assert rep.passed


def test_counts_grid_and_spots():
    rep = verify("COUNTS")
    assert rep.passed
    assert rep.counterexamples == []
    assert rep.checked > 400
    spots = rep.witnesses[0]["spot_values"]
    assert {s["expected"] for s in spots} == {10, 53, 70, 303, 64}
    assert all(s["built"] == s["expected"] for s in spots)


def test_th4_main_n6():
    rep = verify("TH4_MAIN", n=6)
    assert rep.passed
    assert rep.params == {"n": 6, "ceiling": 9}
    assert rep.checked == 174
    hist = {w["verdict"]: w["classes"] for w in rep.witnesses}
    assert hist == {
        "STAR": 33,
        "H3(0)": 43,
        "H3(1)": 32,
        "H3(2)": 32,
        "H3(3)": 6,
        "H3(4)": 21,
        "H3(5)": 7,
    }


def test_th4_a_vacuous_at_n6():
    rep = verify("TH4_A", n=6)
    assert rep.passed
    assert rep.checked == 0
    assert rep.witnesses[0]["largest_family"] == 10


def test_th4_a_default_scope_is_n7():
    rep = verify("TH4_A")
    assert rep.passed
    assert rep.params == {"n": 7, "ceiling": 9}
    assert rep.checked == 41
    assert rep.witnesses[0]["families_in_scope"] == 41


def test_th4_b_default_scope_is_n7():
    rep = verify("TH4_B")
    assert rep.passed
    assert rep.params == {"n": 7, "ceiling": 9}
    assert rep.checked == 16
    assert rep.witnesses[0]["tail_template_sizes"] == {
        "H3(3)": 11,
        "H3(4)": 11,
        "H3(5)": 11,
    }


def test_th4_b_tail_sizes_at_n6():
    rep = verify("TH4_B", n=6)
    assert rep.passed
    assert rep.checked == 0
    assert rep.witnesses[0]["tail_template_sizes"] == {
        "H3(3)": 10,
        "H3(4)": 10,
        "H3(5)": 10,
    }


def test_lemma_2edges_n6():
    rep = verify("LEMMA_2EDGES", n=6)
    assert rep.passed
    assert rep.checked == 160
    hist = {w["template"]: w["classes"] for w in rep.witnesses}
    assert hist == {"H3(0)": 41, "H3(1)": 32, "H3(2)": 32, "H3(4)": 21, "STAR": 34}


def test_lemma_2edges_default_scope_is_n7():
    rep = verify("LEMMA_2EDGES")
    assert rep.passed
    assert rep.params == {"n": 7}
    assert rep.checked == 539
    hist = {w["template"]: w["classes"] for w in rep.witnesses}
    assert hist == {"H3(0)": 112, "H3(1)": 136, "H3(2)": 92, "H3(4)": 43, "STAR": 156}


def test_lemma_rejects_small_n():
    with pytest.raises(ValueError):
        verify("LEMMA_2EDGES", n=5)


@pytest.mark.parametrize("statement", ["TH4_MAIN", "TH4_A", "TH4_B"])
def test_th4_statements_refuse_n4(statement):
    # at n = 4 TH4_MAIN used to FAIL on K4^(3), TH4_A to pass vacuously
    # and TH4_B to raise only while building a template
    with pytest.raises(ValueError, match=f"{statement} is stated for n >= 6"):
        verify(statement, n=4)


def hypothesis_holds(h):
    return any(
        sum(1 for e in h.edges if not e >> (x - 1) & 1) <= 2
        for x in range(1, h.n + 1)
    )


def test_lemma_candidates_at_n7():
    # the class list as the sweep wrote it before its outside-part cut
    reps = _lemma_candidates(7)
    assert len(reps) == 539
    assert digest(reps) == "820d5dcff4176653"
    assert all(hypothesis_holds(h) for h in reps)


def test_lemma_candidates_are_the_hypothesis_class():
    reps = _lemma_candidates(6)
    # the class list as the sweep wrote it before its outside-part cut
    assert len(reps) == 160
    assert digest(reps) == "bb873ac0ff05fb5b"
    keys = [canonical_form(h) for h in reps]
    assert len(set(keys)) == len(reps)
    assert all(hypothesis_holds(h) for h in reps)
    # Completeness cross-check against the independent pair-cover
    # enumeration: every class with cover number at most two that
    # satisfies the hypothesis must appear among the candidates.
    key_set = set(keys)
    fams = enumerate_intersecting(6, 3, EnumerationFilter(tau_le=2, min_edges=1))
    expected = [h for h in fams if hypothesis_holds(h)]
    assert expected, "the cross-check sample should not be empty"
    assert all(canonical_form(h) in key_set for h in expected)


def test_folk_small_support():
    rep = verify("FOLK", max_support=7)
    assert rep.passed
    flags = [(w["k5"], w["fp_type"]) for w in rep.witnesses]
    assert any(k5 for k5, _ in flags)
    assert any(fp for _, fp in flags)
    assert all(w["edges"] == 10 for w in rep.witnesses)
    replayed = parse_hypergraph(rep.witnesses[0]["hypergraph"])
    assert len(replayed) == 10


def test_folk_support_five_is_just_k5():
    rep = verify("FOLK", max_support=5)
    assert rep.passed
    assert rep.params == {"max_support": 5, "ceiling": 9}
    assert rep.checked == 1
    assert rep.witnesses[0]["k5"]


def test_explicit_ceiling_is_used_and_reported():
    assert verify("FOLK", max_support=5, ceiling=5).params["ceiling"] == 5
    with pytest.raises(ValueError, match="ceiling 5"):
        verify("TH4_MAIN", n=6, ceiling=5)


def test_folk_param_validation():
    with pytest.raises(ValueError):
        verify("FOLK", max_support=4)
    with pytest.raises(ValueError):
        verify("FOLK", max_support=12)


def test_kernel_props_reproducible():
    a = verify("KERNEL_PROPS", count=200, seed=7)
    b = verify("KERNEL_PROPS", count=200, seed=7)
    assert a.passed and b.passed
    assert a.witnesses == b.witnesses
    with pytest.raises(ValueError):
        verify("KERNEL_PROPS", count=0)


def test_statement_list_is_exposed():
    assert set(STATEMENTS) == {
        "FOLK",
        "TH4_MAIN",
        "TH4_A",
        "TH4_B",
        "LEMMA_2EDGES",
        "COUNTS",
        "KERNEL_PROPS",
    }
    # the CLI help and the unknown-statement message list them in this order
    assert STATEMENTS == (
        "FOLK", "TH4_MAIN", "TH4_A", "TH4_B", "LEMMA_2EDGES", "COUNTS", "KERNEL_PROPS"
    )
