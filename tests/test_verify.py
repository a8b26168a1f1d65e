import hashlib
import importlib

import pytest

from ifam import classifier, constructions, enumeration, kernel
from ifam.classifier import Verdict, VerdictKind
from ifam.constructions import ConstructionId, ConstructionParams, build_construction
from ifam.enumeration import EnumerationFilter, canonical_form, enumerate_intersecting
from ifam.hypergraph import Hypergraph
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


def test_verify_refuses_a_parameter_before_running(monkeypatch):
    # the check reads the handler's signature; the handler itself never runs
    monkeypatch.setitem(VERIFY._HANDLERS, "FOLK",
                        lambda max_support=9, ceiling=None: pytest.fail("handler ran"))
    with pytest.raises(ValueError) as exc:
        verify("folk", n=7, ceiling=9, seed=1)
    assert str(exc.value) == "parameter not accepted by FOLK: n, seed"


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


def test_th4_statements_classify_only_their_scope(monkeypatch):
    # TH4_A and TH4_B sweep all 578 classes at n = 7 but classify only the
    # 41 with at least 11 edges and the 16 with more than n + 4
    calls = []
    real = classifier.classify
    monkeypatch.setattr(classifier, "classify",
                        lambda h: calls.append(len(h)) or real(h))
    counts = {}
    for statement in ("TH4_MAIN", "TH4_A", "TH4_B"):
        calls.clear()
        assert verify(statement, n=7).passed
        counts[statement] = len(calls)
    assert counts == {"TH4_MAIN": 578, "TH4_A": 41, "TH4_B": 16}


def test_th4_b_tail_sizes_at_n6():
    rep = verify("TH4_B", n=6)
    assert rep.passed
    assert rep.checked == 0
    assert rep.witnesses[0]["tail_template_sizes"] == {
        "H3(3)": 10,
        "H3(4)": 10,
        "H3(5)": 10,
    }


def test_th4_b_reports_a_tail_template_of_the_wrong_size(monkeypatch):
    real = constructions.build_construction

    def short_of_one(cid, p):
        h = real(cid, p)
        if cid is ConstructionId.H3FAM and p.i == 4:
            return Hypergraph(h.n, h.r, h.edges[1:])
        return h

    monkeypatch.setattr(constructions, "build_construction", short_of_one)
    rep = verify("TH4_B", n=6)
    assert not rep.passed
    (record,) = rep.counterexamples
    assert record["reason"] == "template index 4 has 9 edges, expected n + 4 = 10"
    assert len(parse_hypergraph(record["hypergraph"])) == record["edges"] == 9
    assert rep.witnesses[0]["tail_template_sizes"]["H3(4)"] == 9


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


def test_lemma_refuses_n_above_the_ceiling_before_sweeping(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the orderly sweep started")

    monkeypatch.setattr(enumeration, "_orderly", no_sweep)
    with pytest.raises(ValueError, match="n=10 exceeds the enumeration ceiling 9"):
        verify("LEMMA_2EDGES", n=10)


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


# -- the failure paths ------------------------------------------------------
#
# Every statement passes on this code, so each test below breaks one engine
# the statement relies on and checks that the report fails with replayable
# counterexamples.

VERIFY = importlib.import_module("ifam.verify")
STAR7 = build_construction(ConstructionId.EM, ConstructionParams(7, 3, s=1))


def refuse_the_star(real):
    """``real`` with NONE for the class of the full star on [7] (15 edges)."""
    key = canonical_form(STAR7)

    def patched(h, *args):
        if h.n == 7 and len(h) == len(STAR7) and canonical_form(h) == key:
            return Verdict(VerdictKind.NONE)
        return real(h, *args)

    return patched


def assert_replays_the_star(rep, *keys):
    assert not rep.passed
    assert len(rep.counterexamples) == 1
    (record,) = rep.counterexamples
    assert canonical_form(parse_hypergraph(record["hypergraph"])) == canonical_form(STAR7)
    for key in ("reason", *keys):
        assert record[key]
    return record


@pytest.mark.parametrize("statement", ["TH4_MAIN", "TH4_A", "TH4_B"])
def test_th4_statements_report_a_refused_class(monkeypatch, statement):
    monkeypatch.setattr(classifier, "classify", refuse_the_star(classifier.classify))
    rep = verify(statement, n=7)
    assert assert_replays_the_star(rep, "verdict")["verdict"] == "NONE"
    if statement == "TH4_MAIN":
        assert {w["verdict"]: w["classes"] for w in rep.witnesses}["NONE"] == 1


def test_lemma_2edges_reports_a_refused_class(monkeypatch):
    monkeypatch.setattr(classifier, "_first_fit", refuse_the_star(classifier._first_fit))
    rep = verify("LEMMA_2EDGES", n=7)
    assert assert_replays_the_star(rep, "tau")["tau"] == 1
    assert sum(w["classes"] for w in rep.witnesses) == rep.checked - 1


def test_folk_reports_an_oversized_family(monkeypatch):
    real = enumeration.enumerate_intersecting
    eleven = Hypergraph.from_masks(7, 3, STAR7.edges[:11])
    monkeypatch.setattr(enumeration, "enumerate_intersecting",
                        lambda *args, **kw: [*real(*args, **kw), eleven])
    rep = verify("FOLK", max_support=7)
    assert not rep.passed
    reasons = [c["reason"] for c in rep.counterexamples]
    assert reasons[0] == "more than ten edges with cover number >= 3"
    assert "extremal size is 11" in reasons[1]
    assert len(reasons) == 4
    for record in rep.counterexamples:
        assert len(parse_hypergraph(record["hypergraph"])) == record["edges"]


def test_counts_reports_formula_and_spot_mismatches(monkeypatch):
    real = constructions.size_formula
    monkeypatch.setattr(constructions, "size_formula", lambda cid, p: real(cid, p) + 1)
    monkeypatch.setattr(VERIFY, "_SPOT_VALUES", VERIFY._SPOT_VALUES[:1] + (
        ("EM", {"n": 10, "r": 3, "s": 2}, 65),))
    rep = verify("COUNTS", r_values=(3,), n_max=6)
    assert not rep.passed
    assert len(rep.counterexamples) == rep.checked - 1  # the first spot value holds
    assert rep.counterexamples[-1]["reason"] == "pinned size 65, built family has 64 edges"
    for record in rep.counterexamples:
        assert len(parse_hypergraph(record["hypergraph"])) == record["edges"]
        assert record["template"] and record["params"]


def test_kernel_props_reports_violations(monkeypatch):
    monkeypatch.setattr(kernel, "kernel_invariant_violations", lambda h, d: ["planted"])
    rep = verify("KERNEL_PROPS", count=3, seed=1)
    assert not rep.passed
    assert [c["case_index"] for c in rep.counterexamples] == [0, 1, 2]
    for record in rep.counterexamples:
        assert record["violations"] == ["planted"]
        assert record["reason"] == "kernel invariants violated"
        assert len(parse_hypergraph(record["hypergraph"])) == record["edges"]
