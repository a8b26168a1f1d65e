"""``classify`` against the classifiers it replaced.

The first oracle is ``classify`` as it stood when r >= 4 families with
cover number two or more were proved intersecting before they climbed
the ladder, a family that is not intersecting getting NONE from the
proof.  The library climbs with no proof, since every rung is an
intersecting template: a family that is not intersecting fits no rung.
Both must give the same verdict and witness on every r >= 4 family of
the ``families`` benchmark stream, intersecting or not, of every cover
number.

The second oracle is ``classify`` as it stood when it computed the
exact cover number.  The library reads tau only as at most one, two,
or three and more, from the AND of the edges and a bounded search for
a two-vertex cover.  Both must give the same verdict and witness on
every family of the stream, r = 3 and r = 4, and on a large matching.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from ifam.classifier import Verdict, VerdictKind, _first_fit, _ladder, classify
from ifam.constructions import ConstructionError, build_construction
from ifam.hypergraph import Hypergraph, cover_number, is_intersecting

from test_core_search import GENERATORS


def oracle_classify(h):
    """The former classify, restricted to r >= 4."""
    assert h.r >= 4
    tau = cover_number(h)
    if tau > 1 and not is_intersecting(h):
        return Verdict(VerdictKind.NONE)
    return _first_fit(h, _ladder(h.n, h.r, tau))


def exact_tau_classify(h):
    """The former classify, which computed the exact cover number."""
    tau = cover_number(h)
    if tau <= 1 or h.r >= 4 or (h.r == 3 and tau == 2):
        return _first_fit(h, _ladder(h.n, h.r, tau))
    if not is_intersecting(h):
        return Verdict(VerdictKind.NONE)
    if h.r == 3:
        assert len(h) <= 10
        return Verdict(VerdictKind.TAU_GE_3)
    raise ValueError(f"no templates for intersecting families with r={h.r} < 3")


def families_stream(seed, count=4000):
    """The families of the ``families`` benchmark stream: r alternates
    3 and 4, the generators go round-robin over index pairs, and every
    fifth index draws a scheme, so the random calls are the stream's."""
    rng = random.Random(seed)
    for index in range(count):
        h = GENERATORS[index // 2 % 3](rng, (3, 4)[index % 2])
        if index % 5 == 4:
            rng.randint(1, 3)  # the stream's paper_rs(s) draw
        yield h


def r5_families(seed, count):
    """Families of the same generators at r = 5, where the ladder has
    four tailed rungs below n - r and no triple rung."""
    rng = random.Random(seed)
    return [GENERATORS[index % 3](rng, 5) for index in range(count)]


def assert_same_verdicts(families):
    kinds = Counter()
    for h in families:
        want = oracle_classify(h)
        assert classify(h) == want, h
        tau = min(cover_number(h), 3)
        kinds[tau, is_intersecting(h), want.kind] += 1
    return kinds


@pytest.mark.parametrize("seed", [1, 3])
def test_classify_matches_the_proving_oracle_on_the_families_stream(seed):
    kinds = assert_same_verdicts(h for h in families_stream(seed) if h.r >= 4)
    assert sum(kinds.values()) == 2000
    # intersecting and not, at cover number two, and the ladder's NONE
    # on a family that is not intersecting
    assert kinds[2, False, VerdictKind.NONE] > 30, kinds
    assert kinds[2, True, VerdictKind.HM_T] > 100, kinds
    assert {tau for tau, _, _ in kinds} == {1, 2, 3}, kinds


def test_classify_matches_the_proving_oracle_at_r5():
    kinds = assert_same_verdicts(r5_families(5, 300))
    for kind in (VerdictKind.HM_T, VerdictKind.HM_DP, VerdictKind.NONE):
        assert kinds[2, True, kind], kinds
    assert kinds[2, False, VerdictKind.NONE], kinds


@pytest.mark.parametrize("seed", [1, 3])
def test_classify_matches_the_exact_tau_oracle_on_the_families_stream(seed):
    kinds = Counter()
    for h in families_stream(seed):
        want = exact_tau_classify(h)
        assert classify(h) == want, h
        kinds[h.r, min(cover_number(h), 3), want.kind] += 1
    assert sum(kinds.values()) == 4000
    # every cover number at both uniformities, and the r = 3 answers past
    # the rungs: TAU_GE_3 and the NONE of a family that is not intersecting
    assert {(r, tau) for r, tau, _ in kinds} == {(r, tau) for r in (3, 4) for tau in (1, 2, 3)}
    assert kinds[3, 3, VerdictKind.TAU_GE_3] and kinds[3, 3, VerdictKind.NONE], kinds
    assert kinds[3, 2, VerdictKind.H3] and kinds[4, 2, VerdictKind.HM_T], kinds


@pytest.mark.parametrize("r", [3, 4])
def test_classify_answers_a_large_matching(r):
    # the exact cover search recursed once per chosen vertex and raised
    # RecursionError here; the bounded question stops at two
    matching = Hypergraph.from_masks(1000 * r, r, [((1 << r) - 1) << (r * j) for j in range(1000)])
    assert classify(matching) == exact_tau_classify(matching) == Verdict(VerdictKind.NONE)


@pytest.mark.parametrize("n, r", [(8, 4), (9, 4), (12, 4), (10, 5), (12, 5)])
def test_every_rung_is_an_intersecting_template(n, r):
    # the argument that lets classify skip the proof for r >= 4
    built = 0
    for _, cid, params in _ladder(n, r, None):
        try:
            h = build_construction(cid, params)
        except ConstructionError:
            continue
        assert is_intersecting(h), (cid, params)
        built += 1
    assert built >= 4

