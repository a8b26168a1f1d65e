"""Opt-in: the classifier's search kernels against their oracles on
every intersecting 3-graph class on [7] with cover number at most two.

For each of the 579 classes (the empty family included) and each of the
six H3 rungs, the full candidate stream of the library's search must
equal the oracle's, the witness check must give the oracle check's
answer on every candidate, and ``embed`` must return the oracle's
witness.  The oracles, in tests/test_search_oracles.py, try every apex
label, rescan every edge at every node of the schema search and check
each edge against each generator.

This directory is outside the default test paths, so the tier-1 suite
neither collects nor skips it.  Run it from the repository root with

    python3 -m pytest -q slow_tests

This file took 6.6 to 8.4 s in three runs on a 2-vCPU machine.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from ifam.constructions import ConstructionId, ConstructionParams
from ifam.enumeration import EnumerationFilter, enumerate_intersecting

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_search_oracles import assert_same_kernels  # noqa: E402


@pytest.fixture(scope="module")
def classes():
    fams = enumerate_intersecting(7, 3, EnumerationFilter(tau_le=2))
    assert len(fams) == 579
    return fams


@pytest.mark.parametrize("i", range(6))
def test_every_n7_class_gets_the_oracle_candidates_on_each_rung(classes, i):
    p = ConstructionParams(7, 3, i=i)
    streams = [assert_same_kernels(h, ConstructionId.H3FAM, p) for h in classes]
    # every rung proposes candidates on some class
    assert any(streams)
