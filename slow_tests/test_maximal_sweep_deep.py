"""Opt-in: the maximal r = 3 sweep at n = 10, 11 and 12.

The maximal intersecting 3-graphs on [n] fall into 15 classes at every
n from 7 to 12.  The class counts and the digests of the class lists
below were recorded from the sweep that ran Bron-Kerbosch through
{1, 2, 3} alone, one canonicity test per maximal clique through that
edge; the sweep seeded with canonical prefixes must reproduce them.

This directory is outside the default test paths, so the tier-1 suite
neither collects nor skips it.  Run it from the repository root with

    python3 -m pytest -q slow_tests

This file takes about 1.5 s on a 2-vCPU machine.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from ifam.enumeration import EnumerationFilter, enumerate_intersecting

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_enumeration import class_list_digest  # noqa: E402


@pytest.mark.parametrize(
    "n, digest",
    [(10, "cf70a309f8274d36"), (11, "7e39aa0168b2b90c"), (12, "1ed851c2a3fc09b8")],
)
def test_maximal_class_lists_at_ten_to_twelve_points(n, digest):
    f = EnumerationFilter(maximal_only=True)
    fams = enumerate_intersecting(n, 3, f, ceiling=12)
    assert len(fams) == 15
    assert class_list_digest(fams) == digest
