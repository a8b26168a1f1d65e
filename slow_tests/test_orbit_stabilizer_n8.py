"""Opt-in: the orbit-stabilizer identity for the n = 8 tau <= 2 sweep.

Over the isomorph-free list of intersecting 3-graphs on [8] with cover
number at most two and at least one edge, the orbit sizes 8!/|Aut(H)|
must add up to the number of labelled such families.  A lost class
makes the sum short and a repeated one makes it long.  Both counts come
from the oracles in tests/test_enumeration.py, which use neither
`canonical_form` nor the generator.

This directory is outside the default test paths, so the tier-1 suite
neither collects nor skips it.  Run it from the repository root with

    python3 -m pytest -q slow_tests

It takes about 20 s on a 2-vCPU machine, most of it in the labelled count.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from ifam.enumeration import EnumerationFilter, enumerate_intersecting

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_enumeration import automorphism_count, labelled_tau2_count  # noqa: E402


def test_orbit_stabilizer_identity_n8():
    fams = enumerate_intersecting(8, 3, EnumerationFilter(tau_le=2, min_edges=1))
    assert len(fams) == 2_060
    orbits = sum(math.factorial(8) // automorphism_count(h) for h in fams)
    assert orbits == labelled_tau2_count(8, 3) == 31_951_514
