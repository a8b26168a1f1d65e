"""Opt-in: the kernel reduction on H3LIFT(190, 4, i) for i = 0 and 3,
and on H3LIFT(260, 4, 0).

At N = 190 the lifts have 52,360 (i = 0) and 18,690 (i = 3) edges; at
i = 0, B* has 565 cores and B' has 3.
`decompose_th4prime` must keep every edge and answer H3(i), and
`b_kernel`'s B', B'' and layers must equal the minimal members of B*
and the edges containing none of them.  B* comes from the brute-force
`oracle_b_star` in tests/test_core_search.py, which scores every
proper subset of every edge.  At N = 260 (98,945 edges) the reduction
is checked, but not against the oracle: its B* there has 775 cores and
takes about 4.5 s, more than the reduction itself.  On every lift,
`kernel_invariant_violations` must find nothing in `b_kernel`'s
decomposition.

This directory is outside the default test paths, so the tier-1 suite
neither collects nor skips it.  Run it from the repository root with

    python3 -m pytest -q slow_tests

This file's tests took 5.3 and 4.2 s in two runs on a 2-vCPU machine,
2.1 and 1.6 s of it at N = 260 (`decompose_th4prime` there takes about
0.4 s).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from ifam.classifier import decompose_th4prime
from ifam.constructions import ConstructionId, ConstructionParams, build_construction
from ifam.kernel import b_kernel, kernel_invariant_violations, paper_r

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_core_search import oracle_kernel  # noqa: E402


@pytest.mark.parametrize("i", [0, 3])
def test_lift_at_190_points_keeps_every_edge_and_its_kernel(i):
    h = build_construction(ConstructionId.H3LIFT, ConstructionParams(190, 4, i=i))
    hp, removed, verdict = decompose_th4prime(h)
    assert removed == 0
    assert hp == h
    assert verdict.describe() == f"H3({i})"
    d = b_kernel(h, paper_r())
    assert (d.b_prime, d.b_dprime, d.by_size) == oracle_kernel(h, paper_r())
    assert kernel_invariant_violations(h, d) == []


def test_lift_at_260_points_keeps_every_edge():
    h = build_construction(ConstructionId.H3LIFT, ConstructionParams(260, 4, i=0))
    hp, removed, verdict = decompose_th4prime(h)
    assert removed == 0
    assert hp == h
    assert verdict.describe() == "H3(0)"
    assert kernel_invariant_violations(h, b_kernel(h, paper_r())) == []
