"""The four benchmark workloads: inputs, cases and reference checks.

Each workload is a closed loop with one caller: a case starts only after
the previous one returns.  ``setup`` builds the inputs from the seed (it
is what ``setup_s`` times, together with ``import ifam``), ``cases``
yields (label, thunk) pairs for one pass, ``check_case`` returns an error
message or None for one output, and ``check_pass`` checks what only the
whole pass shows.

Library calls go through module attributes at call time (``ifam.verify``,
``ifam.cli.main``), so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import ifam
import ifam.cli

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

# The seed whose families verdict histogram is pinned.  Every other check
# holds on any seed.
DEFAULT_SEED = REFERENCE["families"]["seed"]


class Sweep:
    """Isomorph-free sweeps: the frame generator (TH4_MAIN) and the
    Bron-Kerbosch maximal generator (FOLK), both deduplicated by
    canonical_form.  The seed does not change the inputs."""

    def setup(self, seed, workdir):
        return None

    def cases(self, inputs, seed, in_process):
        yield "TH4_MAIN n=6", lambda: ifam.verify("TH4_MAIN", n=6)
        yield "FOLK max_support=7", lambda: ifam.verify("FOLK", max_support=7)

    def check_case(self, label, inputs, rep):
        if not rep.passed:
            return f"{label}: {rep.summary()}"
        if label.startswith("TH4_MAIN"):
            ref = REFERENCE["sweep"]
            if rep.checked != ref["th4_main_checked"]:
                return f"{label}: checked {rep.checked}, expected {ref['th4_main_checked']}"
            hist = {w["verdict"]: w["classes"] for w in rep.witnesses}
            if hist != ref["th4_main_histogram"]:
                return f"{label}: verdict histogram {hist}"
            return None
        tens = [w for w in rep.witnesses if w["edges"] == 10]
        if not any(w["k5"] for w in tens) or not any(w["fp_type"] for w in tens):
            return f"{label}: ten-edge witnesses miss K5 or the FP type"
        return None

    def check_pass(self, inputs, outputs, seed):
        return []


class Lift130:
    """Kernel reduction of three criterion-9 lifts H3LIFT(130, 4, i).
    n > 63 sends is_intersecting down its pure-Python path.  The seed
    does not change the inputs."""

    INDICES = (3, 4, 5)

    def setup(self, seed, workdir):
        return {
            i: ifam.build_construction(ifam.ConstructionId.H3LIFT,
                                       ifam.ConstructionParams(130, 4, i=i))
            for i in self.INDICES
        }

    def cases(self, inputs, seed, in_process):
        for i, h in inputs.items():
            yield i, lambda h=h: ifam.decompose_th4prime(h)

    def check_case(self, i, inputs, out):
        hp, removed, verdict = out
        if removed != 0:
            return f"H3LIFT(130,4,i={i}): removed {removed} edges"
        if hp != inputs[i]:
            return f"H3LIFT(130,4,i={i}): retained family differs from the input"
        if verdict.describe() != f"H3({i})":
            return f"H3LIFT(130,4,i={i}): verdict {verdict.describe()}"
        return None

    def check_pass(self, inputs, outputs, seed):
        return []


# -- families ---------------------------------------------------------------
#
# The three KERNEL_PROPS generators, restated here on the public API so the
# benchmark keeps running when the library's private helpers change.  The
# stream visits (generator, r) round-robin instead of drawing them, which
# keeps the pass's total work close to equal across seeds.


def _star_noise(rng, r):
    n = rng.randint(r + 2, 30)
    center = rng.randint(1, n)
    others = [v for v in range(1, n + 1) if v != center]
    picked, chosen = [], set()
    for _ in range(rng.randint(1, 60)):
        e = ifam.mask_of((center, *rng.sample(others, r - 1)))
        if e not in chosen:
            chosen.add(e)
            picked.append(e)
    for _ in range(rng.randint(0, 8)):
        e = ifam.mask_of(rng.sample(range(1, n + 1), r))
        if e not in chosen and all(e & f for f in picked):
            chosen.add(e)
            picked.append(e)
    return ifam.Hypergraph.from_masks(n, r, picked)


def _template_subfamily(rng, r):
    cid, params = ifam.ConstructionId, ifam.ConstructionParams
    n = rng.randint(2 * r + 1, 30)
    options = [
        (cid.EM, params(n, r, s=rng.randint(1, 3))),
        (cid.HM_T, params(n, r, t=rng.choice([*range(0, r), n - r]))),
        (cid.HM0, params(n, r)),
        (cid.HM_DP, params(n, r)),
    ]
    c, p = rng.choice(options)
    try:
        ifam.validate_construction_params(c, p)
    except ifam.ConstructionError:
        c, p = cid.HM_T, params(n, r, t=1)
    h = ifam.build_construction(c, p)
    sub = rng.sample(h.edges, rng.randint(1, min(len(h), 200)))
    return ifam.Hypergraph.from_masks(n, r, sub)


def _greedy(rng, r):
    n = rng.randint(r + 2, 13)
    pool = [ifam.mask_of(c) for c in combinations(range(1, n + 1), r)]
    rng.shuffle(pool)
    target = rng.randint(1, 25)
    picked = []
    for e in pool:
        if all(e & f for f in picked):
            picked.append(e)
            if len(picked) == target:
                break
    return ifam.Hypergraph.from_masks(n, r, picked)


_GENERATORS = (_star_noise, _template_subfamily, _greedy)


def family_case(h, scheme):
    """Kernel decomposition and its invariants; classification when the
    family is intersecting with cover number at most two (r = 3) or
    exactly two (r >= 4)."""
    d = ifam.b_kernel(h, scheme)
    violations = ifam.kernel_invariant_violations(h, d)
    verdict = None
    if ifam.is_intersecting(h):
        tau = ifam.cover_number(h)
        if h.r == 3 and tau <= 2:
            verdict = ifam.classify_3graph(h)
        elif h.r >= 4 and tau == 2:
            verdict = ifam.classify_rgraph(h)
    return violations, verdict


class Families:
    """A seeded stream of small families (n <= 30): many tiny calls on
    the kernel, packing, sunflower and embedding layers."""

    COUNT = 4000

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        stream = []
        for index in range(self.COUNT):
            r = (3, 4)[index % 2]
            h = _GENERATORS[index // 2 % 3](rng, r)
            scheme = ifam.paper_rs(rng.randint(1, 3)) if index % 5 == 4 else ifam.paper_r()
            stream.append((h, scheme))
        return stream

    def cases(self, inputs, seed, in_process):
        for index, (h, scheme) in enumerate(inputs):
            yield index, lambda h=h, scheme=scheme: family_case(h, scheme)

    def check_case(self, index, inputs, out):
        violations, verdict = out
        if violations:
            return f"family {index}: {violations}"
        if verdict is not None and verdict.embedding is not None:
            if not ifam.embedding_is_valid(inputs[index][0], verdict.embedding):
                return f"family {index}: invalid witness for {verdict.describe()}"
        return None

    def check_pass(self, inputs, outputs, seed):
        if seed != DEFAULT_SEED:
            return []
        hist = verdict_histogram(outputs)
        want = REFERENCE["families"]["histogram"]
        return [] if hist == want else [f"families verdict histogram {hist}"]


def verdict_histogram(outputs):
    hist: dict[str, int] = {}
    for out in outputs:
        if isinstance(out, BaseException):
            continue
        key = out[1].describe() if out[1] is not None else "unclassified"
        hist[key] = hist.get(key, 0) + 1
    return dict(sorted(hist.items()))


# -- cli_cold ---------------------------------------------------------------

CLI_FILES = {
    "hm.txt": (ifam.ConstructionId.HM_T, ifam.ConstructionParams(9, 4, t=1)),
    "h3.txt": (ifam.ConstructionId.H3FAM, ifam.ConstructionParams(8, 3, i=4)),
    "fp.txt": (ifam.ConstructionId.FP, ifam.ConstructionParams(7, 3)),
}
SPLIT_FILE = "6 3\n1 2 3\n4 5 6\n"

# verify prints its own wall time; that is the only unpinnable output.
_TIMING = re.compile(r"\d+\.\d+s\)")


def normalize_stdout(text):
    return _TIMING.sub("<t>s)", text)


class CliCold:
    """Spawned ``python -m ifam.cli`` calls, one at a time.  A pass is
    ROUNDS rounds of the fixed mix, each round in a seeded order."""

    ROUNDS = 5
    MIX = [call["argv"] for call in REFERENCE["cli_cold"]["calls"]]

    def setup(self, seed, workdir):
        for name, (cid, params) in CLI_FILES.items():
            h = ifam.build_construction(cid, params)
            (workdir / name).write_text(ifam.serialize_hypergraph(h), encoding="utf-8")
        (workdir / "split.txt").write_text(SPLIT_FILE, encoding="utf-8")
        return workdir

    def cases(self, workdir, seed, in_process):
        rng = random.Random(seed)
        run = run_in_process if in_process else run_spawned
        for _ in range(self.ROUNDS):
            order = list(range(len(self.MIX)))
            rng.shuffle(order)
            for k in order:
                yield k, lambda argv=self.MIX[k]: run(argv, workdir)

    def check_case(self, k, workdir, out):
        want = REFERENCE["cli_cold"]["calls"][k]
        code, stdout = out
        if code != want["exit"]:
            return f"ifam {' '.join(want['argv'])}: exit {code}, expected {want['exit']}"
        if normalize_stdout(stdout) != want["stdout"]:
            return f"ifam {' '.join(want['argv'])}: stdout differs from the reference"
        return None

    def check_pass(self, inputs, outputs, seed):
        return []

    def warm_up(self, workdir):
        """One untimed call, so bytecode compilation is not timed."""
        run_spawned(self.MIX[0], workdir)


def run_spawned(argv, workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "ifam.cli", *argv],
        cwd=workdir, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def run_in_process(argv, workdir):
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(buf):
            code = ifam.cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


WORKLOADS = {
    "sweep": Sweep(),
    "lift130": Lift130(),
    "families": Families(),
    "cli_cold": CliCold(),
}
