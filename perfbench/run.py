"""ifam benchmark: one command for every workload, end to end or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is loaded from ``src``.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced pass.  Each metric goes on its own
line as ``name = value unit``; the last line is the JSON result.  Details
and provenance go to ``.perfbench_out/BENCH_<workload>_seed<seed>_trace<t>.json``.
The exit code is 1 when an output misses its reference, 2 when the
library is absent.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

WORKLOADS = ("sweep", "lift130", "families", "cli_cold")
DEFAULT_SEED = REFERENCE["families"]["seed"]  # its families histogram is pinned
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 150
# Percentiles tried for case_tail_ms, highest first; the first with at
# least TAIL_MIN_BEYOND cases above it within one pass is reported, so the
# percentile does not move with the number of passes a run fits in.
TAIL_LADDER = (99.9, 99.5, 99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10


class BenchError(Exception):
    """A worker failed to produce a result."""


def worker(workload, seed, mode, seconds, env):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(seconds)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def warm_up(env):
    """Compile bytecode once, untimed, since users pay it only once."""
    subprocess.run([sys.executable, "-c", "import workloads, tracer"],
                   cwd=HERE, env=env, check=True, capture_output=True,
                   timeout=WORKER_TIMEOUT_S)


def tail(values, per_pass):
    """(value, percentile, cases beyond) for the highest ladder percentile
    with at least TAIL_MIN_BEYOND of a pass's per_pass cases beyond it;
    the maximum, as percentile 100, when a pass has too few cases."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        if per_pass - math.ceil(p / 100 * per_pass) >= TAIL_MIN_BEYOND:
            rank = math.ceil(p / 100 * n)
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100, 0


def import_times(env, repeats=3):
    """Median cumulative import time of ifam and of numpy, in ms, from
    ``-X importtime`` in fresh interpreters."""
    got = {"ifam": [], "numpy": []}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ifam"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, check=True)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (.*)$", line)
            if m and m.group(2).strip() in got:
                got[m.group(2).strip()].append(int(m.group(1)) / 1000)
    return {k: statistics.median(v) if v else 0.0 for k, v in got.items()}


def load_average():
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "numpy": numpy_version,
        "seed": seed,
    }


def end_to_end(workload, seed, seconds, env):
    runs = [worker(workload, seed, "setup", seconds, env) for _ in range(SETUP_RUNS - 1)]
    res = worker(workload, seed, "timed", seconds, env)
    runs.append(res)
    setups = [r["setup_s"] for r in runs]
    raw_setups = [r["raw_setup_s"] for r in runs]
    lat_ms = [x * 1000 for x in res["latencies"]]
    per_pass = len(lat_ms) // len(res["walls"])
    tail_ms, pct, beyond = tail(lat_ms, per_pass)
    metrics = {
        "wall_s": (statistics.median(res["walls"]), "s",
                   f"median of {len(res['walls'])} passes"),
        "case_p50_ms": (statistics.median(lat_ms), "ms", f"{len(lat_ms)} cases"),
        "case_tail_ms": (tail_ms, "ms",
                         f"p{pct:g} of {len(lat_ms)} cases, {beyond} beyond"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "ru_maxrss of the pass process"),
    }
    raw_ms = [x * 1000 for x in res["raw_latencies"]]
    details = {"walls": res["walls"], "setups": setups,
               "tail_percentile": pct, "tail_beyond": beyond,
               "raw": {"wall_s": statistics.median(res["raw_walls"]),
                       "case_p50_ms": statistics.median(raw_ms),
                       "case_tail_ms": tail(raw_ms, per_pass)[0],
                       "setup_s": statistics.median(raw_setups)}}
    return metrics, len(lat_ms), res["case_errors"], res["pass_errors"], details


COUNT_UNIT, SECONDS_UNIT, RATIO_UNIT = "count", "s", "ratio"


def layer_metrics(layers, admitted, import_ms, overhead):
    def rec(name):
        return layers.get(name, {"calls": 0, "self_s": 0.0, "note": 0})

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def add(name, value, unit):
        m[name] = (value, unit, "")

    for fn in ("hypergraph.is_intersecting", "hypergraph.pack_exists",
               "hypergraph.cover_number", "hypergraph.matching_number",
               "enumeration.canonical_form", "classifier.embed", "kernel.b_star",
               "sunflower.find_sunflower", "constructions.build_construction"):
        add(f"{fn}.calls", rec(fn)["calls"], COUNT_UNIT)
        add(f"{fn}.self_s", rec(fn)["self_s"], SECONDS_UNIT)
    add("hypergraph.is_intersecting.edges", rec("hypergraph.is_intersecting")["note"], COUNT_UNIT)
    for fn in ("hypergraph.pack_exists", "classifier.embed", "sunflower.find_sunflower"):
        add(f"{fn}.hit_ratio", ratio(rec(fn)["note"], rec(fn)["calls"]), RATIO_UNIT)
    for fn in ("enumeration.enumerate_intersecting", "classifier.classify_3graph",
               "classifier.classify_rgraph", "classifier.decompose_th4prime",
               "kernel.reduce_to_3graph", "kernel.kernel_invariant_violations",
               "io.parse_hypergraph", "cli.main", "verify.verify"):
        add(f"{fn}.self_s", rec(fn)["self_s"], SECONDS_UNIT)
    candidates = rec("enumeration.EnumerationFilter.admits")["calls"]
    classes = rec("enumeration.enumerate_intersecting")["note"]
    add("enumeration.candidates", candidates, COUNT_UNIT)
    add("enumeration.admitted", admitted, COUNT_UNIT)
    add("enumeration.classes", classes, COUNT_UNIT)
    add("enumeration.class_yield", ratio(classes, candidates), RATIO_UNIT)
    add("cli.import_ms", import_ms["ifam"], "ms")
    add("cli.import_numpy_ms", import_ms["numpy"], "ms")
    add("trace.overhead_frac", overhead, RATIO_UNIT)
    return m


def pin_mismatches(workload, seed, metrics, case_counts):
    """Exact counts that differ from the pinned ones.  A mismatch means the
    tracer missed a binding or the program's work changed; it is reported,
    not failed, because a change to an algorithm moves counts legitimately."""
    want = REFERENCE["trace_pins"].get(workload, {})
    if workload == "families" and seed != DEFAULT_SEED:
        want = {}
    out = []
    for name, value in want.items():
        if name.startswith("case:"):
            _, case, span, field = name.split(":")
            got = case_counts.get(case, {}).get(span, [0, 0])[field == "note"]
        else:
            got = metrics[name][0]
        if got != value:
            out.append(f"{name}: pinned {value}, traced {got}")
    return out


def traced(workload, seed, env):
    plain = worker(workload, seed, "plain", 0, env)
    res = worker(workload, seed, "traced", 0, env)
    overhead = (res["walls"][0] - plain["walls"][0]) / plain["walls"][0]
    metrics = layer_metrics(res["layers"], res["admitted"], import_times(env), overhead)
    case_counts = res.get("case_counts", {})
    wall = res["raw_walls"][0]
    shares = sorted(((s / wall, name) for name, s in res["pass_self_s"].items()),
                    reverse=True)[:8]
    details = {
        "plain_wall_s": plain["walls"][0],
        "traced_wall_s": res["walls"][0],
        # raw self time over the raw traced pass; set-up spans left out
        "self_share_of_traced_wall": {name: round(s, 4) for s, name in shares},
        "case_counts": case_counts,
        "pin_mismatches": pin_mismatches(workload, seed, metrics, case_counts),
        "layers": res["layers"],
    }
    attempted = len(plain["latencies"]) + len(res["latencies"])
    errors = plain["case_errors"] + res["case_errors"]
    pass_errors = plain["pass_errors"] + res["pass_errors"]
    return metrics, attempted, errors, pass_errors, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ifam" / "__init__.py").is_file():
        print(f"perfbench: no ifam package under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    OUT.mkdir(exist_ok=True)
    prov = provenance(args.seed)
    prov["loadavg_1m_start"] = load_average()
    try:
        warm_up(env)
        if args.trace:
            metrics, attempted, errors, pass_errors, details = traced(args.workload, args.seed, env)
        else:
            metrics, attempted, errors, pass_errors, details = end_to_end(
                args.workload, args.seed, args.seconds, env)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    prov["loadavg_1m_end"] = load_average()

    failed = len(errors)
    correct = failed == 0 and not pass_errors
    for msg in (errors + pass_errors)[:20]:
        print(f"reference check failed: {msg}", file=sys.stderr)
    for msg in details.get("pin_mismatches", []):
        print(f"trace pin mismatch: {msg}", file=sys.stderr)
    print(f"workload = {args.workload}  seed = {args.seed}  trace = {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"fail_frac = {failed / attempted:.6g} ratio  ({failed} of {attempted} cases)")
    print("provenance = " + json.dumps(prov))

    report = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "provenance": prov, "correct": correct, "attempted": attempted, "failed": failed,
        "errors": errors[:100], "pass_errors": pass_errors,
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        "details": details,
    }
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
