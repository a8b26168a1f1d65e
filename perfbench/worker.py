"""One benchmark process: set up a workload, run it, report one JSON line.

Started by run.py in a fresh interpreter with ``src`` on PYTHONPATH.

    worker.py WORKLOAD SEED MODE SECONDS

MODE is ``setup`` (time import and input building, then stop), ``timed``
(whole passes until SECONDS have elapsed), ``plain`` (one untraced pass)
or ``traced`` (one pass under the tracer).  ``plain`` and ``traced`` run
the CLI in process, so their walls compare like with like.
"""

import time

_T0 = time.perf_counter()

import bisect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


class SpeedProbe:
    """Samples the machine's speed all through a measurement.

    The host this runs on changes speed by up to a third for tens of
    seconds at a time, more than any bound a benchmark could keep.  A
    SIGALRM handler therefore times a fixed piece of pure-Python work
    every INTERVAL_S, in this thread, and each measured interval is
    reported as its net time (the probes' own time taken out) scaled by
    NOMINAL_S over the mean probe time around that interval: seconds at
    a fixed reference speed, close to raw seconds on a quiet host.  The
    probe mixes integer arithmetic with scans of list slices of big
    integers, since contention slows the two by different amounts.
    """

    INTERVAL_S = 0.05
    NOMINAL_S = 0.0011
    WINDOW_S = 0.25
    _BIG = list(range(1 << 100, (1 << 100) + 2000))

    def __init__(self):
        self.at, self.dur = [], []

    def sample(self, *_):
        t = time.perf_counter()
        s = 0
        for i in range(6000):
            s += i * i & 7
        e = self._BIG[0]
        for k in range(5):
            for f in self._BIG[k * 100:]:
                s += e & f == 0
        self.at.append(t)
        self.dur.append(time.perf_counter() - t)

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(5):  # so the last interval has probes after it too
            self.sample()

    def normalize(self, t0, t1):
        """Reference-speed seconds for the interval [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + self.WINDOW_S)
        near = self.dur[lo:hi]
        # a probe the scheduler preempted says nothing about speed
        cut = 3 * statistics.median(near)
        speed = statistics.fmean(d for d in near if d <= cut)
        inside = range(bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1))
        net = t1 - t0 - sum(self.dur[i] for i in inside)
        return net * self.NOMINAL_S / speed


# One CPU for this process and the CLI processes it spawns, so the probe
# measures the CPU the work runs on and its time falls inside the
# measured intervals, where normalize takes it out again.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
PROBE = SpeedProbe()
PROBE.start()

import workloads  # noqa: E402  (imports ifam)

# Workloads with at most this many cases a pass get per-case span counts.
PER_CASE_COUNTS_MAX = 10


def run_pass(wl, inputs, seed, in_process, tracer):
    """Run every case once.  Returns the labels, the outputs (an
    exception for a case that raised), each case's (start, end) clock
    readings and, under a tracer, the span index at which each starts."""
    outputs, labels, spans, first_span = [], [], [], []
    for label, thunk in wl.cases(inputs, seed, in_process):
        if tracer:
            first_span.append(len(tracer.end))
        t = time.perf_counter()
        try:
            out = thunk()
        except Exception as exc:  # a raising case counts as failed
            out = exc
        spans.append((t, time.perf_counter()))
        outputs.append(out)
        labels.append(label)
    return labels, outputs, spans, first_span


def check(wl, inputs, seed, labels, outputs):
    errors = []
    for label, out in zip(labels, outputs):
        if isinstance(out, Exception):
            errors.append(f"{label}: raised {type(out).__name__}: {out}")
            continue
        msg = wl.check_case(label, inputs, out)
        if msg:
            errors.append(msg)
    return errors, wl.check_pass(inputs, outputs, seed)


def measure(wl, inputs, seed, mode, seconds, tracer):
    in_process = mode != "timed"
    if not in_process and hasattr(wl, "warm_up"):
        wl.warm_up(inputs)
    passes, case_errors, pass_errors = [], [], []
    start = time.perf_counter()
    while True:
        labels, outputs, spans, first_span = run_pass(wl, inputs, seed, in_process, tracer)
        passes.append(spans)
        pass_end = len(tracer.end) if tracer else 0
        errs, perrs = check(wl, inputs, seed, labels, outputs)
        case_errors += errs
        pass_errors += perrs
        if mode != "timed" or time.perf_counter() - start >= seconds:
            break
    PROBE.stop()
    latencies = [[PROBE.normalize(t0, t1) for t0, t1 in spans] for spans in passes]
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        # a pass's wall is the sum of its cases' reference-speed times
        "walls": [sum(lat) for lat in latencies],
        "latencies": [x for lat in latencies for x in lat],
        "raw_walls": [spans[-1][1] - spans[0][0] for spans in passes],
        "raw_latencies": [t1 - t0 for spans in passes for t0, t1 in spans],
        "case_errors": case_errors,
        "pass_errors": pass_errors,
        # ru_maxrss is in KiB on Linux.  The CLI workload's pass runs in
        # its child processes, every other pass in this one.
        "peak_rss_mb": (child_rss if isinstance(wl, workloads.CliCold) else self_rss) / 1024,
    }
    if tracer:
        # Setup spans count (build_construction there feeds setup_s);
        # the spans of the reference checks after the pass do not.
        result["layers"] = tracer.summary(0, pass_end)
        pass_start = first_span[0] if first_span else pass_end
        result["pass_self_s"] = {name: rec["self_s"] for name, rec in
                                 tracer.summary(pass_start, pass_end).items() if rec["calls"]}
        result["admitted"] = tracer.children_named(
            "enumeration.enumerate_intersecting", "enumeration.canonical_form")
        if len(labels) <= PER_CASE_COUNTS_MAX:
            bounds = zip(first_span, first_span[1:] + [pass_end])
            result["case_counts"] = {
                str(label): {name: [rec["calls"], rec["note"]]
                             for name, rec in tracer.summary(lo, hi).items() if rec["calls"]}
                for label, (lo, hi) in zip(labels, bounds)
            }
    return result


def main(argv):
    name, seed, mode, seconds = argv[0], int(argv[1]), argv[2], float(argv[3])
    wl = workloads.WORKLOADS[name]
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = workloads.HERE.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    try:
        inputs = wl.setup(seed, workdir)
        setup_end = time.perf_counter()
        result = {"raw_setup_s": setup_end - _T0}
        if mode != "setup":
            result.update(measure(wl, inputs, seed, mode, seconds, tracer))
        else:
            PROBE.stop()
        result["setup_s"] = PROBE.normalize(_T0, setup_end)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer:
        tracer.write(out / f"spans-{name}-seed{seed}.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
