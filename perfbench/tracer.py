"""Span tracer that instruments the ifam modules from outside.

Each public function defined in a traced module is wrapped once, and the
wrapper is bound under every name that held the original in any loaded
``ifam`` module (the package namespace included), so a call made through
``from .hypergraph import is_intersecting`` in ``kernel`` is traced just
like one made through ``ifam.is_intersecting``.

A span is (name, start, end, parent).  Spans are appended to flat lists
in memory and only aggregated or written out after the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "hypergraph",
    "enumeration",
    "classifier",
    "kernel",
    "sunflower",
    "constructions",
    "io",
    "cli",
    "verify",
)

# O(r) bit conversions called once per subset inside b_star, the
# generators and the sunflower sort keys.  A span costs more than the
# call itself, so their time stays in the caller's self time.
UNTRACED = frozenset({"hypergraph.mask_of", "hypergraph.vertices_of"})

# Functions with a per-call figure summed into the layer's "note":
# hits (a result other than None), edges examined, classes returned.
NOTES = {
    "hypergraph.pack_exists": lambda args, result: result is not None,
    "classifier.embed": lambda args, result: result is not None,
    "sunflower.find_sunflower": lambda args, result: result is not None,
    "hypergraph.is_intersecting": lambda args, result: len(args[0]),
    "enumeration.enumerate_intersecting": lambda args, result: len(result),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.note: dict[int, int] = {}
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, note = self._stack, self.note
        clock = time.perf_counter
        measure = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(end)
            end.append(0.0)
            span_name.append(nid)
            parent.append(stack[-1])
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if measure is not None:
                note[i] = int(measure(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the traced modules in place."""
        modules = [importlib.import_module("ifam")]
        modules += [importlib.import_module(f"ifam.{layer}") for layer in LAYERS]
        for layer in LAYERS:
            mod = sys.modules[f"ifam.{layer}"]
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNTRACED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                traced = self._wrap(name, fn)
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, traced)
        enum_filter = sys.modules["ifam.enumeration"].EnumerationFilter
        enum_filter.admits = self._wrap("enumeration.EnumerationFilter.admits",
                                        enum_filter.admits)

    def summary(self, lo: int = 0, hi: int | None = None) -> dict[str, dict]:
        """Calls, total and self seconds and summed notes per span name,
        over the spans with index in [lo, hi).

        Self time is a span's duration minus the durations of its direct
        children; the pass is single-threaded, so children never overlap.
        """
        n = len(self.end)
        hi = n if hi is None else hi
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "note": 0}
               for name in self.names}
        for i in range(lo, hi):
            rec = out[self.names[self.span_name[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
            rec["note"] += self.note.get(i, 0)
        return out

    def children_named(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans whose parent span is parent_name."""
        pid = self.names.index(parent_name)
        cid = self.names.index(child_name)
        return sum(
            1
            for i in range(len(self.end))
            if self.span_name[i] == cid and self.parent[i] >= 0
            and self.span_name[self.parent[i]] == pid
        )

    def write(self, path) -> None:
        """All spans as JSON: a name table and one [name, start, end,
        parent] row per span, times in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": ')
            json.dump(self.names, fh)
            fh.write(', "spans": [\n')
            rows = zip(self.span_name, self.start, self.end, self.parent)
            fh.write(",\n".join(f"[{a},{b:.9f},{c:.9f},{d}]" for a, b, c, d in rows))
            fh.write("\n]}\n")
