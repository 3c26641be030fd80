"""Spans and counters that the benchmark installs on gammalab at run time.

``Tracer.install`` replaces every public function of the six modules
(``permutations``, ``polys``, ``series``, ``trees``, ``orbits``, ``cli``) by
a wrapper that opens a span around the call, in every gammalab namespace that
binds it, plus a few methods listed below.  A span has a name, start, end,
parent and workload.  Every span is folded into per-name totals as it closes
(calls, and self time: duration minus the child spans); spans of
at least ``RECORD_MIN_S`` are also kept whole, for writing out at the end.

Pool workers forked while tracing inherit the wrappers but not the tracer's
results, so the tracer switches itself off in a forked child.

Run as a script, this module executes one CLI command traced in a fresh
interpreter and prints one JSON object with the exit code, the captured
output and the trace:

    python3 bench/tracing.py WORKLOAD -- poly --target eulerian --n 8 --format json
"""
from __future__ import annotations

import collections
import functools
import importlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

MODULES = ("permutations", "polys", "series", "trees", "orbits", "cli")
# Methods traced as spans, by (module, class, attribute) -> span name.
SPAN_METHODS = {
    ("polys", "BivarPoly", "__mul__"): "polys.mul",
    ("polys", "BivarPoly", "__rmul__"): "polys.mul",
}
# Methods that are only counted: they run inside the spans of their callers.
COUNT_METHODS = {
    ("series", "PowerSeries", "__mul__"): "series.powerseries_mul",
    ("series", "PowerSeries", "__rmul__"): "series.powerseries_mul",
    ("series", "PowerSeries", "compose"): "series.compose",
}
RECORD_MIN_S = 1e-3

perf_counter = time.perf_counter


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.enabled = False
        self.tag: str | None = None  # input kind of the request being served
        self.stack: list[list] = []  # open spans: [name, start, child_time, id]
        self.next_id = 1
        self.calls: collections.Counter = collections.Counter()
        self.self_time: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self.samples: dict[str, list[float]] = collections.defaultdict(list)
        self.records: list[tuple] = []  # (id, parent_id, name, start, end)
        self.depth: collections.Counter = collections.Counter()
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.enabled = False

    # -- spans -------------------------------------------------------------

    def _close(self, frame: list, end: float) -> None:
        stack = self.stack
        while stack and stack.pop() is not frame:
            pass  # an exception unwound inner spans without closing them
        name, start, child, sid = frame
        dur = end - start
        self.calls[name] += 1
        self.self_time[name] += dur - child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        if dur >= RECORD_MIN_S:
            self.records.append((sid, parent[3] if parent else 0, name, start, end))

    def span(self, name: str, fn, around=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0.0, tracer.next_id]
            tracer.next_id += 1
            tracer.stack.append(frame)
            frame[1] = perf_counter()
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(tracer, fn, args, kwargs)
            finally:
                tracer._close(frame, perf_counter())

        return wrapper

    def counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def reset_after_failure(self, depth: int) -> None:
        """Drop spans left open by an exception that escaped a request."""
        del self.stack[depth:]
        self.depth.clear()

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"gammalab.{m}") for m in MODULES}
        namespaces = [importlib.import_module("gammalab"), *modules.values()]
        replace: dict[int, object] = {}
        for m, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported from elsewhere; wrapped where defined
                name = f"{m}.{attr}"
                replace[id(obj)] = self.span(name, obj, AROUND.get(name))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._patch(ns, attr, wrapper)
        for (m, cls_name, attr), name in SPAN_METHODS.items():
            cls = getattr(modules[m], cls_name)
            self._patch(cls, attr, self.span(name, cls.__dict__[attr], AROUND.get(name)))
        for (m, cls_name, attr), name in COUNT_METHODS.items():
            cls = getattr(modules[m], cls_name)
            self._patch(cls, attr, self.counter(name, cls.__dict__[attr]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "samples": dict(self.samples),
            "records": self.records,
        }

    def merge(self, other: dict) -> None:
        """Add the exported trace of another process (a traced CLI child)."""
        self.calls.update(other["calls"])
        self.self_time.update(other["self"])
        for name, value in other["counts"].items():
            if name.endswith("_max"):
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value
        for tag, values in other["samples"].items():
            self.samples[tag].extend(values)
        offset = self.next_id
        for sid, parent, name, start, end in other["records"]:
            self.records.append((sid + offset, parent + offset if parent else 0, name, start, end))
            self.next_id = max(self.next_id, sid + offset + 1)

    def self_s(self, *names: str) -> float:
        return sum(self.self_time[n] for n in names)

    def write_records(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.records:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "workload": self.workload,
                }) + "\n")


# ---------------------------------------------------------------------------
# counters kept at particular spans
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _enumerate_permutations(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.counts["perms_visited"] += math.factorial(_arg(args, kwargs, 0, "n"))
    return result


def _distribution(tracer, fn, args, kwargs):
    # The sharded path tallies in pool workers, out of the tracer's sight:
    # credit the whole enumeration here unless a traced enumeration ran inside.
    visited, found = tracer.counts["perms_visited"], tracer.counts["simple_found"]
    result = fn(*args, **kwargs)
    if tracer.counts["perms_visited"] == visited:
        tracer.counts["perms_visited"] += math.factorial(result.n)
    if fn.__name__ == "simple_distribution" and tracer.counts["simple_found"] == found:
        tracer.counts["simple_found"] += result.count
    return result


def _enumerate_simple(tracer, fn, args, kwargs):
    counts = tracer.counts

    def counted(it):
        for p in it:
            counts["simple_found"] += 1
            yield p

    return counted(fn(*args, **kwargs))


def _closure_trees(tracer, fn, args, kwargs):
    outermost = tracer.depth["closure_trees"] == 0
    tracer.depth["closure_trees"] += 1
    before = _maxrss_kb()
    try:
        result = fn(*args, **kwargs)
    finally:
        tracer.depth["closure_trees"] -= 1
    if outermost:
        if not isinstance(result, (list, tuple)):
            result = list(result)
        tracer.counts["closure_trees"] += len(result)
        tracer.counts["closure_rss_delta_kb"] += _maxrss_kb() - before
    return result


def _decompose(tracer, fn, args, kwargs):
    outermost = tracer.depth["decompose"] == 0
    tracer.depth["decompose"] += 1
    start = perf_counter()
    try:
        result = fn(*args, **kwargs)
    finally:
        tracer.depth["decompose"] -= 1
    if outermost and tracer.tag is not None:
        tracer.samples[tracer.tag].append(perf_counter() - start)
    return result


def _mul(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    if isinstance(result, type(args[0])):
        bits = max((abs(v).bit_length() for _, v in result.items()), default=0)
        if bits > tracer.counts["coeff_bits_max"]:
            tracer.counts["coeff_bits_max"] = bits
    return result


AROUND = {
    "permutations.enumerate_permutations": _enumerate_permutations,
    "permutations.eulerian_distribution": _distribution,
    "permutations.simple_distribution": _distribution,
    "permutations.enumerate_simple": _enumerate_simple,
    "orbits.closure_trees": _closure_trees,
    "trees.decompose": _decompose,
    "polys.mul": _mul,
}


def _traced_command(workload: str, argv: list[str]) -> dict:
    import gammalab.cli

    tracer = Tracer(workload)
    tracer.install()
    out, err = io.StringIO(), io.StringIO()
    rc = None
    tracer.enabled = True
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = gammalab.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:
            traceback.print_exc()
            if isinstance(exc, RecursionError):
                tracer.counts["recursion_failures"] += 1
    tracer.enabled = False
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "trace": tracer.export()}


if __name__ == "__main__":
    sep = sys.argv.index("--")
    result = _traced_command(sys.argv[1], sys.argv[sep + 1:])
    sys.stdout.write(json.dumps(result))
