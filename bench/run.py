#!/usr/bin/env python3
"""The gammalab benchmark: four workloads, checked outputs, one JSON result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with nothing installed in the
program: whole passes over the workload are repeated until ``--seconds``
have gone by, and each timing is the median over passes (or over all
operations, for the latency percentiles).  ``--trace 1`` makes one untraced
and one traced pass, runs the fixed layer suite, and reports the per-layer
metrics (see README.md).  ``--smoke`` shrinks every input to run in seconds.
``--record-digests`` rewrites ``digests.json`` from the current program.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

import workloads as wl
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")

POOL_THREADS = 2      # workers per CLI command, capped at the usable cores
SETUP_REPS = 7        # set-up is repeated this often and the median reported
DEADLINE_S = 170.0    # a run stops starting work after this long

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}
PER_LAYER = {
    "permutations.tally.self_s": "s",
    "permutations.des_ides.ns_per_call": "ns",
    "permutations.is_simple.ns_per_call": "ns",
    "permutations.perms_visited": "count",
    "permutations.simple_found": "count",
    "permutations.pool.speedup_n10": "ratio",
    "permutations.pool.speedup_n8": "ratio",
    "polys.mul.calls": "count",
    "polys.mul.self_s": "s",
    "polys.mul.us_per_call": "us",
    "polys.coeff_bits_max": "bits",
    "polys.gamma_expand.self_s": "s",
    "series.eulerian_series.self_s": "s",
    "series.functional_inverse.self_s": "s",
    "series.powerseries_mul.calls": "count",
    "series.compose.calls": "count",
    "trees.decompose.calls": "count",
    "trees.decompose.self_s": "s",
    "trees.decompose.p99_ms.random": "ms",
    "trees.decompose.p99_ms.separable": "ms",
    "trees.reconstruct.calls": "count",
    "trees.reconstruct.self_s": "s",
    "trees.recursion_failures": "count",
    "orbits.closure_trees.trees": "count",
    "orbits.closure_trees.self_s": "s",
    "orbits.closure_trees.rss_delta_mb": "MB",
    "orbits.minimal_representative.calls": "count",
    "orbits.minimal_representative.self_s": "s",
    "orbits.closure_class_report.self_s": "s",
    "orbits.verify_reduction.self_s": "s",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program source, bad arguments)."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def pool_threads() -> int:
    return min(POOL_THREADS, usable_cores())


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "GAMMALAB_THREADS"}
    env["PYTHONPATH"] = SRC
    return env


def source_digest() -> str:
    """Content hash of src/: the checkout carries no version-control metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def environment() -> dict:
    return {
        "usable_cores": usable_cores(),
        "threads": pool_threads(),
        "python": platform.python_version(),
        "commit": source_digest(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def import_gammalab():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.environ.pop("GAMMALAB_THREADS", None)
    import gammalab.cli

    if not os.path.abspath(gammalab.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported gammalab from {gammalab.__file__}, not from {SRC}")
    return gammalab


# ---------------------------------------------------------------------------
# operations and their outcomes
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed operations, per-operation latencies, problems."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.latencies: dict[str, list[float]] = collections.defaultdict(list)  # inf: failed
        self.problems: list[str] = []
        self.failure_kinds: collections.Counter = collections.Counter()
        self.digests: dict[str, str] = {}
        self.checked: set[str] = set()
        self.output_bytes = 0
        self.recursion_failures = 0

    def record(self, key: str, seconds: float, failure: str | None, stdout: str,
               check, allowed_to_fail: bool = False) -> None:
        """Count one operation.  ``check`` runs on the first output of ``key``;
        later outputs must match its digest (or the recorded one) byte for byte."""
        self.attempted += 1
        self.output_bytes += len(stdout.encode())
        if failure is not None:
            self.failed += 1
            self.failure_kinds[failure[:160]] += 1
            self.latencies[key].append(math.inf)
            if not allowed_to_fail:
                self.problems.append(f"{key}: {failure}")
            return
        self.latencies[key].append(seconds)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            self.problems.append(f"{key}: stdout bytes differ from the recorded digest")
        if key not in self.checked:
            self.checked.add(key)
            self.problems += [f"{key}: {p}" for p in check(stdout)]

    def correct(self) -> bool:
        return not self.problems


def run_child(argv: list[str], deadline: float) -> tuple[int | None, str, str, float]:
    """Run one process to completion; returns (exit code, stdout, stderr, seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err + "\ntimed out", time.perf_counter() - start
    return proc.returncode, out, err, time.perf_counter() - start


def failure_of(rc, stderr: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}: {stderr.strip()[-200:]}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    return None


def cli_argv(argv: list[str]) -> list[str]:
    return [*argv, "--format", "json", "--threads", str(pool_threads())]


def load_digests() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def fixed_pass(commands, tally: Tally, recorded: dict[str, str], traced: Tracer | None = None) -> float:
    """One pass over a fixed command list, each a fresh process; returns its seconds."""
    wall = 0.0
    for argv in commands:
        key = " ".join(argv)
        tally.digests.setdefault(key, recorded.get(key, "unrecorded"))
        if traced is None:
            child = [sys.executable, "-m", "gammalab", *cli_argv(argv)]
        else:
            child = [sys.executable, os.path.join(HERE, "tracing.py"), traced.workload, "--", *cli_argv(argv)]
        rc, out, err, seconds = run_child(child, tally.deadline)
        if traced is not None and rc == 0:
            result = json.loads(out)
            traced.merge(result["trace"])
            rc, out, err = result["rc"], result["stdout"], result["stderr"]
        wall += seconds
        tally.record(key, seconds, failure_of(rc, err), out, lambda text: wl.check_fixed(argv, text))
    return wall


def query_pass(gammalab, queries, tally: Tally, tracer: Tracer | None = None) -> float:
    """One pass over the request stream, in process, one request at a time."""
    main = gammalab.cli.main
    wall = 0.0
    for i, q in enumerate(queries):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.tag = q.kind
            depth = len(tracer.stack)
        failure = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(q.argv())
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # the request failed; record it and go on
                rc = None
                failure = f"{type(exc).__name__} on {q.command} of a {q.kind} length-{len(q.perm)} input"
                if isinstance(exc, RecursionError):
                    tally.recursion_failures += 1
                if tracer is not None:
                    tracer.reset_after_failure(depth)
        seconds = time.perf_counter() - start
        wall += seconds
        if failure is None:
            failure = failure_of(rc, err.getvalue())
        key = f"request {i} ({q.command}, {q.kind}, n={len(q.perm)})"
        tally.record(key, seconds, failure, out.getvalue(),
                     lambda text, q=q: wl.check_query(q, text), allowed_to_fail=q.kind == "monotone")
    if tracer is not None:
        tracer.tag = None
    return wall


def percentile(values: list[float], q: float) -> float:
    """Percentile by linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def startup_seconds(deadline: float) -> float:
    """A fresh interpreter importing gammalab, timed from outside."""
    rc, _, err, seconds = run_child([sys.executable, "-c", "import gammalab.cli"], deadline)
    if rc != 0:
        raise BenchError(f"cannot import gammalab from {SRC}: {err.strip()[-300:]}")
    return seconds


def make_inputs(workload: str, seed: int, smoke: bool):
    if workload == "queries":
        return wl.make_queries(seed, smoke)
    return wl.fixed_commands(workload, smoke)


def setup(workload: str, seed: int, smoke: bool, deadline: float) -> tuple[list[float], object]:
    """Import cost plus input generation, repeated; returns (times, inputs)."""
    times = []
    for _ in range(SETUP_REPS):
        startup = startup_seconds(deadline)
        start = time.perf_counter()
        inputs = make_inputs(workload, seed, smoke)
        times.append(startup + time.perf_counter() - start)
    return times, inputs


# ---------------------------------------------------------------------------
# the untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def run_untraced(workload: str, seed: int, seconds: float, smoke: bool) -> tuple[Tally, dict]:
    start = time.monotonic()
    tally = Tally(start + DEADLINE_S)
    setup_times, inputs = setup(workload, seed, smoke, tally.deadline)
    if workload == "queries":
        gammalab = import_gammalab()
        do_pass = lambda: query_pass(gammalab, inputs, tally)  # noqa: E731
    else:
        recorded = load_digests()
        do_pass = lambda: fixed_pass(inputs, tally, recorded)  # noqa: E731
    measure_start = time.monotonic()
    walls = []
    while True:
        walls.append(do_pass())
        now = time.monotonic()
        if now - measure_start >= seconds or now + walls[-1] > tally.deadline:
            break
    who = resource.RUSAGE_SELF if workload == "queries" else resource.RUSAGE_CHILDREN
    cap = sum(walls)  # a failed operation counts as slower than the whole run
    # Each operation's latency is its median over the passes.
    latencies = [min(statistics.median(v), cap) for v in tally.latencies.values()]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "query_p50_ms": 1000 * percentile(latencies, 0.50),
        "query_p99_ms": 1000 * percentile(latencies, 0.99),
    }
    ops = f"over {len(latencies)} operations, each the median of {len(walls)} passes"
    samples = {"setup_s": f"median of {len(setup_times)} set-ups",
               "wall_s": f"median of {len(walls)} passes",
               "peak_rss_mb": "largest process of the run", "query_p50_ms": ops, "query_p99_ms": ops}
    return tally, {"metrics": metrics, "samples": samples}


# ---------------------------------------------------------------------------
# the traced run: per-layer metrics
# ---------------------------------------------------------------------------

def _timed(fn, reps: int) -> float:
    """Median seconds of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def microbenchmarks(gammalab, smoke: bool) -> dict[str, float]:
    """Single layers on fixed inputs, untraced."""
    from gammalab.permutations import des_ides, eulerian_distribution, is_simple
    from gammalab.polys import BivarPoly

    rng = random.Random(10)
    sample = [tuple(rng.sample(range(1, 11), 10)) for _ in range(2000 if smoke else 20000)]

    def over_sample(fn):
        return lambda: [fn(p) for p in sample]

    rng = random.Random(13)
    a, b = (BivarPoly({(i, j): rng.getrandbits(64) for i in range(14) for j in range(14)})
            for _ in range(2))
    n_big, n_small = (7, 6) if smoke else (10, 8)
    threads = pool_threads()

    def speedup(n: int, reps: int) -> float:
        serial = _timed(lambda: eulerian_distribution(n, threads=1), reps)
        pooled = _timed(lambda: eulerian_distribution(n, threads=threads), reps)
        return serial / pooled

    return {
        "permutations.des_ides.ns_per_call": 1e9 * _timed(over_sample(des_ides), 5) / len(sample),
        "permutations.is_simple.ns_per_call": 1e9 * _timed(over_sample(is_simple), 5) / len(sample),
        "polys.mul.us_per_call": 1e6 * _timed(lambda: a * b, 3 if smoke else 21),
        "permutations.pool.speedup_n10": speedup(n_big, 1),
        "permutations.pool.speedup_n8": speedup(n_small, 5),
    }


def layer_suite(gammalab, tracer: Tracer) -> None:
    """Small fixed calls into every layer, traced, so that every layer has a
    time on every workload; identical in every traced run."""
    from gammalab import orbits, permutations, polys, series, trees

    rng = random.Random(7)
    perms = []
    for _ in range(8):
        perms.append(("random", tuple(rng.sample(range(1, 65), 64))))
        perms.append(("separable", tuple(wl.random_separable(rng, 64))))
    tracer.enabled = True
    try:
        dist = permutations.eulerian_distribution(7, threads=1)
        permutations.simple_distribution(7, threads=1)
        polys.gamma_expand_bivariate(dist.poly, 6)
        series.simple_series(8)
        for kind, p in perms:
            tracer.tag = kind
            trees.reconstruct(trees.decompose(p))
        tracer.tag = None
        orbits.closure_class_report(6)
        orbits.verify_reduction(6)
        with contextlib.redirect_stdout(io.StringIO()):
            for _, p in perms[:2]:
                gammalab.cli.main(["stats", " ".join(map(str, p)), "--format", "json"])
    finally:
        tracer.enabled = False


def run_traced(workload: str, seed: int, smoke: bool) -> tuple[Tally, dict]:
    start = time.monotonic()
    tally = Tally(start + DEADLINE_S)
    inputs = make_inputs(workload, seed, smoke)
    gammalab = import_gammalab()
    tracer = Tracer(workload)
    if workload == "queries":
        untraced_wall = query_pass(gammalab, inputs, tally)
    else:
        recorded = load_digests()
        untraced_wall = fixed_pass(inputs, tally, recorded)
    layers = microbenchmarks(gammalab, smoke)
    startup = statistics.median(startup_seconds(tally.deadline) for _ in range(SETUP_REPS))
    bytes_before, recursion_before = tally.output_bytes, tally.recursion_failures
    tracer.install()
    if workload == "queries":
        tracer.enabled = True
        traced_wall = query_pass(gammalab, inputs, tally, tracer)
        tracer.enabled = False
        tracer.counts["recursion_failures"] += tally.recursion_failures - recursion_before
    else:  # traced in fresh processes; their traces are merged into ``tracer``
        traced_wall = fixed_pass(inputs, tally, recorded, traced=tracer)
    tracer.counts["output_bytes"] += tally.output_bytes - bytes_before
    layer_suite(gammalab, tracer)
    tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_records(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"))

    t = tracer
    c = t.counts
    metrics = dict(layers)
    metrics.update({
        "permutations.tally.self_s": t.self_s(
            "permutations.eulerian_distribution", "permutations.simple_distribution",
            "permutations.joint_distribution"),
        "permutations.perms_visited": c["perms_visited"],
        "permutations.simple_found": c["simple_found"],
        "polys.mul.calls": t.calls["polys.mul"],
        "polys.mul.self_s": t.self_s("polys.mul"),
        "polys.coeff_bits_max": c["coeff_bits_max"],
        "polys.gamma_expand.self_s": t.self_s("polys.gamma_expand_bivariate"),
        "series.eulerian_series.self_s": t.self_s(
            "series.eulerian_series", "series.rsk_two_sided_eulerian"),
        "series.functional_inverse.self_s": t.self_s("series.functional_inverse"),
        "series.powerseries_mul.calls": c["series.powerseries_mul"],
        "series.compose.calls": c["series.compose"],
        "trees.decompose.calls": t.calls["trees.decompose"],
        "trees.decompose.self_s": t.self_s("trees.decompose"),
        "trees.decompose.p99_ms.random": 1000 * percentile(t.samples["random"], 0.99),
        "trees.decompose.p99_ms.separable": 1000 * percentile(t.samples["separable"], 0.99),
        "trees.reconstruct.calls": t.calls["trees.reconstruct"],
        "trees.reconstruct.self_s": t.self_s("trees.reconstruct"),
        "trees.recursion_failures": c["recursion_failures"],
        "orbits.closure_trees.trees": c["closure_trees"],
        "orbits.closure_trees.self_s": t.self_s("orbits.closure_trees"),
        "orbits.closure_trees.rss_delta_mb": c["closure_rss_delta_kb"] / 1024,
        "orbits.minimal_representative.calls": t.calls["orbits.minimal_representative"],
        "orbits.minimal_representative.self_s": t.self_s("orbits.minimal_representative"),
        "orbits.closure_class_report.self_s": t.self_s("orbits.closure_class_report"),
        "orbits.verify_reduction.self_s": t.self_s("orbits.verify_reduction"),
        "cli.startup_s": startup,
        "cli.self_s": t.self_s(*(name for name in t.self_time if name.startswith("cli."))),
        "cli.output_bytes": c["output_bytes"],
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    return tally, {"metrics": metrics, "samples": {}}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def record_digests() -> None:
    digests = {}
    deadline = time.monotonic() + 3600
    for table in (wl.FIXED, wl.SMOKE_FIXED):
        for commands in table.values():
            for argv in commands:
                rc, out, err, _ = run_child(
                    [sys.executable, "-m", "gammalab", *cli_argv(argv.split())], deadline)
                if failure_of(rc, err):
                    raise BenchError(f"{argv}: {failure_of(rc, err)}")
                digests[argv] = hashlib.sha256(out.encode()).hexdigest()
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the harness")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "gammalab", "__init__.py")):
            raise BenchError(f"no gammalab source under {SRC}")
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            raise BenchError("--workload is required")
        env = environment()
        print("env " + json.dumps(env, sort_keys=True), flush=True)
        if args.trace:
            tally, result = run_traced(args.workload, args.seed, args.smoke)
            units = PER_LAYER
        else:
            tally, result = run_untraced(args.workload, args.seed, args.seconds, args.smoke)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    for failure, count in tally.failure_kinds.most_common(10):
        print(f"failed {count}x: {failure}")
    fail_rate = tally.failed / tally.attempted
    print(f"fail_rate {fail_rate:.6f} ({tally.failed} of {tally.attempted}; "
          f"{tally.recursion_failures} RecursionError)")
    for name, value in result["metrics"].items():
        how = result["samples"].get(name)
        print(f"{name} {value:.6g} {units[name]}" + (f" ({how})" if how else ""))
    print(json.dumps({
        "correct": tally.correct(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
