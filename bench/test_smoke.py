"""Tests of the benchmark harness itself, at smoke size.

    python3 -m pytest bench/test_smoke.py -q
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--smoke", "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if workload == "queries":
        # one deep monotone input per smoke pass of 41 requests, and it fails today
        assert result["failed"] * 41 == result["attempted"]
    else:
        assert result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "enumerate", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_closure_counts_match_known_sequences():
    assert wl.closure_counts(9, {})[1:] == [wl.SCHROEDER[n] for n in range(1, 10)]
    # every simple permutation allowed: the closure is all of S_n
    assert wl.closure_counts(9, wl.SIMPLE_COUNTS)[1:] == [math.factorial(n) for n in range(1, 10)]


def test_query_checks_catch_wrong_answers():
    q = wl.Query("stats", "random", (2, 4, 1, 3))
    good = {"permutation": "2 4 1 3", "n": 4, "des": 1, "ides": 2, "descent_set": [2],
            "simple": True, "in_closure_2": False, "in_closure_5": True}
    assert wl.check_query(q, json.dumps(good)) == []
    assert wl.check_query(q, json.dumps(dict(good, ides=1)))
    leaf = {"skeleton": None, "children": []}
    tree = {"skeleton": [2, 4, 1, 3], "children": [leaf, leaf, leaf, leaf]}
    d = wl.Query("decompose", "random", (2, 4, 1, 3))
    assert wl.check_query(d, json.dumps({"permutation": "2 4 1 3", "tree_json": tree})) == []
    tree["skeleton"] = [3, 1, 4, 2]
    assert wl.check_query(d, json.dumps({"permutation": "2 4 1 3", "tree_json": tree}))


def test_query_stream_is_seeded():
    assert wl.make_queries(5, smoke=False) == wl.make_queries(5, smoke=False)
    assert wl.make_queries(5, smoke=False) != wl.make_queries(6, smoke=False)
    deep = [q for q in wl.make_queries(5, smoke=False) if q.kind == "monotone"]
    assert len(deep) == len(wl.DEEP_QUERIES)
    assert all(len(q.perm) == wl.DEEP_LENGTH for q in deep)
