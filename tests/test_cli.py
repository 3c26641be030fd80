"""The command-line interface: outputs, formats, determinism, exit codes."""
import json
import os
import subprocess
import sys

import pytest

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(PKG_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gammalab", *args],
        capture_output=True, text=True, env=env,
    )


def run_json(*args):
    proc = run_cli(*args, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_stats_worked_example():
    data = run_json("stats", "246135")
    assert data["des"] == 1
    assert data["ides"] == 3
    assert data["descent_set"] == [3]
    assert data["n"] == 6


def test_stats_simple_flag():
    assert run_json("stats", "3517246")["simple"] is True
    assert run_json("stats", "123")["simple"] is False


def test_stats_trivial():
    data = run_json("stats", "1")
    assert data["des"] == 0 and data["ides"] == 0


def test_stats_memberships():
    data = run_json("stats", "2413")
    assert data["in_closure_2"] is False
    assert data["in_closure_5"] is True
    assert data["sum_indecomposable"] is True
    assert data["skew_indecomposable"] is True


def test_decompose_golden():
    data = run_json("decompose", "452398167")
    assert data["tree"] == "2413[21[12[.,.],12[.,.]],21[.,.],.,12[.,.]]"
    assert data["odd_chain_count"] == 3
    assert len(data["chains"]) == 4
    assert data["simplified"] == "4[2[2[.,.],2[.,.]],2[.,.],.,2[.,.]]"
    assert data["tree_json"]["skeleton"] == [2, 4, 1, 3]


def test_decompose_leaf_and_chain():
    assert run_json("decompose", "1")["tree"] == "."
    assert run_json("decompose", "123")["tree"] == "12[12[.,.],.]"


def test_poly_eulerian_four():
    data = run_json("poly", "--target", "eulerian", "--n", "4")
    assert data["polynomial"]["text"] == "1 + 10*s*t + s*t^2 + s^2*t + 10*s^2*t^2 + s^3*t^3"
    assert data["gamma"]["gamma"] == [
        {"i": 0, "j": 0, "c": 1}, {"i": 1, "j": 0, "c": 7}, {"i": 1, "j": 1, "c": 1}
    ]
    assert data["positive"] is True


def test_poly_simple_six_both_methods():
    for method in ("inversion", "enumerate"):
        data = run_json("poly", "--target", "simple", "--n", "6", "--method", method)
        assert data["gamma"]["gamma"] == [
            {"i": 1, "j": 2, "c": 1}, {"i": 2, "j": 0, "c": 5}, {"i": 2, "j": 1, "c": 14}
        ]
        assert data["positive"] is True


def test_poly_simple_three_is_zero():
    data = run_json("poly", "--target", "simple", "--n", "3")
    assert data["polynomial"]["text"] == "0"
    assert data["polynomial"]["terms"] == []


def test_poly_separable():
    data = run_json("poly", "--target", "separable", "--n", "5")
    assert data["polynomial"]["terms"][0] == {"s": 0, "t": 0, "c": 1}
    assert sum(term["c"] for term in data["polynomial"]["terms"]) == 90
    assert data["positive"] is True


def test_poly_h5():
    data = run_json("poly", "--target", "h5", "--n", "5")
    assert sum(term["c"] for term in data["polynomial"]["terms"]) == 120
    assert data["positive"] is True


def test_poly_resource_exit_code():
    proc = run_cli("poly", "--target", "eulerian", "--n", "11", "--method", "enumerate")
    assert proc.returncode == 3
    assert "--long-run" in proc.stderr
    proc = run_cli("poly", "--target", "eulerian", "--n", "13", "--method", "enumerate")
    assert proc.returncode == 3
    for args in (("poly", "--target", "h5", "--n", "11"),
                 ("verify", "--suite", "lemma39", "--max-n", "11")):
        proc = run_cli(*args)
        assert proc.returncode == 3
        assert "--long-run" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_parse_error_exit_code():
    proc = run_cli("stats", "4x21")
    assert proc.returncode == 2
    proc = run_cli("stats", "1 2 2")
    assert proc.returncode == 2


def test_usage_error_exit_code():
    proc = run_cli("poly", "--target", "nonsense", "--n", "4")
    assert proc.returncode == 2


def assert_usage_error(proc, flag):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]
    assert proc.stdout == ""


@pytest.mark.parametrize("target", ["eulerian", "simple", "separable", "h5"])
def test_poly_n_below_one_is_usage_error(target):
    for n in ("0", "-1"):
        assert_usage_error(run_cli("poly", "--target", target, "--n", n), "--n")


def test_method_not_read_by_the_target_is_usage_error():
    for args in (("poly", "--target", "separable", "--n", "4", "--method", "bogus"),
                 ("poly", "--target", "eulerian", "--n", "4", "--method", "inversion"),
                 ("verify", "--suite", "system", "--max-n", "5", "--method", "bogus"),
                 ("verify", "--suite", "lemma39", "--max-n", "4", "--method", "enumerate")):
        assert_usage_error(run_cli(*args), "--method")


def test_verify_max_n_below_one_is_usage_error():
    for suite in ("conjecture", "system"):
        proc = run_cli("verify", "--suite", suite, "--max-n", "0")
        assert_usage_error(proc, "--max-n")


def test_negative_threads_is_usage_error():
    assert_usage_error(run_cli("stats", "2413", "--threads", "-1"), "--threads")
    proc = run_cli("poly", "--target", "eulerian", "--n", "4", "--threads", "-2")
    assert_usage_error(proc, "--threads")


def test_verify_system():
    proc = run_cli("verify", "--suite", "system", "--max-n", "6", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["ok"] is True
    assert all(r["pass"] for r in data["results"])


def test_verify_reduction():
    data = run_json("verify", "--suite", "reduction", "--max-n", "5")
    assert data["ok"] is True
    assert [r["n"] for r in data["results"]] == [1, 2, 3, 4, 5]


def test_verify_conjecture():
    data = run_json("verify", "--suite", "conjecture", "--max-n", "8")
    assert data["ok"] is True
    assert [r["n"] for r in data["results"]] == [4, 5, 6, 7, 8]
    assert all(r["positive"] for r in data["results"])


def test_verify_conjecture_full_sweep():
    # The inversion route reaches n = 12 without any long-run flag.
    data = run_json("verify", "--suite", "conjecture", "--max-n", "12")
    assert data["ok"] is True
    assert data["results"][-1]["n"] == 12
    assert all(r["positive"] for r in data["results"])


def test_verify_lemma39():
    data = run_json("verify", "--suite", "lemma39", "--max-n", "5")
    assert data["ok"] is True
    last = data["results"][-1]
    assert last["positive"] is True
    assert all(rec["size"] >= 1 for rec in last["classes"])


def test_determinism():
    args = ("poly", "--target", "simple", "--n", "6", "--format", "json")
    out1 = run_cli(*args).stdout
    out2 = run_cli(*args).stdout
    assert out1 == out2
    args = ("decompose", "452398167", "--format", "text")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_csv_format():
    proc = run_cli("poly", "--target", "eulerian", "--n", "4", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "s_degree,t_degree,coefficient"
    assert "1,1,10" in lines


def test_output_file(tmp_path):
    target = tmp_path / "out.json"
    proc = run_cli("poly", "--target", "eulerian", "--n", "4",
                   "--format", "json", "--output", str(target))
    assert proc.returncode == 0
    data = json.loads(target.read_text(encoding="utf-8"))
    assert data["positive"] is True
    assert "\r" not in target.read_text(encoding="utf-8")


def test_threads_env_fallback():
    data1 = run_json("poly", "--target", "eulerian", "--n", "6")
    proc = run_cli("poly", "--target", "eulerian", "--n", "6", "--format", "json",
                   env_extra={"GAMMALAB_THREADS": "2"})
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == data1
