"""The command-line interface: outputs, formats, determinism, exit codes."""
import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import node, random_separable, stack_depth, tree_json
from test_trees import random_2413_inflated, reference_shape_text

from gammalab import cli, trees
from gammalab.errors import DistributionError, ExpansionError, InversionError, StructureError
from gammalab.permutations import (
    direct_sum,
    format_permutation,
    inflate,
    is_simple,
    is_skew_indecomposable,
    is_sum_indecomposable,
    skew_sum,
)
from gammalab.polys import BivarPoly

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(PKG_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(*args, env_extra=None, text=True):
    env = cli_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gammalab", *args],
        capture_output=True, text=text, env=env,
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
    data = run_json("stats", "246135")  # simple, so its one skeleton has length 6
    assert data["in_closure_2"] is False
    assert data["in_closure_5"] is False
    data = run_json("stats", "132")
    assert data["in_closure_2"] is True
    assert data["in_closure_5"] is True


def test_stats_shape_flags_match_the_predicates(capsys):
    inputs = [p for n in range(1, 7) for p in itertools.permutations(range(1, n + 1))]
    rng = random.Random(64)
    for n in (64, 100, 256):
        inputs.append(tuple(range(2, n + 1, 2)) + tuple(range(1, n + 1, 2)))  # simple
        for _ in range(3):
            a = tuple(rng.sample(range(1, n + 1), n))
            b = tuple(rng.sample(range(1, 33), 32))
            inputs += [a, direct_sum(a, b), skew_sum(a, b), inflate((2, 4, 1, 3), [a, b, (1,), b])]
    for p in inputs:
        assert cli.main(["stats", " ".join(map(str, p)), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["simple"] is is_simple(p), p
        assert data["sum_indecomposable"] is is_sum_indecomposable(p), p
        assert data["skew_indecomposable"] is is_skew_indecomposable(p), p


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


def test_poly_simple_enumeration_runs_its_cap_without_long_run():
    start = time.perf_counter()
    dp = run_json("poly", "--target", "simple", "--method", "enumerate", "--n", "12")
    assert time.perf_counter() - start < 10
    inversion = run_json("poly", "--target", "simple", "--method", "inversion", "--n", "12")
    assert [dp[k] for k in ("polynomial", "gamma")] == [inversion[k] for k in ("polynomial", "gamma")]


def test_poly_simple_three_is_zero():
    data = run_json("poly", "--target", "simple", "--n", "3")
    assert data["polynomial"]["text"] == "0"
    assert data["polynomial"]["terms"] == []


def test_poly_separable():
    data = run_json("poly", "--target", "separable", "--n", "5")
    assert data["polynomial"]["terms"][0] == {"s": 0, "t": 0, "c": 1}
    assert sum(term["c"] for term in data["polynomial"]["terms"]) == 90
    assert data["positive"] is True


def test_poly_separable_past_the_enumeration_cap_needs_no_long_run():
    data = run_json("poly", "--target", "separable", "--n", "13")
    assert sum(term["c"] for term in data["polynomial"]["terms"]) == 27297738  # A006318


def test_poly_h5():
    data = run_json("poly", "--target", "h5", "--n", "5")
    assert sum(term["c"] for term in data["polynomial"]["terms"]) == 120
    assert data["positive"] is True


def test_poly_resource_exit_code():
    proc = run_cli("poly", "--target", "eulerian", "--n", "13", "--method", "enumerate")
    assert proc.returncode == 3
    proc = run_cli("verify", "--suite", "reduction", "--max-n", "11")
    assert proc.returncode == 3
    assert "--long-run" in proc.stderr
    assert "Traceback" not in proc.stderr
    # --long-run passes the enumeration gate; the tree route's own cap stops
    # the run before any size is scored.
    start = time.perf_counter()
    proc = run_cli("verify", "--suite", "lemma39", "--max-n", "12", "--long-run")
    assert time.perf_counter() - start < 10
    assert proc.returncode == 3
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and "11" in proc.stderr


ROUTE_ROWS = [(command, quantity, method)
              for command, table in cli.ROUTES.items()
              for quantity, routes in table.items()
              for method in routes]
ROUTE_PAIRS = [(command, quantity, first, second)
               for command, table in cli.ROUTES.items()
               for quantity, routes in table.items()
               for first, second in itertools.combinations(routes, 2)]


def route_argv(command, quantity, method, n):
    if command == "poly":
        return ["poly", "--target", quantity, "--n", str(n), "--method", method]
    return ["verify", "--suite", quantity, "--max-n", str(n), "--method", method]


def assert_refused(proc, command, quantity, method, n):
    """Exit 3 with one error line, whose hint names exactly the other methods
    that run n without --long-run, or a smaller size when none does."""
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    routes = cli.ROUTES[command][quantity]
    runnable = [m for m, r in routes.items() if m != method and r.admits(n)]
    hint = proc.stderr.rsplit(";", 1)[1]
    assert re.findall(r"--method (\w+)", hint) == runnable, proc.stderr
    if not runnable:
        assert f"a smaller {'--n' if command == 'poly' else '--max-n'}" in hint


@pytest.mark.parametrize("command, quantity, method", ROUTE_ROWS)
def test_every_route_refuses_past_its_cap_and_its_long_run(command, quantity, method):
    route = cli.ROUTES[command][quantity][method]
    n = route.cap + 1
    start = time.perf_counter()
    long_run = ["--long-run"] if command == "verify" else []
    proc = run_cli(*route_argv(command, quantity, method, n), *long_run)
    assert time.perf_counter() - start < 10
    assert_refused(proc, command, quantity, method, n)
    if route.long_run is not None:
        n = route.long_run + 1
        proc = run_cli(*route_argv(command, quantity, method, n))
        assert_refused(proc, command, quantity, method, n)
        assert "--long-run" in proc.stderr


def test_long_run_help_names_exactly_the_routes_that_need_it(capsys):
    with pytest.raises(SystemExit):
        cli.main(["poly", "--help"])
    assert "--long-run" not in capsys.readouterr().out
    assert all(route.long_run is None for routes in cli.ROUTES["poly"].values()
               for route in routes.values())
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert re.findall(r"(\w+)/(\w+) past --max-n (\d+)", text) == [("reduction", "enumerate", "10")]
    assert "full-enumeration" not in text


def test_poly_refuses_long_run_as_an_unknown_option():
    proc = run_cli("poly", "--target", "eulerian", "--n", "4", "--long-run")
    assert_usage_error(proc, "--long-run")
    assert proc.stderr.startswith("usage: gammalab poly ")


def test_poly_eulerian_runs_the_dp_to_its_cap_without_long_run():
    for n in ("11", "12"):
        dp = run_json("poly", "--target", "eulerian", "--n", n)
        rsk = run_json("poly", "--target", "eulerian", "--n", n, "--method", "rsk")
        assert [dp[k] for k in ("polynomial", "gamma")] == [rsk[k] for k in ("polynomial", "gamma")]


def test_route_pairs_cover_every_quantity_with_two_routes():
    assert {quantity for _, quantity, _, _ in ROUTE_PAIRS} == {"eulerian", "simple", "conjecture"}


@pytest.mark.parametrize("command, quantity, first, second", ROUTE_PAIRS)
def test_the_routes_of_a_quantity_agree(command, quantity, first, second, capsys):
    routes = cli.ROUTES[command][quantity]
    sizes = [n for n in range(1, 9) if routes[first].admits(n) and routes[second].admits(n)]
    assert sizes
    for n in sizes:
        payloads = []
        for method in (first, second):
            argv = route_argv(command, quantity, method, n) + ["--format", "json", "--threads", "1"]
            assert cli.main(argv) == cli.EXIT_OK
            payload = json.loads(capsys.readouterr().out)
            payload.pop("method", None)
            payloads.append(payload)
        assert payloads[0] == payloads[1], (quantity, n)


def test_parse_error_exit_code():
    # Superscript and Arabic-Indic digits pass str.isdigit(); "1_0" passes int().
    # A long non-permutation names one value, not the whole tuple.
    for text in ("4x21", "1 2 2", "\u00b21", "\u2074", "1_0 2", "\u0661 \u0662", "1" * 5000):
        proc = run_cli("stats", text)
        assert proc.returncode == 2, text
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 100, proc.stderr


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
    proc = run_cli("poly", "--target", "eulerian", "--n", "4", "--threads", "-2")
    assert_usage_error(proc, "--threads")
    proc = run_cli("verify", "--suite", "system", "--max-n", "4", "--threads", "-1")
    assert_usage_error(proc, "--threads")


def test_threads_is_refused_where_nothing_reads_it():
    for command, perm in (("stats", "2413"), ("decompose", "2413")):
        proc = run_cli(command, perm, "--threads", "1")
        assert_usage_error(proc, "--threads")
        assert proc.stderr.startswith(f"usage: gammalab {command} ")


# Before the subcommand's name an option is the root parser's; after it, the subcommand's.
@pytest.mark.parametrize("args, usage", [
    (("--bogus", "stats", "2413"), "usage: gammalab [-h]"),
    (("stats", "2413", "--bogus"), "usage: gammalab stats "),
], ids=["before_the_subcommand", "after_the_subcommand"])
def test_an_unknown_option_is_reported_by_the_parser_it_stands_under(args, usage):
    proc = run_cli(*args)
    assert_usage_error(proc, "--bogus")
    assert proc.stderr.startswith(usage)


@pytest.mark.parametrize("error", [StructureError, ExpansionError, InversionError,
                                   DistributionError, ValueError])
def test_a_library_error_is_one_usage_error_line(error, monkeypatch, capsys):
    def fail(n):
        raise error("malformed")

    routes = cli.ROUTES["poly"]["eulerian"]
    monkeypatch.setitem(routes, "rsk", routes["rsk"]._replace(run=fail))
    assert cli.main(["poly", "--target", "eulerian", "--n", "4", "--method", "rsk"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: malformed\n"


@pytest.mark.parametrize("argv, loaded", [
    ([], []),
    (["poly", "--target", "eulerian", "--n", "6"], ["permutations", "polys"]),
    (["verify", "--suite", "system", "--max-n", "6"], ["permutations", "polys", "series"]),
    (["verify", "--suite", "reduction", "--max-n", "6"],
     ["orbits", "permutations", "polys", "trees"]),
], ids=["import", "poly-eulerian", "verify-system", "verify-reduction"])
def test_a_command_loads_only_the_modules_its_route_runs(argv, loaded):
    """Importing the CLI loads the package, the CLI and `errors` alone, and
    neither dataclasses nor inspect; a command adds the library modules its
    route calls, and no others."""
    code = ("import os, sys, gammalab.cli\n"
            "if sys.argv[1:]:\n"
            "    assert gammalab.cli.main(sys.argv[1:] + ['--output', os.devnull]) == 0\n"
            "print(*sorted(m for m in sys.modules\n"
            "              if m.partition('.')[0] in ('gammalab', 'dataclasses', 'inspect')))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
                          text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    expected = ["gammalab", "gammalab.cli", "gammalab.errors"] + [f"gammalab.{m}" for m in loaded]
    assert proc.stdout.split() == sorted(expected)


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


def test_lemma39_fails_when_the_series_disagrees(monkeypatch, capsys):
    from gammalab import orbits, series
    from gammalab.series import PowerSeries
    monkeypatch.setattr(series, "closure_series",
                        lambda S: PowerSeries(S.order, [BivarPoly.const(n) for n in range(S.order + 1)]))
    report = orbits.closure_class_report(4)
    assert not report.ok
    assert report.failures == (
        "total distribution differs from the closure series coefficient",)
    assert cli.main(["verify", "--suite", "lemma39", "--max-n", "4", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    assert data["results"][0]["pass"] is True  # n = 1: the constant 1 still matches


def test_lemma39_fails_when_a_class_is_wrong(monkeypatch, capsys):
    # One class's tally shifted by one descent, and one member of another
    # class missing: the per-class checks name both classes.
    from gammalab import orbits
    real = orbits._class_tallies
    *_, top = real(4)
    wrong, short = sorted(top)[:2]

    def broken(n):
        pack = orbits._tally_packing(n)
        for m, classes in enumerate(real(n), 1):
            if m == 4:
                classes = dict(classes)
                tally, counts = classes[wrong]
                classes[wrong] = tally << pack.shift(1, 0), counts
                tally, counts = classes[short]
                member = 1 << pack.shift(*min(key for key, _ in pack.unpack(tally).items()))
                classes[short] = tally - member, counts
            yield classes

    monkeypatch.setattr(orbits, "_class_tallies", broken)
    report = orbits.closure_class_report(4)
    assert f"{wrong}: distribution is not the expected basis element" in report.failures
    assert f"{short}: distribution is not the expected basis element" in report.failures
    assert any(f.startswith(f"{short}: orbit size ") for f in report.failures)
    assert cli.main(["verify", "--suite", "lemma39", "--max-n", "5", "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert out == plain_lemma39_json(5)
    data = json.loads(out)
    assert data["ok"] is False
    assert [r["pass"] for r in data["results"]] == [True, True, True, False, True]
    assert data["results"][3]["positive"] is False


def test_lemma39_fails_when_a_class_breaks_the_node_count_identity(monkeypatch, capsys):
    # One class at n = 5 claims one odd chain more than it has: its orbit
    # size and its node counts no longer agree, though its basis element,
    # read off (i, j), is still its tally.
    from gammalab import orbits
    real = orbits._class_tallies
    *_, top = real(5)
    label = sorted(top)[0]
    true = orbits._signature(5, top[label][1])
    claimed = orbits._signature(5, top[label][1] + orbits._ODD)
    assert not claimed.node_count_identity_holds()

    def broken(n):
        for m, classes in enumerate(real(n), 1):
            if m == 5:
                classes = dict(classes)
                tally, counts = classes[label]
                classes[label] = tally, counts + orbits._ODD
            yield classes

    monkeypatch.setattr(orbits, "_class_tallies", broken)
    expected = (
        f"{label}: orbit size {true.orbit_size()} != 2^(r+v4) = {claimed.orbit_size()}",
        f"{label}: node-count identity fails for {claimed}",
    )
    assert orbits.closure_class_report(5).failures == expected
    assert cli.main(["verify", "--suite", "lemma39", "--max-n", "6", "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert out == plain_lemma39_json(6)
    data = json.loads(out)
    assert data["ok"] is False
    assert [r["pass"] for r in data["results"]] == [True, True, True, True, False, True]
    assert data["results"][4]["failures"] == list(expected)


def plain_lemma39_json(max_n):
    """The lemma39 payload as plain dicts of the `closure_class_reports`
    records, written by ``json.dumps``."""
    from gammalab import orbits
    results = []
    for report in orbits.closure_class_reports(max_n):
        expansion = report.expansion
        results.append({
            "n": report.n,
            "classes": [{"minimal": label, "size": kind.size,
                         "i": kind.signature.gamma_i, "j": kind.signature.gamma_j}
                        for label, kind in zip(report.labels, report.classes)],
            "polynomial": {"text": report.total.text(), "terms": report.total.json_terms()},
            "gamma": None if expansion is None else expansion.json_form(),
            "positive": expansion is not None and expansion.is_positive(),
            "pass": report.ok,
            "failures": list(report.failures),
        })
    payload = {"suite": "lemma39", "ok": all(r["pass"] for r in results), "results": results}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("max_n", range(1, 9))
def test_lemma39_json_is_json_dumps_of_the_plain_payload(max_n, capsys):
    assert cli.main(["verify", "--suite", "lemma39", "--max-n", str(max_n), "--format", "json"]) == 0
    assert capsys.readouterr().out == plain_lemma39_json(max_n)


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


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("argv", [("decompose", "452398167"),
                                  ("verify", "--suite", "lemma39", "--max-n", "6")],
                         ids=["decompose", "lemma39"])
def test_output_file_holds_the_bytes_of_stdout(argv, fmt, tmp_path):
    # Both payloads hold pre-rendered `_JsonText` values.
    target = tmp_path / "out"
    to_file = run_cli(*argv, "--format", fmt, "--output", str(target), text=False)
    to_stdout = run_cli(*argv, "--format", fmt, text=False)
    assert to_file.returncode == to_stdout.returncode == 0
    assert to_file.stdout == b""
    assert target.read_bytes() == to_stdout.stdout


def test_output_to_an_unwritable_path_is_usage_error(tmp_path):
    target = tmp_path / "missing" / "x"
    proc = run_cli("poly", "--target", "eulerian", "--n", "3", "--output", str(target))
    assert_usage_error(proc, "--output")
    assert not target.exists()


def test_a_closed_stdout_is_a_usage_error_without_a_traceback():
    # The reader takes one line and closes the pipe while the writer still
    # has most of its output (several hundred kB, past any pipe buffer) to go.
    proc = subprocess.Popen(
        [sys.executable, "-m", "gammalab", "verify", "--suite", "lemma39", "--max-n", "8",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error: cannot write to stdout")


def test_main_serves_requests_back_to_back_like_fresh_processes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["poly", "--target", "eulerian", "--n", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    # Each call leaves its format and --method at their defaults again.
    for argv in (["stats", "2413", "--format", "csv"],
                 ["stats", "452398167"],
                 ["decompose", "452398167", "--format", "json"],
                 ["decompose", "2 4 1 3"],
                 ["poly", "--target", "simple", "--n", "6", "--method", "enumerate"],
                 ["poly", "--target", "simple", "--n", "6", "--format", "json"]):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out.encode("utf-8")
        proc = run_cli(*argv, text=False)
        assert proc.returncode == 0
        assert out == proc.stdout, argv


def test_threads_defaults_to_zero_whatever_the_environment(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_poly", lambda args: seen.append(args.threads) or 0)
    argv = ["poly", "--target", "eulerian", "--n", "4"]
    monkeypatch.delenv("GAMMALAB_THREADS", raising=False)
    assert cli.main(argv) == 0
    monkeypatch.setenv("GAMMALAB_THREADS", "3")
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--threads", "5"]) == 0
    assert seen == [0, 0, 5]


def permutation_text(k, sep):
    return st.permutations(range(1, k + 1)).map(lambda p: sep.join(map(str, p)))


# Permutation texts of at most 64 characters: valid ones with each separator,
# and strings over digits, separators and look-alikes, which give empty comma
# fields, Unicode digits, repeats, out-of-range values and the empty string.
PERM_TEXTS = (
    st.integers(1, 9).flatmap(lambda k: permutation_text(k, ""))
    | st.tuples(st.integers(1, 20), st.sampled_from([" ", ","])).flatmap(
        lambda ks: permutation_text(*ks))
    | st.text(st.sampled_from("0123456789 ,-_x\u0661\u00b2\u2074"), max_size=64)
)
OUTSIDE_THE_CAPS = 10 ** 30


@st.composite
def cli_argvs(draw):
    """An argv for `cli.main`: a subcommand or an unknown word, then a
    shuffled subset of its options, ``--long-run`` on ``poly`` and an
    unknown flag, with values valid or not.  A size is -1, 0, 1..6, one past
    its route's cap or 10**30, so every run that starts is small, and
    ``--output`` names only the null device or a path below it, in a
    directory that cannot exist, so nothing is written.

    An optional option is kept on a coin toss.  A bogus word or value, a
    dropped required option, an unknown flag, -h and poly's --long-run come
    once in eight draws each, so most argvs reach a route.  verify's
    --max-n is always given: its default 10 is a long reduction."""
    def rarely():
        return draw(st.integers(0, 7)) == 0

    def valid_or(values, bogus):
        return bogus if rarely() else draw(st.sampled_from(values))

    command = valid_or(["stats", "decompose", "poly", "verify"], "bogus")
    optional = [["--format", valid_or(["text", "json", "csv"], "yaml")],
                ["--output", draw(st.sampled_from([os.devnull, os.path.join(os.devnull, "x")]))]]
    required, chosen = [], []
    if command in ("stats", "decompose"):
        required.append([draw(PERM_TEXTS)])
    elif command in ("poly", "verify"):
        table = cli.ROUTES[command]
        key, size_flag = ("--target", "--n") if command == "poly" else ("--suite", "--max-n")
        quantity = valid_or(list(table), "bogus")
        routes = table.get(quantity, {})
        method = valid_or([None, *routes], "bogus")
        route = routes.get(method) or next(iter(routes.values()), None)
        sizes = [-1, 0, 1, 2, 3, 4, 5, 6, (route.cap if route else 1) + 1, OUTSIDE_THE_CAPS]
        size = [size_flag, str(draw(st.sampled_from(sizes)))]
        required.append([key, quantity])
        (chosen if command == "verify" else required).append(size)
        optional.append(["--threads", draw(st.sampled_from(["-1", "0", "2", str(OUTSIDE_THE_CAPS)]))])
        if method is not None:
            optional.append(["--method", method])
        if command == "verify":
            optional.append(["--long-run"])
        elif rarely():
            chosen.append(["--long-run"])
    chosen += [option for option in optional if draw(st.booleans())]
    chosen += [option for option in required if not rarely()]
    chosen += [[flag] for flag in ("--bogus", "-h") if rarely()]
    return [command] + list(itertools.chain.from_iterable(draw(st.permutations(chosen))))


@settings(max_examples=500, deadline=None)
@given(cli_argvs())
def test_any_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    if code == 3:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, argv


# Strings whose JSON text holds the splice marker '"\u0000"' are left out
# here; `test_json_parts_refuses_a_payload_string_that_reads_as_the_marker`
# covers them.
JSON_STRINGS = (st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\u00e9\U0001f600'))
                .filter(lambda s: '"\\u0000"' not in json.dumps(s)))
JSON_SCALARS = (
    JSON_STRINGS
    | st.integers() | st.integers(min_value=-10 ** 60, max_value=10 ** 60)
    | st.booleans() | st.none() | st.floats()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_STRINGS, inner, max_size=4),
    max_leaves=40,
)
PAYLOADS = st.dictionaries(JSON_STRINGS, JSON_VALUES, max_size=3)


def json_at_depth(value, depth):
    """``json.dumps(value, indent=2, sort_keys=True)`` as it reads at
    ``depth`` of a payload: JSON strings hold no raw line break, so every
    line break is the encoder's."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def pre_render(value, choose, path=()):
    """``value`` with each dict value or list item whose path ``choose``
    picks replaced by a `cli._JsonText` of its own text at its depth."""
    if isinstance(value, dict):
        out, items = {}, value.items()
    elif isinstance(value, list):
        out, items = [None] * len(value), enumerate(value)
    else:
        return value
    for key, sub in items:
        sub_path = path + (key,)
        out[key] = (cli._JsonText(json_at_depth(sub, len(sub_path))) if choose(sub_path)
                    else pre_render(sub, choose, sub_path))
    return out


@settings(max_examples=200, deadline=None)
@given(PAYLOADS, st.data())
def test_json_parts_splice_pre_rendered_values_in_place(payload, data):
    spliced = pre_render(payload, lambda path: data.draw(st.booleans()))
    assert "".join(cli._json_parts(spliced)) == json.dumps(payload, indent=2, sort_keys=True)


LEMMA39_LIKE = {"ok": True, "results": [{"classes": [{"i": 0, "minimal": "1"}], "n": 1},
                                        {"classes": [], "n": 2}], "suite": "lemma39"}


@pytest.mark.parametrize("payload, paths", [
    (LEMMA39_LIKE, []),  # none at all
    ({"chains": [[1], []], "n": 3, "tree_json": {"children": [], "skeleton": None}},
     [("chains",), ("tree_json",)]),  # dict values at depth 1, adjacent in key order
    (LEMMA39_LIKE, [("results", 0, "classes"), ("results", 1, "classes")]),  # depth 3
    ({"a": [[1, 2], "x", {"b": None}, [], 4]}, [("a", 0), ("a", 2), ("a", 3)]),  # list items
    ({"a": [[1, 2], {"b": [3]}]}, [("a", 0), ("a", 1)]),  # two adjacent list items
])
def test_json_parts_give_each_pre_rendered_text_a_part_of_its_own(payload, paths):
    spliced = pre_render(payload, lambda path: path in paths)
    parts = cli._json_parts(spliced)
    assert "".join(parts) == json.dumps(payload, indent=2, sort_keys=True)
    assert len(parts) == 2 * len(paths) + 1


@pytest.mark.parametrize("payload", [
    {"a": "\0"},
    {"a": "\0", "b": cli._JsonText("1")},
    {"a": cli._JsonText("1"), "b": ['x"\0']},
    {'x"\0': cli._JsonText("[]")},
])
def test_json_parts_refuses_a_payload_string_that_reads_as_the_marker(payload):
    with pytest.raises(ValueError, match="marker"):
        cli._json_parts(payload)


def test_json_parts_refuses_what_json_dumps_refuses():
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._json_parts({"a": {1, 2}})


def plain_decompose_payload(p):
    """The decompose payload as plain dicts and lists, with `oracles.tree_json`
    and the nested-tuple shape reference."""
    t = trees.decompose(p)
    part = trees.binary_right_chains(t)
    return {
        "permutation": format_permutation(p),
        "tree": trees.tree_text(t),
        "tree_json": tree_json(t),
        "chains": [{"paths": [list(path) for path in chain],
                    "labels": ["".join(map(str, s)) for s in skeletons],
                    "length": len(chain),
                    "odd": len(chain) % 2 == 1}
                   for chain, skeletons in zip(part.chains, part.skeletons)],
        "odd_chain_count": part.odd_chain_count,
        "simplified": reference_shape_text(t),
    }


def test_decompose_json_is_json_dumps_of_the_plain_payload(capsys):
    inputs = [p for n in range(1, 8) for p in itertools.permutations(range(1, n + 1))]
    rng = random.Random(1024)
    for n in (4, 9, 33, 100, 257, 1024):
        for _ in range(2):
            inputs += [tuple(rng.sample(range(1, n + 1), n)), random_separable(rng, n),
                       random_2413_inflated(rng, n)]
    for p in inputs:
        assert cli.main(["decompose", " ".join(map(str, p)), "--format", "json"]) == 0
        expected = json.dumps(plain_decompose_payload(p), indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected, p


def right_chain_json(t, depth):
    """``json.dumps(tree_json(t), indent=2, sort_keys=True)`` as it
    reads at ``depth``, for a tree whose left children are all leaves: each
    node's own text is ``json.dumps`` of its record with a placeholder for
    its right child, so no call nests deeper than one node."""
    heads, tails = [], []
    while t.skeleton is not None:
        left, right = t.children
        record = {"children": [tree_json(left), "@"], "skeleton": list(t.skeleton)}
        head, tail = json_at_depth(record, depth).split('"@"')
        heads.append(head)
        tails.append(tail)
        t, depth = right, depth + 2
    return "".join(heads) + json_at_depth(tree_json(t), depth) + "".join(reversed(tails))


def reference_text(data, indent=""):
    """The text format, rendered from the decoded JSON payload ``data``."""
    lines = []
    for key in sorted(data):
        value = data[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(reference_text(value, indent + "  "))
        elif isinstance(value, list):
            lines.append(f"{indent}{key}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(line for line in lines if line) + ("\n" if not indent else "")


def reference_csv(data):
    """The csv format of a payload without a polynomial, rendered from the
    decoded JSON payload ``data``."""
    rows = ["key,value"]
    for key in sorted(data):
        value = data[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        rows.append(f"{key},{json.dumps(value) if ',' in str(value) else value}")
    return "\n".join(rows) + "\n"


def test_stats_and_decompose_answer_deep_monotone_inputs():
    # 599 nested sums or skew sums: the renderers walk the tree without
    # recursion in every format.
    n = 600
    for perm, label in ((range(1, n + 1), "12"), (range(n, 0, -1), "21")):
        text = " ".join(map(str, perm))
        stats = run_json("stats", text)
        assert stats["n"] == n and stats["in_closure_2"] is True
        out = {}
        for fmt in ("json", "text", "csv"):
            proc = run_cli("decompose", text, "--format", fmt)
            assert proc.returncode == 0, proc.stderr
            out[fmt] = proc.stdout
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 4 * n)  # tree_json nests two levels per node
        try:
            data = json.loads(out["json"])
            assert out["text"] == reference_text(data)
            assert out["csv"] == reference_csv(data)
        finally:
            sys.setrecursionlimit(limit)
        assert data["tree"] == f"{label}[" * (n - 1) + "." + ",.]" * (n - 1)
        assert data["simplified"] == "2[" * (n - 1) + "." + ",.]" * (n - 1)
        assert data["odd_chain_count"] == n - 1


def test_tree_json_text_writes_a_deep_chain_without_recursion():
    # A chain of 600 binary nodes, rendered under a recursion limit 50 frames
    # above the caller's: a renderer with one frame per level would need 600.
    # (Its text grows with the square of the depth: 5000 levels would be
    # about 550 MB per rendering.)  Its chain records and both bracket texts
    # are written under the same limit.
    t = trees.LEAF
    for i in range(600):
        t = node((1, 2) if i % 2 else (2, 1), trees.LEAF, t)
    short = t
    for _ in range(590):
        short = short.children[1]
    for depth in range(4):
        assert right_chain_json(short, depth) == json_at_depth(tree_json(short), depth)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)
    try:
        written = [cli._decompose_json(t, depth) for depth in range(4)]
        texts = trees._bracket_text(t, trees._skeleton_text, trees._length_text)
        with pytest.raises(RecursionError):
            tree_json(t)
    finally:
        sys.setrecursionlimit(limit)
    labels = ["12" if i % 2 else "21" for i in range(599, -1, -1)]
    records = [{"labels": labels, "length": 600, "odd": False,
                "paths": [[1] * k for k in range(600)]}]
    for depth, (form, chains, odd_chain_count) in enumerate(written):
        # The node's own text at ``depth``, around its two pre-rendered values.
        pad, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
        text = ("{" + inner + '"children": ' + form["children"].text + "," + inner
                + '"skeleton": ' + form["skeleton"].text + pad + "}")
        assert text == right_chain_json(t, depth), depth
        assert chains.text == json_at_depth(records, depth), depth
        assert odd_chain_count == 0
    assert texts == ["".join(label + "[.," for label in labels) + "." + "]" * 600,
                     "2[.," * 600 + "." + "]" * 600]


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES, st.data())
def test_compact_json_parts_are_json_dumps_in_one_line(value, data):
    spliced = pre_render({"v": value}, lambda path: data.draw(st.booleans()))["v"]
    assert "".join(cli._compact_json_parts(spliced)) == json.dumps(value, sort_keys=True)
