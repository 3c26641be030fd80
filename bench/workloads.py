"""Workload inputs and the output checks of the gammalab benchmark.

Three workloads are fixed lists of CLI commands, each run as a fresh
``python -m gammalab ... --format json`` process.  The fourth, ``queries``,
is a seeded stream of in-process ``stats``/``decompose`` requests.

Every check here recomputes its quantity without the code path that produced
the output: counts come from closed forms and tables (n!, the simple and
Schroeder numbers, an independent univariate series reversion), and query
answers are recomputed from the input permutation.  Nothing in this module
imports gammalab.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

# Full-size command lists.  ``--format json`` and ``--threads`` are appended
# by the runner; a command's recorded digest is keyed by the text here, without
# ``--threads``, because the output bytes do not depend on it.
FIXED = {
    "enumerate": [
        "poly --target eulerian --n 10",
        "poly --target simple --method enumerate --n 10",
        "verify --suite reduction --max-n 8",
        "poly --target eulerian --n 8",
    ],
    "series": [
        "verify --suite conjecture --max-n 12",
        "verify --suite system --max-n 12",
        "verify --suite conjecture --max-n 14",
        "verify --suite system --max-n 14",
    ],
    "closure": [
        "verify --suite lemma39 --max-n 9",
        "poly --target separable --n 9",
    ],
}

# The same shapes at sizes that run in well under a second (``--smoke``).
SMOKE_FIXED = {
    "enumerate": [
        "poly --target eulerian --n 6",
        "poly --target simple --method enumerate --n 6",
        "verify --suite reduction --max-n 5",
        "poly --target eulerian --n 5",
    ],
    "series": [
        "verify --suite conjecture --max-n 7",
        "verify --suite system --max-n 7",
    ],
    "closure": [
        "verify --suite lemma39 --max-n 6",
        "poly --target separable --n 6",
    ],
}

WORKLOADS = ("enumerate", "series", "closure", "queries")

# Simple permutations of length n (OEIS A111111), n = 4..14.
SIMPLE_COUNTS = {
    4: 2, 5: 6, 6: 46, 7: 338, 8: 2926, 9: 28146, 10: 298526,
    11: 3454434, 12: 43286526, 13: 583835650, 14: 8433987582,
}

# Large Schroeder numbers: separable permutations of length n (OEIS A006318).
SCHROEDER = {1: 1, 2: 2, 3: 6, 4: 22, 5: 90, 6: 394, 7: 1806, 8: 8558, 9: 41586}


def fixed_commands(workload: str, smoke: bool) -> list[list[str]]:
    table = SMOKE_FIXED if smoke else FIXED
    return [cmd.split() for cmd in table[workload]]


# ---------------------------------------------------------------------------
# checks on fixed-command outputs
# ---------------------------------------------------------------------------

def _opt(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _poly_value_at_one(poly: dict) -> int:
    return sum(term["c"] for term in poly["terms"])


def _gamma_value_at_one(gamma: dict) -> int:
    # (st)^i (s+t)^j (1+st)^(m-j-2i) is 2^(m-2i) at s = t = 1.
    m = gamma["darga"]
    return sum(g["c"] << (m - 2 * g["i"]) for g in gamma["gamma"])


def closure_counts(max_n: int, simple_counts: dict[int, int]) -> list[int]:
    """|closure of the given simple permutations intersected with S_n|, n = 0..max_n.

    A closure class is closed under direct and skew sums, so its generating
    function F satisfies x = F/(1+F) + F/(1+F) - F - S(F) at s = t = 1, where
    S counts the simple permutations of length >= 4 in the class.  F is the
    series reversion of the right-hand side, computed here by fixed-point
    iteration over the integers.
    """
    # g(y) = 2y/(1+y) - y - S(y) = y + sum_{k>=2} 2(-1)^(k+1) y^k - S(y)
    g = [0, 1] + [2 * (-1) ** (k + 1) for k in range(2, max_n + 1)]
    for k, c in simple_counts.items():
        if k <= max_n:
            g[k] -= c
    f = [0, 1] + [0] * (max_n - 1)
    for _ in range(max_n):
        # f <- x - (g(f) - f): the terms of g beyond y correct f order by order.
        comp = [0] * (max_n + 1)
        power = _series_mul(f, f, max_n)
        for k in range(2, max_n + 1):
            for i, c in enumerate(power):
                comp[i] += g[k] * c
            power = _series_mul(power, f, max_n)
        f = [0, 1] + [-comp[i] for i in range(2, max_n + 1)]
    return f


def _series_mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(order + 1 - i):
                out[i + j] += x * b[j]
    return out


def check_fixed(argv: list[str], stdout: str) -> list[str]:
    """Problems with one command's JSON output; empty when it is correct."""
    try:
        data = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    errors: list[str] = []
    if argv[0] == "poly":
        n = int(_opt(argv, "--n"))
        target = _opt(argv, "--target")
        got = _poly_value_at_one(data["polynomial"])
        want = {
            "eulerian": math.factorial(n),
            "simple": SIMPLE_COUNTS.get(n),
            "separable": SCHROEDER.get(n),
        }[target]
        if got != want:
            errors.append(f"{target} count at n={n} is {got}, expected {want}")
        if target == "eulerian" and data["positive"] is not True:
            errors.append(f"eulerian n={n} reported not gamma-positive")
        if _gamma_value_at_one(data["gamma"]) != got:
            errors.append("gamma expansion does not evaluate to the polynomial at s=t=1")
        return errors
    suite = _opt(argv, "--suite")
    max_n = int(_opt(argv, "--max-n"))
    if data.get("ok") is not True:
        errors.append(f"verify --suite {suite} reported ok={data.get('ok')!r}")
    results = data["results"]
    if suite == "conjecture":
        ns = [r["n"] for r in results]
        if ns != list(range(4, max_n + 1)):
            errors.append(f"conjecture covered n={ns}")
        for r in results:
            got = _gamma_value_at_one(r["gamma"])
            if got != SIMPLE_COUNTS[r["n"]]:
                errors.append(f"simple count at n={r['n']} is {got}, expected {SIMPLE_COUNTS[r['n']]}")
    elif suite == "system":
        failing = [r["check"] for r in results if r["pass"] is not True]
        if failing or not results:
            errors.append(f"system identities failed: {failing}")
    elif suite == "reduction":
        if [r["n"] for r in results] != list(range(1, max_n + 1)):
            errors.append("reduction did not cover n = 1..max_n")
        errors += [f"reduction n={r['n']} failed" for r in results if r["pass"] is not True]
    elif suite == "lemma39":
        want = closure_counts(max_n, {4: SIMPLE_COUNTS[4], 5: SIMPLE_COUNTS[5]})
        for r in results:
            n = r["n"]
            total = _poly_value_at_one(r["polynomial"])
            sizes = sum(c["size"] for c in r["classes"])
            if r["pass"] is not True:
                errors.append(f"lemma39 n={n} failed")
            if not total == sizes == want[n]:
                errors.append(f"lemma39 n={n}: polynomial {total}, class sizes {sizes}, expected {want[n]}")
    return errors


# ---------------------------------------------------------------------------
# the query stream
# ---------------------------------------------------------------------------

QUERY_COUNT = 1000
DEEP_LENGTH = 1500
# (command, direction) of the deep monotone inputs; every one of them fails
# today with RecursionError, and they stay in the stream so the failure shows.
DEEP_QUERIES = (
    ("decompose", "increasing"), ("stats", "decreasing"), ("decompose", "decreasing"),
    ("stats", "increasing"), ("decompose", "increasing"),
)


@dataclass(frozen=True)
class Query:
    command: str      # "stats" or "decompose"
    kind: str         # "random", "separable" or "monotone"
    perm: tuple[int, ...]

    def argv(self) -> list[str]:
        return [self.command, " ".join(map(str, self.perm)), "--format", "json"]


def random_separable(rng: random.Random, n: int) -> list[int]:
    """A separable permutation from a random binary sum/skew-sum tree."""
    if n == 1:
        return [1]
    k = rng.randint(1, n - 1)
    left = random_separable(rng, k)
    right = random_separable(rng, n - k)
    if rng.random() < 0.5:  # direct sum
        return left + [v + k for v in right]
    return [v + n - k for v in left] + right


def make_queries(seed: int, smoke: bool) -> list[Query]:
    """The seeded request stream.

    Lengths are log-uniform in 4..1024, stratified so that every seed covers
    the range evenly; half the inputs are uniform random permutations and half
    random separable ones, each split evenly between ``stats`` and
    ``decompose``.  The deep monotone inputs sit at seeded positions.
    """
    rng = random.Random(seed)
    count, max_len = (40, 64) if smoke else (QUERY_COUNT, 1024)
    queries = []
    for i in range(count):
        u = (i + rng.random()) / count
        n = max(4, round(4 * (max_len / 4) ** u))
        kind = "random" if i % 2 == 0 else "separable"
        command = "stats" if (i // 2) % 2 == 0 else "decompose"
        if kind == "random":
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
        else:
            perm = random_separable(rng, n)
        queries.append(Query(command, kind, tuple(perm)))
    rng.shuffle(queries)
    for command, direction in DEEP_QUERIES[:1] if smoke else DEEP_QUERIES:
        perm = range(1, DEEP_LENGTH + 1)
        if direction == "decreasing":
            perm = reversed(perm)
        queries.insert(rng.randrange(len(queries) + 1), Query(command, "monotone", tuple(perm)))
    return queries


def _des_ides(p: tuple[int, ...]) -> tuple[int, int]:
    pos = {v: i for i, v in enumerate(p)}
    d = sum(1 for a, b in zip(p, p[1:]) if a > b)
    e = sum(1 for v in range(1, len(p)) if pos[v] > pos[v + 1])
    return d, e


def _inflate_tree(tree: dict) -> list[int]:
    """The permutation a ``tree_json`` value encodes, built without recursion."""
    done: list[list[int]] = []  # finished subtrees, left to right
    stack = [(tree, False)]
    while stack:
        node, children_done = stack.pop()
        skel = node["skeleton"]
        if skel is None:
            done.append([1])
        elif children_done:
            parts = done[len(done) - len(skel):]
            del done[len(done) - len(skel):]
            offset = [0] * len(skel)
            acc = 0
            for i in sorted(range(len(skel)), key=skel.__getitem__):
                offset[i] = acc
                acc += len(parts[i])
            done.append([v + offset[i] for i, part in enumerate(parts) for v in part])
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(node["children"]))
    return done[0]


def _skeletons(tree: dict):
    stack = [tree]
    while stack:
        node = stack.pop()
        if node["skeleton"] is not None:
            yield node["skeleton"]
        stack.extend(node["children"])


def check_query(q: Query, stdout: str) -> list[str]:
    try:
        data = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    p = q.perm
    errors = []
    if data.get("permutation") != " ".join(map(str, p)):
        errors.append("permutation field does not echo the input")
    if q.command == "stats":
        d, e = _des_ides(p)
        descents = [i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1]]
        if (data["des"], data["ides"], data["n"]) != (d, e, len(p)):
            errors.append(f"des/ides/n {data['des']}/{data['ides']}/{data['n']}, expected {d}/{e}/{len(p)}")
        if data["descent_set"] != descents:
            errors.append("descent set differs")
        if q.kind == "separable" and not (data["in_closure_2"] and data["in_closure_5"]):
            errors.append("separable input reported outside the closures")
        if q.kind == "separable" and len(p) >= 3 and data["simple"]:
            errors.append("separable input reported simple")
    else:
        if _inflate_tree(data["tree_json"]) != list(p):
            errors.append("tree_json does not inflate back to the input")
        if q.kind == "separable" and any(len(s) != 2 for s in _skeletons(data["tree_json"])):
            errors.append("separable input has a skeleton longer than 2")
    return errors
