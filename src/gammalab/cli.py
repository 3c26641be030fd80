"""
Command-line interface.

Four subcommands expose the library: ``stats`` and ``decompose`` for single
permutations, ``poly`` for distribution polynomials with their gamma
expansions, and ``verify`` for the exhaustive identity suites.  Output is
deterministic: the same command and configuration always produce identical
bytes, in any of the three formats (text, json, csv).

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource bound exceeded.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import orbits, series, trees
from .errors import ParseError, ResourceBoundError
from .permutations import (
    MAX_ENUMERATION_N,
    des_ides,
    descent_set,
    eulerian_distribution,
    format_permutation,
    is_simple,
    is_skew_indecomposable,
    is_sum_indecomposable,
    parse_permutation,
    simple_distribution,
)
from .polys import BivarPoly, gamma_expand_bivariate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# Full-S_n enumeration above this length must be acknowledged with --long-run.
LONG_RUN_THRESHOLD = 10

# The --method values each poly target and verify suite accepts; the first is the default.
METHODS = {
    "eulerian": ("enumerate", "rsk"),
    "simple": ("inversion", "enumerate"),
    "separable": ("trees",),
    "h5": ("trees",),
    "conjecture": ("inversion", "enumerate"),
    "reduction": ("enumerate",),
    "system": ("rsk",),
    "lemma39": ("trees",),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything that can influence a run; equal configs give equal bytes."""
    max_n: int = 10
    threads: int = 0
    format: str = "text"

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        return cls(
            max_n=args.max_n if "max_n" in args else getattr(args, "n", 10),
            threads=args.threads,
            format=args.format,
        )


def _threads_default() -> int:
    env = os.environ.get("GAMMALAB_THREADS")
    if env:
        try:
            return _non_negative(env)
        except (ValueError, argparse.ArgumentTypeError):
            pass
    return 0


def _bounded_int(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_positive = _bounded_int(1)
_non_negative = _bounded_int(0)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["text", "json", "csv"], default="text")
    parser.add_argument("--output", metavar="PATH", default=None)
    parser.add_argument("--threads", type=_non_negative, default=None,
                        help="worker count (0 = auto; default from GAMMALAB_THREADS)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammalab",
        description="Descent statistics, decomposition trees and gamma-positivity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="descent statistics of one permutation")
    p_stats.add_argument("perm", help='permutation text, e.g. "2413" or "2 4 1 3"')
    _add_common(p_stats)

    p_dec = sub.add_parser("decompose", help="substitution decomposition tree")
    p_dec.add_argument("perm")
    _add_common(p_dec)

    p_poly = sub.add_parser("poly", help="distribution polynomial and gamma expansion")
    p_poly.add_argument("--target", required=True,
                        choices=["eulerian", "simple", "separable", "h5"])
    p_poly.add_argument("--n", type=_positive, required=True)
    p_poly.add_argument("--method", default=None,
                        help="eulerian: enumerate|rsk; simple: enumerate|inversion")
    p_poly.add_argument("--long-run", action="store_true",
                        help="acknowledge full-enumeration runs past n = 10")
    _add_common(p_poly)

    p_ver = sub.add_parser("verify", help="exhaustive verification suites")
    p_ver.add_argument("--suite", required=True,
                       choices=["conjecture", "reduction", "system", "lemma39"])
    p_ver.add_argument("--max-n", type=_positive, default=10)
    p_ver.add_argument("--method", default=None,
                       help="conjecture: inversion (default) or enumerate")
    p_ver.add_argument("--long-run", action="store_true")
    _add_common(p_ver)

    return parser


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _emit(payload: dict, args: argparse.Namespace) -> None:
    fmt = args.config.format
    if fmt == "json":
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        out = _to_csv(payload)
    else:
        out = _to_text(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _to_text(payload: dict, indent: str = "") -> str:
    lines: list[str] = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_to_text(value, indent + "  "))
        elif isinstance(value, list):
            lines.append(f"{indent}{key}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(line for line in lines if line) + ("\n" if not indent else "")


def _to_csv(payload: dict) -> str:
    # Polynomials flatten to coefficient rows; everything else to key,value rows.
    if "polynomial" in payload and isinstance(payload["polynomial"], dict):
        rows = ["s_degree,t_degree,coefficient"]
        for term in payload["polynomial"]["terms"]:
            rows.append(f"{term['s']},{term['t']},{term['c']}")
        return "\n".join(rows) + "\n"
    rows = ["key,value"]
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        rows.append(f"{key},{json.dumps(value) if ',' in str(value) else value}")
    return "\n".join(rows) + "\n"


def _poly_payload(poly: BivarPoly) -> dict:
    return {"text": poly.text(), "terms": poly.json_terms()}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> int:
    p = parse_permutation(args.perm)
    d, e = des_ides(p)
    payload = {
        "permutation": format_permutation(p),
        "n": len(p),
        "descent_set": sorted(descent_set(p)),
        "des": d,
        "ides": e,
        "simple": is_simple(p),
        "sum_indecomposable": is_sum_indecomposable(p),
        "skew_indecomposable": is_skew_indecomposable(p),
        "in_closure_2": trees.in_closure(p, 2),
        "in_closure_5": trees.in_closure(p, 5),
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    p = parse_permutation(args.perm)
    t = trees.decompose(p)
    part = trees.binary_right_chains(t)
    chains = []
    for chain in part.chains:
        labels = ["".join(map(str, trees.subtree_at(t, path).skeleton)) for path in chain]
        chains.append({
            "paths": [list(path) for path in chain],
            "labels": labels,
            "length": len(chain),
            "odd": len(chain) % 2 == 1,
        })
    payload = {
        "permutation": format_permutation(p),
        "tree": trees.tree_text(t),
        "tree_json": trees.tree_json(t),
        "chains": chains,
        "odd_chain_count": part.odd_chain_count,
        "simplified": trees.simplified_text(trees.simplify(t)),
    }
    _emit(payload, args)
    return EXIT_OK


def _check_enum_bound(n: int, long_run: bool, cheaper: str) -> None:
    if n > MAX_ENUMERATION_N:
        raise ResourceBoundError(
            f"n = {n} exceeds the hard enumeration cap {MAX_ENUMERATION_N}; use {cheaper}"
        )
    if n > LONG_RUN_THRESHOLD and not long_run:
        raise ResourceBoundError(
            f"full enumeration at n = {n} needs --long-run; cheaper: {cheaper}"
        )


def _method(args: argparse.Namespace) -> str:
    """The --method value, or the default, checked against METHODS."""
    key = args.target if args.command == "poly" else args.suite
    allowed = METHODS[key]
    method = args.method or allowed[0]
    if method not in allowed:
        raise ParseError(f"--method {method!r} is not available for {key}; "
                         f"choose from {', '.join(allowed)}")
    return method


def cmd_poly(args: argparse.Namespace) -> int:
    n = args.n
    target = args.target
    threads = args.config.threads
    method = _method(args)
    if target == "eulerian":
        if method == "enumerate":
            _check_enum_bound(n, args.long_run, "--method rsk")
            poly = eulerian_distribution(n, threads=threads).poly
        else:
            poly = series.rsk_two_sided_eulerian(n)
    elif target == "simple":
        if method == "enumerate":
            _check_enum_bound(n, args.long_run, "--method inversion")
            poly = simple_distribution(n, threads=threads).poly if n >= 4 else BivarPoly()
        elif n < 4:
            poly = BivarPoly()
        else:
            poly = series.simple_series(n, method="inversion").coeff(n)
    else:  # separable, h5
        _check_enum_bound(n, args.long_run, "a smaller --n")
        poly = orbits.closure_distribution(n, 2 if target == "separable" else 5)
    expansion = gamma_expand_bivariate(poly, n - 1)
    payload = {
        "target": target,
        "n": n,
        "method": method,
        "polynomial": _poly_payload(poly),
        "gamma": expansion.json_form(),
        "positive": expansion.is_positive(),
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    suite = args.suite
    max_n = args.config.max_n
    threads = args.config.threads
    method = _method(args)
    results: list[dict] = []
    ok = True
    if suite == "conjecture":
        if method == "inversion":
            S = series.simple_series(max(max_n, 4), method="inversion")
            per_n = {n: S.coeff(n) for n in range(4, max_n + 1)}
        else:
            _check_enum_bound(max_n, args.long_run, "--method inversion")
            per_n = {
                n: simple_distribution(n, threads=threads).poly
                for n in range(4, max_n + 1)
            }
        for n in range(4, max_n + 1):
            expansion = gamma_expand_bivariate(per_n[n], n - 1)
            positive = expansion.is_positive()
            ok = ok and positive
            results.append({
                "n": n,
                "positive": positive,
                "gamma": expansion.json_form(),
            })
    elif suite == "reduction":
        _check_enum_bound(max_n, args.long_run, "a smaller --max-n")
        for n in range(1, max_n + 1):
            report = orbits.verify_reduction(n)
            passed = report.ok
            ok = ok and passed
            results.append({
                "n": n,
                "groups": report.group_count,
                "pass": passed,
                "failures": list(report.failures),
            })
    elif suite == "system":
        report = series.verify_system_identities(max_n, method=method, threads=threads)
        ok = report.ok
        results = [{"check": name, "pass": passed} for name, passed in report.checks]
    else:  # lemma39
        _check_enum_bound(max_n, args.long_run, "a smaller --max-n")
        for n in range(1, max_n + 1):
            report = orbits.closure_class_report(n)
            passed = report.ok
            ok = ok and passed
            results.append({
                "n": n,
                "classes": [
                    {
                        "minimal": rec.minimal_text,
                        "size": rec.size,
                        "i": rec.signature.gamma_i,
                        "j": rec.signature.gamma_j,
                    }
                    for rec in report.classes
                ],
                "polynomial": _poly_payload(report.total),
                "gamma": report.expansion.json_form(),
                "positive": report.expansion.is_positive(),
                "pass": passed,
                "failures": list(report.failures),
            })
    payload = {"suite": suite, "ok": ok, "results": results}
    _emit(payload, args)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is None:
        args.threads = _threads_default()
    args.config = RunConfig.from_args(args)
    try:
        if args.command == "stats":
            return cmd_stats(args)
        if args.command == "decompose":
            return cmd_decompose(args)
        if args.command == "poly":
            return cmd_poly(args)
        if args.command == "verify":
            return cmd_verify(args)
        parser.error(f"unknown command {args.command!r}")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
