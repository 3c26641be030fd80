"""
Command-line interface.

Four subcommands expose the library: ``stats`` and ``decompose`` for single
permutations, ``poly`` for distribution polynomials with their gamma
expansions, and ``verify`` for the exhaustive identity suites.  Output is
deterministic: the same command and configuration always produce identical
bytes, in any of the three formats (text, json, csv).

Each command's payload is written as the bytes of ``json.dumps(payload,
indent=2, sort_keys=True)``; text and csv are rendered from ``json.loads``
of that text.  The bulk values are pre-rendered: the ``tree_json`` and
``chains`` of ``decompose`` and each size's ``classes`` of ``verify --suite
lemma39`` are written as JSON text for their depth in the payload
(`_tree_json_text`, `_chains_json_text`, `_classes_json_text`) and held in a
`_JsonText`.  The encoder writes a marker in place of each, and
`_json_parts` splices the texts back in, so ``--format json`` writes the
answer part by part without ever joining it.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error (a
stdout closed by its reader included), 3 resource bound exceeded.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

from . import orbits, series, trees
from .errors import ParseError, ResourceBoundError
from .permutations import (
    MAX_ENUMERATION_N,
    des_ides,
    descent_set,
    eulerian_distribution,
    format_permutation,
    parse_permutation,
    simple_distribution,
)
from .polys import BivarPoly, gamma_expand_bivariate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

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


def _methods_help(table: dict[str, dict[str, Route]]) -> str:
    return "; ".join(f"{quantity}: {'|'.join(routes)}" for quantity, routes in table.items()) \
        + " (the first is the default)"


def _long_run_help(table: dict[str, dict[str, Route]], flag: str) -> str:
    return "acknowledge a long run, needed by " + ", ".join(
        f"{quantity}/{method} past {flag} {route.long_run}" for quantity, routes in table.items()
        for method, route in routes.items() if route.long_run is not None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls, so ``main`` can run many requests in one process."""
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
    p_poly.add_argument("--target", required=True, choices=list(ROUTES["poly"]))
    p_poly.add_argument("--n", type=_positive, required=True)
    p_poly.add_argument("--method", default=None, help=_methods_help(ROUTES["poly"]))
    p_poly.add_argument("--long-run", action="store_true",
                        help=_long_run_help(ROUTES["poly"], "--n"))
    _add_common(p_poly)

    p_ver = sub.add_parser("verify", help="exhaustive verification suites")
    p_ver.add_argument("--suite", required=True, choices=list(ROUTES["verify"]))
    p_ver.add_argument("--max-n", type=_positive, default=10)
    p_ver.add_argument("--method", default=None, help=_methods_help(ROUTES["verify"]))
    p_ver.add_argument("--long-run", action="store_true",
                       help=_long_run_help(ROUTES["verify"], "--max-n"))
    _add_common(p_ver)

    for p in (p_poly, p_ver):
        p.add_argument("--threads", type=_non_negative, default=0,
                       help="worker count for the simple-permutation tallies by enumeration, "
                            "the only ones that read it (poly --target simple --method "
                            "enumerate, verify --suite conjecture --method enumerate); "
                            "0 (the default) = one per core")
    return parser


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _emit(payload: dict, args: argparse.Namespace) -> None:
    """Write ``payload`` in the chosen format.

    JSON goes out as the parts of `_json_parts`, one write each, so the
    answer is never joined into one string; text and csv are rendered from
    ``json.loads`` of the joined parts, so a payload may hold `_JsonText`
    values and every format sees the same plain data.
    """
    parts = _json_parts(payload)
    if args.format == "json":
        parts.append("\n")
    else:
        data = json.loads("".join(parts))
        parts = [_to_csv(data) if args.format == "csv" else _to_text(data)]
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(parts)
        except OSError as exc:
            raise ParseError(f"cannot write --output {args.output}: {exc.strerror}") from exc
    else:
        try:
            sys.stdout.writelines(parts)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # The reader is gone: later writes, and the flush at exit, go nowhere.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ParseError(f"cannot write to stdout: {exc.strerror}") from exc


class _JsonText:
    """A value already written as JSON text, with the line breaks and indents
    of the depth where it sits; `_json_parts` puts it in its place."""
    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _json_parts(payload: object) -> list[str]:
    """``json.dumps(payload, indent=2, sort_keys=True)`` as a list of parts,
    each `_JsonText` value's text one part of its own.

    The encoder's ``default`` keeps each `_JsonText`'s text in encoding order
    and writes a NUL string in its place; the output is split at those
    markers and the kept texts go back between the pieces.  A payload string
    that also encodes to the marker makes the counts differ, and raises.

    >>> _json_parts({"b": _JsonText("[]"), "a": [1]})
    ['{\\n  "a": [\\n    1\\n  ],\\n  "b": ', '[]', '\\n}']
    """
    kept: list[str] = []

    def default(value: object) -> str:
        if value.__class__ is not _JsonText:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        kept.append(value.text)
        return "\0"

    pieces = json.dumps(payload, indent=2, sort_keys=True, default=default).split('"\\u0000"')
    if len(pieces) != len(kept) + 1:
        raise ValueError(f"{len(pieces) - 1} markers for {len(kept)} pre-rendered values: "
                         "a payload string encodes as the marker")
    parts = pieces + kept
    parts[::2] = pieces
    parts[1::2] = kept
    # The encoder's closures refer to one another, and hold `default` and so
    # `kept` until the next collection: drop the texts from it now.
    kept.clear()
    return parts


def _tree_json_text(t: trees.DecompTree, depth: int) -> _JsonText:
    """``json.dumps(trees.tree_json(t), indent=2, sort_keys=True)`` as it
    reads at ``depth`` of the payload, written by one loop over the nodes.

    A node at depth d adds its leaf text, or its opening and, after its
    children at depth d + 2, its closing: the skeleton list and the brackets.
    Leaf texts, openings and separators are built once per depth and closings
    once per (skeleton, depth), so a chain of sums reuses the same few strings
    at every level, and a tree of any depth is written without recursion.

    A value at depth 1 is what ``json.dumps`` writes inside a one-item list:

    >>> t = trees.decompose((2, 4, 1, 3, 5))
    >>> text = json.dumps([trees.tree_json(t)], indent=2, sort_keys=True)
    >>> text[4:-2] == _tree_json_text(t, 1).text
    True
    """
    levels: dict[int, tuple[str, ...]] = {}
    closings: dict[tuple, str] = {}

    def level(d: int) -> tuple[str, ...]:
        """The opening at depth d, the separator of the items at d + 2 (the
        children and the skeleton's entries), a leaf child with and without
        that separator, and the two ends of a closing."""
        pad = "\n" + "  " * d
        inner = pad + "  "
        item = inner + "  "
        sep = "," + item
        leaf = _leaf_json_text(d + 2)
        found = levels[d] = ("{" + inner + '"children": [' + item, sep, sep + leaf, leaf,
                             inner + "]," + inner + '"skeleton": [' + item, inner + "]" + pad + "}")
        return found

    if t.skeleton is None:
        return _JsonText(_leaf_json_text(depth))
    parts: list[str] = []
    append = parts.append
    stack: list = [(t, depth)]
    push = stack.append
    pop = stack.pop
    while stack:
        item = pop()
        if item.__class__ is str:
            append(item)
            continue
        sub, d = item
        skeleton = sub.skeleton
        opening, sep, sep_leaf, leaf, head, tail = levels.get(d) or level(d)
        closing = closings.get((skeleton, d))
        if closing is None:
            closing = closings[skeleton, d] = head + sep.join(map(str, skeleton)) + tail
        push(closing)
        children = sub.children
        d += 2
        for i in range(len(children) - 1, 0, -1):
            child = children[i]
            if child.skeleton is None:
                push(sep_leaf)
            else:
                push((child, d))
                push(sep)
        child = children[0]
        push(leaf if child.skeleton is None else (child, d))
        append(opening)
    return _JsonText("".join(parts))


def _leaf_json_text(depth: int) -> str:
    """The text of `trees.tree_json` of a leaf for the value at ``depth``."""
    pad = "\n" + "  " * depth
    inner = pad + "  "
    return "{" + inner + '"children": [],' + inner + '"skeleton": null' + pad + "}"


class _IntTexts(dict):
    """int -> its decimal text, each made once."""

    def __missing__(self, value: int) -> str:
        text = self[value] = str(value)
        return text


def _chains_json_text(part: trees.ChainPartition, depth: int) -> _JsonText:
    """The ``chains`` records of `cmd_decompose` as ``json.dumps(...,
    indent=2, sort_keys=True)`` writes them at ``depth`` of the payload: each
    path is written with one join.

    >>> part = trees.binary_right_chains(trees.decompose((1, 3, 2)))
    >>> print(_chains_json_text(part, 0).text)
    [
      {
        "labels": [
          "12",
          "21"
        ],
        "length": 2,
        "odd": false,
        "paths": [
          [],
          [
            1
          ]
        ]
      }
    ]
    """
    if not part.chains:
        return _JsonText("[]")
    # pads[k] is the line break and indent at depth + k.
    pads = ["\n" + "  " * d for d in range(depth, depth + 5)]
    record_sep = "," + pads[1]
    item_sep = "," + pads[3]
    path_open, path_sep, path_close = "[" + pads[4], "," + pads[4], pads[3] + "]"
    labels_head = "{" + pads[2] + '"labels": [' + pads[3]
    length_head = pads[2] + "]," + pads[2] + '"length": '
    odd_head = "," + pads[2] + '"odd": '
    paths_head = "," + pads[2] + '"paths": [' + pads[3]
    tail = pads[2] + "]" + pads[1] + "}"
    labels: dict[tuple[int, ...], str] = {}
    index_text = _IntTexts().__getitem__  # paths repeat a few small indices
    records = []
    for paths, skeletons in zip(part.chains, part.skeletons):
        for skeleton in skeletons:
            if skeleton not in labels:
                labels[skeleton] = encode_basestring_ascii("".join(map(str, skeleton)))
        records.append("".join([
            labels_head, item_sep.join([labels[s] for s in skeletons]),
            length_head, str(len(paths)),
            odd_head, "true" if len(paths) % 2 else "false",
            paths_head,
            item_sep.join([path_open + path_sep.join(map(index_text, path)) + path_close
                           if path else "[]"
                           for path in paths]),
            tail,
        ]))
    return _JsonText("[" + pads[1] + record_sep.join(records) + pads[0] + "]")


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
    t = trees.decompose(p)
    longest = trees.max_skeleton_length(t)
    # A leaf or a full-length root skeleton is simple; sums have root 12, skew sums 21.
    payload = {
        "permutation": format_permutation(p),
        "n": len(p),
        "descent_set": sorted(descent_set(p)),
        "des": d,
        "ides": e,
        "simple": t.skeleton is None or len(t.skeleton) == len(p),
        "sum_indecomposable": t.skeleton != (1, 2),
        "skew_indecomposable": t.skeleton != (2, 1),
        "in_closure_2": longest <= 2,
        "in_closure_5": longest <= 5,
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    p = parse_permutation(args.perm)
    t = trees.decompose(p)
    part = trees.binary_right_chains(t)
    # The two bulk values, pre-rendered for depth 1 of the payload.
    payload = {
        "permutation": format_permutation(p),
        "tree": trees.tree_text(t),
        "tree_json": _tree_json_text(t, 1),
        "chains": _chains_json_text(part, 1),
        "odd_chain_count": part.odd_chain_count,
        "simplified": trees.simplified_text(t),
    }
    _emit(payload, args)
    return EXIT_OK


class Route:
    """One way to compute a poly target's polynomial, or a verify suite's
    ``(ok, results)`` up to ``--max-n``: ``run(n, args)``.  Past ``cap`` it
    refuses n, and past ``long_run`` (None: nowhere) it needs --long-run."""
    __slots__ = ("run", "cap", "long_run")

    def __init__(self, run: Callable[[int, argparse.Namespace], Any], cap: int,
                 long_run: int | None):
        self.run, self.cap, self.long_run = run, cap, long_run

    def admits(self, n: int, long_run: bool = False) -> bool:
        return n <= self.cap and (long_run or self.long_run is None or n <= self.long_run)


def _simple_by_inversion(n: int, args: argparse.Namespace) -> BivarPoly:
    return series.simple_series(n, method="inversion").coeff(n) if n >= 4 else BivarPoly()


def _simple_by_enumeration(n: int, args: argparse.Namespace) -> BivarPoly:
    return simple_distribution(n, threads=args.threads).poly if n >= 4 else BivarPoly()


def _conjecture(max_n: int, args: argparse.Namespace, method: str) -> tuple[bool, list]:
    S = series.simple_series(max(max_n, 4), method=method, threads=args.threads)
    results = []
    for n in range(4, max_n + 1):
        expansion = gamma_expand_bivariate(S.coeff(n), n - 1)
        results.append({"n": n, "positive": expansion.is_positive(), "gamma": expansion.json_form()})
    return all(r["positive"] for r in results), results


def _reduction(max_n: int, args: argparse.Namespace) -> tuple[bool, list]:
    results = []
    for n in range(1, max_n + 1):
        report = orbits.verify_reduction(n)
        results.append({"n": n, "groups": report.group_count, "pass": report.ok,
                        "failures": list(report.failures)})
    return all(r["pass"] for r in results), results


def _system(max_n: int, args: argparse.Namespace) -> tuple[bool, list]:
    report = series.verify_system_identities(max_n)
    return report.ok, [{"check": name, "pass": passed} for name, passed in report.checks]


def _lemma39(max_n: int, args: argparse.Namespace) -> tuple[bool, list]:
    results = []
    for report in orbits.closure_class_reports(max_n):
        expansion = report.expansion
        results.append({
            "n": report.n,
            "classes": _classes_json_text(report),
            "polynomial": _poly_payload(report.total),
            "gamma": None if expansion is None else expansion.json_form(),
            "positive": expansion is not None and expansion.is_positive(),
            "pass": report.ok,
            "failures": list(report.failures),
        })
    return all(r["pass"] for r in results), results


def _classes_json_text(report: orbits.ClosureClassReport) -> _JsonText:
    """The ``classes`` records of one lemma39 size, ``{"i", "j", "minimal",
    "size"}`` for each class in label order, as ``json.dumps(...,
    indent=2, sort_keys=True)`` writes them at depth 3 of the payload.  A
    record is its kind's text before the label, the label, and its kind's
    text after it up to the next record; the two texts are filled in once
    per kind from one template at depth 4, and one join writes every
    record."""
    kinds, labels = report.kinds, report.labels
    pad3, pad4, pad5 = ("\n" + "  " * d for d in (3, 4, 5))
    head = "{" + pad5 + '"i": %d,' + pad5 + '"j": %d,' + pad5 + '"minimal": '
    tail = "," + pad5 + '"size": %d' + pad4 + "}"
    distinct = set(kinds)
    before = {kind: head % (kind.signature.gamma_i, kind.signature.gamma_j) for kind in distinct}
    after = {kind: tail % kind.size + "," + pad4 for kind in distinct}
    parts = list(itertools.chain.from_iterable(zip(
        map(before.__getitem__, kinds), map(encode_basestring_ascii, labels),
        map(after.__getitem__, kinds))))
    parts[0] = "[" + pad4 + parts[0]
    parts[-1] = tail % kinds[-1].size + pad3 + "]"
    return _JsonText("".join(parts))


# Every route of every poly target and verify suite: command -> quantity ->
# method -> Route; a quantity's first method is its default.  Each row finds
# its library function by name (a module attribute or a cli global) when it
# runs, so a wrapper installed on that name sees the CLI's calls too.  The
# rows that enumerate S_n, or the closure classes, need --long-run past 10.
ROUTES: dict[str, dict[str, dict[str, Route]]] = {
    "poly": {
        "eulerian": {
            "enumerate": Route(lambda n, args: eulerian_distribution(n).poly,
                               MAX_ENUMERATION_N, 10),
            "rsk": Route(lambda n, args: series.rsk_two_sided_eulerian(n), series.MAX_RSK_N, None),
        },
        "simple": {
            "inversion": Route(_simple_by_inversion, series.MAX_RSK_N, None),
            "enumerate": Route(_simple_by_enumeration, MAX_ENUMERATION_N, 10),
        },
        "separable": {"trees": Route(lambda n, args: orbits.closure_distribution(n, 2),
                                     orbits.MAX_CLOSURE_SERIES_N, None)},
        "h5": {"trees": Route(lambda n, args: orbits.closure_distribution(n, 5),
                              orbits.MAX_CLOSURE_SERIES_N, None)},
    },
    "verify": {
        "conjecture": {
            "inversion": Route(lambda n, args: _conjecture(n, args, "inversion"),
                               series.MAX_RSK_N, None),
            "enumerate": Route(lambda n, args: _conjecture(n, args, "enumerate"),
                               MAX_ENUMERATION_N, 10),
        },
        "reduction": {"enumerate": Route(_reduction, MAX_ENUMERATION_N, 10)},
        "system": {"rsk": Route(_system, series.MAX_RSK_N, None)},
        "lemma39": {"trees": Route(_lemma39, orbits.MAX_CLOSURE_TREE_N, 10)},
    },
}


def _route(args: argparse.Namespace, n: int) -> tuple[str, Route]:
    """The --method value, or the default, and its route, checked against
    ``ROUTES``: an unknown method is a usage error, and an n past the route's
    cap, or past its long-run threshold without --long-run, a resource bound
    whose hint names the other methods that would run n without --long-run."""
    quantity = args.target if args.command == "poly" else args.suite
    routes = ROUTES[args.command][quantity]
    method = args.method or next(iter(routes))
    route = routes.get(method)
    if route is None:
        raise ParseError(f"--method {method!r} is not available for {quantity}; "
                         f"choose from {', '.join(routes)}")
    if route.admits(n, args.long_run):
        return method, route
    flag = "--n" if args.command == "poly" else "--max-n"
    hint = " or ".join(f"--method {other}" for other, r in routes.items()
                       if other != method and r.admits(n)) or f"a smaller {flag}"
    if n > route.cap:
        raise ResourceBoundError(f"{flag} {n} is past the cap {route.cap} of {quantity} "
                                 f"--method {method}; use {hint}")
    raise ResourceBoundError(f"{flag} {n} is past {route.long_run} for {quantity} "
                             f"--method {method}, so it needs --long-run; cheaper: {hint}")


def cmd_poly(args: argparse.Namespace) -> int:
    n = args.n
    method, route = _route(args, n)
    poly = route.run(n, args)
    expansion = gamma_expand_bivariate(poly, n - 1)
    payload = {
        "target": args.target,
        "n": n,
        "method": method,
        "polynomial": _poly_payload(poly),
        "gamma": expansion.json_form(),
        "positive": expansion.is_positive(),
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    _, route = _route(args, args.max_n)
    ok, results = route.run(args.max_n, args)
    _emit({"suite": args.suite, "ok": ok, "results": results}, args)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
