"""
Command-line interface.

Four subcommands expose the library: ``stats`` and ``decompose`` for single
permutations, ``poly`` for distribution polynomials with their gamma
expansions, and ``verify`` for the exhaustive identity suites.  Output is
deterministic: the same command and configuration always produce identical
bytes, in any of the three formats (text, json, csv).

Each command's payload is written as the bytes of ``json.dumps(payload,
indent=2, sort_keys=True)``; text and csv are written from the payload
itself, its lists in compact JSON (`_compact_json_parts`), so no format
decodes JSON.  The bulk values are pre-rendered: the children and skeleton
of ``decompose``'s ``tree_json``, its ``chains``, and each size's
``classes`` of ``verify --suite lemma39`` are written as JSON text for
their depth in the payload (`_decompose_json`, `_classes_json_text`) and
held in a `_JsonText`.  The encoder writes a marker in place of each, and
`_json_parts` splices the texts back in, so ``--format json`` writes the
answer part by part without ever joining it.

The module loads only the standard library and `errors` (which holds the
route caps of `ROUTES`): each `cmd_*` and route function imports the library
modules it calls where it runs, so a command compiles only what its route
uses.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error (a
stdout closed by its reader included), 3 resource bound exceeded.  Every
library error is one ``error:`` line: 3 for a `ResourceBoundError`, 2 for
any other `GammalabError` or `ValueError`.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .errors import (
    MAX_CLOSURE_SERIES_N,
    MAX_CLOSURE_TREE_N,
    MAX_ENUMERATION_N,
    MAX_REDUCTION_N,
    MAX_RSK_N,
    GammalabError,
    ParseError,
    ResourceBoundError,
)

if TYPE_CHECKING:
    from . import orbits, trees
    from .polys import BivarPoly

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls, so ``main`` can run many requests in one process.

    Each subcommand sets ``run``, a call of its `cmd_*` by name (so a wrapper
    installed on that name sees it, as with the rows of `ROUTES`), and
    ``parser``, itself, which reports the arguments it does not take."""
    parser = argparse.ArgumentParser(
        prog="gammalab",
        description="Descent statistics, decomposition trees and gamma-positivity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="descent statistics of one permutation")
    p_stats.add_argument("perm", help='permutation text, e.g. "2413" or "2 4 1 3"')
    _add_common(p_stats)
    p_stats.set_defaults(run=lambda args: cmd_stats(args))

    p_dec = sub.add_parser("decompose", help="substitution decomposition tree")
    p_dec.add_argument("perm")
    _add_common(p_dec)
    p_dec.set_defaults(run=lambda args: cmd_decompose(args))

    p_poly = sub.add_parser("poly", help="distribution polynomial and gamma expansion")
    p_poly.add_argument("--target", required=True, choices=list(ROUTES["poly"]))
    p_poly.add_argument("--n", type=_positive, required=True)
    p_poly.add_argument("--method", default=None, help=_methods_help(ROUTES["poly"]))
    _add_common(p_poly)
    p_poly.set_defaults(run=lambda args: cmd_poly(args))

    p_ver = sub.add_parser("verify", help="exhaustive verification suites")
    p_ver.add_argument("--suite", required=True, choices=list(ROUTES["verify"]))
    p_ver.add_argument("--max-n", type=_positive, required=True)
    p_ver.add_argument("--method", default=None, help=_methods_help(ROUTES["verify"]))
    _add_common(p_ver)
    p_ver.set_defaults(run=lambda args: cmd_verify(args))

    for p in (p_poly, p_ver):
        p.add_argument("--threads", type=_non_negative, default=0,
                       help="accepted and not read: every tally runs in this process")
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _emit(payload: dict, args: argparse.Namespace) -> None:
    """Write ``payload`` in the chosen format.

    JSON goes out as the parts of `_json_parts`, one write each, so the
    answer is never joined into one string; text goes out as the parts of
    `_to_text`, and csv as one string.  Text and csv read the payload itself
    and write its lists (and csv its dicts) in compact form with
    `_compact_json_parts`, so a payload may hold `_JsonText` values and
    every format sees the same data.
    """
    if args.format == "json":
        parts = _json_parts(payload)
        parts.append("\n")
    elif args.format == "csv":
        parts = [_to_csv(payload)]
    else:
        parts = _to_text(payload)
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


# The JSON text of the label of a 12 or 21 node, the nodes of right chains.
_CHAIN_LABELS = {(1, 2): '"12"', (2, 1): '"21"'}


def _decompose_json(t: trees.DecompTree, depth: int) -> tuple[dict, _JsonText, int]:
    """The ``tree_json`` form, the ``chains`` records and the odd chain count
    of `cmd_decompose`, for payload values at ``depth``, from one loop over
    the nodes without recursion.

    The form is ``{"children": [...], "skeleton": [...] | null}``: a leaf's
    two values are plain, and any other node's are written as JSON text for
    depth + 1.  Each item adds its leaf text, or its opening and, after its
    children two levels deeper, its closing: the skeleton list and the
    brackets.  Leaf texts, openings and separators are built once per depth
    and closings once per (skeleton, depth), so a chain of sums reuses the
    same few strings at every level.

    Each internal node carries its path as JSON text: its parent's text, the
    separator and its index.  A 12 or 21 node that is the last child of a 12
    or 21 node continues that node's chain, and any other one heads a chain,
    as in `trees.binary_right_chains`; nodes are met in preorder, so chains
    are listed in preorder of their heads.

    >>> from gammalab import trees
    >>> form, chains, odd = _decompose_json(trees.decompose((1, 3, 2)), 0)
    >>> json.loads(form["skeleton"].text), json.loads(chains.text), odd
    ([1, 2], [{'labels': ['12', '21'], 'length': 2, 'odd': False, 'paths': [[], [1]]}], 0)
    """
    if t.skeleton is None:
        return {"children": [], "skeleton": None}, _JsonText("[]"), 0
    levels: dict[int, tuple] = {}

    def level(d: int) -> tuple:
        """For the items at depth d: a leaf and a node's opening, each
        without and with the separator before it; a node's closing, the
        separator of its skeleton's entries and the two ends around them;
        and the closings made so far, by skeleton."""
        pad = "\n" + "  " * d
        inner = pad + "  "
        item = inner + "  "
        leaf = "{" + inner + '"children": [],' + inner + '"skeleton": null' + pad + "}"
        opening = "{" + inner + '"children": [' + item
        found = levels[d] = (leaf, "," + pad + leaf, opening, "," + pad + opening, "," + item,
                             inner + "]," + inner + '"skeleton": [' + item, inner + "]" + pad + "}",
                             {})
        return found

    # pads[k] is the line break and indent at depth + k.
    pads = ["\n" + "  " * d for d in range(depth, depth + 5)]
    path_open, path_sep, path_close = "[" + pads[4], "," + pads[4], pads[3] + "]"
    chains: list[tuple[list[str], list[str]]] = []  # each chain's labels and paths
    item = pads[2]
    root_skeleton = "[" + item + ("," + item).join(map(str, t.skeleton)) + pads[1] + "]"
    parts: list[str] = []
    append = parts.append
    # Texts, and internal nodes, each as (node, the depth of its children's
    # items, its path text without the closing bracket or "" at the root,
    # the chain it continues, its opening).  A first child that is a leaf is
    # appended at once, right after its parent's opening.
    stack: list = [pads[1] + "]", (t, depth + 2, "", None, "[" + item)]
    push = stack.append
    pop = stack.pop
    while stack:
        entry = pop()
        if entry.__class__ is str:
            append(entry)
            continue
        sub, d, path, chain, opening = entry
        append(opening)
        skeleton, children = sub
        label = _CHAIN_LABELS.get(skeleton)
        if label is None:
            chain = None
        else:
            if chain is None:
                chain = ([], [])
                chains.append(chain)
            chain[0].append(label)
            chain[1].append(path + path_close if path else "[]")
        step = path + path_sep if path else path_open
        leaf, sep_leaf, opening, sep_opening, sep, head, tail, closings = levels.get(d) or level(d)
        last = len(children) - 1
        for i in range(last, -1, -1):
            child = children[i]
            skeleton = child.skeleton
            if skeleton is None:
                if i:
                    push(sep_leaf)
                else:
                    append(leaf)
                continue
            closing = closings.get(skeleton)
            if closing is None:
                closing = closings[skeleton] = head + sep.join(map(str, skeleton)) + tail
            push(closing)
            push((child, d + 2, step + str(i), chain if i == last else None,
                  sep_opening if i else opening))
    form = {"children": _JsonText("".join(parts)), "skeleton": _JsonText(root_skeleton)}
    if not chains:
        return form, _JsonText("[]"), 0
    item_sep = "," + pads[3]
    labels_head = "{" + pads[2] + '"labels": [' + pads[3]
    length_head = pads[2] + "]," + pads[2] + '"length": '
    odd = ("," + pads[2] + '"odd": false', "," + pads[2] + '"odd": true')
    paths_head = "," + pads[2] + '"paths": [' + pads[3]
    tail = pads[2] + "]" + pads[1] + "}"
    records = ("".join([labels_head, item_sep.join(labels), length_head, str(len(labels)),
                        odd[len(labels) % 2], paths_head, item_sep.join(paths), tail])
               for labels, paths in chains)
    text = "[" + pads[1] + ("," + pads[1]).join(records) + pads[0] + "]"
    return form, _JsonText(text), sum(len(labels) % 2 for labels, _ in chains)


def _compact_json_parts(value: object) -> list[str]:
    """``json.dumps(value, sort_keys=True)`` as a list of parts: each part of
    `_json_parts` with every line break and indent after a comma made one
    space and every other one dropped, which is safe because JSON text holds
    no raw line break inside a string.

    >>> "".join(_compact_json_parts({"b": _JsonText("[\\n  1,\\n  2\\n]"), "a": [[]]}))
    '{"a": [[]], "b": [1, 2]}'
    """
    return [re.sub(r"\n *", "", re.sub(r",\n *", ", ", part)) for part in _json_parts(value)]


def _to_text(payload: dict, indent: str = "") -> list[str]:
    """The text format as a list of parts: one ``key: value`` line per key in
    sorted order, a dict as a ``key:`` line over its own lines indented, and
    a list or a `_JsonText` in compact JSON."""
    parts: list[str] = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            parts.append(f"{indent}{key}:\n")
            parts += _to_text(value, indent + "  ")
        elif isinstance(value, (list, _JsonText)):
            parts.append(f"{indent}{key}: ")
            parts += _compact_json_parts(value)
            parts.append("\n")
        else:
            parts.append(f"{indent}{key}: {value}\n")
    return parts


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
        if isinstance(value, (dict, list, _JsonText)):
            value = "".join(_compact_json_parts(value))
        rows.append(f"{key},{json.dumps(value) if ',' in str(value) else value}")
    return "\n".join(rows) + "\n"


def _poly_payload(poly: BivarPoly) -> dict:
    return {"text": poly.text(), "terms": poly.json_terms()}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> int:
    from . import permutations, trees
    p = permutations.parse_permutation(args.perm)
    d, e = permutations.des_ides(p)
    t = trees.decompose(p)
    longest = trees.max_skeleton_length(t)
    # A leaf or a full-length root skeleton is simple; sums have root 12, skew sums 21.
    payload = {
        "permutation": permutations.format_permutation(p),
        "n": len(p),
        "descent_set": sorted(permutations.descent_set(p)),
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
    from . import permutations, trees
    p = permutations.parse_permutation(args.perm)
    t = trees.decompose(p)
    tree, simplified = trees._bracket_text(t, trees._skeleton_text, trees._length_text)
    # The two bulk values, pre-rendered for depth 1 of the payload.
    tree_json, chains, odd_chain_count = _decompose_json(t, 1)
    payload = {
        "permutation": permutations.format_permutation(p),
        "tree": tree,
        "tree_json": tree_json,
        "chains": chains,
        "odd_chain_count": odd_chain_count,
        "simplified": simplified,
    }
    _emit(payload, args)
    return EXIT_OK


class Route(NamedTuple):
    """One way to compute a poly target's polynomial, or a verify suite's
    ``(ok, results)`` up to ``--max-n``: ``run(n)``, a function of n alone,
    which runs every n up to ``cap`` and refuses the rest."""
    run: Callable[[int], Any]
    cap: int


def _eulerian_by_dp(n: int) -> BivarPoly:
    from .permutations import eulerian_distribution
    return eulerian_distribution(n).poly


def _eulerian_by_rsk(n: int) -> BivarPoly:
    from . import series
    return series.rsk_two_sided_eulerian(n)


def _simple_by_inversion(n: int) -> BivarPoly:
    from . import series
    from .polys import BivarPoly
    return series.simple_series(n, method="inversion").coeff(n) if n >= 4 else BivarPoly()


def _simple_by_enumeration(n: int) -> BivarPoly:
    from .permutations import simple_distribution
    from .polys import BivarPoly
    return simple_distribution(n).poly if n >= 4 else BivarPoly()


def _closure(k: int) -> Callable[[int], BivarPoly]:
    """The route of the closure of the simple permutations of length <= k."""
    def run(n: int) -> BivarPoly:
        from . import orbits
        return orbits.closure_distribution(n, k)
    return run


def _conjecture(max_n: int, method: str) -> tuple[bool, list]:
    from . import series
    from .polys import gamma_expand_bivariate
    S = series.simple_series(max(max_n, 4), method=method)
    results = []
    for n in range(4, max_n + 1):
        expansion = gamma_expand_bivariate(S.coeff(n), n - 1)
        results.append({"n": n, "positive": expansion.is_positive(), "gamma": expansion.json_form()})
    return all(r["positive"] for r in results), results


def _reduction(max_n: int) -> tuple[bool, list]:
    from . import orbits
    results = []
    for n in range(1, max_n + 1):
        report = orbits.verify_reduction(n)
        results.append({"n": n, "groups": report.group_count, "pass": report.ok,
                        "failures": list(report.failures)})
    return all(r["pass"] for r in results), results


def _system(max_n: int) -> tuple[bool, list]:
    from . import series
    report = series.verify_system_identities(max_n)
    return report.ok, [{"check": name, "pass": passed} for name, passed in report.checks]


def _lemma39(max_n: int) -> tuple[bool, list]:
    from . import orbits
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
    kinds, labels = report.classes, report.labels
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
# method -> Route; a quantity's first method is its default.  Each row's
# function imports its library module when it runs and finds its library
# function there by name, so a wrapper installed on that name sees the CLI's
# calls too; the caps come from `errors`, so building the table loads no
# library module.  The comment on `errors.MAX_REDUCTION_N` gives the
# reduction's cost at its cap.  In a fresh process (three runs each, 2-vCPU
# VM, Python 3.11) `poly --target eulerian --n 12` took 0.085-0.13 s with a
# VmHWM of 23 MB, `verify --suite lemma39 --max-n 11` 2.1-2.4 s and 412-415
# MB, `poly --target simple --method enumerate --n 12` 1.0-1.4 s and 54 MB,
# and `verify --suite conjecture --method enumerate --max-n 12` 1.3-1.9 s
# and 54 MB.
ROUTES: dict[str, dict[str, dict[str, Route]]] = {
    "poly": {
        "eulerian": {
            "enumerate": Route(_eulerian_by_dp, MAX_ENUMERATION_N),
            "rsk": Route(_eulerian_by_rsk, MAX_RSK_N),
        },
        "simple": {
            "inversion": Route(_simple_by_inversion, MAX_RSK_N),
            "enumerate": Route(_simple_by_enumeration, MAX_ENUMERATION_N),
        },
        "separable": {"trees": Route(_closure(2), MAX_CLOSURE_SERIES_N)},
        "h5": {"trees": Route(_closure(5), MAX_CLOSURE_SERIES_N)},
    },
    "verify": {
        "conjecture": {
            "inversion": Route(lambda n: _conjecture(n, "inversion"), MAX_RSK_N),
            "enumerate": Route(lambda n: _conjecture(n, "enumerate"), MAX_ENUMERATION_N),
        },
        "reduction": {"enumerate": Route(_reduction, MAX_REDUCTION_N)},
        "system": {"rsk": Route(_system, MAX_RSK_N)},
        "lemma39": {"trees": Route(_lemma39, MAX_CLOSURE_TREE_N)},
    },
}


def _route(args: argparse.Namespace, n: int) -> tuple[str, Route]:
    """The --method value, or the default, and its route, checked against
    ``ROUTES``: an unknown method is a usage error, and an n past the route's
    cap a resource bound whose hint names the other methods that would run n."""
    quantity = args.target if args.command == "poly" else args.suite
    routes = ROUTES[args.command][quantity]
    method = args.method or next(iter(routes))
    route = routes.get(method)
    if route is None:
        raise ParseError(f"--method {method!r} is not available for {quantity}; "
                         f"choose from {', '.join(routes)}")
    if n <= route.cap:
        return method, route
    flag = "--n" if args.command == "poly" else "--max-n"
    hint = " or ".join(f"--method {other}" for other, r in routes.items()
                       if other != method and n <= r.cap) or f"a smaller {flag}"
    raise ResourceBoundError(f"{flag} {n} is past the cap {route.cap} of {quantity} "
                             f"--method {method}; use {hint}")


def cmd_poly(args: argparse.Namespace) -> int:
    from .polys import gamma_expand_bivariate
    n = args.n
    method, route = _route(args, n)
    poly = route.run(n)
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
    ok, results = route.run(args.max_n)
    _emit({"suite": args.suite, "ok": ok, "results": results}, args)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        # The root parser takes nothing before the subcommand's name but -h,
        # which exits, so what stands there is its own unknown arguments.
        before = argv[:argv.index(args.command)]
        if before:
            parser.error(f"unrecognized arguments: {' '.join(before)}")
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.run(args)
    except (GammalabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE if isinstance(exc, ResourceBoundError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
