"""
Involutions on decomposition trees and the equivalence classes they generate.

Two commuting families of involutions act on the trees of permutations whose
skeletons all have length at most 5:

* flipping every label of one odd-length binary right chain (12 <-> 21), and
* swapping the label of one length-4 node (2413 <-> 3142).

A chain flip changes des and ides by the same +-1; a length-4 swap moves one
descent from ides to des or back.  Each orbit therefore contributes a single
gamma-basis element to the joint (des, ides) distribution, with exponents read
off the orbit's minimal representative: the unique tree whose odd chains all
start with 12 and whose length-4 nodes are all labeled 2413.

The closure trees are built bottom-up from pools of smaller trees, and each
pool record carries the tree's (des, ides), its minimal representative and
that representative's `tree_text`, all made from its children's records
(inflation adds des and ides; a text is one join of the children's texts).
The records of the requested size stream one at a time with their
statistics and label text but no tree, so the class report scores and
groups every tree by a string key without building, walking or rendering
it, and builds one minimal tree per class, for its signature.  Only the
smaller pools are kept, nothing is kept between calls, and sizes past
`MAX_CLOSURE_TREE_N` are refused before any pool is built.  The closure
polynomials themselves come by series inversion (`series.closure_series`),
which generates no tree.

The same bookkeeping at the level of *simplified* trees (labels reduced to
lengths) factors the full two-sided Eulerian polynomial into per-shape
products, which is what `verify_reduction` checks exhaustively.
"""
from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache

from .errors import ExpansionError, ResourceBoundError, StructureError
from .permutations import (
    Permutation,
    _check_length,
    des_ides,
    enumerate_permutations,
    enumerate_simple,
    eulerian_distribution,
    simple_distribution,
)
from .polys import (
    ONE,
    ONE_PLUS_ST,
    ST,
    ZERO,
    BivarGammaExpansion,
    BivarPoly,
    gamma_basis_bivariate,
    gamma_expand_bivariate,
)
from .series import PowerSeries, closure_series
from .trees import (
    _ASC,
    _BINARY,
    _DESC,
    LEAF,
    DecompTree,
    Path,
    SimplifiedTree,
    _skeleton_text,
    _split,
    binary_right_chains,
    decompose,
    iter_nodes,
    max_skeleton_length,
    reconstruct,
)

_LEN4 = {(2, 4, 1, 3), (3, 1, 4, 2)}
# Each involution toggles a node's label within its pair.
_TOGGLE = {_ASC: _DESC, _DESC: _ASC, (2, 4, 1, 3): (3, 1, 4, 2), (3, 1, 4, 2): (2, 4, 1, 3)}


def _rebuild(t: DecompTree, swap_paths: set[Path]) -> DecompTree:
    """Copy ``t`` with the skeletons at ``swap_paths`` toggled within their pair."""

    def rb(sub: DecompTree, path: Path) -> DecompTree:
        skel = sub.skeleton
        if skel is None:
            return LEAF
        if path in swap_paths:
            if skel not in _TOGGLE:
                raise StructureError(f"cannot toggle skeleton {skel}")
            skel = _TOGGLE[skel]
        return DecompTree(
            skel, tuple(rb(c, path + (i,)) for i, c in enumerate(sub.children))
        )

    return rb(t, ())


def flip_odd_chain(t: DecompTree, chain_index: int) -> DecompTree:
    """Swap 12 and 21 in every node of the chain with the given index.

    ``chain_index`` indexes the chains of ``binary_right_chains(t)``; only
    odd-length chains may be flipped.
    """
    chains = binary_right_chains(t).chains
    if not 0 <= chain_index < len(chains):
        raise IndexError(f"chain index {chain_index} out of range (have {len(chains)})")
    chain = chains[chain_index]
    if len(chain) % 2 == 0:
        raise IndexError(f"chain {chain_index} has even length {len(chain)}; only odd chains flip")
    return _rebuild(t, set(chain))


def length4_nodes(t: DecompTree) -> list[Path]:
    """Paths of nodes labeled 2413 or 3142, in preorder."""
    return [path for path, sub in iter_nodes(t) if sub.skeleton in _LEN4]


def swap_length4_label(t: DecompTree, node_index: int) -> DecompTree:
    """Switch the label of the node_index-th length-4 node between 2413 and 3142."""
    nodes = length4_nodes(t)
    if not 0 <= node_index < len(nodes):
        raise IndexError(
            f"length-4 node index {node_index} out of range (have {len(nodes)})"
        )
    return _rebuild(t, {nodes[node_index]})


# ---------------------------------------------------------------------------
# minimal representatives and class signatures
# ---------------------------------------------------------------------------

def minimal_representative(t: DecompTree) -> DecompTree:
    """Normalize: every odd chain starts with 12, every length-4 node is 2413.

    The corresponding permutation has the fewest descents in its orbit.
    Subtrees that are already normalized are returned as they are, so an
    already-minimal tree comes back as the same object.
    """
    return _normalized(t, None)


def _normalized(t: DecompTree, toggle: bool | None) -> DecompTree:
    """``t`` normalized; ``toggle`` tells a node inside a binary right chain
    whether its chain flips, and is None at any other node."""
    skel = t.skeleton
    if skel is None:
        return t
    children = t.children
    if skel in _BINARY:
        if toggle is None:  # a chain head: flip the chain iff odd and led by 21
            length = 0
            cur = t
            while cur.skeleton in _BINARY:
                length += 1
                cur = cur.children[-1]
            toggle = length % 2 == 1 and skel == _DESC
        new_children = (_normalized(children[0], None), _normalized(children[1], toggle))
        flip = toggle
    else:
        new_children = tuple(_normalized(c, None) for c in children)
        flip = skel == (3, 1, 4, 2)
    if not flip and all(a is b for a, b in zip(new_children, children)):
        return t
    return DecompTree(_TOGGLE[skel] if flip else skel, new_children)


@dataclass(frozen=True)
class ClassSignature:
    """Node counts of a minimal representative, determining its orbit polynomial."""
    n: int            # permutation length (leaf count)
    n21: int          # nodes labeled 21
    n4: int           # nodes with a length-4 skeleton
    n5: int           # nodes with a length-5 skeleton
    odd_chains: int   # odd-length binary right chains

    @property
    def gamma_i(self) -> int:
        return self.n21 + self.n4 + 2 * self.n5

    @property
    def gamma_j(self) -> int:
        return self.n4

    def node_count_identity_holds(self) -> bool:
        # Counting children of each node: n-1 = r + 2*d2 + 3*v4 + 4*v5.
        return self.n - 1 == self.odd_chains + 2 * self.n21 + 3 * self.n4 + 4 * self.n5

    def orbit_size(self) -> int:
        return 1 << (self.odd_chains + self.n4)


def signature_of(minimal: DecompTree) -> ClassSignature:
    """The node counts of ``minimal``, in one stack walk.

    Each stack entry carries the node's position in the binary right chain
    it continues (0 when it continues none), so every chain is counted at
    the non-binary node that ends it.
    """
    leaves = n21 = n4 = n5 = odd_chains = 0
    stack = [(minimal, 0)]
    while stack:
        sub, position = stack.pop()
        skel = sub.skeleton
        if skel is not None and len(skel) == 2:
            if skel == _DESC:
                n21 += 1
            stack.append((sub.children[0], 0))
            stack.append((sub.children[1], position + 1))
            continue
        if position % 2:
            odd_chains += 1
        if skel is None:
            leaves += 1
            continue
        k = len(skel)
        if k == 4:
            n4 += 1
        elif k == 5:
            n5 += 1
        else:
            raise ValueError(f"skeleton of length {k} outside the closure of lengths <= 5")
        stack.extend((c, 0) for c in sub.children)
    return ClassSignature(n=leaves, n21=n21, n4=n4, n5=n5, odd_chains=odd_chains)


@dataclass(frozen=True)
class EquivClass:
    minimal: DecompTree
    members: frozenset[Permutation]
    signature: ClassSignature


def equivalence_class(p: Permutation) -> EquivClass:
    """The full orbit of ``p`` under chain flips and length-4 swaps.

    Defined only when every skeleton of ``p`` has length at most 5 (the swap
    involution has no counterpart for longer skeletons).
    """
    t = decompose(p)
    if max_skeleton_length(t) > 5:
        raise ValueError(
            f"{p} has a skeleton longer than 5; equivalence classes are not defined"
        )
    seen = {t}
    queue = [t]
    while queue:
        u = queue.pop()
        part = binary_right_chains(u)
        for idx, chain in enumerate(part.chains):
            if len(chain) % 2 == 1:
                v = flip_odd_chain(u, idx)
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        for j in range(len(length4_nodes(u))):
            v = swap_length4_label(u, j)
            if v not in seen:
                seen.add(v)
                queue.append(v)
    minimal = minimal_representative(t)
    return EquivClass(
        minimal=minimal,
        members=frozenset(reconstruct(u) for u in seen),
        signature=signature_of(minimal),
    )


def class_polynomial(c: EquivClass) -> BivarPoly:
    """The single gamma-basis element (st)^i (s+t)^j (1+st)^(n-1-2i-j) of the class."""
    return signature_polynomial(c.signature)


def signature_polynomial(sig: ClassSignature) -> BivarPoly:
    return gamma_basis_bivariate(sig.gamma_i, sig.gamma_j, sig.n - 1)


# ---------------------------------------------------------------------------
# generating the substitution closure directly
# ---------------------------------------------------------------------------

def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


# The tree route's size cap.  On a 2-vCPU host `closure_class_report(11)`
# takes about 32 s and peaks at about 670 MB (1.1M pool records, 424330
# classes).  n = 12 would hold 6.7M pool records and stream 36.9M trees into
# about six times the classes, an estimated 4 GB, so it is refused before any
# pool is built.
MAX_CLOSURE_TREE_N = 11


def check_closure_tree_length(n: int) -> None:
    """Refuse a tree size the pools cannot hold: past `MAX_CLOSURE_TREE_N`
    (or outside what `_check_length` allows)."""
    _check_length(n)
    if n > MAX_CLOSURE_TREE_N:
        raise ResourceBoundError(
            f"closure trees of size {n} exceed the tree-route bound {MAX_CLOSURE_TREE_N}"
        )


# A pool record is the tuple
#   (tree, des, ides, nf, kept, flipped, length, nf_text, kept_text, flipped_text):
# the tree, its statistics, its normal form as a chain head (nf) and inside a
# binary right chain that is kept or flipped, the length of the chain it heads
# (0 if not binary), and the `tree_text` of each normal form.
_LEAF_RECORD = (LEAF, 0, 0, LEAF, LEAF, LEAF, 0, ".", ".", ".")


@lru_cache(maxsize=64)
def _head(skel: tuple[int, ...]) -> str:
    """The text of a node labeled ``skel`` up to its first child: ``2413[``."""
    return _skeleton_text(skel) + "["


def _node_forms(skel: Permutation | None, kids: tuple, forms: dict) -> tuple:
    """The fields nf .. flipped_text of the record of a node labeled
    ``skel``, from its children's records ``kids``.

    A binary node flips iff its chain is odd and led by 21, and a 3142 node
    becomes 2413.  Each text is one join of the children's texts, and
    ``forms`` (text -> (tree, text)) hands back the first tree and text made
    for it, so records with equal normal forms share one object of each.
    """
    if skel is None:
        return _LEAF_RECORD[3:]
    if skel in _BINARY:
        a, b = kids
        toggled = _TOGGLE[skel]
        text = f"{_head(skel)}{a[7]},{b[8]}]"
        kept, kept_text = forms.get(text) or _new_form(forms, text, DecompTree(skel, (a[3], b[4])))
        text = f"{_head(toggled)}{a[7]},{b[9]}]"
        flipped, flipped_text = forms.get(text) or _new_form(
            forms, text, DecompTree(toggled, (a[3], b[5])))
        length = b[6] + 1
        if length % 2 and skel == _DESC:
            return flipped, kept, flipped, length, flipped_text, kept_text, flipped_text
        return kept, kept, flipped, length, kept_text, kept_text, flipped_text
    label = _TOGGLE[skel] if skel == (3, 1, 4, 2) else skel
    text = f"{_head(label)}{','.join([r[7] for r in kids])}]"
    nf, text = forms.get(text) or _new_form(forms, text, DecompTree(label, tuple([r[3] for r in kids])))
    return nf, nf, nf, 0, text, text, text


def _new_form(forms: dict, text: str, tree: DecompTree) -> tuple[DecompTree, str]:
    forms[text] = form = (tree, text)
    return form


def _parts_tree(parts: tuple) -> DecompTree:
    """The tree of a top-size record's ``parts`` (its skeleton and children's records)."""
    skel, kids = parts
    return DecompTree(skel, tuple([r[0] for r in kids]))


def _parts_normal_form(parts: tuple) -> DecompTree:
    """``minimal_representative`` of the tree of ``parts``, from its children's records."""
    return _node_forms(*parts, {})[0]


def _closure_records(n: int, k: int):
    """Yield ``(des, ides, label, parts)`` for every canonical tree with n
    leaves whose skeletons have length <= k, one at a time.

    ``label`` is ``tree_text(minimal_representative(t))`` and ``parts`` is
    the root skeleton with the children's pool records, from which
    `_parts_tree` and `_parts_normal_form` build the tree and its normal form.
    The trees are built bottom-up from pools of smaller records, so a node's
    statistics are its skeleton's plus its children's, and its normal forms
    and their texts come from its children's records (`_node_forms`).
    Records of the top size build neither tree and are never stored.
    """
    check_closure_tree_length(n)
    if k < 2:
        raise ValueError("k must be at least 2")
    skeletons = [(s, des_ides(s)) for ell in range(2, min(k, n) + 1) for s in enumerate_simple(ell)]
    # pools[(m, forbid)]: the records with m leaves whose root is not ``forbid``;
    # canonical trees never give a 12 (21) node another 12 (21) as last child.
    pools = {(1, forbid): [_LEAF_RECORD] for forbid in (None, _ASC, _DESC)}
    forms: dict[str, tuple[DecompTree, str]] = {}

    def blocks(m: int):
        """(skeleton, des, ides, iterable of children's records) for size m."""
        for skel, (sd, se) in skeletons:
            if len(skel) > m:
                break
            if skel in _BINARY:
                for first, second in _compositions(m, 2):
                    yield skel, sd, se, itertools.product(pools[(first, None)], pools[(second, skel)])
            else:
                for comp in _compositions(m, len(skel)):
                    yield skel, sd, se, itertools.product(*[pools[(c, None)] for c in comp])

    for m in range(2, n):
        full = []
        for skel, sd, se, combos in blocks(m):
            for kids in combos:
                t = DecompTree(skel, tuple([r[0] for r in kids]))
                d = sd + sum([r[1] for r in kids])
                e = se + sum([r[2] for r in kids])
                full.append((t, d, e) + _node_forms(skel, kids, forms))
        pools[(m, None)] = full
        for forbid in (_ASC, _DESC):
            pools[(m, forbid)] = [r for r in full if r[0].skeleton != forbid]
    if n == 1:
        yield 0, 0, ".", (None, ())
        return
    # The top size inlines the label rule of `_node_forms`.
    for skel, sd, se, combos in blocks(n):
        if skel in _BINARY:
            kept_head, flip_head = _head(skel), _head(_TOGGLE[skel])
            odd_flips = skel == _DESC  # the chain flips iff odd, i.e. b's chain is even
            for kids in combos:
                a, b = kids
                if odd_flips and not b[6] % 2:
                    label = f"{flip_head}{a[7]},{b[9]}]"
                else:
                    label = f"{kept_head}{a[7]},{b[8]}]"
                yield sd + a[1] + b[1], se + a[2] + b[2], label, (skel, kids)
        else:
            head = _head(_TOGGLE[skel] if skel == (3, 1, 4, 2) else skel)
            for kids in combos:
                yield (sd + sum([r[1] for r in kids]), se + sum([r[2] for r in kids]),
                       f"{head}{','.join([r[7] for r in kids])}]", (skel, kids))


def closure_trees(n: int, k: int) -> list[DecompTree]:
    """All canonical trees with n leaves whose skeletons have length <= k.

    By the decomposition bijection this is exactly the intersection of the
    substitution closure of the short simple permutations with S_n.
    """
    return [_parts_tree(r[3]) for r in _closure_records(n, k)]


def closure_permutations(n: int, k: int) -> list[Permutation]:
    """The members of the closure class in S_n, via tree reconstruction."""
    return [reconstruct(t) for t in closure_trees(n, k)]


def closure_distribution(n: int, k: int) -> BivarPoly:
    """Joint (des, ides) polynomial over the closure members of length n.

    The coefficient of x^n in `series.closure_series` of the simple series
    cut to the lengths 4..k: no tree is generated.
    """
    _check_length(n)
    if k < 2:
        raise ValueError("k must be at least 2")
    S = PowerSeries(n, [_simple_poly(ell) if 4 <= ell <= k else ZERO for ell in range(n + 1)])
    return closure_series(S).coeff(n)


# ---------------------------------------------------------------------------
# class-by-class verification (skeletons of length <= 5)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassRecord:
    minimal_text: str
    size: int
    distribution: BivarPoly
    signature: ClassSignature


@dataclass(frozen=True)
class ClosureClassReport:
    n: int
    classes: tuple[ClassRecord, ...]
    failures: tuple[str, ...]
    total: BivarPoly
    expansion: BivarGammaExpansion | None  # None when the total has none

    @property
    def ok(self) -> bool:
        return not self.failures


def closure_class_report(n: int) -> ClosureClassReport:
    """Group the members of length n of the closure of the simple permutations
    of length <= 5 into orbits and check each one.

    The trees stream from the pool builder with their statistics and the
    text of their normal form, which labels the class, so no tree is built
    or walked per member; each class's minimal tree is built once, for its
    signature.  Per class: the orbit size is 2^(odd_chains + n4), the
    node-count identity holds, and the class distribution, tallied from its
    members' (des, ides), equals its single gamma-basis element.  Classwide:
    the total equals `closure_distribution(n, 5)`, which comes by series
    inversion, and the class counts per (i, j) are exactly the gamma
    coefficients of the total distribution.
    """
    groups: dict[str, dict[tuple[int, int], int]] = {}
    signatures: dict[str, ClassSignature] = {}
    shared: dict[ClassSignature, ClassSignature] = {}
    for d, e, label, parts in _closure_records(n, 5):
        counts = groups.get(label)
        if counts is None:
            counts = groups[label] = {}
            sig = signature_of(_parts_normal_form(parts))
            signatures[label] = shared.setdefault(sig, sig)
        key = d, e
        counts[key] = counts.get(key, 0) + 1
    failures: list[str] = []
    records: list[ClassRecord] = []
    total: Counter = Counter()
    gamma_counts: Counter = Counter()
    basis: dict[tuple[int, int], tuple[BivarPoly, dict]] = {}
    for label in sorted(groups):
        counts = groups[label]
        sig = signatures[label]
        size = sum(counts.values())
        if size != sig.orbit_size():
            failures.append(f"{label}: orbit size {size} != 2^(r+v4) = {sig.orbit_size()}")
        if not sig.node_count_identity_holds():
            failures.append(f"{label}: node-count identity fails for {sig}")
        ij = sig.gamma_i, sig.gamma_j
        if ij not in basis:
            element = signature_polynomial(sig)
            basis[ij] = element, dict(element.items())
        element, coeffs = basis[ij]
        if counts == coeffs:
            dist = element
        else:
            dist = BivarPoly(counts)
            failures.append(f"{label}: distribution is not the expected basis element")
        gamma_counts[ij] += 1
        records.append(ClassRecord(label, size, dist, sig))
        total.update(counts)
    total_poly = BivarPoly(total)
    if total_poly != closure_distribution(n, 5):
        failures.append("total distribution differs from the closure series coefficient")
    try:
        expansion = gamma_expand_bivariate(total_poly, n - 1)
    except ExpansionError as exc:  # a class lost its symmetry: report it, do not crash
        expansion = None
        failures.append(f"total distribution has no gamma expansion: {exc}")
    else:
        if expansion.as_dict() != gamma_counts:
            failures.append("gamma coefficients do not match the class counts per (i, j)")
        if not expansion.is_positive():
            failures.append("total distribution is not gamma-positive")
    return ClosureClassReport(n, tuple(records), tuple(failures), total_poly, expansion)


# ---------------------------------------------------------------------------
# simplified-tree factorization of the full two-sided Eulerian polynomial
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _simple_poly(length: int) -> BivarPoly:
    # verify_reduction asks for the same lengths once per group, and
    # closure_distribution once per call.
    return simple_distribution(length).poly


def _simplified_chain_lengths(st: SimplifiedTree) -> list[int]:
    chains: list[int] = []

    def walk(nd: SimplifiedTree, under: bool) -> None:
        if not nd:
            return
        binary = len(nd) == 2
        if binary and not under:
            length = 0
            cur = nd
            while cur and len(cur) == 2:
                length += 1
                cur = cur[-1]
            chains.append(length)
        last = len(nd) - 1
        for i, c in enumerate(nd):
            walk(c, binary and i == last)

    walk(st, False)
    return chains


def simplified_class_polynomial(st: SimplifiedTree) -> BivarPoly:
    """Joint polynomial over all permutations sharing the simplified tree ``st``.

    A product of one factor per feature: each node of length >= 4 contributes
    the simple joint polynomial of that length, each even chain of 2k binary
    nodes contributes 2(st)^k, and each odd chain of 2k+1 contributes
    (st)^k (1+st).
    """
    result = ONE
    for length in _iter_simplified_lengths(st):
        if length == 3:
            raise StructureError("simplified tree has a node of length 3")
        if length >= 4:
            result = result * _simple_poly(length)
    for length in _simplified_chain_lengths(st):
        half, odd = divmod(length, 2)
        if odd:
            result = result * (ST ** half * ONE_PLUS_ST)
        else:
            result = result * (ST ** half * 2)
    return result


def _iter_simplified_lengths(st: SimplifiedTree):
    stack = [st]
    while stack:
        nd = stack.pop()
        if nd:
            yield len(nd)
            stack.extend(nd)


@dataclass(frozen=True)
class ReductionReport:
    n: int
    group_count: int
    failures: tuple[str, ...]
    total: BivarPoly
    total_matches: bool

    @property
    def ok(self) -> bool:
        return not self.failures and self.total_matches


def verify_reduction(n: int) -> ReductionReport:
    """Partition S_n by simplified tree and check the factor product per group.

    Also checks that the groups sum back to the full two-sided Eulerian
    polynomial.  That polynomial comes from the prefix DP of
    `eulerian_distribution`, which never builds a permutation, so the final
    comparison is an independent cross-check of this enumeration, not a second
    pass over S_n.
    """
    groups = _simplified_groups(n)
    failures: list[str] = []
    total = BivarPoly()
    for st in sorted(groups, key=repr):
        dist = BivarPoly(groups[st])
        expected = simplified_class_polynomial(st)
        if dist != expected:
            failures.append(f"group {st!r}: distribution does not match the factor product")
        total = total + dist
    matches = total == eulerian_distribution(n).poly
    return ReductionReport(n, len(groups), tuple(failures), total, matches)


def _simplified_groups(n: int) -> dict[SimplifiedTree, Counter]:
    """The (des, ides) tally of S_n, grouped by ``simplify(decompose(p))``.

    No tree is built per permutation: each p costs one root split, one
    `_ShapeIndex` lookup per part and one `des_ides`.  Its (des, ides) is
    read from p itself, not summed over skeletons: that additivity is what
    `verify_reduction` tests.
    """
    _check_length(n)
    index = _ShapeIndex(n)
    tally: Counter = Counter()  # tally[part indices, (des, ides)]
    if n == 1:
        tally[(), (0, 0)] = 1
    else:
        key = index.key
        for p in enumerate_permutations(n):
            tally[key(bytes(p)), des_ides(p)] += 1
    shapes = index.shapes
    groups: defaultdict[SimplifiedTree, Counter] = defaultdict(Counter)
    for (parts, de), c in tally.items():
        groups[tuple([shapes[i] for i in parts])][de] = c
    return groups


# _ShapeIndex keeps the patterns up to this length once met: all of S_1..S_9
# is 409113 patterns, and `verify --suite reduction --max-n 10` peaks at
# about 104 MB.  Longer parts (from n = 11) are split again where they occur,
# so the index never grows past that.
_SHAPE_MEMO_MAX = 9


class _ShapeIndex(dict):
    """Pattern (as bytes) -> index in ``shapes`` of its simplified tree.

    A pattern's simplified tree is the tuple of its root parts' trees, and
    every part is a shorter pattern, so a missing pattern is indexed from its
    parts' indices.  A part is standardized by a bytes ``translate``.
    """

    def __init__(self, n: int):
        super().__init__({b"\x01": 0})
        self.shapes: list[SimplifiedTree] = [()]
        self._by_parts: dict[tuple[int, ...], int] = {}
        # _shift[b] takes each byte v to v - b, standardizing a part with offset b.
        self._shift = [bytes((v - b) % 256 for v in range(256)) for b in range(n)]

    def key(self, pattern: bytes) -> tuple[int, ...]:
        """The indices of the trees of the root parts of ``pattern`` (length >= 2)."""
        shift = self._shift
        _, parts = _split(pattern, 0, len(pattern), 0)
        return tuple([self[pattern[x:y].translate(shift[z])] for x, y, z in parts])

    def __missing__(self, pattern: bytes) -> int:
        parts = self.key(pattern)
        sid = self._by_parts.get(parts)
        if sid is None:
            sid = self._by_parts[parts] = len(self.shapes)
            self.shapes.append(tuple([self.shapes[i] for i in parts]))
        if len(pattern) <= _SHAPE_MEMO_MAX:
            self[pattern] = sid
        return sid
