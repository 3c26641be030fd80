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
start with 12 and whose length-4 nodes are all labeled 2413.  The chains
come from `trees.binary_right_chains`, the one chain partition of this
module: the moves, the minimal representative and its signature all read it.

The class report never builds a tree.  A node's minimal representative is
made from its children's, so the orbits of one size come from those of
smaller sizes by a DP over normal-form classes (`_class_tallies`): each
class carries its label, the `tree_text` of its minimal representative,
the (des, ides) tally of all its members packed in one int
(`permutations._tally_packing`, the layout of every (des, ides) tally;
inflation multiplies tallies), and the node counts of its minimal
representative, from which its signature follows.  One pass
(`closure_class_reports`) checks each size as the DP completes it.  Its
report lists the labels and, for each, one `ClassKind` (signature, orbit
size and polynomial): every class that passes shares its kind with the
classes of equal node counts, and one packed basis element with its
parents in the DP.  At
n = 10 the 85369 classes stand for 909482 trees, and at n = 11 the 424330
classes for 5753398.  `closure_trees` builds the trees themselves, size by
size, for the tests to compare against; the closure polynomials come by
series inversion (`series.closure_series`), which generates no tree.  The
functions that need the series import `series` where they run, so the
shape reduction never loads it.

The same bookkeeping at the level of tree shapes (labels reduced to their
lengths, each shape its `trees.simplified_text`) factors the full two-sided
Eulerian polynomial into per-shape products, which is what
`verify_reduction` checks exhaustively.

Every size is refused by `errors.check_size` before anything is built: the
tree routes past `MAX_CLOSURE_TREE_N`, the closure series past
`MAX_CLOSURE_SERIES_N` and the reduction past `MAX_REDUCTION_N`.
"""
from __future__ import annotations

import itertools
import math
import operator
import re
from collections import Counter
from collections.abc import Iterator
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    MAX_CLOSURE_SERIES_N,
    MAX_CLOSURE_TREE_N,
    MAX_REDUCTION_N,
    ExpansionError,
    StructureError,
    check_size,
)
from .permutations import (
    Permutation,
    _split,
    _tally_packing,
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

if TYPE_CHECKING:
    from .series import PowerSeries
from .trees import (
    _ASC,
    _BINARY,
    _DESC,
    LEAF,
    DecompTree,
    Path,
    _skeleton_text,
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
    """Copy ``t`` with the skeletons at ``swap_paths`` toggled within their
    pair; ``t`` itself when there are none.  One stack walk, so a tree of any
    depth is rebuilt: each internal node is popped once to queue its internal
    children, and once more, after them, to build itself from the finished
    subtrees they left on ``built``."""
    if not swap_paths:
        return t
    built: list[DecompTree] = []
    stack: list[tuple[Path, DecompTree, bool]] = [((), t, False)]
    while stack:
        path, sub, ready = stack.pop()
        children = sub.children
        if not ready:
            stack.append((path, sub, True))
            for i in range(len(children) - 1, -1, -1):
                if children[i].skeleton is not None:
                    stack.append((path + (i,), children[i], False))
            continue
        rebuilt = list(children)
        for i in range(len(children) - 1, -1, -1):
            if children[i].skeleton is not None:
                rebuilt[i] = built.pop()
        skel = sub.skeleton
        built.append(DecompTree(_TOGGLE[skel] if path in swap_paths else skel, tuple(rebuilt)))
    return built[0]


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
    return [path for path, sub in iter_nodes(t, leaves=False) if sub.skeleton in _LEN4]


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

    The corresponding permutation has the fewest descents in its orbit.  One
    `_rebuild` toggles every node of each odd chain led by 21 (read from
    `binary_right_chains`) and every 3142 node, so an already-minimal tree
    comes back as the same object.
    """
    part = binary_right_chains(t)
    toggle = {path for chain, labels in zip(part.chains, part.skeletons)
              if len(chain) % 2 and labels[0] == _DESC for path in chain}
    toggle.update(path for path, sub in iter_nodes(t, leaves=False) if sub.skeleton == (3, 1, 4, 2))
    return _rebuild(t, toggle)


class ClassSignature(NamedTuple):
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
    """The node counts of ``minimal``: leaves (one more than the children
    less one of every internal node), 21-nodes and length-4/5 nodes from one
    walk of the internal nodes, odd chains from `binary_right_chains`."""
    leaves, n21, n4, n5 = 1, 0, 0, 0
    for _, sub in iter_nodes(minimal, leaves=False):
        skel = sub.skeleton
        leaves += len(skel) - 1
        if len(skel) == 2:
            n21 += skel == _DESC
        elif len(skel) == 4:
            n4 += 1
        elif len(skel) == 5:
            n5 += 1
        else:
            raise ValueError(f"skeleton of length {len(skel)} outside the closure of lengths <= 5")
    return ClassSignature(n=leaves, n21=n21, n4=n4, n5=n5,
                          odd_chains=binary_right_chains(minimal).odd_chain_count)


class EquivClass(NamedTuple):
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
    # Every move keeps the tree's shape, so the chains and the length-4
    # nodes of ``t`` are those of every member.
    moves = [set(chain) for chain in binary_right_chains(t).chains if len(chain) % 2]
    moves += [{path} for path in length4_nodes(t)]
    # The moves act on disjoint nodes and commute, so the orbit is every
    # combination of them.
    members = {t}
    for move in moves:
        members |= {_rebuild(u, move) for u in members}
    minimal = minimal_representative(t)
    return EquivClass(
        minimal=minimal,
        members=frozenset(reconstruct(u) for u in members),
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


def closure_trees(n: int, k: int) -> list[DecompTree]:
    """All canonical trees with n leaves whose skeletons have length <= k.

    By the decomposition bijection this is exactly the intersection of the
    substitution closure of the short simple permutations with S_n.  The
    trees are built size by size from the lists of all smaller ones.
    """
    check_size(n, MAX_CLOSURE_TREE_N, "the closure trees")
    if k < 2:
        raise ValueError("k must be at least 2")
    skeletons = [s for ell in range(2, min(k, n) + 1) for s in enumerate_simple(ell)]
    pools = [[], [LEAF]]
    for m in range(2, n + 1):
        pool = []
        for skel in skeletons:
            binary = skel in _BINARY
            for comp in _compositions(m, len(skel)):
                for kids in itertools.product(*[pools[c] for c in comp]):
                    # canonical trees never give a 12 (21) node a 12 (21) last child
                    if not (binary and kids[1].skeleton == skel):
                        pool.append(DecompTree(skel, kids))
        pools.append(pool)
    return pools[n]


def closure_permutations(n: int, k: int) -> list[Permutation]:
    """The members of the closure class in S_n, via tree reconstruction."""
    return [reconstruct(t) for t in closure_trees(n, k)]


def closure_distribution(n: int, k: int) -> BivarPoly:
    """Joint (des, ides) polynomial over the closure members of length n.

    The coefficient of x^n in `series.closure_series` of the simple series
    cut to the lengths 4..k: no tree is generated, so n is capped by the
    series order `MAX_CLOSURE_SERIES_N`, not by an enumeration bound.
    """
    check_size(n, MAX_CLOSURE_SERIES_N, "the closure series")
    if k < 2:
        raise ValueError("k must be at least 2")
    from . import series
    return series.closure_series(_cut_simple_series(n, k)).coeff(n)


def _cut_simple_series(order: int, k: int) -> PowerSeries:
    """The simple series to ``order``, cut to the lengths 4..k."""
    from . import series
    return series.PowerSeries(order, [_simple_poly(ell) if 4 <= ell <= k else ZERO
                                      for ell in range(order + 1)])


# ---------------------------------------------------------------------------
# class-by-class verification (skeletons of length <= 5)
# ---------------------------------------------------------------------------

# A class's node counts (n21, n4, n5, odd_chains), one byte each in one int,
# so the counts of a node are the sum of its children's.
_N21, _N4, _N5, _ODD = 1, 1 << 8, 1 << 16, 1 << 24


def _signature(n: int, counts: int) -> ClassSignature:
    return ClassSignature(n, counts & 255, counts >> 8 & 255, counts >> 16 & 255, counts >> 24)


def _class_tallies(n: int) -> Iterator[dict[str, tuple[int, int]]]:
    """Yield ``heads[m]`` for m = 1..n: the normal-form text of every orbit
    of the closure of the simple permutations of length <= 5 in S_m ->
    (its members' packed (des, ides) tally, its minimal representative's
    node counts).

    The text is ``tree_text(minimal_representative(t))`` of each member t.
    A node's normal form depends on its children's, so a class with a
    non-binary root is a product of its children's classes, its tally the
    product of theirs times its skeleton's (2413 and 3142 share one text).
    A binary node's normal form flips its chain's labels iff the chain is
    odd and led by 21, so its right child enters from ``tails[m]``: the
    right children's entries by root skeleton (None if not binary), each
    ``(kept text, flipped text, chain length, tally, counts)``, where the
    texts keep or flip the labels of the chain at the root and the counts
    leave that chain out (a chain of L nodes adds L // 2 nodes labeled 21
    to the minimal form, and one odd chain if L is odd).  The top size
    builds no ``tails``, and drops the smaller sizes before it is yielded.
    """
    check_size(n, MAX_CLOSURE_TREE_N, "the closure class DP")
    pack = _tally_packing(n)
    factors: dict[Permutation, int] = {}  # normal-form skeleton -> packed tally of its skeletons
    for ell in (4, 5):
        for skel in enumerate_simple(ell):
            label = _TOGGLE[skel] if skel == (3, 1, 4, 2) else skel
            factors[label] = factors.get(label, 0) + (1 << pack.shift(*des_ides(skel)))
    heads = [{}, {".": (1, 0)}]
    tails = [{}, {_ASC: [], _DESC: [], None: [(".", ".", 0, 1, 0)]}]
    yield heads[1]
    for m in range(2, n + 1):
        top = m == n
        classes: dict[str, tuple[int, int]] = {}
        right: dict[Permutation | None, list] = {_ASC: [], _DESC: [], None: []}
        for label, factor in factors.items():
            head = _skeleton_text(label) + "["
            node = _N4 if len(label) == 4 else _N5
            for comp in _compositions(m, len(label)):
                for kids in itertools.product(*[heads[c].items() for c in comp]):
                    tally, counts = factor, node
                    for _, (t, c) in kids:
                        tally *= t
                        counts += c
                    text = f"{head}{','.join([kid[0] for kid in kids])}]"
                    classes[text] = tally, counts
                    if not top:
                        right[None].append((text, text, 0, tally, counts))
        for skel in _BINARY:
            toggled = _TOGGLE[skel]
            kept_head = _skeleton_text(skel) + "["
            flipped_head = _skeleton_text(toggled) + "["
            shift = pack.shift(*des_ides(skel))
            odd_flips = skel == _DESC  # the normal form flips odd chains led by 21
            chains = right[skel]
            for first in range(1, m):
                rights = tails[m - first][toggled] + tails[m - first][None]
                for a, (ta, ca) in heads[first].items():
                    for b_kept, b_flipped, length, tb, cb in rights:
                        length += 1
                        tally = ta * tb << shift
                        counts = ca + cb
                        flip = odd_flips and length & 1
                        if top:
                            label = (f"{flipped_head}{a},{b_flipped}]" if flip
                                     else f"{kept_head}{a},{b_kept}]")
                        else:
                            kept = f"{kept_head}{a},{b_kept}]"
                            flipped = f"{flipped_head}{a},{b_flipped}]"
                            chains.append((kept, flipped, length, tally, counts))
                            label = flipped if flip else kept
                        counts += (length >> 1) * _N21 + (length & 1) * _ODD
                        old = classes.get(label)
                        classes[label] = (tally, counts) if old is None else (old[0] + tally, counts)
        if top:
            heads = tails = None
        else:
            heads.append(classes)
            tails.append(right)
        yield classes


class ClassKind:
    """What a report reads of a class but its label.  The classes of one
    size with the same node counts that pass every check share one kind; a
    class that fails one gets its own, read off its own ``packed`` tally.

    Kinds compare by value, without ``packed``, whose width is the sweep's,
    and hash by identity: each kind is counted as itself."""
    __slots__ = ("signature", "size", "distribution", "packed")

    def __init__(self, signature: ClassSignature, size: int, distribution: BivarPoly,
                 packed: int):
        self.signature, self.size, self.distribution = signature, size, distribution
        self.packed = packed

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ClassKind:
            return NotImplemented
        return (self.signature, self.size, self.distribution) == \
            (other.signature, other.size, other.distribution)

    __hash__ = object.__hash__


class ClosureClassReport(NamedTuple):
    """The classes of one size in label order, with the `ClassKind` of each
    (shared by the classes of equal node counts that pass), and the failures
    of that size: per class in label order, then classwide."""
    n: int
    labels: list[str]
    classes: list[ClassKind]
    failures: tuple[str, ...]
    total: BivarPoly
    expansion: BivarGammaExpansion | None  # None when the total has none

    @property
    def ok(self) -> bool:
        return not self.failures


def closure_class_reports(max_n: int) -> Iterator[ClosureClassReport]:
    """Group the members of each length 1..max_n of the closure of the simple
    permutations of length <= 5 into orbits, and check each one.

    The classes come from the class DP (`_class_tallies`), so no tree is
    built or walked.  Per class: the orbit size is 2^(odd_chains + n4), the
    node-count identity holds, and the class distribution equals its single
    gamma-basis element.  Per size: the total equals `closure_distribution(n,
    5)`, which comes by series inversion (one `closure_series` to order
    max_n serves every size), and the class counts per (i, j) are exactly
    the gamma coefficients of the total distribution.

    All but the tally depend only on a class's node counts, so they are
    worked out once per distinct counts: a class that passes costs one
    lookup and one int compare.  Each size is checked before the DP builds
    the next from it, and a class that passes then holds the shared basis
    element in place of its own equal tally; one that fails keeps its own,
    so its parents fail as well.
    """
    check_size(max_n, MAX_CLOSURE_TREE_N, "the closure class DP")  # before the series
    from . import series
    pack = _tally_packing(max_n)
    closure = series.closure_series(_cut_simple_series(max_n, 5))
    for m, classes in enumerate(_class_tallies(max_n), 1):
        failures: list[str] = []
        basis: dict[tuple[int, int], tuple[int, BivarPoly]] = {}
        # counts -> (the tally that passes, or None if none can; the DP
        # entry that replaces it; the kind of the classes that pass)
        memo: dict[int, tuple[int | None, tuple[int, int], ClassKind]] = {}
        labels = sorted(classes)
        kinds: list[ClassKind] = []
        append = kinds.append
        for label in labels:
            tally, counts = classes[label]
            known = memo.get(counts)
            if known is None:
                sig = _signature(m, counts)
                ij = sig.gamma_i, sig.gamma_j
                if ij not in basis:
                    element = signature_polynomial(sig)
                    basis[ij] = pack.pack(element), element
                packed, element = basis[ij]
                kind = ClassKind(sig, pack.size(packed), element, packed)
                sound = kind.size == sig.orbit_size() and sig.node_count_identity_holds()
                known = memo[counts] = packed if sound else None, (packed, counts), kind
            passing, entry, kind = known
            if tally == passing:
                classes[label] = entry
            else:
                sig = kind.signature
                size = pack.size(tally)
                if size != sig.orbit_size():
                    failures.append(f"{label}: orbit size {size} != 2^(r+v4) = {sig.orbit_size()}")
                if not sig.node_count_identity_holds():
                    failures.append(f"{label}: node-count identity fails for {sig}")
                if tally != kind.packed:
                    failures.append(f"{label}: distribution is not the expected basis element")
                    kind = ClassKind(sig, size, pack.unpack(tally), tally)
            append(kind)
        total = 0
        gamma_counts: Counter = Counter()
        for kind, count in Counter(kinds).items():
            total += kind.packed * count
            gamma_counts[kind.signature.gamma_i, kind.signature.gamma_j] += count
        total_poly = pack.unpack(total)
        if total_poly != closure.coeff(m):
            failures.append("total distribution differs from the closure series coefficient")
        try:
            expansion = gamma_expand_bivariate(total_poly, m - 1)
        except ExpansionError as exc:  # a class lost its symmetry: report it, do not crash
            expansion = None
            failures.append(f"total distribution has no gamma expansion: {exc}")
        else:
            if expansion.as_dict() != gamma_counts:
                failures.append("gamma coefficients do not match the class counts per (i, j)")
            if not expansion.is_positive():
                failures.append("total distribution is not gamma-positive")
        yield ClosureClassReport(m, labels, kinds, tuple(failures), total_poly, expansion)


def closure_class_report(n: int) -> ClosureClassReport:
    """The last of `closure_class_reports(n)`: the classes of length n."""
    for report in closure_class_reports(n):
        pass
    return report


# ---------------------------------------------------------------------------
# shape factorization of the full two-sided Eulerian polynomial
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _simple_poly(length: int) -> BivarPoly:
    # verify_reduction asks for the same lengths once per group, and
    # closure_distribution once per call.
    return simple_distribution(length).poly


def simplified_class_polynomial(shape: str) -> BivarPoly:
    """Joint polynomial over all permutations whose tree has the ``shape``
    (a `trees.simplified_text`).

    A product of one factor per feature: each node of length >= 4 contributes
    the simple joint polynomial of that length, each even chain of 2k binary
    nodes contributes 2(st)^k, and each odd chain of 2k+1 contributes
    (st)^k (1+st).
    """
    return _factor_product(_factor_key(shape))


# The nodes of a shape text in preorder: a child count, or "." for a leaf.
_SHAPE_NODES = re.compile(r"[0-9]+|\.")


def _factor_key(shape: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sorted node lengths >= 4 and the sorted chain lengths of
    ``shape``: all that its factor product reads, and shared by many shapes.

    One scan of the nodes in preorder.  ``pending`` holds, for each node
    still to come, the length of the right chain it continues (0 if none),
    the next node's on top: a chain runs through the second child of each
    ``2[`` and is counted at the node that ends it.  A text with too few or
    too many nodes for its child counts raises `StructureError`.
    """
    lengths: list[int] = []
    chains: list[int] = []
    pending = [0]
    for token in _SHAPE_NODES.findall(shape):
        if not pending:
            raise StructureError(f"shape text {shape!r} has nodes past its root")
        position = pending.pop()
        if token == "2":
            pending.append(position + 1)
            pending.append(0)
            continue
        if position:
            chains.append(position)
        if token != ".":
            k = int(token)
            if k == 3:
                raise StructureError("shape has a node of length 3")
            if k >= 4:
                lengths.append(k)
            pending += [0] * k
    if pending:
        raise StructureError(f"shape text {shape!r} is missing {len(pending)} node(s)")
    return tuple(sorted(lengths)), tuple(sorted(chains))


def _factor_product(key: tuple[tuple[int, ...], tuple[int, ...]]) -> BivarPoly:
    """The product of `simplified_class_polynomial` from its `_factor_key`."""
    lengths, chains = key
    result = ONE
    for length in lengths:
        result = result * _simple_poly(length)
    for length in chains:
        half, odd = divmod(length, 2)
        if odd:
            result = result * (ST ** half * ONE_PLUS_ST)
        else:
            result = result * (ST ** half * 2)
    return result


class ReductionReport(NamedTuple):
    n: int
    group_count: int
    failures: tuple[str, ...]
    total: BivarPoly
    total_matches: bool

    @property
    def ok(self) -> bool:
        return not self.failures and self.total_matches


def verify_reduction(n: int) -> ReductionReport:
    """Partition S_n by tree shape and check the factor product per group.

    The groups come from `_simplified_groups`, which walks the permutations
    whose first value a has a < n+1-a (and the middle value of odd n) and
    mirrors the rest by complement.  The groups must also sum back to the
    full two-sided Eulerian polynomial.  That polynomial comes from the
    prefix DP of `eulerian_distribution`, which counts all of S_n with no
    mirroring and never builds a permutation, so the final comparison is an
    independent cross-check of this enumeration and of its mirroring, not a
    second pass over S_n.  Each group's factor product is built once per
    `_factor_key`, which many shapes share (29 keys for 1198 groups at n = 8).
    """
    groups = _simplified_groups(n)
    failures: list[str] = []
    total = BivarPoly()
    products: dict[tuple, BivarPoly] = {}  # _factor_key -> its product
    for shape, dist in sorted(groups.items()):
        key = _factor_key(shape)
        expected = products.get(key)
        if expected is None:
            expected = products[key] = _factor_product(key)
        if dist != expected:
            failures.append(f"group {shape}: distribution does not match the factor product")
        total = total + dist
    matches = total == eulerian_distribution(n).poly
    return ReductionReport(n, len(groups), tuple(failures), total, matches)


def _simplified_groups(n: int) -> dict[str, BivarPoly]:
    """The (des, ides) tally of S_n, grouped by ``simplified_text(decompose(p))``.

    No tree is built per permutation: each p costs one root split, one
    `_ShapeIndex` lookup per part and one `des_ides`.  Its (des, ides) is
    read from p itself, not summed over skeletons: that additivity is what
    `verify_reduction` tests.  Each root's parts (their shape indices) keep
    one flat list of `_tally_packing` slot counts, and only the distinct
    parts are written as shape texts, at the end.

    Complement keeps the shape (it swaps 12 with 21 and each
    skeleton with its complement, which has the same length) and maps (d, e)
    to (n-1-d, n-1-e), the slot reversal.  So only the first values
    a < n+1-a are walked and each slot list is then added to its own
    reversal; the middle first value of odd n is its own mirror and is
    walked once, after that.
    """
    check_size(n, MAX_REDUCTION_N, "the shape reduction of S_n")
    if n == 1:
        return {".": ONE}
    index = _ShapeIndex(n)
    key = index.key
    tallies: dict[tuple[int, ...], list[int]] = {}  # part indices -> slot counts
    perms = enumerate_permutations(n)  # lexicographic: (n-1)! per first value

    def walk(count: int) -> None:
        for p in itertools.islice(perms, count):
            d, e = des_ides(p)
            parts = key(bytes(p))
            slots = tallies.get(parts)
            if slots is None:
                slots = tallies[parts] = [0] * (n * n)
            slots[d * n + e] += 1

    block = math.factorial(n - 1)
    walk(n // 2 * block)  # the first values 1..n//2
    for parts, slots in tallies.items():
        tallies[parts] = list(map(operator.add, slots, reversed(slots)))
    walk(n % 2 * block)  # the middle first value of odd n, its own mirror
    pack = _tally_packing(n)
    return {index.text(parts): pack.from_slots(slots) for parts, slots in tallies.items()}


class _ShapeIndex(dict):
    """Pattern (as bytes) -> index in ``shapes`` of its shape text.

    A pattern's shape is its root parts' shapes under a node of their count,
    and every part is a shorter pattern, so a missing pattern is indexed from
    its parts' indices, and a new shape's text is made from its parts' texts.
    A part is standardized by a bytes ``translate``.

    Every pattern met is kept: only proper parts are looked up, so over S_n
    the index holds patterns of length n - 1 or less.  `MAX_REDUCTION_N`
    bounds it (all of S_1..S_9 is 409113 patterns, about 94 MB at n = 10).
    """

    def __init__(self, n: int):
        super().__init__({b"\x01": 0})
        self.shapes: list[str] = ["."]
        self._by_parts: dict[tuple[int, ...], int] = {}
        # _shift[b] takes each byte v to v - b, standardizing a part with offset b.
        self._shift = [bytes((v - b) % 256 for v in range(256)) for b in range(n)]

    def key(self, pattern: bytes) -> tuple[int, ...]:
        """The indices of the shapes of the root parts of ``pattern`` (length >= 2)."""
        shift = self._shift
        parts = _split(pattern, 0, len(pattern), 0)
        return tuple([self[pattern[x:y].translate(shift[z])] for x, y, z in parts])

    def __missing__(self, pattern: bytes) -> int:
        parts = self.key(pattern)
        sid = self._by_parts.get(parts)
        if sid is None:
            sid = self._by_parts[parts] = len(self.shapes)
            self.shapes.append(self.text(parts))
        self[pattern] = sid
        return sid

    def text(self, parts: tuple[int, ...]) -> str:
        """The text of the shape whose root parts have the shapes ``parts``."""
        shapes = self.shapes
        return f"{len(parts)}[{','.join([shapes[i] for i in parts])}]"
