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

Inflation adds des and ides, so a tree's statistics are the sums over its
skeletons: the closure polynomials and class reports score trees directly and
never rebuild a permutation.  `closure_trees` keeps no state between calls.

The same bookkeeping at the level of *simplified* trees (labels reduced to
lengths) factors the full two-sided Eulerian polynomial into per-shape
products, which is what `verify_reduction` checks exhaustively.
"""
from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache

from .errors import StructureError
from .permutations import (
    MAX_ENUMERATION_N,
    Permutation,
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
    BivarGammaExpansion,
    BivarPoly,
    gamma_basis_bivariate,
    gamma_expand_bivariate,
)
from .trees import (
    _ASC,
    _BINARY,
    _DESC,
    LEAF,
    DecompTree,
    Path,
    SimplifiedTree,
    binary_right_chains,
    decompose,
    iter_nodes,
    leaf_count,
    max_skeleton_length,
    reconstruct,
    simplify,
    tree_des_ides,
    tree_text,
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
    n21 = n4 = n5 = 0
    for _, sub in iter_nodes(minimal):
        skel = sub.skeleton
        if skel is None:
            continue
        k = len(skel)
        if k == 2:
            if skel == _DESC:
                n21 += 1
        elif k == 4:
            n4 += 1
        elif k == 5:
            n5 += 1
        else:
            raise ValueError(f"skeleton of length {k} outside the closure of lengths <= 5")
    return ClassSignature(
        n=leaf_count(minimal),
        n21=n21,
        n4=n4,
        n5=n5,
        odd_chains=binary_right_chains(minimal).odd_chain_count,
    )


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

@lru_cache(maxsize=None)
def _simple_list(n: int) -> tuple[Permutation, ...]:
    return tuple(enumerate_simple(n))


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
    substitution closure of the short simple permutations with S_n.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    skeletons = [s for ell in range(2, min(k, n) + 1) for s in _simple_list(ell)]
    # pools[(m, forbid)]: the trees with m leaves whose root is not ``forbid``;
    # canonical trees never give a 12 (21) node another 12 (21) as last child.
    pools = {(1, None): [LEAF], (1, _ASC): [LEAF], (1, _DESC): [LEAF]}
    for m in range(2, n + 1):
        full: list[DecompTree] = []
        for skel in skeletons:
            if len(skel) > m:
                break
            last_forbid = skel if skel in _BINARY else None
            for comp in _compositions(m, len(skel)):
                lists = [pools[(c, None)] for c in comp[:-1]]
                lists.append(pools[(comp[-1], last_forbid)])
                full.extend(DecompTree(skel, combo) for combo in itertools.product(*lists))
        pools[(m, None)] = full
        if m < n:
            for forbid in (_ASC, _DESC):
                pools[(m, forbid)] = [t for t in full if t.skeleton != forbid]
    return pools.get((n, None), [])


def closure_permutations(n: int, k: int) -> list[Permutation]:
    """The members of the closure class in S_n, via tree reconstruction."""
    return [reconstruct(t) for t in closure_trees(n, k)]


def closure_distribution(n: int, k: int) -> BivarPoly:
    """Joint (des, ides) polynomial over the closure members of length n."""
    return BivarPoly(Counter(map(tree_des_ides, closure_trees(n, k))))


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
    expansion: BivarGammaExpansion

    @property
    def ok(self) -> bool:
        return not self.failures


def closure_class_report(n: int, k: int = 5) -> ClosureClassReport:
    """Group the closure members of length n into orbits and check each one.

    Per class: the orbit size is 2^(odd_chains + n4), the node-count identity
    holds, and the class distribution equals its single gamma-basis element.
    Classwide: the class counts per (i, j) are exactly the gamma coefficients
    of the total distribution.
    """
    if k != 5:
        raise ValueError("class reports are defined for skeleton lengths <= 5")
    groups: defaultdict[DecompTree, Counter] = defaultdict(Counter)
    for t in closure_trees(n, k):
        groups[minimal_representative(t)][tree_des_ides(t)] += 1
    failures: list[str] = []
    records: list[ClassRecord] = []
    total = BivarPoly()
    gamma_counts: Counter = Counter()
    for m in sorted(groups, key=tree_text):
        counts = groups[m]
        size = counts.total()
        sig = signature_of(m)
        dist = BivarPoly(counts)
        label = tree_text(m)
        if size != sig.orbit_size():
            failures.append(f"{label}: orbit size {size} != 2^(r+v4) = {sig.orbit_size()}")
        if not sig.node_count_identity_holds():
            failures.append(f"{label}: node-count identity fails for {sig}")
        if dist != signature_polynomial(sig):
            failures.append(f"{label}: distribution is not the expected basis element")
        gamma_counts[sig.gamma_i, sig.gamma_j] += 1
        records.append(ClassRecord(label, size, dist, sig))
        total = total + dist
    expansion = gamma_expand_bivariate(total, n - 1)
    if expansion.as_dict() != gamma_counts:
        failures.append("gamma coefficients do not match the class counts per (i, j)")
    if not expansion.is_positive():
        failures.append("total distribution is not gamma-positive")
    return ClosureClassReport(n, tuple(records), tuple(failures), total, expansion)


# ---------------------------------------------------------------------------
# simplified-tree factorization of the full two-sided Eulerian polynomial
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _simple_poly(length: int) -> BivarPoly:
    # verify_reduction asks for the same lengths once per group.
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


def verify_reduction(n: int, max_n: int = MAX_ENUMERATION_N) -> ReductionReport:
    """Partition S_n by simplified tree and check the factor product per group.

    Also checks that the groups sum back to the full two-sided Eulerian
    polynomial.
    """
    groups: defaultdict[SimplifiedTree, Counter] = defaultdict(Counter)
    for p in enumerate_permutations(n, max_n):
        groups[simplify(decompose(p))][des_ides(p)] += 1
    failures: list[str] = []
    total = BivarPoly()
    for st in sorted(groups, key=repr):
        dist = BivarPoly(groups[st])
        expected = simplified_class_polynomial(st)
        if dist != expected:
            failures.append(f"group {st!r}: distribution does not match the factor product")
        total = total + dist
    matches = total == eulerian_distribution(n, max_n=max_n).poly
    return ReductionReport(n, len(groups), tuple(failures), total, matches)
