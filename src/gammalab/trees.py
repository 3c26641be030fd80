"""
Substitution decomposition trees.

Every permutation of length >= 2 is uniquely an inflation of a simple
permutation (its skeleton) by shorter permutations; for skeleton 12 the
expression is made unique by requiring the second part sum-indecomposable,
and dually for 21.  Recursing gives a canonical tree whose leaves are the
entries and whose internal nodes carry simple skeletons.  ``decompose`` builds
this tree, ``reconstruct`` inverts it, and the two are mutually inverse
bijections between S_n and the canonical trees with n leaves.

With the uniqueness convention above, following rightmost-child links through
nodes labeled 12 or 21 always alternates between the two labels.  A maximal
chain of such links is a *binary right chain*; these chains drive the
involution machinery in `gammalab.orbits`.

Nodes are addressed by paths: tuples of child indices from the root, so the
root is ``()`` and its second child is ``(1,)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import StructureError
from .permutations import Permutation, des_ides, inflate, is_simple, standardize

Path = tuple[int, ...]

_ASC = (1, 2)
_DESC = (2, 1)
_BINARY = {_ASC, _DESC}


@dataclass(frozen=True)
class DecompTree:
    """A leaf (skeleton None) or an internal node with one child per skeleton entry."""
    skeleton: tuple[int, ...] | None
    children: tuple["DecompTree", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return self.skeleton is None

    def __repr__(self) -> str:
        return f"DecompTree({tree_text(self)})"


LEAF = DecompTree(None)


def node(skeleton: tuple[int, ...], *children: DecompTree) -> DecompTree:
    return DecompTree(tuple(skeleton), tuple(children))


# ---------------------------------------------------------------------------
# decompose / reconstruct
# ---------------------------------------------------------------------------

def decompose(p: Permutation) -> DecompTree:
    """The canonical substitution decomposition tree of ``p``.

    >>> tree_text(decompose((4, 5, 2, 3, 9, 8, 1, 6, 7)))
    '2413[21[12[.,.],12[.,.]],21[.,.],.,12[.,.]]'
    >>> tree_text(decompose((1, 2, 3)))
    '12[12[.,.],.]'
    """
    n = len(p)
    if n == 1:
        return LEAF
    # Direct sum: split before the last maximal sum-component, so the right
    # part is sum-indecomposable and repeated sums chain through left children.
    split = 0
    mx = 0
    for i in range(n - 1):
        v = p[i]
        if v > mx:
            mx = v
        if mx == i + 1:
            split = i + 1
    if split:
        left = p[:split]
        right = standardize(p[split:])
        return DecompTree(_ASC, (decompose(left), decompose(right)))
    # Skew sum, dually: the prefix holding the top values is as long as possible.
    split = 0
    mn = n + 1
    for i in range(n - 1):
        v = p[i]
        if v < mn:
            mn = v
        if mn == n - i:
            split = i + 1
    if split:
        left = standardize(p[:split])
        right = p[split:]
        return DecompTree(_DESC, (decompose(left), decompose(right)))
    # Simple quotient of length >= 4: the children are the maximal proper
    # blocks, which are pairwise disjoint here, so a greedy left-to-right scan
    # finds them.
    blocks: list[tuple[int, int]] = []
    i = 0
    while i < n:
        lo = hi = p[i]
        end = i
        for j in range(i + 1, n):
            v = p[j]
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
            if hi - lo == j - i and not (i == 0 and j == n - 1):
                end = j
        blocks.append((i, end))
        i = end + 1
    skeleton = standardize([p[i] for i, _ in blocks])
    children = tuple(decompose(standardize(p[i:j + 1])) for i, j in blocks)
    return DecompTree(skeleton, children)


def reconstruct(t: DecompTree) -> Permutation:
    """Invert ``decompose`` by repeated inflation.

    Raises StructureError when the tree is malformed (skeleton not a
    permutation, or child count differing from skeleton length).
    """
    if t.skeleton is None:
        if t.children:
            raise StructureError("leaf node must not have children")
        return (1,)
    k = len(t.skeleton)
    if sorted(t.skeleton) != list(range(1, k + 1)):
        raise StructureError(f"skeleton {t.skeleton} is not a permutation")
    if len(t.children) != k:
        raise StructureError(
            f"skeleton of length {k} has {len(t.children)} children"
        )
    return inflate(t.skeleton, [reconstruct(c) for c in t.children])


def tree_des_ides(t: DecompTree) -> tuple[int, int]:
    """``des_ides(reconstruct(t))`` without rebuilding the permutation.

    Inflation adds both statistics, so they are the sums over the skeletons.

    >>> tree_des_ides(decompose((4, 5, 2, 3, 9, 8, 1, 6, 7)))
    (3, 4)
    """
    d = e = 0
    stack = [t]
    while stack:
        sub = stack.pop()
        if sub.skeleton is not None:
            sd, se = des_ides(sub.skeleton)
            d += sd
            e += se
            stack.extend(sub.children)
    return d, e


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------

def iter_nodes(t: DecompTree) -> Iterator[tuple[Path, DecompTree]]:
    """All subtrees in preorder, keyed by path from the root."""
    stack: list[tuple[Path, DecompTree]] = [((), t)]
    while stack:
        path, sub = stack.pop()
        yield path, sub
        for i in range(len(sub.children) - 1, -1, -1):
            stack.append((path + (i,), sub.children[i]))


def subtree_at(t: DecompTree, path: Path) -> DecompTree:
    for i in path:
        t = t.children[i]
    return t


def leaf_count(t: DecompTree) -> int:
    if t.skeleton is None:
        return 1
    return sum(leaf_count(c) for c in t.children)


def max_skeleton_length(t: DecompTree) -> int:
    """Length of the longest skeleton in the tree (1 for a bare leaf)."""
    if t.skeleton is None:
        return 1
    return max(len(t.skeleton), max(max_skeleton_length(c) for c in t.children))


def in_closure(p: Permutation, k: int) -> bool:
    """Membership in the substitution closure of the simple permutations of
    length <= k, i.e. every skeleton of the decomposition tree has length <= k.

    k = 2 gives the separable permutations.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    return max_skeleton_length(decompose(p)) <= k


# ---------------------------------------------------------------------------
# binary right chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainPartition:
    """The maximal chains of 12/21-labeled nodes along rightmost-child links.

    Every node labeled 12 or 21 lies in exactly one chain; chains are listed
    in preorder of their head node, each as a head-to-tail tuple of paths.
    """
    chains: tuple[tuple[Path, ...], ...]

    @property
    def odd_chain_count(self) -> int:
        return sum(1 for c in self.chains if len(c) % 2 == 1)


def binary_right_chains(t: DecompTree) -> ChainPartition:
    """Partition the 12/21-labeled nodes of ``t`` into maximal right chains.

    >>> part = binary_right_chains(decompose((4, 5, 2, 3, 9, 8, 1, 6, 7)))
    >>> len(part.chains), part.odd_chain_count
    (4, 3)
    """
    chains: list[tuple[Path, ...]] = []

    def walk(sub: DecompTree, path: Path, under_chain: bool) -> None:
        if sub.skeleton is None:
            return
        binary = sub.skeleton in _BINARY
        if binary and not under_chain:
            chain: list[Path] = []
            cur, cpath = sub, path
            while cur.skeleton in _BINARY:
                chain.append(cpath)
                nxt = cur.children[-1]
                cpath = cpath + (len(cur.children) - 1,)
                cur = nxt
            chains.append(tuple(chain))
        last = len(sub.children) - 1
        for i, c in enumerate(sub.children):
            walk(c, path + (i,), binary and i == last)

    walk(t, (), False)
    return ChainPartition(tuple(chains))


def is_canonical(t: DecompTree) -> bool:
    """True iff ``t`` is a tree that ``decompose`` can produce.

    Checks that every internal skeleton is a simple permutation of length >= 2
    with matching child count, and that labels alternate along every binary
    right chain (the uniqueness convention for repeated sums).
    """
    for _, sub in iter_nodes(t):
        if sub.skeleton is None:
            if sub.children:
                return False
            continue
        k = len(sub.skeleton)
        if k < 2 or len(sub.children) != k:
            return False
        if sorted(sub.skeleton) != list(range(1, k + 1)):
            return False
        if not is_simple(sub.skeleton):
            return False
        if sub.skeleton in _BINARY and sub.children[-1].skeleton == sub.skeleton:
            return False
    return True


# ---------------------------------------------------------------------------
# simplified trees
# ---------------------------------------------------------------------------

SimplifiedTree = tuple  # leaf = (), internal = tuple of simplified children

def simplify(t: DecompTree) -> SimplifiedTree:
    """Forget skeletons, keeping only the tree shape (labels become lengths).

    Represented as nested tuples: a leaf is ``()`` and an internal node is the
    tuple of its simplified children, so its label is the tuple's length.
    """
    if t.skeleton is None:
        return ()
    return tuple(simplify(c) for c in t.children)


def simplified_text(st: SimplifiedTree) -> str:
    """Bracketed text with length labels, e.g. ``4[2[2[.,.],.],...]``."""
    if not st:
        return "."
    return f"{len(st)}[" + ",".join(simplified_text(c) for c in st) + "]"


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _skeleton_text(skeleton: tuple[int, ...]) -> str:
    if len(skeleton) <= 9:
        return "".join(str(v) for v in skeleton)
    return ",".join(str(v) for v in skeleton)


def tree_text(t: DecompTree) -> str:
    """Canonical bracketed form, '.' for leaves: ``2413[21[12[.,.],12[.,.]],21[.,.],.,12[.,.]]``."""
    if t.skeleton is None:
        return "."
    inner = ",".join(tree_text(c) for c in t.children)
    return f"{_skeleton_text(t.skeleton)}[{inner}]"


def tree_json(t: DecompTree) -> dict:
    """JSON form {skeleton: [...] | null, children: [...]}."""
    return {
        "skeleton": list(t.skeleton) if t.skeleton is not None else None,
        "children": [tree_json(c) for c in t.children],
    }
