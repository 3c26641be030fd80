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

A tree's *shape* keeps only its skeletons' lengths, and is its text:
`simplified_text` writes each label as its child count, so the tree
``2413[21[.,.],.,.,.]`` has the shape ``4[2[.,.],.,.,.]``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .errors import StructureError
from .permutations import Permutation, des_ides, inflate, is_simple, standardize

Path = tuple[int, ...]

_ASC = (1, 2)
_DESC = (2, 1)
_BINARY = {_ASC, _DESC}


class DecompTree(NamedTuple):
    """A leaf (skeleton None) or an internal node with one child per skeleton entry.

    A named tuple, so trees hash and compare in C (they key the orbit groups).
    """
    skeleton: tuple[int, ...] | None
    children: tuple["DecompTree", ...] = ()

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
    return _decompose(p, 0, len(p), 0)


def _decompose(p: Permutation, start: int, stop: int, base: int) -> DecompTree:
    """The tree of the segment p[start:stop], whose values are base+1..base+n."""
    if stop - start == 1:
        return LEAF
    parts = _split(p, start, stop, base)
    if len(parts) == 2:
        # A sum (its bases rise) or a skew sum: a simple quotient has at least
        # four parts.  Binary nodes recurse without a comprehension frame, so
        # a chain of sums costs one interpreter frame per level.
        left, right = parts
        return DecompTree(_ASC if left[2] < right[2] else _DESC,
                          (_decompose(p, *left), _decompose(p, *right)))
    return DecompTree(standardize([b for _, _, b in parts]),
                      tuple(_decompose(p, *part) for part in parts))


Part = tuple[int, int, int]  # (start, stop, base) of a segment holding an interval


def _split(p: Permutation, start: int, stop: int, base: int) -> list[Part]:
    """The root parts of the tree of p[start:stop] (length >= 2, values
    base+1..base+n), as (start, stop, base).

    Every part holds an interval of values, so it is passed on as its
    positions and value offset.  The root's skeleton is the standardized
    list of the parts' bases; it is left to the caller, since the
    reduction's shape index never reads it.  ``p`` may be any sequence of
    ints, bytes included.

    >>> _split((2, 1, 3, 5, 4), 0, 5, 0)
    [(0, 3, 0), (3, 5, 3)]
    >>> _split((3, 4, 1, 2), 0, 4, 0)
    [(0, 2, 2), (2, 4, 0)]
    >>> _split((4, 5, 2, 3, 9, 8, 1, 6, 7), 0, 9, 0)
    [(0, 4, 1), (4, 6, 7), (6, 7, 0), (7, 9, 5)]

    One right-to-left pass looks at every proper suffix that is an interval.
    It stops at the shortest one holding the top values (a sum: its lowest
    value is base + i - start + 1) or the bottom values (a skew sum: its
    highest is base + stop - i).  That suffix is the last sum or skew
    component, so the left part is as long as possible, repeated sums chain
    through left children, and a binary node costs the length of its last
    component.  No segment is both a sum and a skew sum.

    Otherwise the root is a simple quotient of length >= 4 whose children
    are the maximal proper blocks.  They are disjoint here, so each is the
    longest interval ending where the block to its right begins: the pass
    has found the last one, and a scan leftwards finds each of the others.
    The scan for the block ending at position j stops once the value range
    of p[i..j] reaches into the block to its right: that block's values are
    an interval without p[j], and the range only grows as i falls, so no
    longer p[i'..j] is an interval.  A range holding p[j] meets that block
    exactly when it passes the block's lowest value: from above when the
    block lies below p[j] (``below``), from below when it lies above
    (``above``).
    """
    last = stop - 1
    top = base - start + 1  # a suffix from i holds the top values iff its lowest is top + i
    bottom = base + stop    # ... and the bottom values iff its highest is bottom - i
    lo = hi = p[last]
    for i in range(last, start, -1):
        v = p[i]
        if v < lo:
            lo = v
        elif v > hi:
            hi = v
        if hi - lo + i == last:
            if lo == top + i:
                return [(start, i, base), (i, stop, base + i - start)]
            if hi == bottom - i:
                return [(start, i, base + stop - i), (i, stop, base)]
            first, low = i, lo
    parts = [(first, stop, low - 1)]
    ceiling = base + stop - start + 1  # above every value
    j = first - 1
    while j >= start:
        x = p[j]
        if low < x:
            below, above = low, ceiling
        else:
            below, above = 0, low
        lo = hi = low = x
        first = j
        for i in range(j - 1, start - 1, -1):
            v = p[i]
            if v < lo:
                if v < below:
                    break
                lo = v
            elif v > hi:
                if v > above:
                    break
                hi = v
            if hi - lo == j - i:
                first, low = i, lo
        parts.append((first, j + 1, low - 1))
        j = first - 1
    parts.reverse()
    return parts


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

def iter_nodes(t: DecompTree, leaves: bool = True) -> Iterator[tuple[Path, DecompTree]]:
    """All subtrees in preorder, keyed by path from the root; with
    ``leaves=False`` only the internal ones, and no path is built for a leaf."""
    stack: list[tuple[Path, DecompTree]] = [((), t)] if leaves or t.skeleton is not None else []
    while stack:
        path, sub = stack.pop()
        yield path, sub
        children = sub.children
        for i in range(len(children) - 1, -1, -1):
            if leaves or children[i].skeleton is not None:
                stack.append((path + (i,), children[i]))


def subtree_at(t: DecompTree, path: Path) -> DecompTree:
    for i in path:
        t = t.children[i]
    return t


def leaf_count(t: DecompTree) -> int:
    return sum(1 for _, sub in iter_nodes(t) if sub.skeleton is None)


def max_skeleton_length(t: DecompTree) -> int:
    """Length of the longest skeleton in the tree (1 for a bare leaf)."""
    longest = 1
    stack = [t]
    while stack:
        sub = stack.pop()
        skeleton = sub.skeleton
        if skeleton is not None:
            if len(skeleton) > longest:
                longest = len(skeleton)
            stack.extend(sub.children)
    return longest


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
    ``skeletons[c][k]`` is the label of the node at ``chains[c][k]``.
    """
    chains: tuple[tuple[Path, ...], ...]
    skeletons: tuple[tuple[Permutation, ...], ...]

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
    skeletons: list[tuple[Permutation, ...]] = []
    # Internal nodes to visit, popped in preorder.  A chain head follows its
    # chain at once and queues the left children it passed, then its end.
    stack: list[tuple[Path, DecompTree]] = [((), t)]
    while stack:
        path, sub = stack.pop()
        skeleton = sub.skeleton
        if skeleton not in _BINARY:
            children = sub.children
            for i in range(len(children) - 1, -1, -1):
                if children[i].skeleton is not None:
                    stack.append((path + (i,), children[i]))
            continue
        chain: list[Path] = []
        labels: list[Permutation] = []
        rest: list[tuple[Path, DecompTree]] = []
        while skeleton in _BINARY:
            chain.append(path)
            labels.append(skeleton)
            left, sub = sub.children
            if left.skeleton is not None:
                rest.append((path + (0,), left))
            path += (1,)
            skeleton = sub.skeleton
        chains.append(tuple(chain))
        skeletons.append(tuple(labels))
        if skeleton is not None:
            rest.append((path, sub))
        stack.extend(reversed(rest))
    return ChainPartition(tuple(chains), tuple(skeletons))


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
# rendering
# ---------------------------------------------------------------------------

def _skeleton_text(skeleton: tuple[int, ...]) -> str:
    if len(skeleton) <= 9:
        return "".join(str(v) for v in skeleton)
    return ",".join(str(v) for v in skeleton)


def tree_text(t: DecompTree) -> str:
    """Canonical bracketed form, '.' for leaves: ``2413[21[12[.,.],12[.,.]],21[.,.],.,12[.,.]]``."""
    return _bracket_text(t, _skeleton_text)


def simplified_text(t: DecompTree) -> str:
    """The shape of ``t``: its bracketed form with each label written as its
    child count, ``4[2[2[.,.],2[.,.]],2[.,.],.,2[.,.]]``.

    >>> simplified_text(decompose((4, 5, 2, 3, 9, 8, 1, 6, 7)))
    '4[2[2[.,.],2[.,.]],2[.,.],.,2[.,.]]'
    """
    return _bracket_text(t, lambda skeleton: str(len(skeleton)))


def _bracket_text(t: DecompTree, label: Callable[[tuple[int, ...]], str]) -> str:
    """``t`` in brackets, '.' for a leaf and ``label(skeleton)`` before each
    node's children: the one writer of `tree_text` and `simplified_text`.
    One stack walk, so a tree of any depth renders."""
    if t.skeleton is None:
        return "."
    heads: dict[tuple[int, ...], str] = {}
    parts: list[str] = []
    append = parts.append
    stack: list = [t]
    push, pop = stack.append, stack.pop
    while stack:
        item = pop()
        if item.__class__ is str:
            append(item)
            continue
        skeleton = item.skeleton
        head = heads.get(skeleton)
        if head is None:
            head = heads[skeleton] = label(skeleton) + "["
        append(head)
        push("]")
        children = item.children
        for i in range(len(children) - 1, 0, -1):
            child = children[i]
            if child.skeleton is None:
                push(",.")
            else:
                push(child)
                push(",")
        child = children[0]
        push("." if child.skeleton is None else child)
    return "".join(parts)


def tree_json(t: DecompTree) -> dict:
    """JSON form {skeleton: [...] | null, children: [...]}.

    The CLI writes this form's text directly (`cli._tree_json_text`); this
    function is the reference its tests compare against.
    """
    return {
        "skeleton": list(t.skeleton) if t.skeleton is not None else None,
        "children": [tree_json(c) for c in t.children],
    }
