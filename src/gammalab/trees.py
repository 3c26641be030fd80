"""
Substitution decomposition trees.

Every permutation of length >= 2 is uniquely an inflation of a simple
permutation (its skeleton) by shorter permutations; for skeleton 12 the
expression is made unique by requiring the second part sum-indecomposable,
and dually for 21.  Recursing gives a canonical tree whose leaves are the
entries and whose internal nodes carry simple skeletons.  ``decompose`` builds
this tree by applying the root split `permutations._split` at every node,
``reconstruct`` inverts it, and the two are mutually inverse bijections
between S_n and the canonical trees with n leaves.

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

from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from .errors import StructureError
from .permutations import Permutation, _split, inflate, is_simple, standardize

Path = tuple[int, ...]

_ASC = (1, 2)
_DESC = (2, 1)
_BINARY = {_ASC, _DESC}


class DecompTree(NamedTuple):
    """A leaf (skeleton None) or an internal node with one child per skeleton entry.

    A named tuple, so trees hash and compare in C (``==`` recurses per level).
    """
    skeleton: tuple[int, ...] | None
    children: tuple["DecompTree", ...] = ()

    def __repr__(self) -> str:
        return f"DecompTree({tree_text(self)})"


LEAF = DecompTree(None)


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


def reconstruct(t: DecompTree) -> Permutation:
    """Invert ``decompose`` by repeated inflation.

    Raises StructureError when the tree is malformed (skeleton not a
    permutation, or child count differing from skeleton length), naming
    the first such node in preorder.  One stack walk, so a tree of any depth
    is inverted: each internal node is popped once to be checked and to
    queue its children, and once more, after them, to inflate its skeleton
    by the permutations they left on ``built``.
    """
    built: list[Permutation] = []
    stack: list[tuple[DecompTree, bool]] = [(t, False)]
    while stack:
        sub, ready = stack.pop()
        skeleton, children = sub
        if skeleton is None:
            if children:
                raise StructureError("leaf node must not have children")
            built.append((1,))
        elif ready:
            k = len(skeleton)
            built[-k:] = [inflate(skeleton, built[-k:])]
        else:
            k = len(skeleton)
            if sorted(skeleton) != list(range(1, k + 1)):
                raise StructureError(f"skeleton {skeleton} is not a permutation")
            if len(children) != k:
                raise StructureError(f"skeleton of length {k} has {len(children)} children")
            stack.append((sub, True))
            stack += [(c, False) for c in reversed(children)]
    return built[0]


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

class ChainPartition(NamedTuple):
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
    return _bracket_text(t, _skeleton_text)[0]


def simplified_text(t: DecompTree) -> str:
    """The shape of ``t``: its bracketed form with each label written as its
    child count, ``4[2[2[.,.],2[.,.]],2[.,.],.,2[.,.]]``.

    >>> simplified_text(decompose((4, 5, 2, 3, 9, 8, 1, 6, 7)))
    '4[2[2[.,.],2[.,.]],2[.,.],.,2[.,.]]'
    """
    return _bracket_text(t, _length_text)[0]


def _length_text(skeleton: tuple[int, ...]) -> str:
    return str(len(skeleton))


# The bracket stream's fixed pieces, by code; each distinct skeleton's
# ``label[`` takes the next code.
_BRACKETS = ("]", ",", ",.", ".", ",.]")


def _bracket_text(t: DecompTree, *labels: Callable[[tuple[int, ...]], str]) -> list[str]:
    """``t`` in brackets, '.' for a leaf and ``label(skeleton)`` before each
    node's children, once for each label: the one writer of `tree_text` and
    `simplified_text`.  One stack walk records the bracket stream as small
    int codes, and each text is one join of those codes through its own
    table, so a tree of any depth renders and a second text costs no walk.

    >>> _bracket_text(decompose((2, 4, 1, 3, 5)), _skeleton_text, _length_text)
    ['12[2413[.,.,.,.],.]', '2[4[.,.,.,.],.]']
    """
    if t.skeleton is None:
        return ["."] * len(labels)
    codes: dict[tuple[int, ...], int] = {}
    stream: list[int] = []
    append = stream.append
    # Subtrees and the codes that follow them, popped in text order.  A
    # leaf's code is appended at once where nothing can come before it.
    stack: list = [t]
    push, pop = stack.append, stack.pop
    while stack:
        item = pop()
        if item.__class__ is int:
            append(item)
            continue
        skeleton = item.skeleton
        code = codes.get(skeleton)
        if code is None:
            code = codes[skeleton] = len(codes) + len(_BRACKETS)
        append(code)
        children = item.children
        last = len(children) - 1
        child = children[last]
        if child.skeleton is None:
            push(4)  # ",.]"
        else:
            stack += (0, child, 1)  # popped as ",", the child, "]"
        for i in range(last - 1, 0, -1):
            child = children[i]
            if child.skeleton is None:
                push(2)  # ",."
            else:
                stack += (child, 1)
        child = children[0]
        if child.skeleton is None:
            append(3)  # "."
        else:
            push(child)
    pick = itemgetter(*stream)  # at least three codes, so it returns a tuple
    return ["".join(pick(table))
            for table in [_BRACKETS + tuple(label(s) + "[" for s in codes) for label in labels]]
