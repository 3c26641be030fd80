"""Decomposition trees: the bijection, chains, canonical form, closures."""
import itertools
import random
import sys

import pytest
from oracles import leaf_count, node, random_separable, stack_depth, subtree_at, tree_json

from gammalab.errors import StructureError
from gammalab.permutations import _split, inflate, is_simple, standardize
from gammalab.trees import (
    LEAF,
    DecompTree,
    binary_right_chains,
    decompose,
    in_closure,
    is_canonical,
    iter_nodes,
    max_skeleton_length,
    reconstruct,
    simplified_text,
    tree_text,
)

SIGMA = (4, 5, 2, 3, 9, 8, 1, 6, 7)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def oracle_contains_pattern(p, pattern):
    k = len(pattern)
    return any(
        standardize([p[i] for i in idx]) == pattern
        for idx in itertools.combinations(range(len(p)), k)
    )


# ---------------------------------------------------------------------------
# decompose / reconstruct
# ---------------------------------------------------------------------------

def test_decompose_examples():
    t = decompose(SIGMA)
    assert tree_text(t) == "2413[21[12[.,.],12[.,.]],21[.,.],.,12[.,.]]"
    assert t.skeleton == (2, 4, 1, 3)
    assert tree_text(t.children[0]) == "21[12[.,.],12[.,.]]"
    assert tree_text(decompose((1, 2, 3))) == "12[12[.,.],.]"
    assert decompose((1,)) is LEAF
    assert tree_text(decompose((1, 3, 2))) == "12[.,21[.,.]]"


def test_reconstruct_examples():
    t = node((2, 4, 1, 3),
             node((2, 1), node((1, 2), LEAF, LEAF), node((1, 2), LEAF, LEAF)),
             node((2, 1), LEAF, LEAF),
             LEAF,
             node((1, 2), LEAF, LEAF))
    assert reconstruct(t) == SIGMA
    assert reconstruct(LEAF) == (1,)


def test_roundtrip_exhaustive():
    for n in range(1, 8):
        seen = set()
        for p in all_perms(n):
            t = decompose(p)
            assert reconstruct(t) == p
            assert t not in seen
            seen.add(t)


def reference_decompose(p):
    """decompose as first written: every part is standardized before recursing."""
    n = len(p)
    if n == 1:
        return LEAF
    split, mx = 0, 0
    for i in range(n - 1):
        mx = max(mx, p[i])
        if mx == i + 1:
            split = i + 1
    if split:
        return node((1, 2), reference_decompose(p[:split]),
                    reference_decompose(standardize(p[split:])))
    split, mn = 0, n + 1
    for i in range(n - 1):
        mn = min(mn, p[i])
        if mn == n - i:
            split = i + 1
    if split:
        return node((2, 1), reference_decompose(standardize(p[:split])),
                    reference_decompose(p[split:]))
    blocks, i = [], 0
    while i < n:
        end = i
        for j in range(i + 1, n):
            seg = p[i:j + 1]
            if max(seg) - min(seg) == j - i and (i, j) != (0, n - 1):
                end = j
        blocks.append(p[i:end + 1])
        i = end + 1
    return node(standardize([b[0] for b in blocks]),
                *(reference_decompose(standardize(b)) for b in blocks))


def test_decompose_matches_the_standardizing_reference():
    for n in range(1, 9):
        for p in all_perms(n):
            assert decompose(p) == reference_decompose(p), p
    rng = random.Random(2024)
    for length in (2, 3, 5, 16, 64, 129, 256):
        for _ in range(6):
            p = tuple(rng.sample(range(1, length + 1), length))
            assert decompose(p) == reference_decompose(p), p
            q = random_separable(rng, length)
            assert decompose(q) == reference_decompose(q), q
            assert max_skeleton_length(decompose(q)) <= 2


def assert_split_walk_matches(p, ref):
    """Drive ``_split`` from the root and compare each node with ``ref``
    iteratively, so trees deeper than the recursion limit's slack compare too
    (tuple equality recurses in C)."""
    stack = [((0, len(p), 0), ref)]
    while stack:
        (start, stop, base), t = stack.pop()
        assert sorted(p[start:stop]) == list(range(base + 1, base + 1 + stop - start))
        if stop - start == 1:
            assert t is LEAF
            continue
        parts = _split(p, start, stop, base)
        assert standardize([b for _, _, b in parts]) == t.skeleton, (start, stop)
        assert parts[0][0] == start and parts[-1][1] == stop
        assert all(x[1] == y[0] for x, y in zip(parts, parts[1:]))
        stack.extend(zip(parts, t.children))


def test_split_matches_the_reference_on_long_separable_and_monotone_inputs():
    rng = random.Random(10)
    for length in (17, 100, 250, 400):
        for _ in range(4):
            q = random_separable(rng, length)
            assert_split_walk_matches(q, reference_decompose(q))
    # A chain of 899 sums (or skew sums): one frame per level in both.
    for q in (tuple(range(1, 901)), tuple(range(900, 0, -1))):
        ref = reference_decompose(q)
        assert_split_walk_matches(q, ref)
        t = decompose(q)
        assert [s.skeleton for _, s in iter_nodes(t)] == [s.skeleton for _, s in iter_nodes(ref)]
    # Bytes index to ints, so the split reads them as it reads tuples.
    for p in all_perms(6):
        assert _split(bytes(p), 0, 6, 0) == _split(p, 0, 6, 0)


def random_simple(rng, k):
    while True:
        p = tuple(rng.sample(range(1, k + 1), k))
        if is_simple(p):
            return p


def random_inflation(rng, n):
    """A random simple skeleton inflated by random parts of total length n
    (at least 4), some of them inflations again."""
    k = rng.randrange(4, min(12, n) + 1)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    parts = []
    for size in (b - a for a, b in zip([0] + cuts, cuts + [n])):
        roll = rng.random()
        if size >= 8 and roll < 0.3:
            parts.append(random_inflation(rng, size))
        elif roll < 0.6:
            parts.append(random_separable(rng, size))
        else:
            parts.append(tuple(rng.sample(range(1, size + 1), size)))
    return inflate(random_simple(rng, k), parts)


def late_multi_blocks(t):
    """How many prime-node blocks of two or more entries are not the first child."""
    return sum(1 for _, sub in iter_nodes(t)
               if sub.skeleton is not None and len(sub.skeleton) > 2
               for c in sub.children[1:] if c.skeleton is not None)


def test_decompose_prunes_its_block_scan_soundly():
    """Inflated prime nodes: blocks of several entries sit after the segment
    start, so the block scan stops at the previous block's values."""
    rng = random.Random(8)
    late = 0
    for _ in range(120):
        p = random_inflation(rng, rng.randrange(4, 300))
        t = decompose(p)
        assert t == reference_decompose(p), p
        assert reconstruct(t) == p
        late += late_multi_blocks(t)
    assert late > 500


def test_reconstruct_structure_errors():
    with pytest.raises(StructureError, match="^leaf node must not have children$"):
        reconstruct(DecompTree(None, (LEAF,)))
    with pytest.raises(StructureError, match=r"^skeleton \(1, 3\) is not a permutation$"):
        reconstruct(node((1, 3), LEAF, LEAF))
    with pytest.raises(StructureError, match="^skeleton of length 2 has 1 children$"):
        reconstruct(node((1, 2), LEAF))
    # The first malformed node in preorder is the one named.
    with pytest.raises(StructureError, match="is not a permutation"):
        reconstruct(node((2, 1), node((1, 3), LEAF, LEAF), DecompTree(None, (LEAF,))))


def test_reconstruct_inverts_decompose_at_any_depth():
    # Chains of 989 sums (or skew sums): the deepest inputs decompose takes
    # from a bare interpreter, so it is given that much room above this frame.
    monotone = (tuple(range(1, 991)), tuple(range(990, 0, -1)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + limit)
    try:
        deep = [decompose(p) for p in monotone]
    finally:
        sys.setrecursionlimit(limit)
    # And 2999 levels built by hand.
    t = LEAF
    for _ in range(2999):
        t = node((1, 2), t, LEAF)
    # Inverted under a recursion limit 50 frames above the caller's, and
    # compared as tuples: tree equality recurses.
    sys.setrecursionlimit(stack_depth() + 50)
    try:
        perms = [reconstruct(tree) for tree in (*deep, t)]
    finally:
        sys.setrecursionlimit(limit)
    assert perms == [*monotone, tuple(range(1, 3001))]


def test_leaf_count_and_labels():
    for n in range(1, 7):
        for p in all_perms(n):
            t = decompose(p)
            assert leaf_count(t) == n
            for _, sub in iter_nodes(t):
                if sub.skeleton is not None:
                    assert is_simple(sub.skeleton)
                    assert len(sub.skeleton) >= 2


def test_node_count_identity():
    # Counting children: n-1 equals the sum of (length - 1) over internal nodes.
    for n in range(1, 8):
        for p in all_perms(n):
            total = sum(
                len(sub.skeleton) - 1
                for _, sub in iter_nodes(decompose(p))
                if sub.skeleton is not None
            )
            assert total == n - 1


def test_iter_nodes_without_leaves_keeps_the_internal_nodes_in_preorder():
    for n in range(1, 7):
        for p in all_perms(n):
            t = decompose(p)
            internal = [(path, sub) for path, sub in iter_nodes(t) if sub.skeleton is not None]
            assert list(iter_nodes(t, leaves=False)) == internal


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def test_chain_examples():
    part = binary_right_chains(decompose(SIGMA))
    assert len(part.chains) == 4
    assert part.odd_chain_count == 3

    part12 = binary_right_chains(decompose((1, 2)))
    assert len(part12.chains) == 1
    assert len(part12.chains[0]) == 1
    assert part12.odd_chain_count == 1

    part_b = binary_right_chains(decompose((6, 7, 1, 3, 2, 5, 4)))
    assert part_b.odd_chain_count == 2
    assert sorted(len(c) for c in part_b.chains) == [1, 2, 3]


def test_chains_cover_binary_nodes_once():
    for n in range(1, 8):
        for p in all_perms(n):
            t = decompose(p)
            part = binary_right_chains(t)
            chained = [path for chain in part.chains for path in chain]
            assert len(chained) == len(set(chained))
            binary = {
                path for path, sub in iter_nodes(t)
                if sub.skeleton in ((1, 2), (2, 1))
            }
            assert set(chained) == binary
            for chain in part.chains:
                labels = [subtree_at(t, path).skeleton for path in chain]
                for a, b in zip(labels, labels[1:]):
                    assert a != b


def test_chain_skeletons_match_the_subtree_lookup():
    rng = random.Random(31)
    inputs = [tuple(rng.sample(range(1, n + 1), n)) for n in (4, 9, 30, 120, 400)]
    inputs += [random_separable(rng, n) for n in (2, 7, 40, 150, 300)]
    inputs += [random_inflation(rng, n) for n in (12, 90, 250)]
    for p in inputs:
        t = decompose(p)
        part = binary_right_chains(t)
        assert len(part.skeletons) == len(part.chains)
        for chain, skeletons in zip(part.chains, part.skeletons):
            assert skeletons == tuple(subtree_at(t, path).skeleton for path in chain)


def test_is_canonical():
    for n in range(1, 7):
        for p in all_perms(n):
            assert is_canonical(decompose(p))
    # The dispreferred expression of 123 breaks alternation.
    assert not is_canonical(node((1, 2), LEAF, node((1, 2), LEAF, LEAF)))
    assert is_canonical(node((1, 2), LEAF, node((2, 1), LEAF, LEAF)))
    assert not is_canonical(node((1, 2, 3), LEAF, LEAF, LEAF))  # not simple
    assert not is_canonical(node((1, 2), LEAF))                 # arity
    assert not is_canonical(DecompTree(None, (LEAF,)))


def test_is_canonical_iff_fixed_by_roundtrip():
    # Even-handed check on hand-built trees: canonical means decompose gives
    # back the same tree.
    samples = [
        node((1, 2), LEAF, node((1, 2), LEAF, LEAF)),
        node((1, 2), LEAF, node((2, 1), LEAF, LEAF)),
        node((2, 1), node((2, 1), LEAF, LEAF), LEAF),
        node((2, 1), LEAF, node((2, 1), LEAF, LEAF)),
        node((2, 4, 1, 3), LEAF, node((1, 2), LEAF, LEAF), LEAF, LEAF),
    ]
    for t in samples:
        assert is_canonical(t) == (decompose(reconstruct(t)) == t)


def test_rightmost_child_convention():
    for n in range(1, 8):
        for p in all_perms(n):
            for _, sub in iter_nodes(decompose(p)):
                if sub.skeleton in ((1, 2), (2, 1)):
                    assert sub.children[-1].skeleton != sub.skeleton


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

def reference_simplify(t):
    """The shape of ``t`` as nested tuples: a leaf is ``()`` and an internal
    node the tuple of its children's shapes.  One stack walk lists every
    node before its subtree; a backward pass over that list finds each
    node's children done, in order, atop ``done``."""
    order = []
    stack = [t]
    while stack:
        sub = stack.pop()
        order.append(sub)
        stack.extend(sub.children)
    done = []
    for sub in reversed(order):
        k = len(sub.children)
        if k:
            done[-k:] = [tuple(done[-k:])]
        else:
            done.append(())
    return done[0]


def reference_simplified_text(st):
    """The bracketed text of the nested-tuple shape ``st``, written by its
    own stack walk."""
    if not st:
        return "."
    parts = []
    stack = [st]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        parts.append(f"{len(item)}[")
        stack.append("]")
        for i in range(len(item) - 1, 0, -1):
            stack.append(item[i] if item[i] else ".")
            stack.append(",")
        stack.append(item[0] if item[0] else ".")
    return "".join(parts)


def reference_shape_text(t):
    return reference_simplified_text(reference_simplify(t))


def random_2413_inflated(rng, n):
    """2413 inflated at every size >= 4 by four random shorter parts."""
    if n < 4:
        return tuple(rng.sample(range(1, n + 1), n))
    cuts = sorted(rng.sample(range(1, n), 3))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return inflate((2, 4, 1, 3), [random_2413_inflated(rng, k) for k in sizes])


def test_simplified_text_examples():
    assert simplified_text(decompose(SIGMA)) == "4[2[2[.,.],2[.,.]],2[.,.],.,2[.,.]]"
    assert simplified_text(LEAF) == "."
    assert simplified_text(decompose((2, 4, 1, 3))) == "4[.,.,.,.]"
    assert reference_simplify(LEAF) == ()
    assert reference_simplify(decompose((2, 4, 1, 3))) == ((), (), (), ())


def test_simplified_text_matches_the_tuple_reference():
    for n in range(1, 9):
        for p in all_perms(n):
            t = decompose(p)
            assert simplified_text(t) == reference_shape_text(t), p
    rng = random.Random(4242)
    for length in (4, 9, 30, 100, 257, 400):
        for _ in range(3):
            for p in (tuple(rng.sample(range(1, length + 1), length)),
                      random_separable(rng, length), random_2413_inflated(rng, length)):
                t = decompose(p)
                assert simplified_text(t) == reference_shape_text(t), p


def test_simplified_text_writes_a_deep_chain_without_recursion():
    # 3000 binary nodes along right children, written under a recursion
    # limit 50 frames above the caller's: one frame per level would need 3000.
    t = LEAF
    for i in range(3000):
        t = node((1, 2) if i % 2 else (2, 1), LEAF, t)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)
    try:
        text = simplified_text(t)
    finally:
        sys.setrecursionlimit(limit)
    assert text == "2[.," * 3000 + "." + "]" * 3000
    assert text == reference_shape_text(t)


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------

def test_in_closure_examples():
    assert not in_closure((2, 4, 1, 3), 2)
    assert in_closure((2, 4, 1, 3), 4)
    assert max_skeleton_length(decompose((2, 4, 1, 3))) == 4
    count = sum(1 for p in all_perms(4) if in_closure(p, 2))
    assert count == 22
    with pytest.raises(ValueError):
        in_closure((1, 2), 1)


def test_separable_is_pattern_avoidance():
    for p in all_perms(6):
        avoided = not oracle_contains_pattern(p, (3, 1, 4, 2)) and \
            not oracle_contains_pattern(p, (2, 4, 1, 3))
        assert in_closure(p, 2) == avoided


def test_separable_counts_match_schroeder():
    schroeder = [1, 2, 6, 22, 90, 394, 1806]
    for n, expected in zip(range(1, 8), schroeder):
        assert sum(1 for p in all_perms(n) if in_closure(p, 2)) == expected


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_tree_text_leaf():
    assert tree_text(LEAF) == "."


def test_tree_json():
    t = decompose((1, 3, 2))
    assert tree_json(t) == {
        "skeleton": [1, 2],
        "children": [
            {"skeleton": None, "children": []},
            {"skeleton": [2, 1], "children": [
                {"skeleton": None, "children": []},
                {"skeleton": None, "children": []},
            ]},
        ],
    }
