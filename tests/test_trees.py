"""Decomposition trees: the bijection, chains, canonical form, closures."""
import itertools

import pytest

from gammalab.errors import StructureError
from gammalab.permutations import des_ides, is_simple, standardize
from gammalab.trees import (
    LEAF,
    DecompTree,
    binary_right_chains,
    decompose,
    in_closure,
    is_canonical,
    iter_nodes,
    leaf_count,
    max_skeleton_length,
    node,
    reconstruct,
    simplified_text,
    simplify,
    subtree_at,
    tree_des_ides,
    tree_json,
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
            assert tree_des_ides(t) == des_ides(p)
            assert t not in seen
            seen.add(t)


def test_tree_des_ides_on_a_deep_chain():
    # 12[12[...[12[.,.],.]...],.] with 3000 leaves: the identity, far deeper
    # than the interpreter's recursion limit.
    t = LEAF
    for _ in range(2999):
        t = DecompTree((1, 2), (t, LEAF))
    assert tree_des_ides(t) == (0, 0)


def test_reconstruct_structure_errors():
    with pytest.raises(StructureError):
        reconstruct(DecompTree(None, (LEAF,)))
    with pytest.raises(StructureError):
        reconstruct(node((1, 3), LEAF, LEAF))
    with pytest.raises(StructureError):
        reconstruct(node((1, 2), LEAF))


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
# simplified trees
# ---------------------------------------------------------------------------

def test_simplify():
    st = simplify(decompose(SIGMA))
    assert simplified_text(st) == "4[2[2[.,.],2[.,.]],2[.,.],.,2[.,.]]"
    assert simplify(LEAF) == ()
    assert simplify(decompose((2, 4, 1, 3))) == ((), (), (), ())
    assert simplified_text(simplify(decompose((2, 4, 1, 3)))) == "4[.,.,.,.]"


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
