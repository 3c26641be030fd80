"""Involutions, equivalence classes, and the simplified-tree factorization."""
import itertools

import pytest

from gammalab.errors import StructureError
from gammalab.orbits import (
    class_polynomial,
    closure_class_report,
    closure_distribution,
    closure_permutations,
    closure_trees,
    equivalence_class,
    flip_odd_chain,
    length4_nodes,
    minimal_representative,
    signature_of,
    simplified_class_polynomial,
    swap_length4_label,
    verify_reduction,
)
from gammalab.permutations import des, des_ides, ides, joint_distribution, simple_distribution
from gammalab.polys import ONE_PLUS_ST, ST, S_PLUS_T, BivarPoly
from gammalab.trees import (
    binary_right_chains,
    decompose,
    in_closure,
    reconstruct,
    simplify,
    tree_des_ides,
    tree_text,
)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def closure_filter(n, k):
    return [p for p in all_perms(n) if in_closure(p, k)]


# ---------------------------------------------------------------------------
# the two involutions
# ---------------------------------------------------------------------------

def test_flip_odd_chain_example():
    t = decompose((6, 7, 1, 3, 2, 5, 4))
    part = binary_right_chains(t)
    idx = next(i for i, c in enumerate(part.chains) if len(c) == 3)
    flipped = flip_odd_chain(t, idx)
    assert reconstruct(flipped) == (1, 2, 5, 7, 6, 3, 4)
    assert des((6, 7, 1, 3, 2, 5, 4)) == 3
    assert des((1, 2, 5, 7, 6, 3, 4)) == 2


def test_flip_odd_chain_is_involution():
    for n in range(1, 8):
        for p in all_perms(n):
            t = decompose(p)
            for idx, chain in enumerate(binary_right_chains(t).chains):
                if len(chain) % 2 == 1:
                    assert flip_odd_chain(flip_odd_chain(t, idx), idx) == t


def test_flip_changes_both_statistics_together():
    for p in all_perms(6):
        t = decompose(p)
        d, e = des_ides(p)
        for idx, chain in enumerate(binary_right_chains(t).chains):
            if len(chain) % 2 == 1:
                d2, e2 = des_ides(reconstruct(flip_odd_chain(t, idx)))
                assert d2 - d == e2 - e
                assert abs(d2 - d) == 1


def test_flip_rejects_even_chains_and_bad_index():
    t = decompose((1, 3, 2))  # single chain of length 2
    with pytest.raises(IndexError):
        flip_odd_chain(t, 0)
    with pytest.raises(IndexError):
        flip_odd_chain(t, 5)


def test_swap_length4_label():
    t = decompose((2, 4, 1, 3))
    assert reconstruct(swap_length4_label(t, 0)) == (3, 1, 4, 2)
    assert swap_length4_label(swap_length4_label(t, 0), 0) == t
    with pytest.raises(IndexError):
        swap_length4_label(t, 1)
    with pytest.raises(IndexError):
        swap_length4_label(decompose((1, 2)), 0)


def test_swap_moves_one_descent_across():
    sigma = (4, 5, 2, 3, 9, 8, 1, 6, 7)
    t = decompose(sigma)
    d, e = des_ides(sigma)
    d2, e2 = des_ides(reconstruct(swap_length4_label(t, 0)))
    assert (d2, e2) == (d + 1, e - 1)  # 2413 -> 3142 at the root


def test_swap_is_involution_everywhere():
    for n in range(1, 8):
        for p in all_perms(n):
            t = decompose(p)
            for j in range(len(length4_nodes(t))):
                assert swap_length4_label(swap_length4_label(t, j), j) == t


def test_involutions_commute():
    for p in closure_filter(6, 5):
        t = decompose(p)
        part = binary_right_chains(t)
        odd = [i for i, c in enumerate(part.chains) if len(c) % 2 == 1]
        quads = range(len(length4_nodes(t)))
        pairs = [("flip", a, "flip", b) for a in odd for b in odd if a < b]
        pairs += [("flip", a, "swap", j) for a in odd for j in quads]
        pairs += [("swap", a, "swap", b) for a in quads for b in quads if a < b]
        for kind1, a, kind2, b in pairs:
            def apply(tree, kind, idx):
                return flip_odd_chain(tree, idx) if kind == "flip" else swap_length4_label(tree, idx)
            assert apply(apply(t, kind1, a), kind2, b) == apply(apply(t, kind2, b), kind1, a)


# ---------------------------------------------------------------------------
# equivalence classes
# ---------------------------------------------------------------------------

def test_class_of_2413():
    c = equivalence_class((2, 4, 1, 3))
    assert c.members == {(2, 4, 1, 3), (3, 1, 4, 2)}
    sig = c.signature
    assert (sig.n21, sig.n4, sig.n5, sig.odd_chains) == (0, 1, 0, 0)
    assert sig.orbit_size() == 2
    assert class_polynomial(c) == ST * S_PLUS_T


def test_class_of_12():
    c = equivalence_class((1, 2))
    assert c.members == {(1, 2), (2, 1)}
    assert c.signature.odd_chains == 1
    assert class_polynomial(c) == ONE_PLUS_ST


def test_class_of_6713254_has_two_odd_chains():
    c = equivalence_class((6, 7, 1, 3, 2, 5, 4))
    sig = c.signature
    assert sig.odd_chains == 2
    # (1+st)^2 appears as the exponent n-1-2i-j = 2.
    assert sig.n - 1 - 2 * sig.gamma_i - sig.gamma_j == 2
    assert (1, 2, 5, 7, 6, 3, 4) in c.members


def test_class_rejects_long_skeletons():
    with pytest.raises(ValueError):
        equivalence_class((2, 4, 6, 1, 3, 5))  # simple of length 6


def test_orbit_size_and_identity():
    for n in range(1, 7):
        for p in closure_filter(n, 5):
            c = equivalence_class(p)
            assert len(c.members) == c.signature.orbit_size()
            assert c.signature.node_count_identity_holds()


def test_class_polynomial_is_member_distribution():
    seen = set()
    for n in range(1, 7):
        for p in closure_filter(n, 5):
            c = equivalence_class(p)
            if c.minimal in seen:
                continue
            seen.add(c.minimal)
            dist = joint_distribution(sorted(c.members), n).poly
            assert dist == class_polynomial(c)


def test_minimal_representative_minimizes_descents():
    for n in range(1, 7):
        for p in closure_filter(n, 5):
            c = equivalence_class(p)
            d_min = des(reconstruct(c.minimal))
            assert all(d_min <= des(q) for q in c.members)
            assert reconstruct(c.minimal) in c.members
            # the BFS orbit is the oracle: every member normalizes to one tree
            assert all(minimal_representative(decompose(q)) == c.minimal for q in c.members)


def test_minimal_representative_is_normalized():
    for p in closure_filter(6, 5):
        m = minimal_representative(decompose(p))
        part = binary_right_chains(m)
        from gammalab.trees import subtree_at
        for chain in part.chains:
            if len(chain) % 2 == 1:
                assert subtree_at(m, chain[0]).skeleton == (1, 2)
        for path in length4_nodes(m):
            assert subtree_at(m, path).skeleton == (2, 4, 1, 3)
        assert minimal_representative(m) is m


# ---------------------------------------------------------------------------
# closure generation
# ---------------------------------------------------------------------------

def test_closure_trees_match_filter():
    for k in (2, 5):
        for n in range(1, 7):
            generated = sorted(closure_permutations(n, k))
            filtered = sorted(closure_filter(n, k))
            assert generated == filtered


def test_closure_distribution_matches_reconstructed_members():
    for k in (2, 5):
        for n in range(1, 9):
            members = closure_permutations(n, k)
            assert closure_distribution(n, k) == joint_distribution(members, n).poly


def test_closure_trees_are_canonical():
    from gammalab.trees import is_canonical
    for t in closure_trees(6, 5):
        assert is_canonical(t)


def test_closure_distribution_h5_s5():
    # Summing class polynomials over all classes equals the closure distribution.
    rep = closure_class_report(5)
    assert rep.ok
    direct = joint_distribution(closure_filter(5, 5), 5).poly
    assert rep.total == direct
    total = BivarPoly()
    for rec in rep.classes:
        total = total + rec.distribution
    assert total == direct


def test_closure_class_report_small():
    for n in range(1, 8):
        rep = closure_class_report(n)
        assert rep.ok, rep.failures
        assert rep.expansion.is_positive()
        trees = closure_trees(n, 5)
        assert sum(rec.size for rec in rep.classes) == len(trees)
        assert all(tree_des_ides(t) == des_ides(reconstruct(t)) for t in trees)


def test_signature_of_rejects_long_skeletons():
    with pytest.raises(ValueError):
        signature_of(decompose((2, 4, 6, 1, 3, 5)))


# ---------------------------------------------------------------------------
# simplified-tree factorization
# ---------------------------------------------------------------------------

def test_simplified_polynomial_base_cases():
    assert simplified_class_polynomial(((), ())) == ONE_PLUS_ST
    assert simplified_class_polynomial(((), (), (), ())) == simple_distribution(4).poly
    assert simple_distribution(4).poly == ST * S_PLUS_T
    # Even chain of two binary nodes along rightmost-child links.
    assert simplified_class_polynomial(((), ((), ()))) == ST * 2
    # A binary node hanging off a left child starts its own odd chain.
    assert simplified_class_polynomial((((), ()), ())) == ONE_PLUS_ST * ONE_PLUS_ST
    assert simplified_class_polynomial(()) == BivarPoly.const(1)


def test_simplified_polynomial_rejects_length_three():
    with pytest.raises(StructureError):
        simplified_class_polynomial(((), (), ()))


def test_simplified_groups_of_s3():
    groups = {}
    for p in all_perms(3):
        st = simplify(decompose(p))
        groups.setdefault(st, []).append(p)
    assert len(groups) == 2
    for st, members in groups.items():
        dist = joint_distribution(members, 3).poly
        assert dist == simplified_class_polynomial(st)


def test_verify_reduction():
    r1 = verify_reduction(1)
    assert r1.ok and r1.group_count == 1 and r1.total == BivarPoly.const(1)
    r4 = verify_reduction(4)
    assert r4.ok
    assert r4.total == BivarPoly(
        {(0, 0): 1, (1, 1): 10, (2, 2): 10, (3, 3): 1, (1, 2): 1, (2, 1): 1}
    )
    r7 = verify_reduction(7)
    assert r7.ok


def test_wreath_style_inflations_stay_in_closure():
    # Inflating 12 by members of {21, 132} lands on the expected set.
    from gammalab.permutations import inflate
    a = (1, 2)
    b = [(2, 1), (1, 3, 2)]
    produced = sorted(inflate(a, [x, y]) for x in b for y in b)
    assert produced == sorted([
        (2, 1, 4, 3), (2, 1, 3, 5, 4), (1, 3, 2, 5, 4), (1, 3, 2, 4, 6, 5)
    ])
    assert all(in_closure(p, 2) for p in produced)
