"""Involutions, equivalence classes, and the shape factorization."""
import itertools
import math
import re
import time
from collections import Counter

import pytest
from oracles import leaf_count, subtree_at
from test_trees import reference_shape_text, reference_simplified_text

from gammalab import orbits
from gammalab.errors import ResourceBoundError, StructureError
from gammalab.orbits import (
    _simplified_groups,
    _tally_packing,
    class_polynomial,
    closure_class_report,
    closure_class_reports,
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
from gammalab.permutations import (
    complement,
    des,
    des_ides,
    enumerate_simple,
    ides,
    joint_distribution,
    simple_distribution,
)
from gammalab.polys import ONE_PLUS_ST, ST, S_PLUS_T, BivarPoly
from gammalab.series import closure_series
from gammalab.trees import (
    LEAF,
    DecompTree,
    binary_right_chains,
    decompose,
    in_closure,
    iter_nodes,
    reconstruct,
    simplified_text,
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
        for chain in part.chains:
            if len(chain) % 2 == 1:
                assert subtree_at(m, chain[0]).skeleton == (1, 2)
        for path in length4_nodes(m):
            assert subtree_at(m, path).skeleton == (2, 4, 1, 3)
        assert minimal_representative(m) is m


def test_minimal_representative_of_a_deep_chain():
    # A right chain of 2001 binary nodes led by 21, built by hand because
    # `decompose` recurses once per level.
    depth = 2001
    t = LEAF
    for level in range(depth - 1, -1, -1):
        t = DecompTree((2, 1) if level % 2 == 0 else (1, 2), (LEAF, t))
    m = minimal_representative(t)
    part = binary_right_chains(m)
    assert len(part.chains) == 1 and len(part.chains[0]) == depth
    assert part.skeletons[0][:2] == ((1, 2), (2, 1)) and part.skeletons[0][-1] == (1, 2)
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
    for k in (2, 4, 5):
        for n in range(1, 9):
            members = closure_permutations(n, k)
            assert closure_distribution(n, k) == joint_distribution(members, n).poly


def test_one_closure_series_holds_every_closure_distribution():
    # closure_class_reports reads each size's total off one series.
    for k in (2, 5):
        C = closure_series(orbits._cut_simple_series(11, k))
        for n in range(1, 12):
            assert C.coeff(n) == closure_distribution(n, k), (n, k)


def reference_closure_trees(n, k):
    """The canonical trees with n leaves and skeletons of length <= k, built
    size by size from plain lists of smaller trees."""
    skeletons = [s for ell in range(2, min(k, n) + 1) for s in enumerate_simple(ell)]
    binary = {(1, 2), (2, 1)}
    pools = {1: [LEAF]}
    for m in range(2, n + 1):
        pools[m] = []
        for skel in skeletons:
            for comp in itertools.product(range(1, m), repeat=len(skel)):
                if sum(comp) != m:
                    continue
                for kids in itertools.product(*[pools[c] for c in comp]):
                    if skel in binary and kids[-1].skeleton == skel:
                        continue
                    pools[m].append(DecompTree(skel, kids))
    return pools[n]


def test_closure_trees_match_the_reference():
    for k in (2, 4, 5):
        for n in range(1, 9):
            assert closure_trees(n, k) == reference_closure_trees(n, k)


def test_separable_distribution_counts_are_large_schroeder_numbers():
    # r_0 = 1, r_m = r_(m-1) + sum_(i<m) r_i r_(m-1-i); S_n has r_(n-1) separable members.
    r = [1]
    for m in range(1, 13):
        r.append(r[-1] + sum(r[i] * r[m - 1 - i] for i in range(m)))
    assert r[:6] == [1, 2, 6, 22, 90, 394]  # OEIS A006318
    assert r[12] == 27297738
    # n = 13 is past the enumeration bound; the series route needs none.
    for n in range(1, 14):
        assert closure_distribution(n, 2).evaluate_at_one() == r[n - 1]


def test_closure_distribution_is_capped_by_series_order_alone():
    # Refused below order 1 and past its own cap before any work.
    for k in (2, 5):
        with pytest.raises(ValueError):
            closure_distribution(0, k)
        with pytest.raises(ResourceBoundError):
            closure_distribution(orbits.MAX_CLOSURE_SERIES_N + 1, k)


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
    # The tree route: group the trees by the text of each one's minimal
    # representative, tallied with des_ides of the rebuilt permutation, and
    # read each class's signature off that representative.
    for n in range(1, 9):
        rep = closure_class_report(n)
        assert rep.ok, rep.failures
        assert rep.expansion.is_positive()
        groups = {}
        signatures = {}
        for t in closure_trees(n, 5):
            de = des_ides(reconstruct(t))
            nf = minimal_representative(t)
            label = tree_text(nf)
            groups.setdefault(label, Counter())[de] += 1
            sig = signature_of(nf)
            assert signatures.setdefault(label, sig) == sig
        assert rep.labels == sorted(groups)
        for label, rec in zip(rep.labels, rep.classes, strict=True):
            assert rec.distribution == BivarPoly(groups[label])
            assert rec.size == sum(groups[label].values())
            assert rec.signature == signatures[label]
        # Classes with one basis element share its polynomial, and equal
        # signatures are one object.
        by_ij = {(rec.signature.gamma_i, rec.signature.gamma_j) for rec in rep.classes}
        assert len({id(rec.distribution) for rec in rep.classes}) == len(by_ij)
        assert len({id(rec.signature) for rec in rep.classes}) == len(set(rec.signature for rec in rep.classes))


def test_one_class_sweep_matches_the_reports_of_each_size():
    # The sweep packs every size at the top size's width.
    assert list(closure_class_reports(7)) == [closure_class_report(n) for n in range(1, 8)]


def test_a_class_that_fails_keeps_its_own_tally_for_its_parents(monkeypatch):
    # One tally at n = 4 is shifted by one descent in the DP itself: the
    # check does not put the right basis element in its place, so the
    # classes of n = 5 built from it fail too.
    real = orbits._class_tallies

    def broken(n):
        pack = _tally_packing(n)
        for m, classes in enumerate(real(n), 1):
            if m == 4:
                label = min(classes)
                tally, counts = classes[label]
                classes[label] = tally << pack.shift(1, 0), counts
            yield classes

    monkeypatch.setattr(orbits, "_class_tallies", broken)
    reports = list(closure_class_reports(5))
    assert [report.ok for report in reports] == [True, True, True, False, False]
    assert any(f.endswith(": distribution is not the expected basis element")
               for f in reports[4].failures)


def test_classes_that_pass_share_one_tally_per_basis_element(monkeypatch):
    # Once a size is checked, its classes hold one shared int per (i, j),
    # which the DP multiplies in place of their own equal tallies.
    real = orbits._class_tallies
    sizes = []

    def kept(n):
        for classes in real(n):
            sizes.append(classes)
            yield classes

    monkeypatch.setattr(orbits, "_class_tallies", kept)
    for report in closure_class_reports(7):
        exponents = {(kind.signature.gamma_i, kind.signature.gamma_j) for kind in report.classes}
        assert len({id(tally) for tally, _ in sizes[-1].values()}) == len(exponents)
    assert len(sizes) == 7


def test_tally_packing_at_the_widest_size():
    n = 11
    pack = _tally_packing(n)
    assert (pack.width, pack.stride) == (math.factorial(n).bit_length() + 1, n)
    counts = BivarPoly({(0, 0): 1, (3, 7): 12345, (n - 1, 0): 2, (0, n - 1): 5, (n - 1, n - 1): 1})
    tally = pack.pack(counts)
    assert pack.unpack(tally) == counts
    assert pack.size(tally) == counts.evaluate_at_one()
    # x^d y^e times a tally is a shift, landing on the top slot.
    top = BivarPoly.monomial(1, n - 1, n - 1)
    assert pack.unpack(1 << pack.shift(n - 1, n - 1)) == top
    assert pack.unpack(pack.pack({(0, 0): 3}) << pack.shift(n - 1, n - 1)) == top * 3
    # The digit sum stays exact up to a total of n!.
    big = BivarPoly({(0, 0): 1, (5, 5): 999, (n - 1, n - 1): math.factorial(n) - 1000})
    assert pack.size(pack.pack(big)) == math.factorial(n)
    assert pack.unpack(pack.pack(big)) == big
    assert pack.pack({}) == 0
    assert pack.unpack(0) == BivarPoly()
    assert pack.size(0) == 0


def test_closure_and_reduction_refuse_past_the_budget():
    # Only the library guards these calls: no CLI check runs in front of them.
    # The tree route stops one size below the enumeration cap, before any
    # pool is built.
    assert orbits.MAX_CLOSURE_TREE_N == 11
    for call in (lambda: closure_trees(13, 2), lambda: closure_class_report(13),
                 lambda: verify_reduction(13), lambda: closure_trees(12, 2),
                 lambda: closure_trees(12, 5), lambda: closure_class_report(12)):
        start = time.perf_counter()
        with pytest.raises(ResourceBoundError):
            call()
        assert time.perf_counter() - start < 1.0


def three_walk_signature(minimal):
    """Node counts by a node walk, the chain partition and a leaf count."""
    counts = Counter(len(sub.skeleton) for _, sub in iter_nodes(minimal) if sub.skeleton)
    n21 = sum(1 for _, sub in iter_nodes(minimal) if sub.skeleton == (2, 1))
    return (leaf_count(minimal), n21, counts[4], counts[5],
            binary_right_chains(minimal).odd_chain_count)


def test_signature_of_matches_three_walks_for_every_class():
    for n in range(1, 9):
        classes = {minimal_representative(t) for t in closure_trees(n, 5)}
        for m in classes:
            sig = signature_of(m)
            assert (sig.n, sig.n21, sig.n4, sig.n5, sig.odd_chains) == three_walk_signature(m)
        assert len(classes) == len(closure_class_report(n).classes)


def test_signature_of_rejects_long_skeletons():
    with pytest.raises(ValueError):
        signature_of(decompose((2, 4, 6, 1, 3, 5)))


# ---------------------------------------------------------------------------
# shape factorization
# ---------------------------------------------------------------------------

def test_simplified_polynomial_base_cases():
    assert simplified_class_polynomial("2[.,.]") == ONE_PLUS_ST
    assert simplified_class_polynomial("4[.,.,.,.]") == simple_distribution(4).poly
    assert simple_distribution(4).poly == ST * S_PLUS_T
    # Even chain of two binary nodes along rightmost-child links.
    assert simplified_class_polynomial("2[.,2[.,.]]") == ST * 2
    # A binary node hanging off a left child starts its own odd chain.
    assert simplified_class_polynomial("2[2[.,.],.]") == ONE_PLUS_ST * ONE_PLUS_ST
    assert simplified_class_polynomial(".") == BivarPoly.const(1)


def test_simplified_polynomial_rejects_length_three():
    with pytest.raises(StructureError):
        simplified_class_polynomial("3[.,.,.]")
    with pytest.raises(StructureError):
        orbits._factor_key("3[.,.,.]")


@pytest.mark.parametrize("text", ["4[.,.]", "x", "", "2[.,.]2[.,.]", "2[.,.],."])
def test_simplified_polynomial_rejects_a_malformed_text(text):
    with pytest.raises(StructureError):
        simplified_class_polynomial(text)


def test_simplified_groups_of_s3():
    groups = {}
    for p in all_perms(3):
        groups.setdefault(simplified_text(decompose(p)), []).append(p)
    assert len(groups) == 2
    for shape, members in groups.items():
        dist = joint_distribution(members, 3).poly
        assert dist == simplified_class_polynomial(shape)


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


def tree_oracle_groups(n):
    groups = {}
    for p in all_perms(n):
        groups.setdefault(reference_shape_text(decompose(p)), Counter())[des_ides(p)] += 1
    return {text: BivarPoly(tally) for text, tally in groups.items()}


def test_complement_keeps_the_simplified_tree_and_mirrors_des_ides():
    # _simplified_groups walks the first values a < n+1-a and mirrors the rest.
    for n in range(1, 9):
        for p in all_perms(n):
            q = complement(p)
            assert simplified_text(decompose(q)) == simplified_text(decompose(p)), p
            d, e = des_ides(p)
            assert des_ides(q) == (n - 1 - d, n - 1 - e), p


def test_reduction_groups_match_the_tree_oracle(monkeypatch):
    # The oracle builds every tree of S_n, with no mirroring; the groups come
    # from root splits and an index of shorter patterns' shapes, over half of
    # S_n plus the self-complementary middle shard at odd n.
    for n in range(1, 9):
        assert _simplified_groups(n) == tree_oracle_groups(n), n
    # Parts longer than the index keeps are split again where they occur.
    monkeypatch.setattr(orbits, "_SHAPE_MEMO_MAX", 3)
    assert _simplified_groups(7) == tree_oracle_groups(7)
    index = orbits._ShapeIndex(7)
    for p in all_perms(7):
        index.key(bytes(p))
    assert max(map(len, index)) == 3


def shape_tuple(text):
    """The nested-tuple shape that ``text`` writes: a leaf is ``()`` and a
    node the tuple of its children's shapes."""
    open_nodes = [[]]
    for token in re.findall(r"[0-9]+\[|\.|\]", text):
        if token == ".":
            open_nodes[-1].append(())
        elif token == "]":
            done = tuple(open_nodes.pop())
            open_nodes[-1].append(done)
        else:
            open_nodes.append([])
    (shape,) = open_nodes[0]
    return shape


def factor_key_reference(st):
    """`orbits._factor_key` as a walk of the nested-tuple shape ``st``: each
    entry carries the length of the right chain it continues (0 if none), so
    a chain is counted at the node that ends it."""
    lengths, chains = [], []
    stack = [(st, 0)]
    while stack:
        nd, position = stack.pop()
        k = len(nd)
        if k == 2:
            stack.append((nd[0], 0))
            stack.append((nd[1], position + 1))
            continue
        if position:
            chains.append(position)
        if k == 3:
            raise StructureError("shape has a node of length 3")
        if k >= 4:
            lengths.append(k)
        stack.extend([(c, 0) for c in nd])
    return tuple(sorted(lengths)), tuple(sorted(chains))


def test_factor_key_matches_the_tuple_walk():
    # Every shape of S_n, n <= 9, read back into tuples: the text scan and
    # the tuple walk find the same node lengths and chain lengths.
    for n in range(1, 10):
        for text in _simplified_groups(n):
            st = shape_tuple(text)
            assert reference_simplified_text(st) == text
            assert orbits._factor_key(text) == factor_key_reference(st), text


def factor_product_reference(st, simple_polys):
    """`simplified_class_polynomial` as first written: one factor per node of
    length >= 4 and per binary right chain, multiplied in walk order."""
    result = BivarPoly.const(1)
    stack = [(st, False)]
    while stack:
        nd, under = stack.pop()
        if len(nd) >= 4:
            if len(nd) not in simple_polys:
                simple_polys[len(nd)] = simple_distribution(len(nd)).poly
            result = result * simple_polys[len(nd)]
        if len(nd) == 2 and not under:
            length, cur = 0, nd
            while len(cur) == 2:
                length, cur = length + 1, cur[-1]
            half, odd = divmod(length, 2)
            result = result * ST ** half * (ONE_PLUS_ST if odd else BivarPoly.const(2))
        stack.extend((c, len(nd) == 2 and i == 1) for i, c in enumerate(nd))
    return result


def test_reduction_products_shared_by_factor_key_match_the_direct_product():
    # verify_reduction builds one product per _factor_key; a key that forgot
    # a factor would hand one group another group's product.
    products, simple_polys = {}, {}
    groups = 0
    for n in range(1, 9):
        for text in _simplified_groups(n):
            groups += 1
            key = orbits._factor_key(text)
            if key not in products:
                products[key] = orbits._factor_product(key)
            assert products[key] == factor_product_reference(shape_tuple(text), simple_polys), text
    assert (groups, len(products)) == (1608, 74)


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
