"""Core permutation statistics, blocks, inflation and enumeration."""
import itertools
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import random_separable

from gammalab.errors import DistributionError, ParseError, ResourceBoundError
from gammalab.permutations import (
    JointDistribution,
    _simple_counts,
    _tally_packing,
    check_permutation,
    complement,
    des,
    des_ides,
    descent_set,
    direct_sum,
    enumerate_permutations,
    enumerate_simple,
    eulerian_distribution,
    format_permutation,
    ides,
    inflate,
    inverse,
    is_block,
    is_simple,
    is_skew_indecomposable,
    is_sum_indecomposable,
    joint_distribution,
    parse_permutation,
    simple_distribution,
    skew_sum,
    standardize,
)
from gammalab.polys import BivarPoly, Packing
from gammalab.series import rsk_two_sided_eulerian, simple_series

A4 = BivarPoly({(0, 0): 1, (1, 1): 10, (2, 2): 10, (3, 3): 1, (1, 2): 1, (2, 1): 1})


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


# ---------------------------------------------------------------------------
# oracles: direct restatements of the definitions, kept deliberately naive
# ---------------------------------------------------------------------------

def oracle_is_interval(p, i, j):
    seg = p[i - 1:j]
    return set(seg) == set(range(min(seg), max(seg) + 1))


def oracle_is_simple(p):
    n = len(p)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if 1 < j - i + 1 < n and oracle_is_interval(p, i, j):
                return False
    return True


# ---------------------------------------------------------------------------
# descent statistics
# ---------------------------------------------------------------------------

def test_descent_set_examples():
    assert descent_set((2, 4, 6, 1, 3, 5)) == {3}
    assert descent_set(tuple(range(1, 8))) == set()
    assert descent_set((3, 2, 1)) == {1, 2}


def test_des_ides_examples():
    assert des((2, 4, 6, 1, 3, 5)) == 1
    assert ides((2, 4, 6, 1, 3, 5)) == 3
    for n in (1, 2, 5):
        ident = tuple(range(1, n + 1))
        assert des(ident) == 0 and ides(ident) == 0
    assert des_ides((2, 4, 1, 3)) == (1, 2)
    assert des_ides((3, 1, 4, 2)) == (2, 1)


def test_des_ides_agree_with_definitions():
    for n in range(1, 7):
        for p in all_perms(n):
            d, e = des_ides(p)
            assert d == len(descent_set(p))
            assert e == len(descent_set(inverse(p)))


def test_inverse():
    assert inverse((2, 4, 1, 3)) == (3, 1, 4, 2)
    assert inverse((1, 2, 3)) == (1, 2, 3)
    assert descent_set(inverse((2, 4, 6, 1, 3, 5))) == {1, 3, 5}
    for n in range(1, 7):
        for p in all_perms(n):
            assert inverse(inverse(p)) == p


def test_complement():
    assert complement((2, 4, 1, 3)) == (3, 1, 4, 2)
    assert complement((1, 2, 3, 4)) == (4, 3, 2, 1)
    assert complement((2, 4, 1, 5, 3)) == (4, 2, 5, 1, 3)
    assert is_simple((2, 4, 1, 5, 3)) and is_simple((4, 2, 5, 1, 3))


def test_complement_statistic_identities():
    for n in range(1, 7):
        for p in all_perms(n):
            q = complement(p)
            assert des(q) == n - 1 - des(p)
            assert ides(q) == n - 1 - ides(p)
            assert len(descent_set(p)) + len(descent_set(q)) == n - 1


# ---------------------------------------------------------------------------
# blocks and simplicity
# ---------------------------------------------------------------------------

def test_is_block_examples():
    p = (2, 6, 4, 7, 5, 1, 3)
    assert is_block(p, 2, 5)        # 6475
    assert not is_block(p, 2, 6)    # 64751
    assert is_block(p, 1, 7)
    assert is_block(p, 4, 4)
    with pytest.raises(ValueError):
        is_block(p, 0, 3)
    with pytest.raises(ValueError):
        is_block(p, 3, 8)
    with pytest.raises(ValueError):
        is_block(p, 5, 2)


def test_is_block_matches_interval_oracle():
    for n in range(1, 7):
        for p in all_perms(n):
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    assert is_block(p, i, j) == oracle_is_interval(p, i, j)


def test_is_simple_examples():
    assert is_simple((3, 5, 1, 7, 2, 4, 6))
    assert all(not is_simple(p) for p in all_perms(3))
    simple4 = [p for p in all_perms(4) if is_simple(p)]
    assert simple4 == [(2, 4, 1, 3), (3, 1, 4, 2)]
    assert is_simple((2, 4, 6, 1, 3, 5))
    # q = 2 4 ... 2k 1 3 ... 2k-1 at k = 1000, ten times the longest in
    # `long_inputs`, where the O(n^3) oracle cannot follow.
    assert is_simple(tuple(range(2, 2001, 2)) + tuple(range(1, 2000, 2)))


def long_inputs():
    """Seeded inputs far longer than the exhaustive checks reach: random
    permutations of lengths 64 and 256, random separable ones, the simple
    q = 2 4 ... 2k 1 3 ... 2k-1, and the sum, skew sum and 2413-inflation of
    copies of q, which have no adjacent values either and so reach the
    root split in `is_simple`."""
    rng = random.Random(7)
    inputs = [tuple(rng.sample(range(1, n + 1), n)) for n, count in ((64, 8), (256, 3))
              for _ in range(count)]
    inputs += [random_separable(rng, n) for n in (64, 256) for _ in range(4)]
    for k in (*range(1, 11), 25, 50, 100):
        q = tuple(range(2, 2 * k + 1, 2)) + tuple(range(1, 2 * k, 2))
        inputs.append(q)
        if k in (5, 25):
            inputs += [direct_sum(q, q), skew_sum(q, q), inflate((2, 4, 1, 3), [q] * 4)]
    return inputs


def test_is_simple_matches_block_scan_oracle():
    for n in range(1, 8):
        for p in all_perms(n):
            assert is_simple(p) == oracle_is_simple(p)
    for p in long_inputs():
        assert is_simple(p) == oracle_is_simple(p), p


def test_indecomposability():
    assert not is_sum_indecomposable((1, 2, 3))
    assert is_skew_indecomposable((1, 2, 3))
    assert is_sum_indecomposable((2, 1))
    assert not is_skew_indecomposable((2, 1))
    assert is_sum_indecomposable((2, 4, 1, 3))
    assert is_skew_indecomposable((2, 4, 1, 3))


def test_indecomposability_matches_prefix_oracle():
    for p in itertools.chain(*map(all_perms, range(1, 7)), long_inputs()):
        n = len(p)
        sum_dec = any(set(p[:i]) == set(range(1, i + 1)) for i in range(1, n))
        skew_dec = any(set(p[:i]) == set(range(n - i + 1, n + 1)) for i in range(1, n))
        assert is_sum_indecomposable(p) == (not sum_dec), p
        assert is_skew_indecomposable(p) == (not skew_dec), p


# ---------------------------------------------------------------------------
# sums and inflation
# ---------------------------------------------------------------------------

def test_sum_examples():
    assert direct_sum((1, 3, 2), (4, 2, 3, 1)) == (1, 3, 2, 7, 5, 6, 4)
    assert skew_sum((1, 3, 2), (4, 2, 3, 1)) == (5, 7, 6, 4, 2, 3, 1)
    assert direct_sum((1,), (1,)) == (1, 2)
    assert skew_sum((1,), (1,)) == (2, 1)


def test_sums_are_binary_inflations():
    perms = [list(all_perms(n)) for n in range(0, 8)]
    for m in range(1, 8):
        for n in range(1, 9 - m):
            for p in perms[m]:
                for q in perms[n]:
                    assert direct_sum(p, q) == inflate((1, 2), [p, q])
                    assert skew_sum(p, q) == inflate((2, 1), [p, q])


def test_inflate_examples():
    assert inflate((2, 4, 1, 3), [(2, 1, 3), (2, 1), (1, 3, 2), (1,)]) == \
        (5, 4, 6, 9, 8, 1, 3, 2, 7)
    assert inflate((2, 4, 1, 3), [(3, 4, 1, 2), (2, 1), (1,), (1, 2)]) == \
        (4, 5, 2, 3, 9, 8, 1, 6, 7)
    for p in all_perms(4):
        assert inflate(p, [(1,)] * 4) == p
    with pytest.raises(ValueError):
        inflate((2, 1), [(1,)])


def test_inflate_blocks_are_order_isomorphic():
    # Each block must occupy consecutive positions, be a value interval, and
    # standardize back to its part.
    skeleton = (3, 1, 4, 2)
    parts = [(2, 1), (1, 2, 3), (1,), (2, 1, 3)]
    result = inflate(skeleton, parts)
    pos = 0
    for part in parts:
        seg = result[pos:pos + len(part)]
        assert standardize(seg) == part
        assert max(seg) - min(seg) == len(seg) - 1
        pos += len(seg)


def test_inflation_additivity_spot():
    skeleton = (2, 4, 1, 3)
    parts = [(2, 1, 3), (2, 1), (1, 3, 2), (1,)]
    whole = inflate(skeleton, parts)
    assert des(whole) == des(skeleton) + sum(des(a) for a in parts)
    assert ides(whole) == ides(skeleton) + sum(ides(a) for a in parts)


# ---------------------------------------------------------------------------
# enumeration and distributions
# ---------------------------------------------------------------------------

def test_enumerate_counts():
    assert sum(1 for _ in enumerate_simple(3)) == 0
    assert sum(1 for _ in enumerate_simple(4)) == 2
    assert sum(1 for _ in enumerate_simple(5)) == 6
    assert sum(1 for _ in enumerate_simple(6)) == 46
    assert len(list(enumerate_permutations(5))) == 120


def test_enumeration_is_lexicographic():
    seq = list(enumerate_permutations(4))
    assert seq == sorted(seq)
    assert seq[0] == (1, 2, 3, 4) and seq[-1] == (4, 3, 2, 1)


def test_enumeration_bound():
    with pytest.raises(ResourceBoundError):
        list(enumerate_permutations(13))
    with pytest.raises(ResourceBoundError):
        eulerian_distribution(13)
    start = time.perf_counter()
    with pytest.raises(ResourceBoundError):
        simple_distribution(13)
    assert time.perf_counter() - start < 1.0
    for threads in (0, 1, 2):
        with pytest.raises(ValueError):
            eulerian_distribution(0, threads=threads)
        with pytest.raises(ValueError):
            simple_distribution(0, threads=threads)


def test_joint_distribution_examples():
    assert eulerian_distribution(4).poly == A4
    assert simple_distribution(4).poly == BivarPoly({(1, 2): 1, (2, 1): 1})
    assert simple_distribution(5).poly == BivarPoly({(2, 2): 6})
    d = joint_distribution(enumerate_simple(3), 3)
    assert d.poly.is_zero() and d.count == 0


def test_joint_distribution_invariants():
    d = eulerian_distribution(5)
    d.check()
    assert d.count == 120
    assert d.poly.evaluate_at_one() == 120


def test_joint_distribution_check_rejects_wrong_count():
    d = eulerian_distribution(4)
    with pytest.raises(DistributionError, match="23"):
        JointDistribution(d.poly, 4, 23).check()
    with pytest.raises(DistributionError):
        JointDistribution(BivarPoly({(0, 0): 2, (1, 1): -1}), 2, 1).check()


def test_eulerian_dp_checks_its_packing(monkeypatch):
    # With slots too narrow for n = 8 (its largest coefficient is 8436), a
    # slot carries and the unpacked coefficients sum to less than 8!.  The
    # digit sum cannot see it: a carry leaves the tally mod 2**width - 1 alone.
    from gammalab import permutations

    monkeypatch.setattr(permutations, "_tally_packing", lambda n: Packing(10, n))
    assert Packing(10, 8).size(permutations._eulerian_counts(8)) == math.factorial(8) % 1023
    with pytest.raises(DistributionError):
        eulerian_distribution(8)


def test_joint_distribution_mixed_lengths():
    with pytest.raises(ValueError):
        joint_distribution([(1, 2), (1, 2, 3)])
    with pytest.raises(ValueError):
        joint_distribution([])


def test_eulerian_palindromic():
    for n in range(1, 8):
        poly = eulerian_distribution(n).poly
        m = n - 1
        for (p, q), v in poly.items():
            assert poly.coeff(q, p) == v
            assert poly.coeff(m - p, m - q) == v


def test_threads_is_unread_and_changes_nothing():
    for n in (1, 2, 7, 9):
        for dist, stream in ((eulerian_distribution, enumerate_permutations),
                             (simple_distribution, enumerate_simple)):
            expected = joint_distribution(stream(n), n)
            for threads in (0, 1, 2):
                assert dist(n, threads=threads) == expected


# A111111: the number of simple permutations of length n, n = 1..11.
SIMPLE_COUNTS = (1, 2, 0, 2, 6, 46, 338, 2926, 28146, 298526, 3454434)


def test_eulerian_dp_matches_enumeration_and_tableaux():
    for n in range(1, 9):
        assert eulerian_distribution(n) == joint_distribution(enumerate_permutations(n), n), n
    for n in range(1, 13):
        d = eulerian_distribution(n)
        assert d.poly == rsk_two_sided_eulerian(n), n
        assert d.count == math.factorial(n)
        d.check()


def test_simple_dp_matches_filtered_enumeration():
    for n in range(1, 10):
        expected = joint_distribution(filter(is_simple, enumerate_permutations(n)), n)
        assert simple_distribution(n) == expected, n


def test_simple_counts_match_a111111():
    for n, count in enumerate(SIMPLE_COUNTS, start=1):
        d = simple_distribution(n)
        assert d.count == count, n
        d.check()


def test_simple_dp_matches_the_inversion_route_up_to_the_cap():
    # Past the filtered enumeration above, the series route is the oracle.
    S = simple_series(12, method="inversion")
    for n in range(10, 13):
        assert simple_distribution(n).poly == S.coeff(n), n


def first_value_tally(n, a):
    return _tally_packing(n).unpack(_simple_counts(n, (a,)))


def test_every_first_value_matches_filtered_enumeration():
    for n in range(1, 9):
        simple = [p for p in enumerate_permutations(n) if is_simple(p)]
        for a in range(1, n + 1):
            expected = BivarPoly(Counter(des_ides(p) for p in simple if p[0] == a))
            assert first_value_tally(n, a) == expected, (n, a)
        if n >= 3:
            # The rest of 1 or of n is an interval, a block of length n - 1.
            assert _simple_counts(n, (1,)) == _simple_counts(n, (n,)) == 0


def test_complement_mirrors_every_first_value():
    # simple_distribution tallies only the first values a < n+1-a and the middle one.
    for n in range(1, 11):
        for a in range(1, n + 1):
            mirror = BivarPoly({(n - 1 - d, n - 1 - e): c
                                for (d, e), c in first_value_tally(n, n + 1 - a).items()})
            assert first_value_tally(n, a) == mirror, (n, a)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def test_parse_permutation_formats():
    assert parse_permutation("4 5 2 3 9 8 1 6 7") == (4, 5, 2, 3, 9, 8, 1, 6, 7)
    assert parse_permutation("4,5,2,3,9,8,1,6,7") == (4, 5, 2, 3, 9, 8, 1, 6, 7)
    assert parse_permutation("452398167") == (4, 5, 2, 3, 9, 8, 1, 6, 7)
    assert parse_permutation("1") == (1,)
    # Any whitespace separates entries: newlines, CRLF, tabs, mixed.
    assert parse_permutation("1\n2\n3\n4\n5\n") == (1, 2, 3, 4, 5)
    assert parse_permutation("2\r\n4\r\n1\r\n3") == (2, 4, 1, 3)
    assert parse_permutation("2\t4\n 1,\r\n3") == (2, 4, 1, 3)
    assert parse_permutation("10\n1\n2\n3\n4\n5\n6\n7\n8\n9") == (10,) + tuple(range(1, 10))
    assert format_permutation((4, 5, 2, 3)) == "4 5 2 3"


def test_parse_permutation_errors():
    for bad in ("", "4x2", "11", "1 2 2", "0 1", "2 4",
                # ASCII 0-9 only: no signs, underscores or other Unicode digits.
                "\u00b21", "\u2074", "1_0 2", "\u0661 \u0662", "-1 2", "+1", "1 \u00b2",
                "1" * 5000 + " 1",  # more digits than int() converts
                # A comma stands between two values: no empty field.
                "2,,1,3", ",2,1,3", "2,1,3,", "2, ,1,3", ",", "2 1,"):
        with pytest.raises(ParseError):
            parse_permutation(bad)
    for bad, position in (("2,,1,3", 2), (",2,1,3", 1), ("2,1,3,", 4)):
        with pytest.raises(ParseError, match=f"^empty permutation entry at position {position}$"):
            parse_permutation(bad)
    assert parse_permutation(" 4, 5, 2,1,3 ") == (4, 5, 2, 1, 3)


@settings(max_examples=400, deadline=None)
@given(st.text() | st.text(alphabet="0123456789 ,\t-+_\u00b2\u2074\u0661\uff11"))
def test_parse_permutation_returns_a_permutation_or_raises_parse_error(text):
    try:
        p = parse_permutation(text)
    except ParseError:
        return
    assert sorted(p) == list(range(1, len(p) + 1))


def test_check_permutation():
    assert check_permutation([2, 1]) == (2, 1)
    with pytest.raises(ValueError):
        check_permutation([1, 3])
    with pytest.raises(ValueError):
        check_permutation([])
    # The message names one value, not the whole tuple.
    for values, message in (([1] * 5000, "value 1 is repeated in a permutation of 1..5000"),
                            ([1, 10 ** 40, 2], "value 10000000000000000000... is not in 1..3"),
                            (list(range(1, 4000)) + [0], "value 0 is not in 1..4000")):
        with pytest.raises(ValueError) as info:
            check_permutation(values)
        assert str(info.value) == message
