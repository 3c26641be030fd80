"""Acceptance suite: one test per criterion, everything exact, zero tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints an ACCEPTANCE line on success.
"""
import itertools
import random
import time

from gammalab.orbits import (
    closure_class_report,
    closure_permutations,
    verify_reduction,
)
from gammalab.permutations import (
    des,
    des_ides,
    eulerian_distribution,
    ides,
    inflate,
    simple_distribution,
)
from gammalab.polys import (
    ST,
    S_PLUS_T,
    BivarPoly,
    UniPoly,
    gamma_basis_bivariate,
    gamma_expand_bivariate,
    gamma_expand_univariate,
    is_palindromic_bivariate,
)
from gammalab.series import (
    rsk_two_sided_eulerian,
    simple_series,
    verify_system_identities,
)
from gammalab.trees import decompose, in_closure, is_canonical, reconstruct

A4 = BivarPoly({(0, 0): 1, (1, 1): 10, (2, 2): 10, (3, 3): 1, (1, 2): 1, (2, 1): 1})


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def report(line):
    print(f"ACCEPTANCE {line}: PASS")


def test_criterion_01_two_sided_eulerian_s4():
    start = time.time()
    dist = eulerian_distribution(4)
    elapsed = time.time() - start
    assert dist.poly == A4
    assert dist.poly.text() == "1 + 10*s*t + s*t^2 + s^2*t + 10*s^2*t^2 + s^3*t^3"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report("1 A_4(s,t) from full enumeration, < 1 s")


def test_criterion_02_simple_polynomials_both_routes():
    start = time.time()
    expected = {
        4: ST * S_PLUS_T,
        5: ST * ST * 6,
    }
    by_enum = {n: simple_distribution(n).poly for n in (4, 5, 6)}
    S = simple_series(6, method="inversion")
    by_inv = {n: S.coeff(n) for n in (4, 5, 6)}
    for n in (4, 5):
        assert by_enum[n] == expected[n]
        assert by_inv[n] == expected[n]
    for route in (by_enum, by_inv):
        e = gamma_expand_bivariate(route[6], 5)
        assert e.as_dict() == {(1, 2): 1, (2, 0): 5, (2, 1): 14}
    elapsed = time.time() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report("2 simple polynomials for n=4,5,6 by both routes, < 5 s")


def test_criterion_03_gamma_positivity_sweep():
    start = time.time()
    S = simple_series(12, method="inversion")
    for n in range(4, 13):
        coeff = S.coeff(n)
        assert is_palindromic_bivariate(coeff, n - 1), n
        expansion = gamma_expand_bivariate(coeff, n - 1)
        assert expansion.is_positive(), f"negative gamma coefficient at n={n}"
        assert all(c >= 0 for _, c in coeff.terms())
    elapsed = time.time() - start
    assert elapsed < 120.0, f"inversion sweep took {elapsed:.2f}s"
    # Direct-enumeration cross-check for n <= 10; the prefix-state DP is
    # compared with the inversion route up to its cap, n = 12, in
    # tests/test_permutations.py.
    for n in range(4, 11):
        assert S.coeff(n) == simple_distribution(n, threads=0).poly, n
    report("3 gamma-positivity sweep n=4..12 (inversion), cross-check n<=10")


def test_criterion_04_oracle_equivalence():
    S_inv = simple_series(9, method="inversion")
    S_enum = simple_series(9, method="enumerate")
    for n in range(1, 10):
        assert S_inv.coeff(n) == S_enum.coeff(n), n
    for n in range(1, 9):
        assert rsk_two_sided_eulerian(n) == eulerian_distribution(n).poly, n
    report("4 inversion = enumeration (n<=9); tableau oracle = S_n tally (n<=8)")


def test_criterion_05_bijection_suite():
    start = time.time()
    for n in range(1, 9):
        seen = set()
        for p in all_perms(n):
            t = decompose(p)
            assert reconstruct(t) == p
            assert is_canonical(t)
            seen.add(t)
        assert len(seen) == len(list(all_perms(n)))
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report("5 decompose/reconstruct bijection on all S_n, n<=8, < 1 min")


def test_criterion_06_class_suite():
    for n in range(1, 10):
        rep = closure_class_report(n)
        assert rep.ok, f"n={n}: {rep.failures}"
        for rec in rep.classes:
            assert rec.size == rec.signature.orbit_size()
            assert rec.signature.node_count_identity_holds()
        assert rep.expansion.is_positive(), n
    report("6 orbit classes n<=9: sizes, node-count identity, basis elements, positivity")


def test_criterion_07_reduction_suite():
    for n in range(1, 9):
        rep = verify_reduction(n)
        assert rep.ok, f"n={n}: {rep.failures}"
        if n == 4:
            assert rep.total == A4
    report("7 simplified-tree factor products partition S_n, n<=8")


def test_criterion_08_system_suite():
    rep = verify_system_identities(10)
    assert rep.ok, rep.failures()
    report("8 series system, solutions, inverse formula, symmetries at order 10")


def test_criterion_09_property_suites():
    rng = random.Random(20260808)
    # Additivity of both statistics under inflation, 10^4 random cases.
    for _ in range(10_000):
        k = rng.randint(2, 6)
        skeleton = tuple(rng.sample(range(1, k + 1), k))
        parts = []
        for _ in range(k):
            m = rng.randint(1, 5)
            parts.append(tuple(rng.sample(range(1, m + 1), m)))
        whole = inflate(skeleton, parts)
        d, e = des_ides(whole)
        assert d == des(skeleton) + sum(des(a) for a in parts)
        assert e == ides(skeleton) + sum(ides(a) for a in parts)
    # Gamma expand/reconstruct round trip, 10^3 random palindromic inputs.
    for _ in range(1_000):
        m = rng.randint(0, 12)
        gammas = {}
        poly = BivarPoly()
        for i in range(m // 2 + 1):
            for j in range(m - 2 * i + 1):
                c = rng.randint(-9, 9)
                if c:
                    gammas[(i, j)] = c
                    poly = poly + gamma_basis_bivariate(i, j, m) * c
        expansion = gamma_expand_bivariate(poly, m)
        assert expansion.as_dict() == gammas
        assert expansion.reconstruct() == poly
        assert all(isinstance(c, int) for _, c in poly.terms())
    report("9 seeded property suites: 10^4 inflations, 10^3 gamma round trips, exact")


def test_criterion_10_separable_suite():
    schroeder = [1, 2, 6, 22, 90, 394, 1806]
    for n, expected in zip(range(1, 8), schroeder):
        assert sum(1 for p in all_perms(n) if in_closure(p, 2)) == expected
    for n in range(1, 10):
        for p in closure_permutations(n, 2):
            d, e = des_ides(p)
            assert d == e
    for n in range(1, 11):
        counts = {}
        for p in closure_permutations(n, 2):
            d = des(p)
            counts[d] = counts.get(d, 0) + 1
        expansion = gamma_expand_univariate(UniPoly(counts), n - 1)
        assert expansion.is_positive(), n
    report("10 separable counts, des = ides (n<=9), univariate positivity (n<=10)")
