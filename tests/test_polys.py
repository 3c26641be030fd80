"""Exact polynomial arithmetic, palindromicity, and gamma expansion.

The gamma expansion is cross-checked against a dense linear solve over exact
rationals, which never shares code with the production peel.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammalab.errors import ExpansionError
from gammalab.polys import (
    ONE,
    ONE_PLUS_ST,
    ST,
    S_PLUS_T,
    ZERO,
    BivarPoly,
    Packing,
    UniPoly,
    gamma_basis_bivariate,
    gamma_basis_univariate,
    gamma_expand_bivariate,
    gamma_expand_univariate,
    is_palindromic_bivariate,
    is_palindromic_univariate,
)

A4 = BivarPoly({(0, 0): 1, (1, 1): 10, (2, 2): 10, (3, 3): 1, (1, 2): 1, (2, 1): 1})
SIMP6 = BivarPoly({
    (1, 3): 1, (2, 2): 7, (3, 1): 1,
    (2, 3): 14, (3, 2): 14,
    (2, 4): 1, (3, 3): 7, (4, 2): 1,
})


# ---------------------------------------------------------------------------
# oracle: expand by solving the dense linear system with exact rationals
# ---------------------------------------------------------------------------

def oracle_gamma_solve(P, m):
    """Coefficients in the bivariate gamma basis via Gaussian elimination."""
    basis = [(i, j) for i in range(m // 2 + 1) for j in range(m - 2 * i + 1)]
    basis_polys = [gamma_basis_bivariate(i, j, m) for i, j in basis]
    monomials = sorted({key for poly in basis_polys for key, _ in poly.items()}
                       | {key for key, _ in P.items()})
    rows = [
        [Fraction(poly.coeff(p, q)) for poly in basis_polys] + [Fraction(P.coeff(p, q))]
        for p, q in monomials
    ]
    cols = len(basis)
    pivot_row = 0
    pivots = []
    for col in range(cols):
        found = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                found = r
                break
        if found is None:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        pivot = rows[pivot_row][col]
        rows[pivot_row] = [v / pivot for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    solution = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        solution[col] = rows[r][-1]
    for r in range(pivot_row, len(rows)):
        if rows[r][-1] != 0:
            raise ExpansionError("inconsistent system: polynomial outside the span")
    out = {}
    for (i, j), v in zip(basis, solution):
        if v:
            assert v.denominator == 1
            out[(i, j)] = int(v)
    return out


def random_palindromic(rng, max_darga=12):
    m = rng.randrange(0, max_darga + 1)
    poly = ZERO
    gammas = {}
    for i in range(m // 2 + 1):
        for j in range(m - 2 * i + 1):
            c = rng.randrange(-6, 7)
            if c:
                gammas[(i, j)] = c
                poly = poly + gamma_basis_bivariate(i, j, m) * c
    return poly, m, gammas


# ---------------------------------------------------------------------------
# arithmetic and rendering
# ---------------------------------------------------------------------------

def test_poly_arithmetic():
    p = BivarPoly({(1, 0): 2, (0, 1): 3})
    q = BivarPoly({(1, 0): -2, (1, 1): 1})
    assert (p + q) == BivarPoly({(0, 1): 3, (1, 1): 1})
    assert (p - p).is_zero()
    assert p * ZERO == ZERO
    assert p * ONE == p
    assert (S_PLUS_T ** 2) == BivarPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert ST * 3 == BivarPoly({(1, 1): 3})
    assert p.coeff(5, 5) == 0


def test_poly_never_stores_zeros():
    p = BivarPoly({(1, 1): 5}) + BivarPoly({(1, 1): -5})
    assert len(p) == 0 and p.is_zero()


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(-3, 3))
def test_results_equal_the_checking_constructor(data, k):
    # Each operation builds its result with `from_nonzero`; the checking
    # constructor drops zero sums, so equality also shows no zero is stored.
    P, Q = data.draw(bivar_polys(5)), data.draw(bivar_polys(5))
    pack = Packing(8, 8)
    assert -P == BivarPoly((m, -v) for m, v in P.items())
    assert P + Q == BivarPoly([*P.items(), *Q.items()])
    assert P - Q == BivarPoly([*P.items(), *((m, -v) for m, v in Q.items())])
    assert P * k == k * P == BivarPoly((m, v * k) for m, v in P.items())
    assert P * Q == BivarPoly(((p1 + p2, q1 + q2), v1 * v2)
                              for (p1, q1), v1 in P.items() for (p2, q2), v2 in Q.items())
    assert pack.unpack(pack.pack(P) - pack.pack(Q)) == P - Q
    assert BivarPoly.from_nonzero({(1, 2): 3}) == BivarPoly({(1, 2): 3})


def test_poly_text_form():
    assert A4.text() == "1 + 10*s*t + s*t^2 + s^2*t + 10*s^2*t^2 + s^3*t^3"
    assert ZERO.text() == "0"
    assert (ST * -1).text() == "-s*t"
    assert (ONE - ST).text() == "1 - s*t"
    assert BivarPoly({(2, 0): 1}).text() == "s^2"


def test_poly_json_terms():
    assert BivarPoly({(1, 2): 3}).json_terms() == [{"s": 1, "t": 2, "c": 3}]


def test_poly_evaluate_at_one():
    assert A4.evaluate_at_one() == 24


# ---------------------------------------------------------------------------
# Kronecker packing
# ---------------------------------------------------------------------------

def l1_norm(P):
    return sum(abs(v) for _, v in P.items())


def t_degree(P):
    return max((q for (_, q), _ in P.items()), default=-1)


def bivar_polys(max_coeff):
    monomials = st.tuples(st.integers(0, 7), st.integers(0, 7))
    coeffs = st.integers(-max_coeff, max_coeff)
    return st.dictionaries(monomials, coeffs, max_size=12).map(BivarPoly)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(2, 130), st.integers(1, 9))
def test_packing_round_trip_at_the_widest_digits(data, width, stride):
    # Every coefficient is +-(2**(width-1) - 1), the largest the width holds,
    # so neighbouring digits borrow from each other in both directions.
    top = (1 << (width - 1)) - 1
    monomials = st.tuples(st.integers(0, 6), st.integers(0, stride - 1))
    signs = data.draw(st.dictionaries(monomials, st.booleans(), max_size=30))
    P = BivarPoly({key: top if positive else -top for key, positive in signs.items()})
    pack = Packing(width, stride)
    assert pack.unpack(pack.pack(P)) == P
    assert pack.unpack(-pack.pack(P)) == -P


@settings(max_examples=300, deadline=None)
@given(bivar_polys(10 ** 12), bivar_polys(10 ** 3))
def test_packed_product_is_the_dict_product(P, Q):
    # The layout that the product's l1 bound and t-degree bound prove.
    bound = l1_norm(P) * l1_norm(Q)
    pack = Packing((bound.bit_length() or 1) + 1, max(t_degree(P) + t_degree(Q) + 1, 1))
    assert pack.unpack(pack.pack(P) * pack.pack(Q)) == P * Q


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 2 ** 70), st.integers(1, 2 ** 40), st.booleans(),
       st.tuples(st.integers(0, 5), st.integers(0, 5)),
       st.tuples(st.integers(0, 5), st.integers(0, 5)))
def test_product_at_exactly_its_l1_bound(a, b, negative, m1, m2):
    # One monomial times another: the product's coefficient is the l1 bound
    # itself, the one case where the bound is tight, so the width the bound
    # gives is the narrowest that holds it when it is positive.  (The signed
    # digits reach down to -2**(width-1), so a negative power of two would
    # still fit a bit narrower.)
    P = BivarPoly({m1: -a if negative else a})
    Q = BivarPoly({m2: b})
    bound = l1_norm(P) * l1_norm(Q)
    product = P * Q
    assert l1_norm(product) == bound
    pack = Packing(bound.bit_length() + 1, m1[1] + m2[1] + 1)
    assert pack.unpack(pack.pack(P) * pack.pack(Q)) == product
    narrower = Packing(bound.bit_length(), m1[1] + m2[1] + 1)
    assert negative or narrower.unpack(narrower.pack(P) * narrower.pack(Q)) != product


def test_packing_reads_a_tally():
    pack = Packing(4, 3)
    tally = pack.pack({(0, 1): 2, (2, 0): 5})
    assert pack.size(tally) == 7
    assert pack.from_slots([0, 2, 0, 0, 0, 0, 5, 0, 0]) == pack.unpack(tally)
    assert pack.shift(2, 1) == 4 * 7
    with pytest.raises(ValueError):
        Packing(1, 3)  # one bit holds no positive signed digit


# ---------------------------------------------------------------------------
# palindromicity
# ---------------------------------------------------------------------------

def test_palindromic_examples():
    assert is_palindromic_bivariate(A4, 3)
    assert is_palindromic_bivariate(S_PLUS_T, 1)
    assert not is_palindromic_bivariate(S_PLUS_T, 2)
    assert not is_palindromic_bivariate(BivarPoly({(2, 1): 1}), 3)
    assert is_palindromic_bivariate(ZERO, 0)
    assert is_palindromic_bivariate(ZERO, 7)


# ---------------------------------------------------------------------------
# bivariate gamma expansion
# ---------------------------------------------------------------------------

def test_gamma_expand_simp6():
    e = gamma_expand_bivariate(SIMP6, 5)
    assert e.as_dict() == {(1, 2): 1, (2, 0): 5, (2, 1): 14}
    assert e.is_positive()
    assert e.reconstruct() == SIMP6


def test_gamma_expand_a4():
    e = gamma_expand_bivariate(A4, 3)
    assert e.as_dict() == {(0, 0): 1, (1, 0): 7, (1, 1): 1}
    assert e.is_positive()


def test_gamma_expand_basis_elements():
    for m in range(0, 7):
        for i in range(m // 2 + 1):
            for j in range(m - 2 * i + 1):
                e = gamma_expand_bivariate(gamma_basis_bivariate(i, j, m), m)
                assert e.as_dict() == {(i, j): 1}


def test_gamma_expand_rejects_asymmetric():
    with pytest.raises(ExpansionError, match="symmetric"):
        gamma_expand_bivariate(BivarPoly({(2, 1): 1}), 3)
    with pytest.raises(ExpansionError, match="darga"):
        gamma_expand_bivariate(S_PLUS_T, 2)


def test_gamma_negative_detected():
    combo = gamma_basis_bivariate(1, 0, 2) - gamma_basis_bivariate(0, 2, 2)
    e = gamma_expand_bivariate(combo, 2)
    assert e.as_dict() == {(0, 2): -1, (1, 0): 1}
    assert not e.is_positive()


def test_gamma_expand_matches_dense_solve():
    rng = random.Random(421)
    cases = [(A4, 3), (SIMP6, 5)]
    for _ in range(60):
        poly, m, _ = random_palindromic(rng, max_darga=8)
        cases.append((poly, m))
    for poly, m in cases:
        assert gamma_expand_bivariate(poly, m).as_dict() == oracle_gamma_solve(poly, m)


def test_gamma_roundtrip_recovers_generators():
    rng = random.Random(99)
    for _ in range(40):
        poly, m, gammas = random_palindromic(rng)
        e = gamma_expand_bivariate(poly, m)
        assert e.as_dict() == gammas
        assert e.reconstruct() == poly


def test_gamma_json_form():
    e = gamma_expand_bivariate(SIMP6, 5)
    assert e.json_form() == {
        "darga": 5,
        "gamma": [{"i": 1, "j": 2, "c": 1}, {"i": 2, "j": 0, "c": 5}, {"i": 2, "j": 1, "c": 14}],
    }


# ---------------------------------------------------------------------------
# univariate
# ---------------------------------------------------------------------------

def test_univariate_examples():
    e = gamma_expand_univariate(UniPoly({0: 1, 1: 1}), 1)
    assert e.as_dict() == {0: 1}
    a4q = UniPoly({0: 1, 1: 11, 2: 11, 3: 1})
    e = gamma_expand_univariate(a4q, 3)
    assert e.as_dict() == {0: 1, 1: 8}
    assert e.reconstruct() == a4q


def test_univariate_rejects_non_palindromic():
    assert not is_palindromic_univariate(UniPoly({0: 1, 1: 2}), 1)
    with pytest.raises(ExpansionError):
        gamma_expand_univariate(UniPoly({0: 1, 1: 2}), 1)


def test_univariate_basis_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randrange(0, 13)
        gammas = {}
        poly = UniPoly()
        for j in range(m // 2 + 1):
            c = rng.randrange(-5, 6)
            if c:
                gammas[j] = c
                poly = poly + gamma_basis_univariate(j, m) * c
        e = gamma_expand_univariate(poly, m)
        assert e.as_dict() == gammas
        assert e.reconstruct() == poly


def test_unipoly_text():
    assert UniPoly({0: 1, 1: 11, 2: 11, 3: 1}).text() == "1 + 11*q + 11*q^2 + q^3"
    assert UniPoly().text() == "0"
    assert (UniPoly({1: 1}) * -3 + UniPoly({0: 2})).text() == "2 - 3*q"


def test_unipoly_arithmetic_matches_bivariate_in_s():
    f, g = UniPoly({0: 1, 2: -3}), UniPoly({1: 2, 3: 1})
    F, G = (BivarPoly({(k, 0): v for k, v in h.items()}) for h in (f, g))
    for uni, bi in ((f + g, F + G), (f * g, F * G), (f ** 3, F ** 3), (2 * f, F * 2)):
        assert {(k, 0): v for k, v in uni.items()} == dict(bi.items())
    assert hash(f * g) == hash(g * f) and f * g == g * f
    with pytest.raises(ValueError):
        f ** -1
