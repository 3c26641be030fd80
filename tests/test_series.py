"""Power series over polynomial coefficients: inversion, the system, the oracle."""
import itertools
import random
from math import comb, factorial, prod

import pytest

from gammalab.errors import InversionError, ResourceBoundError
from gammalab.permutations import (
    _tally_packing,
    eulerian_distribution,
    is_simple,
    is_skew_indecomposable,
    is_sum_indecomposable,
    joint_distribution,
    simple_distribution,
)
from gammalab.polys import ONE, ST, S_PLUS_T, ZERO, BivarPoly, Packing
from gammalab.series import (
    MAX_RSK_N,
    PowerSeries,
    _exact_quotient,
    _tableau_descent_vectors,
    closure_series,
    eulerian_series,
    functional_inverse,
    geometric_inverse,
    indecomposable_series,
    rsk_two_sided_eulerian,
    simple_series,
    verify_system_identities,
)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


# ---------------------------------------------------------------------------
# series arithmetic
# ---------------------------------------------------------------------------

def test_series_basics():
    x = PowerSeries.x(5)
    assert (x * x).coeff(2) == ONE
    assert (x * x).coeff(3) == ZERO
    sq = x * x
    assert (sq * sq).coeff(4) == ONE
    assert x.compose(x) == x
    with pytest.raises(ValueError):
        PowerSeries(3, [ONE]).compose(PowerSeries(3, [ONE]))
    with pytest.raises(ValueError):
        x + PowerSeries.x(4)


def _horner_compose(outer, inner):
    """c_0 + G*(c_1 + G*(c_2 + ...)), written with public operations only."""
    N = outer.order
    acc = PowerSeries(N, [outer.coeff(N)])
    for k in range(N - 1, -1, -1):
        acc = acc * inner + PowerSeries(N, [outer.coeff(k)])
    return acc


def test_compose_matches_horner():
    s = BivarPoly.monomial(1, 1, 0)
    t = BivarPoly.monomial(1, 0, 1)
    outer = [BivarPoly.const(3), s - t * 2, ZERO, s * t * 5 + ONE, t * t, -s, s * s * t,
             ZERO, t * 7, s * t * t - BivarPoly.const(2)]
    inner = [ZERO, ONE + s, t * 3, ZERO, -s * t, s * s, ONE, t, s * 4 - t, ST]
    for N in (1, 2, 9):
        F = PowerSeries(N, outer[:N + 1])
        G = PowerSeries(N, inner[:N + 1])
        assert F.compose(G) == _horner_compose(F, G)


def test_series_truncation_closure():
    x = PowerSeries.x(3)
    high = (x * x) * (x * x)  # x^4 truncates away
    assert all(high.coeff(n) == ZERO for n in range(4))


def test_geometric_inverse():
    F = eulerian_series(6)
    inv = geometric_inverse(F)
    product = inv * F + inv  # (1 + F) * inv
    assert product.coeff(0) == ONE
    assert all(product.coeff(n) == ZERO for n in range(1, 7))
    assert geometric_inverse(PowerSeries(1, [ZERO, ST])) == PowerSeries(1, [ONE, -ST])
    with pytest.raises(ValueError):
        geometric_inverse(PowerSeries(3, [ONE]))


# ---------------------------------------------------------------------------
# packed arithmetic against dict loops
# ---------------------------------------------------------------------------
#
# The series operations multiply packed ints.  These references multiply the
# dict polynomials coefficient by coefficient, as the series code did before
# it packed, and share nothing with the packed kernels.

def dict_product(a, b):
    out = [ZERO] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] = out[i + j] + x * b[j]
    return out


def dict_compose(c, g):
    out = [c[0]] + [ZERO] * (len(c) - 1)
    power = [ONE] + [ZERO] * (len(c) - 1)
    for k in range(1, len(c)):
        power = dict_product(power, g)
        out = [o + c[k] * p for o, p in zip(out, power)]
    return out


def dict_geometric_inverse(y):
    h = [ONE]
    for n in range(1, len(y)):
        acc = ZERO
        for k in range(1, n + 1):
            acc = acc + y[k] * h[n - k]
        h.append(-acc)
    return h


def dict_functional_inverse(f):
    h = dict_geometric_inverse([ZERO] + f[2:])
    power, g = h, [ZERO, ONE]
    for n in range(2, len(f)):
        power = dict_product(power, h)
        quotient = {key: v // n for key, v in power[n - 1].items()}
        assert BivarPoly(quotient) * n == power[n - 1]
        g.append(BivarPoly(quotient))
    return g


def random_series(rng, N, lead=None):
    """Signed coefficients with no symmetry in s and t, some large, and
    t-degrees up to n + 3 at x^n, past the n - 1 of the Eulerian series."""
    coeffs = [ZERO]
    for n in range(1, N + 1):
        size = rng.choice((5, 50, 10 ** 9))
        terms = {(rng.randrange(n + 1), rng.randrange(n + 4)): rng.randint(-size, size)
                 for _ in range(rng.randrange(5))}
        coeffs.append(BivarPoly(terms))
    if lead is not None:
        coeffs[1] = lead
    return coeffs


def test_packed_operations_match_dict_loops():
    rng = random.Random(20260917)
    for N in range(1, 11):
        for _ in range(3):
            a, b = random_series(rng, N), random_series(rng, N)
            a0 = [BivarPoly({(0, 2): rng.randint(-9, 9)})] + a[1:]  # a nonzero constant term
            A, A0, B = PowerSeries(N, a), PowerSeries(N, a0), PowerSeries(N, b)
            assert (A0 * B).coefficients() == dict_product(a0, b)
            assert (A * ST).coefficients() == [x * ST for x in a]
            assert (A0 * (A * ST)).coefficients() == dict_product(a0, [x * ST for x in a])
            assert A0.compose(B).coefficients() == dict_compose(a0, b)
            assert geometric_inverse(A).coefficients() == dict_geometric_inverse(a)
            f = random_series(rng, N, lead=ONE)
            assert functional_inverse(PowerSeries(N, f)).coefficients() == dict_functional_inverse(f)


def test_exact_quotient_checks_each_coefficient_after_unpacking():
    # 2 + t packs to 2 + 2**width, an even int, but t/2 is not in Z[s,t].
    P = BivarPoly({(0, 0): 2, (0, 1): 1})
    assert Packing(8, 2).pack(P) % 2 == 0
    with pytest.raises(InversionError, match="not a multiple of 2"):
        _exact_quotient(P, 2)
    assert _exact_quotient(P * 2, 2) == P


# ---------------------------------------------------------------------------
# functional inverse
# ---------------------------------------------------------------------------

def test_functional_inverse_of_x():
    for order in (1, 2, 4):
        x = PowerSeries.x(order)
        assert functional_inverse(x) == x


def test_functional_inverse_catalan_signs():
    F = PowerSeries(12, [ZERO, ONE, ONE])  # x + x^2
    G = functional_inverse(F)
    assert [G.coeff(n).coeff(0, 0) for n in range(1, 7)] == [1, -1, 2, -5, 14, -42]
    for n in range(1, 13):  # g_n = (-1)^(n-1) C_(n-1)
        catalan = comb(2 * (n - 1), n - 1) // n
        assert G.coeff(n) == BivarPoly.const((-1) ** (n - 1) * catalan)
    assert F.compose(G) == PowerSeries.x(12)
    assert G.compose(F) == PowerSeries.x(12)


def test_functional_inverse_order_two():
    F = PowerSeries(2, [ZERO, ONE, S_PLUS_T])
    assert functional_inverse(F) == PowerSeries(2, [ZERO, ONE, -S_PLUS_T])


def test_functional_inverse_non_symmetric_bivariate():
    s = BivarPoly.monomial(1, 1, 0)
    t = BivarPoly.monomial(1, 0, 1)
    F = PowerSeries(9, [ZERO, ONE, s, t, ZERO, ST])  # x + s x^2 + t x^3 + st x^5
    G = functional_inverse(F)
    x = PowerSeries.x(9)
    assert G.coeff(2) == -s
    assert G.coeff(3) == s * s * 2 - t
    assert F.compose(G) == x
    assert G.compose(F) == x


def test_functional_inverse_second_coefficient():
    # f_2 of the Eulerian series is 1 + st, so its inverse starts x - (1+st)x^2.
    F = eulerian_series(4)
    G = functional_inverse(F)
    assert G.coeff(2) == -BivarPoly({(0, 0): 1, (1, 1): 1})


def test_functional_inverse_requires_unit_linear_term():
    with pytest.raises(InversionError):
        functional_inverse(PowerSeries(4, [ZERO, ST]))
    with pytest.raises(InversionError):
        functional_inverse(PowerSeries(4, [ONE, ONE]))


def test_functional_inverse_roundtrip_eulerian():
    F = eulerian_series(8)
    G = functional_inverse(F)
    x = PowerSeries.x(8)
    assert F.compose(G) == x
    assert G.compose(F) == x


# ---------------------------------------------------------------------------
# the Eulerian series and the tableau oracle
# ---------------------------------------------------------------------------

def test_eulerian_series_low_coefficients():
    F = eulerian_series(4)
    assert F.coeff(1) == ONE
    assert F.coeff(2) == BivarPoly({(0, 0): 1, (1, 1): 1})
    assert F.coeff(3) == BivarPoly({(0, 0): 1, (1, 1): 4, (2, 2): 1})
    assert F.coeff(4) == eulerian_distribution(4).poly


def test_rsk_examples():
    assert rsk_two_sided_eulerian(2) == BivarPoly({(0, 0): 1, (1, 1): 1})
    assert rsk_two_sided_eulerian(4) == eulerian_distribution(4).poly


def test_rsk_matches_enumeration():
    for n in range(1, 8):
        assert rsk_two_sided_eulerian(n) == eulerian_distribution(n).poly
    # Each A_n comes out the same in the layouts of order n and MAX_RSK_N.
    F = eulerian_series(MAX_RSK_N)
    for n in range(1, MAX_RSK_N + 1):
        A = rsk_two_sided_eulerian(n)
        assert F.coeff(n) == A, n
        assert A.evaluate_at_one() == factorial(n), n


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _hook_content_descents(shape):
    """Counts of the standard Young tableaux of ``shape`` by descent number,
    from the hook-content formula alone (Stanley, EC2 7.19-7.21): the number
    of semistandard tableaux with entries <= m is prod (m + c(u)) / h(u) over
    the cells u, and sum_m ssyt(m + 1) t^m = D_shape(t) / (1 - t)^(n + 1)."""
    n = sum(shape)
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    hooks = prod(shape[i] - j + cols[j] - i - 1 for i, j in cells)

    def ssyt(m):
        top = prod(m + j - i for i, j in cells)
        assert top % hooks == 0
        return top // hooks

    vec = [
        sum((-1) ** k * comb(n + 1, k) * ssyt(d - k + 1) for k in range(d + 1))
        for d in range(n)
    ]
    while vec[-1] == 0:
        vec.pop()
    return tuple(vec)


def _unpacked(sizes, N):
    pack = _tally_packing(N)
    return [{shape: pack.unpack(vec) for shape, vec in vectors.items()} for vectors in sizes]


def test_tableau_walk_matches_hook_content_formula():
    sizes = _unpacked(_tableau_descent_vectors(MAX_RSK_N), MAX_RSK_N)
    assert len(sizes) == MAX_RSK_N >= 14
    for m, vectors in enumerate(sizes, start=1):
        assert set(vectors) == set(_partitions(m)), m
        for shape, D in vectors.items():
            hook = _hook_content_descents(shape)
            assert D == BivarPoly({(0, d): c for d, c in enumerate(hook)}), shape
    # The packed ints depend on N; the polynomials they hold do not.
    assert sizes[:5] == _unpacked(_tableau_descent_vectors(5), 5)


def test_methods_agree():
    F = eulerian_series(6)
    assert [F.coeff(n) for n in range(1, 7)] == [eulerian_distribution(n).poly for n in range(1, 7)]


def test_resource_bounds():
    with pytest.raises(ResourceBoundError):
        rsk_two_sided_eulerian(15)
    with pytest.raises(ResourceBoundError):
        eulerian_series(15)
    with pytest.raises(ResourceBoundError, match="inversion"):
        simple_series(13, method="enumerate")


# ---------------------------------------------------------------------------
# indecomposable series
# ---------------------------------------------------------------------------

def test_indecomposable_low_orders():
    F = eulerian_series(6)
    i_plus, i_minus = indecomposable_series(F)
    assert i_plus.coeff(1) == ONE and i_minus.coeff(1) == ONE
    assert i_plus.coeff(2) == ST          # only 21
    assert i_minus.coeff(2) == ONE        # only 12


def test_indecomposable_matches_filters():
    F = eulerian_series(8)
    i_plus, i_minus = indecomposable_series(F)
    for n in range(1, 9):
        plus = joint_distribution(
            (p for p in all_perms(n) if is_sum_indecomposable(p)), n).poly
        minus = joint_distribution(
            (p for p in all_perms(n) if is_skew_indecomposable(p)), n).poly
        assert i_plus.coeff(n) == plus
        assert i_minus.coeff(n) == minus


# ---------------------------------------------------------------------------
# the simple-permutation series
# ---------------------------------------------------------------------------

def test_simple_series_golden():
    S = simple_series(6, method="inversion")
    assert all(S.coeff(n) == ZERO for n in range(4))
    assert S.coeff(4) == ST * S_PLUS_T
    assert S.coeff(5) == ST * ST * 6
    assert S.coeff(6) == simple_distribution(6).poly


def test_simple_series_methods_agree():
    S_inv = simple_series(8, method="inversion")
    S_enum = simple_series(8, method="enumerate")
    for n in range(1, 9):
        assert S_inv.coeff(n) == S_enum.coeff(n)


def test_simple_series_order_bound():
    with pytest.raises(ValueError):
        simple_series(3)


def test_closure_series_with_every_simple_length_is_eulerian():
    # Every permutation lies in the closure of all simple permutations.
    assert closure_series(simple_series(12)) == eulerian_series(12)


def test_simple_composed_with_f_lowest_order():
    S = simple_series(6)
    F = eulerian_series(6)
    assert S.compose(F).coeff(4) == ST * S_PLUS_T


# ---------------------------------------------------------------------------
# the identity suite
# ---------------------------------------------------------------------------

def test_system_identities_order_six():
    report = verify_system_identities(6)
    assert report.ok, report.failures()
    assert len(report.checks) == 11


def test_system_identities_trivial_order():
    report = verify_system_identities(1)
    assert report.ok, report.failures()
