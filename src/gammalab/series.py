"""
Truncated formal power series in x with exact bivariate polynomial coefficients.

The generating function F(x) = sum_n A_n(s,t) x^n of the two-sided Eulerian
polynomials ties together the sum-indecomposable, skew-indecomposable and
simple permutations:

    F  = x + I+ F + st I- F + S(F)
    I+ = x + st I- F + S(F)
    I- = x + I+ F + S(F)

Solving the linear system gives I+ = F/(1+F), I- = F/(1+stF), and expressing
S through the compositional inverse of F yields, coefficientwise,

    simp_n(s,t) = -f_n^inv(s,t) + (-1)^(n-1) + (-st)^(n-1)      (n >= 4),

which computes the simple-permutation polynomials without enumerating S_n.
Every rational expression is realized as a truncated geometric series, so all
coefficients stay exact integer polynomials throughout.

`rsk_two_sided_eulerian` provides an independent route to A_n(s,t): descents
of a permutation match descents of its recording tableau and descents of the
inverse match those of the insertion tableau, so A_n(s,t) = sum over shapes
of D_shape(s) * D_shape(t), where D_shape counts standard Young tableaux by
descent number.  One growth-chain walk to order N gives D_shape for every
shape of every size up to N, so the whole Eulerian series costs one walk.
The walk counts, and each A_n is multiplied out, in the one tally layout of
the S_n routes, `permutations._tally_packing(N)`.

Series products, composition, the geometric inverse and Lagrange inversion
run on Kronecker-packed ints (`polys.Packing`) in a layout proven for each
operation; sums and scalar multiples stay on the dict polynomials.
"""
from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .errors import MAX_ENUMERATION_N, MAX_RSK_N, InversionError, check_size
from .permutations import _tally_packing, simple_distribution
from .polys import ONE, ST, ZERO, BivarPoly, Packing, is_palindromic_bivariate


class PowerSeries:
    """Coefficients c_0..c_N of a series truncated at order N.

    The series of interest here all have zero constant term; c_0 is carried
    anyway so that geometric expansions like 1/(1+F) stay in the same type.
    """

    __slots__ = ("order", "_c")

    def __init__(self, order: int, coeffs: list[BivarPoly] | None = None):
        if order < 1:
            raise ValueError("order must be at least 1")
        self.order = order
        c = list(coeffs) if coeffs is not None else []
        if len(c) > order + 1:
            raise ValueError(f"got {len(c)} coefficients for order {order}")
        c.extend([ZERO] * (order + 1 - len(c)))
        self._c = c

    @classmethod
    def x(cls, order: int) -> "PowerSeries":
        return cls(order, [ZERO, ONE])

    def coeff(self, n: int) -> BivarPoly:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self._c[n]

    def coefficients(self) -> list[BivarPoly]:
        return list(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PowerSeries):
            return self.order == other.order and self._c == other._c
        return NotImplemented

    def __repr__(self) -> str:
        head = ", ".join(f"x^{n}: {c.text()}" for n, c in enumerate(self._c[:5]) if not c.is_zero())
        return f"PowerSeries(order={self.order}, {head}, ...)"

    def _check_order(self, other: "PowerSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"mixed truncation orders {self.order} and {other.order}")

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_order(other)
        return PowerSeries(self.order, [a + b for a, b in zip(self._c, other._c)])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_order(other)
        return PowerSeries(self.order, [a - b for a, b in zip(self._c, other._c)])

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(self.order, [-a for a in self._c])

    def __mul__(self, other: "PowerSeries | BivarPoly | int") -> "PowerSeries":
        if isinstance(other, (BivarPoly, int)):
            return PowerSeries(self.order, [a * other for a in self._c])
        self._check_order(other)
        return PowerSeries(self.order, _packed(_convolve, self._c, other._c))

    __rmul__ = __mul__

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Substitute ``inner`` for x; requires inner to have no constant term."""
        self._check_order(inner)
        if not inner._c[0].is_zero():
            raise ValueError("composition requires a series with zero constant term")
        return PowerSeries(self.order, _packed(_compose, self._c, inner._c))


def geometric_inverse(y: PowerSeries) -> PowerSeries:
    """1/(1 + y) for y with zero constant term, by the coefficient recurrence
    h_0 = 1, h_n = -sum_{k=1..n} y_k h_(n-k)."""
    if not y.coeff(0).is_zero():
        raise ValueError("geometric expansion requires a series with zero constant term")
    return PowerSeries(y.order, _packed(_reciprocal, [-c for c in y.coefficients()]))


# ---------------------------------------------------------------------------
# packed series arithmetic
# ---------------------------------------------------------------------------
#
# A kernel runs one series operation on coefficient lists in the ring that
# ``add`` and ``mul`` give, with unit 1, skipping falsy entries as zero.
# `_packed` runs it on ints packed in a layout that two cheap runs of the
# same kernel prove: on the l1 norms (int + and *), which bound every result's
# coefficients, and on one plus the t-degrees, 0 for zero (max and a + b - 1,
# the max-plus form), which bound every result's t-degree.

def _dot(xs: list, ys: list, add, mul):
    acc = 0
    for x, y in zip(xs, ys):
        if x and y:
            acc = add(acc, mul(x, y))
    return acc


def _convolve(a: list, b: list, add, mul) -> list:
    """The product of two series, truncated at the order of ``a``."""
    return [_dot(a[:k + 1], b[k::-1], add, mul) for k in range(len(a))]


def _compose(c: list, g: list, add, mul) -> list:
    """c(g(x)) = c_0 + sum_k c_k g^k, for g with no constant term."""
    out, power = c[:1] + [0] * (len(c) - 1), [1] + [0] * (len(c) - 1)
    for ck in c[1:]:
        power = _convolve(power, g, add, mul)
        if ck:
            out = [add(o, mul(ck, p)) if p else o for o, p in zip(out, power)]
    return out


def _reciprocal(y: list, add, mul) -> list:
    """1/(1 - y) for y with no constant term: h_0 = 1, h_n = sum_k y_k h_(n-k)."""
    h = [1]
    for n in range(1, len(y)):
        h.append(_dot(y[1:n + 1], h[::-1], add, mul))
    return h


def _lagrange(y: list, add, mul) -> list:
    """[x^(n-1)] H^n for n = 1..len(y), with H = 1/(1 - y): the numerators
    of Lagrange inversion.  With k about sqrt(len(y)) and n = b*k + a, each
    is a dot product of H^(b*k) and H^a (a < k), so only about 2k powers
    are multiplied out."""
    h = _reciprocal(y, add, mul)
    k = math.isqrt(len(h)) + 1
    small = [[1] + [0] * (len(h) - 1)]
    for _ in range(k):
        small.append(_convolve(small[-1], h, add, mul))
    big, out = small[0], []
    for n in range(1, len(h) + 1):
        if not n % k:
            big = _convolve(big, small[k], add, mul)
        out.append(_dot(big[:n], small[n % k][n - 1::-1], add, mul))
    return out


def _packed(kernel, *operands: list[BivarPoly]) -> list[BivarPoly]:
    """``kernel`` on packed ints: each operand coefficient is packed once and
    each result unpacked once."""
    def run(convert, add=operator.add, mul=operator.mul):
        return kernel(*[[convert(c) for c in op] for op in operands], add, mul)
    bound = max(run(lambda c: sum(abs(v) for _, v in c.items())))
    stride = max(run(lambda c: max((q + 1 for (_, q), _ in c.items()), default=0),
                     max, lambda a, b: a + b - 1))
    layout = Packing((bound.bit_length() or 1) + 1, stride or 1)
    return [layout.unpack(v) for v in run(layout.pack)]


# ---------------------------------------------------------------------------
# the Eulerian series and its tableau-based oracle
# ---------------------------------------------------------------------------

def _tableau_descent_vectors(N: int) -> list[dict[tuple[int, ...], int]]:
    """For each size m = 1..N (at index m - 1), every partition shape of m
    with D_shape(t), its standard Young tableaux counted by descent number
    (an entry i is a descent when i+1 sits in a lower row), packed in the
    t-row of `_tally_packing(N)`.

    One growth-chain walk serves every size: add boxes one at a time, tracking
    the row of the last-added box; the states after m boxes are exactly the
    tableaux of size m, and a descent shifts a state's tally by one t-digit.
    """
    check_size(N, MAX_RSK_N, "the tableau route")
    descent = _tally_packing(N).shift(0, 1)
    states: dict[tuple[tuple[int, ...], int], int] = {((1,), 0): 1}
    sizes = []
    while True:
        by_shape: dict[tuple[int, ...], int] = {}
        for (shape, _), tally in states.items():
            by_shape[shape] = by_shape.get(shape, 0) + tally
        sizes.append(by_shape)
        if len(sizes) == N:
            return sizes
        nxt: dict[tuple[tuple[int, ...], int], int] = {}
        for (shape, row), tally in states.items():
            rows = len(shape)
            for r in range(rows + 1):
                if r < rows:
                    if r > 0 and shape[r] >= shape[r - 1]:
                        continue
                    nshape = shape[:r] + (shape[r] + 1,) + shape[r + 1:]
                else:
                    nshape = shape + (1,)
                nxt[nshape, r] = nxt.get((nshape, r), 0) + (tally << descent if r > row else tally)
        states = nxt


def rsk_two_sided_eulerian(n: int) -> BivarPoly:
    """A_n(s,t) as sum over shapes of D_shape(s) * D_shape(t).

    >>> rsk_two_sided_eulerian(3).text()
    '1 + 4*s*t + s^2*t^2'
    """
    return eulerian_series(n).coeff(n)


def eulerian_series(N: int) -> PowerSeries:
    """F(x) with coefficient A_m(s,t) at x^m, by the tableau route, each A_m
    multiplied out in `_tally_packing(N)`: its degrees are below m <= N, the
    stride, and its nonnegative coefficients sum to m! <= N!, so none carries."""
    sizes = _tableau_descent_vectors(N)
    pack = _tally_packing(N)
    digit, row, mask = pack.shift(0, 1), pack.shift(1, 0), (1 << pack.width) - 1

    def transpose(D: int) -> int:  # D(t) -> D(s): t-digit q moves to row q
        return sum((D >> digit * q & mask) << row * q for q in range(D.bit_length() // digit + 1))

    return PowerSeries(N, [ZERO] + [pack.unpack(sum(transpose(D) * D for D in by_shape.values()))
                                    for by_shape in sizes])


# ---------------------------------------------------------------------------
# compositional inverse and the simple-permutation series
# ---------------------------------------------------------------------------

def functional_inverse(F: PowerSeries) -> PowerSeries:
    """The series G with F(G(x)) = G(F(x)) = x up to the truncation order.

    Requires a zero constant term and leading coefficient 1, which keeps all
    inverse coefficients in the polynomial ring.  Uses Lagrange inversion,
    g_n = (1/n) [x^(n-1)] H^n with H = x/F = 1/(1 + f_2 x + f_3 x^2 + ...).
    """
    if not F.coeff(0).is_zero():
        raise InversionError("series has a nonzero constant term")
    if F.coeff(1) != ONE:
        raise InversionError("leading coefficient must be exactly 1")
    numerators = _packed(_lagrange, [ZERO] + [-c for c in F.coefficients()[2:]])
    return PowerSeries(F.order, [ZERO] + [_exact_quotient(g, n) for n, g in enumerate(numerators, 1)])


def _exact_quotient(P: BivarPoly, n: int) -> BivarPoly:
    """P / n over Z[s,t], coefficient by coefficient; a remainder means G left the ring."""
    quotient = {}
    for key, v in P.items():
        q, r = divmod(v, n)
        if r:
            raise InversionError(f"coefficient {v} of [x^{n - 1}] (x/F)^{n} is not a multiple of {n}")
        quotient[key] = q
    return BivarPoly(quotient)


def indecomposable_series(F: PowerSeries) -> tuple[PowerSeries, PowerSeries]:
    """(I+, I-) = (F/(1+F), F/(1+stF)) by geometric expansion.

    Coefficient n of I+ is the joint polynomial over the sum-indecomposable
    permutations of length n, and dually for I-.
    """
    i_plus = F * geometric_inverse(F)
    i_minus = F * geometric_inverse(F * ST)
    return i_plus, i_minus


def simple_series(N: int, method: str = "inversion") -> PowerSeries:
    """S(x) with coefficient simp_n(s,t) at x^n (zero below n = 4).

    method='inversion' derives the coefficients from the compositional inverse
    of the Eulerian series from the tableau route; method='enumerate' tallies
    the simple permutations directly, by the prefix DP of
    `simple_distribution`.  The two agree everywhere.
    """
    if N < 4:
        raise ValueError("order must be at least 4; shorter coefficients all vanish")
    if method == "inversion":
        return _simple_from_inverse(functional_inverse(eulerian_series(N)))
    if method == "enumerate":
        check_size(N, MAX_ENUMERATION_N, "the simple series by enumeration (use method='inversion')")
        coeffs = [ZERO] * 4 + [simple_distribution(n).poly for n in range(4, N + 1)]
        return PowerSeries(N, coeffs)
    raise ValueError(f"unknown method {method!r} (expected 'inversion' or 'enumerate')")


def closure_series(S: PowerSeries) -> PowerSeries:
    """The series C whose compositional inverse is x/(1+x) + x/(1+stx) - x - S.

    A substitution closure is closed under sums and skew sums, so it solves
    the system of F with S cut to its simple members: for S holding simp_n
    for 4 <= n <= k only, coefficient n of C is the joint (des, ides)
    polynomial over the closure of the simple permutations of length <= k
    in S_n (Albert & Atkinson, Discrete Math. 2005), and for the full S, C
    is F itself.  S must have no terms below x^4.

    >>> x4 = PowerSeries(4, [ZERO] * 4)
    >>> [closure_series(x4).coeff(n).evaluate_at_one() for n in range(1, 5)]
    [1, 2, 6, 22]
    """
    return functional_inverse(_partial_fractions(S.order) - S)


def _partial_fractions(N: int) -> PowerSeries:
    """x/(1+x) + x/(1+stx) - x to order N."""
    x = PowerSeries.x(N)
    return x * geometric_inverse(x) + x * geometric_inverse(x * ST) - x


def _simple_from_inverse(G: PowerSeries) -> PowerSeries:
    """simp_n = -g_n + (-1)^(n-1) + (-st)^(n-1) for n >= 4; zero below."""
    coeffs = [ZERO] * min(G.order + 1, 4)
    for n in range(4, G.order + 1):
        coeffs.append(-G.coeff(n) + BivarPoly.const((-1) ** (n - 1)) + (-ST) ** (n - 1))
    return PowerSeries(G.order, coeffs)


# ---------------------------------------------------------------------------
# system verification
# ---------------------------------------------------------------------------

class SystemReport(NamedTuple):
    order: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def failures(self) -> list[str]:
        return [name for name, passed in self.checks if not passed]


def verify_system_identities(N: int) -> SystemReport:
    """Check the defining identities, their solutions, the inverse formula and
    the reversal symmetries, all coefficientwise and exact to order N, on the
    Eulerian series from the tableau route."""
    F = eulerian_series(N)
    x = PowerSeries.x(N)
    i_plus, i_minus = indecomposable_series(F)
    G = functional_inverse(F)
    S = _simple_from_inverse(G)
    SoF = S.compose(F)
    st = ST
    # The two products that the three defining identities share.
    sum_part = i_plus * F
    skew_part = (i_minus * F) * st

    checks: list[tuple[str, bool]] = []
    checks.append(("defining identity for F", F == x + sum_part + skew_part + SoF))
    checks.append(("defining identity for the sum-indecomposable series",
                   i_plus == x + skew_part + SoF))
    checks.append(("defining identity for the skew-indecomposable series",
                   i_minus == x + sum_part + SoF))
    one_plus_f = _one(N) + F
    one_plus_stf = _one(N) + F * st
    checks.append(("solution I+ * (1+F) = F", i_plus * one_plus_f == F))
    checks.append(("solution I- * (1+stF) = F", i_minus * one_plus_stf == F))
    lhs = (SoF + x) * one_plus_f * one_plus_stf
    rhs = F * (_one(N) - (F * F) * st)
    checks.append(("solution for the simple series, cleared of denominators", lhs == rhs))
    # Partial-fraction form: S = -F_inv + x/(1+x) + x/(1+stx) - x.
    checks.append(("partial-fraction form reproduces the simple series",
                   _partial_fractions(N) - G == S))
    checks.append(("compositional inverse: F(G) = x", F.compose(G) == x))
    checks.append(("compositional inverse: G(F) = x", G.compose(F) == x))
    pal = all(is_palindromic_bivariate(F.coeff(n), n - 1) for n in range(1, N + 1))
    checks.append(("palindromic symmetry of every Eulerian coefficient", pal))
    dual = all(
        _mirror(i_plus.coeff(n), n - 1) == i_minus.coeff(n) for n in range(1, N + 1)
    )
    checks.append(("value-flip duality between I+ and I-", dual))
    return SystemReport(N, tuple(checks))


def _one(N: int) -> PowerSeries:
    return PowerSeries(N, [ONE])


def _mirror(P: BivarPoly, m: int) -> BivarPoly:
    """Replace each monomial s^p t^q by s^(m-p) t^(m-q)."""
    if any(p > m or q > m for (p, q), _ in P.items()):
        raise ValueError(f"degree exceeds {m}")
    return BivarPoly({(m - p, m - q): v for (p, q), v in P.items()})
