"""The generating-function route to the simple-permutation polynomials.

Builds the Eulerian series (via the tableau oracle), takes its compositional
inverse by Lagrange inversion, g_n = (1/n) [x^(n-1)] (x/F)^n, and reads off
simp_n(s,t) without ever filtering S_n; then cross-checks against direct
enumeration and runs the identity suite, whose F(G) = x and G(F) = x checks
confirm the inverse.
"""
from gammalab import (
    eulerian_series,
    functional_inverse,
    gamma_expand_bivariate,
    indecomposable_series,
    simple_series,
    verify_system_identities,
)

N = 10
F = eulerian_series(N)
print("Eulerian series coefficients:")
for n in range(1, 5):
    print(f"   x^{n}: {F.coeff(n).text()}")
print()

G = functional_inverse(F)
print("compositional inverse coefficients:")
for n in range(1, 5):
    print(f"   x^{n}: {G.coeff(n).text()}")
print()

i_plus, i_minus = indecomposable_series(F)
print(f"sum-indecomposable  x^4: {i_plus.coeff(4).text()}")
print(f"skew-indecomposable x^4: {i_minus.coeff(4).text()}")
print()

S = simple_series(N, method="inversion")
S_direct = simple_series(N, method="enumerate", threads=0)
print(f"simple series to order {N} by both routes")
for n in range(4, N + 1):
    assert S.coeff(n) == S_direct.coeff(n)
    expansion = gamma_expand_bivariate(S.coeff(n), n - 1)
    flag = "gamma-positive" if expansion.is_positive() else "NOT POSITIVE"
    print(f"   simp_{n}: {len(S.coeff(n).terms())} terms, {flag}")
print()

report = verify_system_identities(8)
print(f"identity suite at order 8: {'all pass' if report.ok else report.failures()}")
for name, ok in report.checks:
    print(f"   [{'ok' if ok else 'FAIL'}] {name}")
