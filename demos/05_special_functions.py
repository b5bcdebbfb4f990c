"""The exact-rational special-function layer underneath everything.

Bernoulli numbers and the Bernoulli/Euler polynomials are computed in exact
rational arithmetic (floating evaluation of these sums falls apart past
index ~20), and the log-Gamma kernel is log(math.gamma(x)), whose error
never shows at the 1e-13 level the downstream tests budget for.
"""

from felog import (
    EULER_MASCHERONI,
    bernoulli_numbers,
    beta_fn,
    bound_predicates,
    classical_series_coeffs,
    euler_poly,
    gamma_fn,
    ln_gamma,
)

print("Bernoulli numbers b_0..b_10 (exact):")
print(" ", bernoulli_numbers(10))

print("\nEuler polynomial values at 1 (these seed the classical series):")
for k in range(0, 10):
    print(f"  E_{k}(1) = {euler_poly(k, 1.0):+.6f}")

print("\nclassical logistic series coefficients u_k = E_k(1)/2:")
print(" ", classical_series_coeffs(7))

print("\nGamma/Beta spot values:")
print(f"  Gamma(5)      = {gamma_fn(5.0):.12f}   (4! = 24)")
print(f"  ln Gamma(0.5) = {ln_gamma(0.5):.12f}   (ln sqrt(pi) = 0.572364942925)")
print(f"  B(2, 3)       = {beta_fn(2.0, 3.0):.12f}   (1/12)")
print(f"  B(0.5, 0.5)   = {beta_fn(0.5, 0.5):.12f}   (pi)")

print("\ninequality checks used by the radius analysis:")
for x, y in ((2.0, 3.0), (10.0, 50.0)):
    flags = bound_predicates(x=x, y=y)
    print(f"  x={x}, y={y}: B(x,y) <= 1/(xy): {flags.beta_bound}, "
          f"Gamma envelope at x: {flags.gamma_envelope}")
flags = bound_predicates(x=0.5)
print(f"  x=0.5: 2^(x-1) <= Gamma(x+1) <= 1: {flags.gamma_unit}")
print(f"  Euler-Mascheroni constant used throughout: {EULER_MASCHERONI}")

print("\nodd-index trend toward cos(pi) = -1 (scaled polynomial values):")
import math
for k in (9, 15, 21, 25):
    d = ((-1) ** ((k + 1) // 2) * math.pi ** (k + 1)
         / (4.0 * math.factorial(k)) * euler_poly(k, 1.0))
    print(f"  k={k:2d}: scaled value = {d:+.12f}   gap to -1 = {abs(d + 1):.2e}")
