"""The four convergence-radius notions, side by side.

Four estimates are reported for each order:

  r_formula_i / r_formula_ii -- two printed closed-form expressions,
      reported verbatim as diagnostics (evaluated at beta = 1 they do not
      reproduce their own claimed limiting constants c1, c2);
  r_guaranteed -- (m^2 / q)^(1/(2 beta)) from the geometric majorant base q;
  r_empirical  -- ratio test on consecutive odd coefficients, Richardson
      extrapolated.

The empirical estimate is the operative one. Note what happens at small
beta: the majorant base underestimates the true coefficient growth, so
r_guaranteed overshoots r_empirical there -- the "guarantee" fails below
beta ~ 0.55. At beta = 1 the empirical radius converges to pi, the exact
radius of the classical series.
"""

import math

from felog import C1_CLAIMED, C2_CLAIMED, build_sequence, radius_report

print(f"{'beta':>5} {'formula i':>11} {'formula ii':>11} {'guaranteed':>11} {'empirical':>11}")
for beta in (0.05, 0.3, 0.5, 0.7, 0.9, 1.0):
    rep = radius_report(build_sequence(beta, 1.0, 128))
    f2 = f"{rep.r_formula_ii:11.6f}" if rep.r_formula_ii is not None else "     absent"
    print(f"{beta:5.2f} {rep.r_formula_i:11.6f} {f2} {rep.r_guaranteed:11.6f} "
          f"{rep.r_empirical:11.6f}")

print("\nclaimed limiting constants: c1 =", C1_CLAIMED, " c2 =", C2_CLAIMED)
rep = radius_report(build_sequence(1.0, 1.0, 128))
print(f"formula i at beta=1 evaluates to {rep.r_formula_i:.6f}, formula ii to "
      f"{rep.r_formula_ii:.6f}: neither matches its constant, so the report "
      "carries both sides")

print("\nempirical radius at beta=1 approaches pi as terms are added:")
for n in (32, 64, 128):
    r = radius_report(build_sequence(1.0, 1.0, n)).r_empirical
    print(f"  n_terms={n:4d}: r_empirical = {r:.12f}   |error vs pi| = {abs(r - math.pi):.2e}")

print("\nrate parameter scaling (beta=0.5): radius grows like m^(1/beta) = m^2")
for m in (1.0, 2.0, 3.0):
    r = radius_report(build_sequence(0.5, m, 64)).r_empirical
    print(f"  m={m}: r_empirical = {r:.6f}")
