"""Cross-validate the series with four independent oracles.

None of these reuse the coefficient recurrence's evaluation path:

  termwise -- coefficient-wise defect of the equation (machine zero by
      construction; a build-integrity check);
  l1       -- the memory derivative discretized by the L1 product rule on a
      graded grid, compared against (w - w^2)/m pointwise;
  integro  -- the singular-kernel form, integrated once so both sides are
      quadrature-friendly: w(t) - 1/2 vs the order-beta integral of
      (w - w^2)/m;
  pc       -- a fractional Adams-Moulton stepper, each implicit step a
      quadratic solved exactly, solves the same initial value problem from
      scratch and the trajectories are compared.

Agreement of all four within their stated budgets is the acceptance story
for the solution itself.
"""

import time

from felog import SeriesSolution, graded_grid, solve_pc, sonine_check, verify
from felog.fracops import VERIFY_TOLERANCES

beta, m = 0.7, 1.0
sol = SeriesSolution.build(beta, m, n_terms=128)
edge = 0.8 * sol.domain_edge
grid = graded_grid(edge, 2000, beta)
print(f"beta={beta}, m={m}: verification window (0, {edge:.4f}], 2000 graded nodes\n")

for method, budget in VERIFY_TOLERANCES.items():
    start = time.perf_counter()
    rep = verify(sol, method, None if method == "termwise" else grid,
                 pc_step=1e-4 if method == "predictor_corrector" else 1e-3)
    elapsed = time.perf_counter() - start
    status = "ok" if rep.sup_norm <= budget else "EXCEEDED"
    print(f"  {method:>19}: sup residual = {rep.sup_norm:.3e}  (budget {budget:.0e}, "
          f"{elapsed:.2f}s) {status}")

# the kernel pair behind the integro rewrite convolves to exactly 1
print("\nkernel-pair identity, max |convolution - 1| over t in {0.5, 1, 3}:")
for b in (0.25, 0.5, 0.75):
    print(f"  beta={b}: {sonine_check(b, [0.5, 1.0, 3.0]):.2e}")

# the stepper standing alone, against the classical solution at beta = 1
t, u = solve_pc(1.0, 1.0, 1.0, 1e-4)
import math
print(f"\nstepper at beta=1, t=1: {u[-1]:.12f} vs closed form "
      f"{1.0 / (1.0 + math.exp(-1.0)):.12f}")
