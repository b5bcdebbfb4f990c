"""felog: fractional logistic growth via a generalized Euler-number series.

The series solution of the order-beta logistic initial-value problem is built
from a normalized coefficient recurrence, evaluated with truncation-tail and
domain-of-validity reporting, and cross-validated by independent fractional
calculus oracles (term-wise memory-derivative algebra, singular-kernel
quadrature, the integrated singular-kernel form, and an
Adams-Bashforth-Moulton time-stepper).

Quick start:

>>> from felog import SeriesSolution
>>> sol = SeriesSolution.build(beta=0.7, m=1.0)
>>> sol(0.5)
0.6237...
>>> sol.radius.r_guaranteed
2.302...
"""

from .specfun import (
    EULER_MASCHERONI,
    BoundFlags,
    RationalTriangle,
    bernoulli_numbers,
    bernoulli_poly,
    beta_fn,
    bound_predicates,
    classical_series_coeffs,
    euler_poly,
    gamma_fn,
    ln_gamma,
)
from .euler_beta import (
    BetaEulerSequence,
    BoundSequences,
    bound_sequences,
    build_sequence,
    closed_form_check,
    sequence_from_json,
)
from .series_solution import (
    C1_CLAIMED,
    C2_CLAIMED,
    EvalResult,
    RadiusReport,
    SeriesSolution,
    compare_classical,
    radius_report,
    remark_bound,
    remark_bound_pole,
    remark_radius,
)
from .fracops import (
    QuadratureGrid,
    ResidualReport,
    RLDerivative,
    caputo_l1,
    caputo_l1_all,
    caputo_termwise,
    caputo_termwise_array,
    fractional_integral_midpoint,
    graded_grid,
    levy_tail_laplace,
    make_grid,
    rl_derivative_termwise,
    solve_pc,
    sonine_check,
    sonine_product_quadrature,
    stable_levy_tail,
    uniform_grid,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # special functions
    "EULER_MASCHERONI",
    "BoundFlags",
    "RationalTriangle",
    "bernoulli_numbers",
    "bernoulli_poly",
    "beta_fn",
    "bound_predicates",
    "classical_series_coeffs",
    "euler_poly",
    "gamma_fn",
    "ln_gamma",
    # coefficient sequences
    "BetaEulerSequence",
    "BoundSequences",
    "bound_sequences",
    "build_sequence",
    "closed_form_check",
    "sequence_from_json",
    # series solution
    "C1_CLAIMED",
    "C2_CLAIMED",
    "EvalResult",
    "RadiusReport",
    "SeriesSolution",
    "compare_classical",
    "radius_report",
    "remark_bound",
    "remark_bound_pole",
    "remark_radius",
    # fractional-calculus oracles
    "QuadratureGrid",
    "ResidualReport",
    "RLDerivative",
    "caputo_l1",
    "caputo_l1_all",
    "caputo_termwise",
    "caputo_termwise_array",
    "fractional_integral_midpoint",
    "graded_grid",
    "levy_tail_laplace",
    "make_grid",
    "rl_derivative_termwise",
    "solve_pc",
    "sonine_check",
    "sonine_product_quadrature",
    "stable_levy_tail",
    "uniform_grid",
    "verify",
]
