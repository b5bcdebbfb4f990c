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

from . import euler_beta, fracops, series_solution, specfun
from .specfun import *
from .euler_beta import *
from .series_solution import *
from .fracops import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *specfun.__all__,
    *euler_beta.__all__,
    *series_solution.__all__,
    *fracops.__all__,
]
