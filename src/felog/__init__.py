"""felog: fractional logistic growth via a generalized Euler-number series.

The series solution of the order-beta logistic initial-value problem is built
from a normalized coefficient recurrence, evaluated with truncation-tail and
domain-of-validity reporting, and cross-validated by independent fractional
calculus oracles (term-wise memory-derivative algebra, singular-kernel
quadrature, the integrated singular-kernel form, and a fractional
Adams-Moulton time-stepper).

Quick start:

>>> from felog import SeriesSolution
>>> sol = SeriesSolution.build(beta=0.7, m=1.0)
>>> sol(0.5)
0.6601561544...
>>> sol.radius.r_guaranteed
2.302...
"""

__version__ = "0.1.0"

# PEP 562: `import felog` loads none of the library modules, so a `felog`
# subcommand loads only the layers it runs. The first name the package does
# not hold (`__all__`, a public name or a submodule) loads all four in this
# order, and the name is read from their `__all__` lists and kept here.
_LIBRARY = ("specfun", "euler_beta", "series_solution", "fracops")


def __getattr__(name):
    from importlib import import_module

    modules = [import_module(f"{__name__}.{home}") for home in _LIBRARY]
    names = globals()  # importing a submodule binds it here
    if name == "__all__":
        names[name] = ["__version__", *(n for module in modules for n in module.__all__)]
    elif name not in names:
        home = next((module for module in modules if name in module.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        names[name] = getattr(home, name)
    return names[name]


def __dir__():
    public = __getattr__("__all__")  # loads the library, which binds its submodules
    return sorted(set(public) | set(globals()))
