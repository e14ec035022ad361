"""Convexity analysis for noncommutative polynomials and rationals.

Submodules
----------
ncalg      free polynomials in two letter classes and their matrix evaluation
matkit     hermitian linear algebra helpers, block tensor calculus, seeded
           samplers
realize    descriptor realizations: linearize, minimize, domains
butterfly  convexity-adapted forms of a realization and their domains
partialcvx Hessians in the designated letters, convexity verdicts, witnesses
xycvx      convexity in x and y separately: middle matrix, Gram certificates
cli        command line entry points
"""

from . import butterfly, matkit, ncalg, partialcvx, realize, xycvx

__version__ = "0.1.0"

__all__ = [
    "butterfly", "matkit", "ncalg", "partialcvx", "realize", "xycvx",
    "__version__",
]
