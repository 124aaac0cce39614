"""Numerical laboratory for irregular growth of solutions of f^(k) + A f = 0
in the unit disc: doubly-exponentially thinning radial scaffolds, piecewise
subharmonic profiles, equal-mass Riesz-measure discretization with surrogate
zeros, maximum-term machinery for sparse power series, log-derivative window
estimates, and closed-form growth predictors.
"""

from .numerics import LogGap, LogValue, find_root, integrate, lse_sum
from .profiles import RadialProfile
from .scaffold import IrregularScaffold, ScaffoldParams, build_scaffold

__version__ = "0.1.0"

__all__ = [
    "IrregularScaffold",
    "LogGap",
    "LogValue",
    "RadialProfile",
    "ScaffoldParams",
    "build_scaffold",
    "find_root",
    "integrate",
    "lse_sum",
    "__version__",
]
