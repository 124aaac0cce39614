"""Oracles the tests compare the production code against; none of this runs
in the library or the command line.  The tests import it as ``oracles``
(``tests`` is on the pytest ``pythonpath``)."""

from __future__ import annotations

import math

from discgrowth.numerics import LogValue, log_r_from_g
from discgrowth.profiles import ProfileRangeError, RadialProfile


def power_majorant_bound(b: float, s: float, k: int, g: float) -> float:
    """k int_0^r (B (1-t)^-s)^(1/k) dt at r = 1 - e^-g, in closed form."""
    e = s / k
    if e > 1.0:
        # k B^(1/k) ((1-r)^(1-e) - 1)/(e-1)
        return k * b ** (1.0 / k) * (math.exp((e - 1.0) * g) - 1.0) / (e - 1.0)
    if e == 1.0:
        return k * b ** (1.0 / k) * g
    return k * b ** (1.0 / k) * (1.0 - math.exp(-(1.0 - e) * g)) / (1.0 - e)


def junction_distance(prof: RadialProfile, g: float) -> float:
    """Distance in g to the nearest branch boundary (or domain edge)."""
    d = min(abs(g - b[0]) for b in prof._bounds)
    return min(d, abs(prof.g_end - g))


def laplacian_fd(prof: RadialProfile, g: float, h: float | None = None) -> tuple[LogValue, float]:
    """Finite-difference radial Laplacian from phi alone.

    Uses psi(g) = phi(r(g)): (1/r)(r phi')' = (psi'' + psi') e^{2g}
    + psi' e^g / r, with 4th-order central differences in g.  Returns the
    value and the O(1) inner quantity (psi''+psi') + psi' e^{-g}/r whose
    size calibrates zero-Laplacian branches.
    """
    if h is None:
        h = min(1e-2, 0.15 * junction_distance(prof, g))
    if h <= 0.0:
        raise ProfileRangeError(f"no room for a finite-difference stencil at g={g}")
    f = prof.phi
    f2p, f1p, f0, f1m, f2m = f(g + 2 * h), f(g + h), f(g), f(g - h), f(g - 2 * h)
    d1 = (-f2p + 8.0 * f1p - 8.0 * f1m + f2m) / (12.0 * h)
    d2 = (-f2p + 16.0 * f1p - 30.0 * f0 + 16.0 * f1m - f2m) / (12.0 * h * h)
    r_log = log_r_from_g(g)
    inner = (d2 + d1) + d1 * math.exp(-g - r_log)
    if inner == 0.0:
        return LogValue.zero(), 0.0
    return LogValue(1 if inner > 0 else -1, 2.0 * g + math.log(abs(inner))), inner
