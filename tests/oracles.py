"""Oracles the tests compare the production code against; none of this runs
in the library or the command line.  The tests import it as ``oracles``
(``tests`` is on the pytest ``pythonpath``)."""

from __future__ import annotations

import math

import numpy as np

from discgrowth.logderiv import _pair_distance
from discgrowth.numerics import (
    NEG_INF,
    SERIES_CAP,
    TINY_GAP,
    LogGap,
    LogValue,
    NumericsError,
    SeriesCapError,
    as_g,
    gap_diff_log,
    log_r_from_g,
    lse_sum,
)
from discgrowth.profiles import ProfileRangeError, RadialProfile
from discgrowth.riesz import ZeroCloud
from discgrowth.scaffold import GenerationSeed, ScaffoldParams


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


# ---------------------------------------------------------------------------
# The three log-gap series of ``discgrowth.numerics`` as they were before the
# leading-term exits: every loop sums until its relative stopping test fires.
# The library must agree with them bit for bit.


def summed_log_r_from_g(g: float) -> float:
    if g == 0.0:
        return NEG_INF
    if g <= 1.0:
        return math.log(-math.expm1(-g))
    q = math.exp(-g)
    if q < TINY_GAP:
        return -q
    term = q
    acc = q
    for k in range(2, SERIES_CAP + 1):
        term *= q
        inc = term / k
        acc += inc
        if inc < acc * 1e-18:
            return -acc
    raise SeriesCapError("log_r_from_g")


def summed_log_ratio_r(g_hi: float, g_lo: float) -> float:
    if g_hi < g_lo:
        raise NumericsError(f"log_ratio_r needs g_hi >= g_lo, got {g_hi} < {g_lo}")
    dg = g_hi - g_lo
    if dg == 0.0:
        return 0.0
    if g_lo <= 1.0:
        # both radii well inside the disc; relative difference is stable here
        r_lo = -math.expm1(-g_lo)
        if r_lo == 0.0:
            return summed_log_r_from_g(g_hi) - summed_log_r_from_g(g_lo)
        diff = math.exp(-g_lo) * (-math.expm1(-dg))
        ratio = diff / r_lo
        if ratio == math.inf:  # r_lo subnormal, as in the library
            return math.log(diff) - math.log(r_lo)
        return math.log1p(ratio)
    q = math.exp(-g_lo)
    qk = q
    acc = 0.0
    for k in range(1, SERIES_CAP + 1):
        inc = qk / k * (-math.expm1(-k * dg))
        acc += inc
        if inc <= acc * 1e-18 or qk < 1e-320:
            return acc
        qk *= q
    raise SeriesCapError("log_ratio_r")


def summed_log_int_log_ratio(g_r: float, g_a: float, g_b: float, span_ba: float | None = None) -> float:
    if not (g_a <= g_b <= g_r):
        raise NumericsError("log_int_log_ratio needs g_a <= g_b <= g_r")
    if g_a == g_b:
        return NEG_INF
    log_r = summed_log_r_from_g(g_r)
    # w = (r - t)/r; log(r - t) = gap_diff_log(g_t, g_r) for t < r
    log_wa = gap_diff_log(g_a, g_r) - log_r
    if g_b == g_r:
        log_wb = NEG_INF
    else:
        log_wb = gap_diff_log(g_b, g_r) - log_r
    # F(w_a) - F(w_b) summed termwise via w_a^(k+1) - w_b^(k+1)
    #   = (w_a - w_b) * sum_i w_a^i w_b^(k-i)
    wa = math.exp(log_wa)
    wb = 0.0 if log_wb == NEG_INF else math.exp(log_wb)
    if wa > 0.1:
        # wide geometry (possible only at tiny g); do it directly
        f = lambda w: (1.0 - w) * math.log1p(-w) + w if w > 0 else 0.0
        val = f(wa) - f(wb)
        return log_r + math.log(val)
    # log(w_a - w_b) without cancellation; t = log(w_b/w_a), kept even where
    # w_b underflows
    if log_wb != NEG_INF:
        if span_ba is not None:
            t = -span_ba + math.log(-math.expm1(-(g_r - g_b))) - math.log(
                -math.expm1(-(g_r - g_a))
            )
        else:
            t = log_wb - log_wa
        log_dw = log_wa + math.log(-math.expm1(t))
    else:
        t = NEG_INF
        log_dw = log_wa
    if wa < TINY_GAP:
        # the series over w_a is (1 + w_b/w_a)/2 to the last bit; summed, its
        # terms underflow and the stopping test never fires
        return log_r + log_dw + log_wa + math.log1p(math.exp(t)) - math.log(2.0)
    acc = 0.0
    for k in range(1, SERIES_CAP + 1):
        inner = 0.0
        for i in range(k + 1):
            inner += wa**i * wb ** (k - i)
        inc = inner / (k * (k + 1))
        acc += inc
        if inc < acc * 1e-18:
            return log_r + log_dw + math.log(acc)
    raise SeriesCapError("log_int_log_ratio")


# ---------------------------------------------------------------------------
# The four circle queries as they were when each selected its atoms with its
# own mask over every gap in ``cloud.delta``.  The library selects them
# through ``ZeroCloud.band`` and must return the same values, repr for repr.


def masked_excluded_arcs(cloud: ZeroCloud, g_circle: float, eps: float) -> list[tuple[float, float]]:
    """Merged arcs of {theta : dist(r e^(i theta), zeros) <= eps (1-r)} on the
    circle of log-gap g_circle; eps >= 0."""
    if not eps >= 0.0:
        raise NumericsError(f"excluded_arcs needs eps >= 0, got {eps}")
    if eps == 0.0:
        return []
    r = -math.expm1(-g_circle)
    gap = math.exp(-g_circle)
    lim = eps * gap
    # atoms within eps (1 - r) of the circle radially, then their half-arcs;
    # |dr| <= lim as two comparisons, so no second N-sized float temporary
    dr = gap - cloud.delta
    near = (dr <= lim) & (dr >= -lim)
    if not near.any():
        return []
    ga, ta, dr = cloud.g[near], cloud.theta[near], dr[near]
    sin2 = (lim * lim - dr * dr) / (4.0 * r * -np.expm1(-ga))
    half = 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(np.maximum(sin2, 0.0))))
    lo, hi = (ta - half) % (2.0 * math.pi), (ta + half) % (2.0 * math.pi)
    # unwrap: an arc over theta = 0 splits into [lo, 2 pi) and [0, hi)
    wrap = hi < lo
    lo = np.concatenate([lo, np.zeros(np.count_nonzero(wrap))])
    hi = np.concatenate([np.where(wrap, 2.0 * math.pi, hi), hi[wrap]])
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    # an arc opens a new merged arc iff it starts past every end before it
    reach = np.maximum.accumulate(hi)
    start = np.flatnonzero(np.concatenate([[True], lo[1:] > reach[:-1]]))
    end = np.append(start[1:], len(lo)) - 1
    return list(zip(lo[start].tolist(), reach[end].tolist()))


def masked_zero_counts(cloud: ZeroCloud, zeta: tuple[LogGap, float], h: float) -> tuple[int, float]:
    """(n, N): multiplicity count in the closed disc of radius h about zeta,
    and N = sum mult * log(h/dist) over those zeros (the exact integral of
    n(t)/t)."""
    gz = as_g(zeta[0])
    tz = zeta[1]
    if not 0.0 < h < math.exp(-gz):
        raise NumericsError(f"need 0 < h < 1 - |zeta|, got h = {h}")
    n = 0
    big_n = 0.0
    # dist >= the radial gap |e^-g - e^-gz|, and the disc about zeta subtends
    # |theta - tz| <= asin(h/|zeta|) < 2 h/|zeta| unless it holds the origin;
    # the factor 2 also covers numpy's rounding.  Survivors keep cloud order.
    dr = cloud.delta - math.exp(-gz)
    near = np.flatnonzero((dr <= 2.0 * h) & (dr >= -2.0 * h))
    rz = -math.expm1(-gz)
    if h < rz:
        wrapped = np.abs((cloud.theta[near] - tz + math.pi) % (2.0 * math.pi) - math.pi)
        near = near[wrapped <= 2.0 * h / rz]
    for g, t, m in zip(cloud.g[near], cloud.theta[near], cloud.mult[near]):
        d = _pair_distance(gz, tz, g, t)
        if d <= h:
            n += int(m)
            big_n += m * (math.log(h / d) if d > 0.0 else math.inf)
    return n, big_n


def masked_circle_counting_integral(
    cloud: ZeroCloud, z: tuple[LogGap, float], big_r: LogGap, n_theta: int = 512
) -> float:
    """int_0^2pi N(R e^(i theta), (1-R)/16)/|R e^(i theta) - z|^2 d theta by
    the periodic trapezoid rule with refinement until stable."""
    gz = as_g(z[0])
    tz = z[1]
    g_r = big_r.g
    if gz == g_r:
        raise NumericsError("|z| = R not allowed")
    h = math.exp(-g_r) / 16.0
    d_r = math.exp(-g_r)
    r_r = 1.0 - d_r
    dz = math.exp(-gz)
    rz = 1.0 - dz

    # prefilter atoms within h of the circle radius
    dr = cloud.delta - d_r
    keep = (dr <= h) & (dr >= -h)
    ag, at, am = cloud.g[keep], cloud.theta[keep], cloud.mult[keep]
    if len(ag) == 0:
        return 0.0

    def value(thetas: np.ndarray) -> np.ndarray:
        out = np.zeros_like(thetas)
        for g, t, m in zip(ag, at, am):
            da = math.exp(-g)
            ra = 1.0 - da
            s = np.sin(0.5 * (thetas - t))
            dist = np.sqrt((da - d_r) ** 2 + 4.0 * ra * r_r * s * s)
            inside = dist <= h
            with np.errstate(divide="ignore"):
                contrib = np.where(inside, m * np.log(h / dist), 0.0)
            out += contrib
        s = np.sin(0.5 * (thetas - tz))
        denom = (d_r - dz) ** 2 + 4.0 * r_r * rz * s * s
        return out / denom

    prev = None
    n = n_theta
    for _ in range(6):
        thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        est = float(np.mean(value(thetas)) * 2.0 * math.pi)
        if prev is not None and abs(est - prev) <= 1e-6 * max(abs(est), 1e-12):
            return est
        prev = est
        n *= 2
    return prev


def masked_sector_crowding(cloud: ZeroCloud, g: LogGap | float) -> int:
    """max over angular offsets of the zero count in the annulus
    r <= |a| <= (1+r)/2 within angular half-width (pi/4)(1-r)."""
    gv = as_g(g)
    if math.isnan(gv):
        raise NumericsError("sector_crowding needs a log-gap, got nan")
    gap = math.exp(-gv)
    # annulus [r, (1+r)/2]: gaps in [gap/2, gap]
    sel = (cloud.delta <= gap) & (cloud.delta >= gap / 2.0)
    if not np.any(sel):
        return 0
    width = (math.pi / 4.0) * gap
    theta = np.mod(cloud.theta[sel], 2.0 * math.pi)
    order = np.argsort(theta)
    angles = theta[order]
    # windows [angle, angle + 2 width] on the circle unrolled once; the count
    # in each is a difference of the cumulative doubled multiplicities
    ext = np.concatenate([angles, angles + 2.0 * math.pi])
    ends = np.searchsorted(ext, angles + 2.0 * width, "right")
    csum = np.concatenate([[0.0], np.cumsum(np.tile(cloud.mult[sel][order], 2))])
    return int(np.max(csum[ends] - csum[: len(angles)]))


# ---------------------------------------------------------------------------
# The sums of the growth_orders path as they were before they skipped the
# work that cannot change their numbers: every majorant piece and every
# series term summed, the closure through LogValue objects and one draw per
# angle.


def summed_coefficient_integral_log_bound(log_m, k: int, g: float, step: float = 0.01) -> float:
    """log k int_0^r M(t,A)^(1/k) dt over every midpoint of linspace(0, g, n+1)."""
    n = max(2, int(math.ceil(g / step)))
    edges = np.linspace(0.0, g, n + 1)
    lo, hi = edges[:-1], edges[1:]
    log_dr = -lo + np.log(-np.expm1(-(hi - lo)))  # log(e^-lo - e^-hi)
    pieces = np.asarray(log_m(0.5 * (lo + hi)), dtype=float) / k + log_dr
    m = float(np.max(pieces))
    return math.log(k) + m + math.log(float(np.sum(np.exp(pieces - m))))


def summed_log_abs_sum(series, g: LogGap | float) -> float:
    """log sum |f_m| r^m over every nonzero coefficient of a SolutionSeries."""
    t = log_r_from_g(as_g(g))
    if not series._live.size:
        return -math.inf
    vals = series._live * t
    vals += series._live_log
    m = float(np.max(vals))
    vals -= m
    return m + math.log(float(np.sum(np.exp(vals, out=vals))))


def lse_closure_residuals(r: LogGap, seed: GenerationSeed, params: ScaffoldParams) -> tuple[float, float]:
    """(gL, gR) of the closure equation, gL's prefactor through lse_sum."""
    p1 = params.p1
    log_c = params.log_c
    g = r.g
    log_r = log_r_from_g(g)
    w = g + log_c

    # bracketed prefactor of gL, assembled in the log domain
    log_m_span = seed.log_M + gap_diff_log(seed.r_hat.g, seed.r_star.g)
    pre = lse_sum(
        [
            LogValue.pos(seed.log_R),
            LogValue.pos(log_m_span),
            LogValue.neg(math.log(p1) + log_r + seed.r_prime.g),
        ]
    )
    g_l = pre.sign * math.exp(pre.logmag - g - log_r + math.log(w))

    mass = seed.mass_term(g, log_c, seed.r_star.g)
    g_r = seed.slope_term(g) + mass - seed.compensation(g, p1)
    return g_l, g_r


def scalar_angles_off_arcs(rng: np.random.Generator, arcs: list[tuple[float, float]], n: int) -> list[float]:
    """Up to n angles off the closed arcs, from at most 50 n draws of rng.uniform(0, 2 pi)."""
    out = []
    for _ in range(50 * n):
        if len(out) == n:
            break
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        if not any(lo <= t <= hi for lo, hi in arcs):
            out.append(t)
    return out
