"""Log-derivative machinery: the singular-kernel growth integral, lower-order
radial windows of density one, zero counting n/N, the circle-average
J-integral, sector crowding, and an empirical certificate for the
density-one log-derivative bound.

Radial windows are pairs (g_lo, g_hi) in log-gap coordinates; the dyadic
radii r_nu = 1 - 2^-nu are the default sampling skeleton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import (
    LogGap,
    LogValue,
    NumericsError,
    as_g,
    gap_diff_log,
    integrate,
    lse_sum_floats,
)
from .riesz import ZeroCloud, excluded_arcs

LOG2 = math.log(2.0)


def dyadic_g(nu: int) -> float:
    """g of r_nu = 1 - 2^-nu."""
    return nu * LOG2


@dataclass(frozen=True)
class LogMModel:
    """Radial growth model: logM(g) returns log^+ M(r(g)) as a float, with the
    declared lower/upper growth exponents.  Values must stay below ~1e300 on
    the g-range the caller samples."""

    logM: Callable[[float], float]
    lam: float
    sigma: float

    def __call__(self, g: float) -> float:
        return max(self.logM(g), 0.0)


def power_model(s: float, scale: float = 1.0) -> LogMModel:
    """log^+ M(t) = scale/(1-t)^s."""
    return LogMModel(lambda g: scale * math.exp(s * g), lam=s, sigma=s)


def growth_integral(
    model: LogMModel, alpha: float, big_r: LogGap, r0: LogGap, rel_tol: float = 1e-9
) -> LogValue:
    """(1-R)^(-1/alpha) [ int_0^R log+M(t) (R-t)^(1/alpha - 1) dt + log+M(R0) ].

    The kernel exponent 1/alpha - 1 lies in (0, 1]; the integral runs through
    the endpoint-distance substitution so t -> R never forms R - t by
    subtraction.
    """
    if not 0.5 <= alpha < 1.0:
        raise NumericsError(f"alpha must be in [1/2, 1), got {alpha}")
    if r0.g >= big_r.g:
        raise NumericsError("need R0 < R")
    r_val = big_r.r
    expo = 1.0 / alpha - 1.0

    def endpoint_form(u: float) -> float:
        # t = R - u; g(t) via the gap 1 - t = (1-R) + u
        gap = big_r.gap + u
        g_t = -math.log(gap)
        return model(g_t) * u**expo

    inner = integrate(None, 0.0, r_val, singularity_hint=-expo, endpoint_f=endpoint_form,
                      rel_tol=rel_tol)
    total = inner + model(r0.g)
    if total <= 0.0:
        return LogValue.zero()
    return LogValue.pos(big_r.g / alpha + math.log(total))


# ---------------------------------------------------------------------------
# radial windows and upper density


@dataclass(frozen=True)
class RadialWindowSet:
    """Disjoint increasing radial intervals [g_lo, g_hi]; tail_to_one records
    whether the family is (a truncation of) one accumulating at the boundary,
    which decides how the upper density is estimated."""

    intervals: tuple[tuple[float, float], ...]
    tail_to_one: bool = True

    def __post_init__(self):
        for (a, b) in self.intervals:
            if not (0.0 <= a < b):
                raise NumericsError(f"bad interval ({a}, {b})")
        for (_, b), (a2, _) in zip(self.intervals, self.intervals[1:]):
            if a2 < b:  # touching endpoints allowed (splitting an interval)
                raise NumericsError("intervals must be sorted with disjoint interiors")


def loworder_windows(lam: float, eta: float, g_seq: Sequence[float]) -> RadialWindowSet:
    """Windows [R*, R] with (1-R*)^(lam+eta) = (1-R)^(lam+eta/2), i.e.
    g* = g (lam + eta/2)/(lam + eta).  The eta smallness condition is the
    caller's obligation (it involves the model's order and the kernel alpha).
    """
    if lam < 0.0 or eta <= 0.0:
        raise NumericsError("need lam >= 0 and eta > 0")
    shrink = (lam + eta / 2.0) / (lam + eta)
    iv = []
    for g in sorted(g_seq):
        g_star = g * shrink
        if iv and g_star <= iv[-1][1]:
            raise NumericsError(f"window at g={g} overlaps its predecessor")
        iv.append((g_star, g))
    return RadialWindowSet(tuple(iv), tail_to_one=True)


@dataclass(frozen=True)
class DensityResult:
    value: float
    flagged: bool


def upper_density(ws: RadialWindowSet) -> DensityResult:
    """Upper density of the radial set: sup over interval left endpoints of
    m1(E cap [r,1))/(1-r), evaluated exactly from the endpoints in the log
    domain.  A family not accumulating at the boundary has density 0 (the
    value past its last endpoint); that case comes back flagged."""
    if not ws.intervals:
        return DensityResult(0.0, flagged=False)
    if not ws.tail_to_one:
        return DensityResult(0.0, flagged=True)
    # log lengths of intervals; suffix log-sum-exp tail masses
    log_len = [
        gap_diff_log(a, b) if math.isfinite(b) else -a for a, b in ws.intervals
    ]
    best = 0.0
    suffix = float("-inf")
    for (a, _), ll in zip(reversed(ws.intervals), reversed(log_len)):
        suffix = lse_sum_floats([suffix, ll])
        ratio = math.exp(suffix - (-a))
        best = max(best, ratio)
    return DensityResult(min(best, 1.0), flagged=False)


# ---------------------------------------------------------------------------
# zero counting


def _pair_distance(g1: float, t1: float, g2: float, t2: float) -> float:
    """|z1 - z2| for points given as (log-gap, angle); stable near the circle."""
    d1, d2 = math.exp(-g1), math.exp(-g2)
    r1, r2 = 1.0 - d1, 1.0 - d2
    s = math.sin(0.5 * (t1 - t2))
    return math.sqrt((d1 - d2) ** 2 + 4.0 * r1 * r2 * s * s)


def zero_counts(cloud: ZeroCloud, zeta: tuple[LogGap, float], h: float) -> tuple[int, float]:
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


def circle_counting_integral(
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


def sector_crowding(cloud: ZeroCloud, g: LogGap | float) -> int:
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
# certificate


@dataclass(frozen=True)
class ClosedFormSpec:
    """Instance with a closed-form log-derivative: log_abs_ratio(g, theta)
    returns log|f^(k)(z)/f^(j)(z)|; zeros optional."""

    log_abs_ratio: Callable[[float, float], float]
    lam: float
    sigma: float
    zeros: ZeroCloud | None = None


def exp_inverse_power_spec(p: float) -> ClosedFormSpec:
    """f = exp((1-z)^-p): zero-free, log|f'/f| = log p + (p+1) log(1/|1-z|),
    lambda_M = sigma_M = p."""

    def log_ratio(g: float, theta: float) -> float:
        gap = math.exp(-g)
        r = 1.0 - gap
        one_minus_z2 = gap * gap + 4.0 * r * math.sin(0.5 * theta) ** 2
        return math.log(p) - 0.5 * (p + 1.0) * math.log(one_minus_z2)

    return ClosedFormSpec(log_ratio, lam=p, sigma=p)


@dataclass(frozen=True)
class CertificateReport:
    windows: RadialWindowSet
    max_statistic: float
    excluded_per_circle: list[tuple[float, float]]
    fitted_radius_coef: float
    eps: float
    k: int
    j: int


def logderiv_certificate(
    fspec: ClosedFormSpec,
    k: int,
    j: int,
    eps: float,
    windows: RadialWindowSet,
    thetas_per_radius: int = 64,
    radii_per_window: int = 8,
    seed: int = 0,
) -> CertificateReport:
    """Samples |f^(k)/f^(j)|^(1/(k-j)) (1-r)^(2+(lam-lam/sigma)^+ + eps) over
    the windows, excluding shrinking neighborhoods of the zeros; reports the
    max statistic and, when zeros exist, the per-circle excluded measure
    against the (1-R)/(-log(1-R)-1) radius budget."""
    if not k > j >= 0:
        raise NumericsError("need k > j >= 0")
    rng = np.random.default_rng(seed)
    expo = 2.0 + max(fspec.lam - (fspec.lam / fspec.sigma if fspec.sigma > 0 else 0.0), 0.0) + eps
    stat_max = 0.0
    excluded = []
    for g_lo, g_hi in windows.intervals:
        for g in np.linspace(g_lo, g_hi, radii_per_window):
            arcs = []
            if fspec.zeros is not None:
                budget_eps = _radius_budget(g)
                arcs = excluded_arcs(fspec.zeros, g, budget_eps)
                excluded.append((float(g), sum(b - a for a, b in arcs)))
            count = 0
            guard = 0
            while count < thetas_per_radius and guard < 50 * thetas_per_radius:
                guard += 1
                t = float(rng.uniform(0.0, 2.0 * math.pi))
                if any(a <= t <= b for a, b in arcs):
                    continue
                count += 1
                log_stat = fspec.log_abs_ratio(float(g), t) / (k - j) - expo * g
                stat_max = max(stat_max, math.exp(log_stat))
    fitted_radius_coef = 0.0
    if excluded:
        coefs = []
        for g, m in excluded:
            budget = _radius_budget(g)
            if budget > 0:
                coefs.append(m / budget)
        fitted_radius_coef = max(coefs, default=0.0)
    return CertificateReport(
        windows=windows,
        max_statistic=stat_max,
        excluded_per_circle=excluded,
        fitted_radius_coef=fitted_radius_coef,
        eps=eps,
        k=k,
        j=j,
    )


def _radius_budget(g: float) -> float:
    """(1-R)/(-log(1-R) - 1), the zero-neighborhood radius budget, expressed
    as a multiple of (1-R): 1/(g-1) for g > 1."""
    return 1.0 / (g - 1.0) if g > 2.0 else 1.0
