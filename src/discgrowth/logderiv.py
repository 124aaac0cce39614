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
from .riesz import ZeroCloud, _half_arcs, _ranges, angles_off_arcs, excluded_arcs

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

# zero_counts pads its angular window by _WINDOW_PAD times the size of its
# angles and of the ring index's keys, far above the rounding of either
_WINDOW_PAD = 2.0**-40


def _pair_distance(g1: float, t1: float, g2: float, t2: float) -> float:
    """|z1 - z2| for points given as (log-gap, angle); stable near the circle."""
    d1, d2 = math.exp(-g1), math.exp(-g2)
    r1, r2 = 1.0 - d1, 1.0 - d2
    s = math.sin(0.5 * (t1 - t2))
    return math.sqrt((d1 - d2) ** 2 + 4.0 * r1 * r2 * s * s)


def zero_counts(cloud: ZeroCloud, zeta: tuple[LogGap, float], h: float) -> tuple[int, float]:
    """(n, N): multiplicity count in the closed disc of radius h about zeta,
    and N = sum mult * log(h/dist) over those zeros (the exact integral of
    n(t)/t).

    The candidates come from the cloud's ring index: the rings whose gap
    passes the radial test below and, on each, the atoms in the angular
    window tz -+ 2 h/|zeta| (wrapped at 2 pi, padded for rounding), found by
    binary search.  The exact tests then run on those atoms alone, so a
    query costs O(rings log N + k) for k atoms in the windows."""
    gz, tz = LogGap(as_g(zeta[0])).g, zeta[1]
    if not math.isfinite(tz):
        raise NumericsError(f"zero_counts needs a finite angle, got {tz}")
    dz = math.exp(-gz)
    if not 0.0 < h < dz:
        raise NumericsError(f"need 0 < h < 1 - |zeta|, got h = {h}")
    n, big_n = 0, 0.0
    # dist >= the radial gap |e^-g - e^-gz|, and the disc about zeta subtends
    # |theta - tz| <= asin(h/|zeta|) < 2 h/|zeta| unless it holds the origin;
    # the factor 2 also covers numpy's rounding
    idx = cloud.ring_index
    runs = idx.near(dz, 2.0 * h)
    rz = -math.expm1(-gz)
    # whole rings for a disc about the origin or a window of 3 rad or more
    half = 2.0 * h / rz if h < rz else math.inf
    reach = half + _WINDOW_PAD * (idx.scale + abs(tz))
    mid = tz % (2.0 * math.pi)
    lo, hi = (mid - reach, mid + reach) if reach < 3.0 else (0.0, 2.0 * math.pi)
    near = idx.window(runs, np.array([[lo]]), np.array([[hi]]))[0]
    wrapped = np.abs((cloud.theta[near] - tz + math.pi) % (2.0 * math.pi) - math.pi)
    near = np.sort(near[wrapped <= half])  # the sums run in cloud order
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
    the periodic trapezoid rule from n_theta >= 1 nodes, doubled up to 5
    times while the estimates differ by more than 1e-6 relative.  The rule
    stops after 6 estimates and returns the last one unconverged; all 16
    counting-integral inputs of the benchmark end this way (last relative
    step 2.9e-5 to 9.1e-4 against 1e-6).  A per-atom arc rule with a
    convergence check is to replace it, in a change that re-records those
    goldens.

    The atoms within h = (1-R)/16 of the circle radially are whole rings of
    the ring index.  An atom adds to N only on its arc of the circle, whose
    half-width comes from its ring in closed form (``_half_arcs``), so each
    estimate tests only the nodes of those arcs, padded for rounding, with
    the expressions of a test at every node: O(atoms + nodes) per estimate.
    Each node sums its atoms in cloud order, so every estimate is the one a
    loop over the atoms at every node gives, bit for bit."""
    gz, tz = LogGap(as_g(z[0])).g, z[1]
    if not math.isfinite(tz):
        raise NumericsError(f"circle_counting_integral needs a finite angle, got {tz}")
    if not n_theta >= 1:
        raise NumericsError(f"circle_counting_integral needs n_theta >= 1, got n_theta = {n_theta}")
    g_r = big_r.g
    if gz == g_r:
        raise NumericsError("|z| = R not allowed")
    h = math.exp(-g_r) / 16.0
    d_r = math.exp(-g_r)
    r_r = 1.0 - d_r
    dz = math.exp(-gz)
    rz = 1.0 - dz

    # atoms within h of the circle radius: whole rings of the ring index
    idx = cloud.ring_index
    runs = idx.near(d_r, h)
    atoms, count = idx.atoms(runs)
    # per ring, dist^2 = a2 + c sin^2 with the scalar float terms the test
    # at every node computed: a2 = (da - d_r)^2 and c = 4 (1 - da) R
    da = [math.exp(-g) for g in idx.g[runs].tolist()]
    a2 = np.array([(d - d_r) ** 2 for d in da])
    c = np.array([4.0 * (1.0 - d) * r_r for d in da])
    da = np.array(da)
    # the arcs within h (1 + _WINDOW_PAD): a margin far above the rounding
    # of dist <= h, also where the arc's end is ill-posed (|dr| near h, or
    # 4 r_a R small against h^2, where rounding moves it by many nodes)
    half = _half_arcs(h * (1.0 + _WINDOW_PAD), da - d_r, r_r, 1.0 - da)
    ring = np.repeat(np.arange(len(runs)), count)
    # in cloud order; an atom with a non-finite angle is at no node
    order = np.argsort(atoms)
    keep = order[np.isfinite(cloud.theta[atoms[order]])]
    at, am, ring = cloud.theta[atoms[keep]], cloud.mult[atoms[keep]], ring[keep]
    if len(at) == 0:
        return 0.0
    mid = np.mod(at, 2.0 * math.pi)
    pad = _WINDOW_PAD * np.abs(at)  # the rounding of thetas - t and of mid

    def value(n: int) -> np.ndarray:
        thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        step = 2.0 * math.pi / n
        reach = half[ring] + step + pad
        lo = np.floor((mid - reach) / step)
        span = np.minimum(np.ceil((mid + reach) / step) - lo + 1.0, n)
        # an arc of n nodes or more takes each node once
        first = np.where(span < n, lo, 0.0).astype(np.intp)
        pos, span = _ranges(first, first + span.astype(np.intp))
        node, atom = pos % n, np.repeat(np.arange(len(at)), span)
        s = np.sin(0.5 * (thetas[node] - at[atom]))
        dist = np.sqrt(a2[ring[atom]] + c[ring[atom]] * s * s)
        inside = dist <= h
        node, atom, dist = node[inside], atom[inside], dist[inside]
        out = np.zeros(n)
        with np.errstate(divide="ignore"):
            np.add.at(out, node, am[atom] * np.log(h / dist))
        nz = np.flatnonzero(out)
        s = np.sin(0.5 * (thetas[nz] - tz))
        out[nz] /= (d_r - dz) ** 2 + 4.0 * r_r * rz * s * s
        return out

    prev = None
    n = n_theta
    for _ in range(6):
        est = float(np.mean(value(n)) * 2.0 * math.pi)
        if prev is not None and abs(est - prev) <= 1e-6 * max(abs(est), 1e-12):
            return est
        prev = est
        n *= 2
    return prev


def sector_crowding(cloud: ZeroCloud, g: LogGap | float) -> int:
    """max over angular offsets of the zero count in the annulus
    r <= |a| <= (1+r)/2 within angular half-width (pi/4)(1-r)."""
    gv = as_g(g)
    if not (gv >= 0.0 and math.isfinite(gv)):
        raise NumericsError(f"sector_crowding needs a log-gap, got {gv}")
    gap = math.exp(-gv)
    # annulus [r, (1+r)/2]: gaps in [gap/2, gap]
    sel = cloud.band(gap / 2.0, gap)
    if not len(sel):
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
    returns log|f^(k)(z)/f^(j)(z)| at z = r(g) e^(i theta) for every angle of
    the ndarray theta (a float where it does not depend on theta); zeros
    optional."""

    log_abs_ratio: Callable[[float, np.ndarray], np.ndarray | float]
    lam: float
    sigma: float
    zeros: ZeroCloud | None = None


def exp_inverse_power_spec(p: float) -> ClosedFormSpec:
    """f = exp((1-z)^-p): zero-free, log|f'/f| = log p + (p+1) log(1/|1-z|),
    lambda_M = sigma_M = p."""
    if not (math.isfinite(p) and p > 0.0):
        raise NumericsError(f"need a finite power p > 0, got power {p}")

    def log_ratio(g: float, theta: np.ndarray) -> np.ndarray:
        gap = math.exp(-g)
        r = 1.0 - gap
        one_minus_z2 = gap * gap + 4.0 * r * np.sin(0.5 * theta) ** 2
        return math.log(p) - 0.5 * (p + 1.0) * np.log(one_minus_z2)

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
    if not eps > 0.0:  # the estimate holds for every eps > 0; also NaN
        raise NumericsError(f"need eps > 0, got {eps}")
    rng = np.random.default_rng(seed)
    expo = 2.0 + max(fspec.lam - (fspec.lam / fspec.sigma if fspec.sigma > 0 else 0.0), 0.0) + eps
    stat_max = 0.0
    excluded = []
    for g_lo, g_hi in windows.intervals:
        for g in np.linspace(g_lo, g_hi, radii_per_window):
            arcs = []
            if fspec.zeros is not None:
                arcs = excluded_arcs(fspec.zeros, g, _radius_budget(g))
                excluded.append((float(g), sum(b - a for a, b in arcs)))
            thetas = np.array(angles_off_arcs(rng, arcs, thetas_per_radius))
            if len(thetas):
                # exp is increasing, so the largest statistic is exp of the
                # largest log statistic (fmax skips NaN, as max() did)
                log_stat = np.asarray(fspec.log_abs_ratio(float(g), thetas)) / (k - j) - expo * g
                stat_max = max(stat_max, math.exp(float(np.fmax.reduce(log_stat, axis=None))))
    fitted_radius_coef = max((m / _radius_budget(g) for g, m in excluded), default=0.0)
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
