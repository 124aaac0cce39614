"""The equation f^(k) + A f = 0: power-series solving in log-domain
arithmetic, the coefficient-majorant growth bound, order/lower-order
estimation from samples, and the closed-form predictors tying coefficient
degrees to solution orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._accel import taylor_recursion
from .numerics import LogGap, LogValue, NumericsError, as_g, integrate, log_r_from_g


class OdeError(NumericsError):
    pass


# ---------------------------------------------------------------------------
# coefficient specifications


@dataclass(frozen=True)
class DenseCoeffs:
    """Taylor coefficients of A as parallel (sign, log|.|) arrays.
    ``pole=(p, scale)`` marks A = scale * p (1-z)^-(p+1), unlocking the
    O(degree * p) recursion in :func:`taylor_solve`."""

    sign: np.ndarray
    logmag: np.ndarray
    pole: tuple[int, float] | None = None

    @classmethod
    def from_values(cls, values: Sequence[LogValue]) -> "DenseCoeffs":
        return cls(
            np.array([float(v.sign) for v in values]),
            np.array([v.logmag for v in values]),
        )

    @classmethod
    def from_floats(cls, values: Sequence[float]) -> "DenseCoeffs":
        return cls.from_values([LogValue.from_float(v) for v in values])

    def __len__(self) -> int:
        return len(self.sign)


def pole_coeffs(p: int, degree: int, scale: float = 1.0) -> DenseCoeffs:
    """A(z) = scale * p (1-z)^-(p+1): the coefficient whose antiderivative
    power is (1-z)^-p; A_j = scale * p * binom(j+p, p)."""
    if p < 1:
        raise OdeError(f"pole order must be >= 1, got {p}")
    if scale == 0.0:
        raise OdeError("scale must be nonzero")
    logs = np.empty(degree + 1)
    signs = np.full(degree + 1, math.copysign(1.0, scale))
    acc = math.log(p) + math.log(abs(scale))
    for j in range(degree + 1):
        if j > 0:
            acc += math.log(j + p) - math.log(j)
        logs[j] = acc
    return DenseCoeffs(signs, logs, pole=(p, scale))


@dataclass(frozen=True)
class MajorantModel:
    """Radial majorant M(t, A): log-domain callable plus declared degrees.
    ``power=(B, s)`` marks the pure-power model M(t) = B (1-t)^-s, unlocking
    the closed-form antiderivative in the growth bound."""

    log_M: Callable[[float], float]  # g -> log M(r(g), A)
    p1: float
    p2: float
    power: tuple[float, float] | None = None

    @classmethod
    def pure_power(cls, b: float, s: float) -> "MajorantModel":
        return cls(lambda g: math.log(b) + s * g, p1=s, p2=s, power=(b, s))


# ---------------------------------------------------------------------------
# power-series solving


@dataclass
class SolutionSeries:
    """Taylor coefficients of f scaled by rho^m, in (sign, log|.|) arrays."""

    sign: np.ndarray
    logmag: np.ndarray
    k: int
    log_rho: float = 0.0

    def __len__(self) -> int:
        return len(self.sign)

    def coeff(self, m: int) -> LogValue:
        if self.sign[m] == 0.0:
            return LogValue.zero()
        return LogValue(int(self.sign[m]), float(self.logmag[m] - m * self.log_rho))

    def log_abs_sum(self, g: LogGap | float) -> float:
        """log sum |f_m| r^m: equals log M(r, f) for nonnegative coefficients
        (an upper proxy otherwise), up to the truncation degree."""
        gv = as_g(g)
        t = log_r_from_g(gv) - self.log_rho
        live = self.sign != 0.0
        vals = self.logmag[live] + np.arange(len(self.sign))[live] * t
        m = float(np.max(vals))
        return m + math.log(float(np.sum(np.exp(vals - m))))

    def log_max_term(self, g: LogGap | float) -> float:
        gv = as_g(g)
        t = log_r_from_g(gv) - self.log_rho
        live = self.sign != 0.0
        vals = self.logmag[live] + np.arange(len(self.sign))[live] * t
        return float(np.max(vals))

    def central_index(self, g: LogGap | float) -> int:
        gv = as_g(g)
        t = log_r_from_g(gv) - self.log_rho
        live = np.nonzero(self.sign != 0.0)[0]
        vals = self.logmag[live] + live * t
        return int(live[np.argmax(vals)])


def taylor_solve(
    coeffs: DenseCoeffs,
    k: int,
    init: Sequence[LogValue],
    degree: int,
    rho: float = 1.0,
) -> SolutionSeries:
    """Solve f^(k) = -A f by the exact coefficient recursion
    f_{m+k} = -(m!/(m+k)!) sum_j A_j f_{m-j}, in scaled log-domain arithmetic.

    ``init`` supplies f(0), f'(0), ..., f^(k-1)(0)/(k-1)! as the first k
    Taylor coefficients.

    Path selection: coefficients tagged ``pole=(p, scale)`` with scale < 0,
    nonnegative ``init`` and no truncation (``len(coeffs) > degree - k``) go
    through :func:`_pole_recursion`, O(degree * (p+1)); every coefficient
    stays positive there, so nothing cancels.  Any other input takes the
    dense O(degree^2) convolution ``_accel.taylor_recursion``.
    """
    if k < 1:
        raise OdeError("k must be >= 1")
    if len(init) != k:
        raise OdeError(f"need exactly k={k} initial coefficients, got {len(init)}")
    if degree < k:
        raise OdeError("degree must be at least k")
    if rho <= 0.0:
        raise OdeError("rho must be positive")
    log_rho = math.log(rho)
    # scaled variables c_m = f_m rho^m satisfy the same recursion with
    # A_j replaced by A_j rho^(j+k)
    a_sign = coeffs.sign.copy()
    a_log = coeffs.logmag + (np.arange(len(coeffs)) + k) * log_rho
    init_sign = np.array([float(v.sign) for v in init])
    init_log = np.array([v.logmag + m * log_rho for m, v in enumerate(init)])
    if (
        coeffs.pole is not None
        and coeffs.pole[1] < 0.0
        and np.all(init_sign >= 0.0)
        and len(coeffs) > degree - k
    ):
        sign, logmag = _pole_recursion(coeffs.pole[0], a_log[0], k, degree, log_rho, init_log)
    else:
        sign, logmag = taylor_recursion(a_sign, a_log, k, degree, init_sign, init_log)
    if np.any(np.isnan(logmag)):
        raise OdeError("overflow in scaled recursion; use a smaller rho")
    return SolutionSeries(sign, logmag, k=k, log_rho=log_rho)


def _pole_recursion(
    p: int, log_a0: float, k: int, degree: int, log_rho: float, init_log: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The recursion of :func:`taylor_solve` for the scaled pole coefficient
    a_j = a_0 binom(j+p, p) rho^j, a_0 < 0, and nonnegative initial values.

    sum_j binom(j+p, p) rho^j c_{m-j} is the (p+1)-fold geometric prefix sum
    of c (the series of (1 - rho z)^-(p+1) C(z)):
    s^(i)_m = rho s^(i)_{m-1} + s^(i-1)_m with s^(0) = c.  Those p+1 running
    sums are kept as logs; all terms are positive, so log-add-exp is exact
    up to rounding.
    """
    logmag = np.full(degree + 1, -np.inf)
    logmag[:k] = init_log
    sums = [-math.inf] * (p + 1)
    for m in range(degree + 1 - k):
        s = float(logmag[m])
        for i in range(p + 1):
            a, b = log_rho + sums[i], s
            if a < b:
                a, b = b, a
            if b != -math.inf:
                a += math.log1p(math.exp(b - a))
            sums[i] = s = a
        if s == -math.inf:
            continue
        fact = 0.0
        for i in range(1, k + 1):
            fact += math.log(m + i)
        logmag[m + k] = log_a0 + s - fact
    sign = np.where(logmag == -np.inf, 0.0, 1.0)
    return sign, logmag


def growth_majorant(model: MajorantModel, k: int, g: LogGap | float) -> LogValue:
    """The coefficient-integral growth bound k int_0^r M(t,A)^(1/k) dt as a
    bound for log M(r, f)."""
    gv = as_g(g)
    if model.power is not None:
        b, s = model.power
        e = s / k
        if e > 1.0:
            # k B^(1/k) ((1-r)^(1-e) - 1)/(e-1)
            val = k * b ** (1.0 / k) * (math.exp((e - 1.0) * gv) - 1.0) / (e - 1.0)
        elif e == 1.0:
            val = k * b ** (1.0 / k) * gv
        else:
            val = k * b ** (1.0 / k) * (1.0 - math.exp(-(1.0 - e) * gv)) / (1.0 - e)
        return LogValue.from_float(val)
    r = LogGap(gv).r if gv <= 36.0 else None
    if r is None:
        raise OdeError("callable majorants integrate only for g <= 36; use a power model")
    val = k * integrate(
        lambda t: math.exp(model.log_M(-math.log1p(-t)) / k), 0.0, r, rel_tol=1e-9
    )
    return LogValue.from_float(val)


# ---------------------------------------------------------------------------
# closed-form predictors


def predict_orders(p1: float, p2: float, k: int, p: float) -> tuple[float, float, float]:
    """(sigma_f, lambda_f, alpha): order p2/k - 1, the tuning exponent
    alpha(p) = p1/k - (p1/p)(p2/k - 1) clipped to [p1/p2, 1], and the lower
    order p1/k - alpha."""
    if not (k <= p1 <= p2 <= p):
        raise OdeError(f"need k <= p1 <= p2 <= p, got k={k}, p1={p1}, p2={p2}, p={p}")
    if not p2 > 2 * k:
        raise OdeError(f"need p2 > 2k, got p2={p2}, k={k}")
    sigma_f = p2 / k - 1.0
    alpha = p1 / k - (p1 / p) * sigma_f
    alpha = min(1.0, max(p1 / p2, alpha))
    lambda_f = p1 / k - alpha
    return sigma_f, lambda_f, alpha


def quadratic_growth_exponents(k: int, p1: float, p2: float, eps: float) -> tuple[float, float, float]:
    """(xi_eps, beta, identity residual): xi solves x^2 - kx - p1(p2+eps-k)=0,
    beta = (xi+eps)(xi+eps-k)/(p2+eps-k); the residual checks
    (1/beta)((xi+eps)/k - 1) = (1/(xi+eps))((p2+eps)/k - 1)."""
    if not (p2 > 2 * k >= 2):
        raise OdeError(f"need p2 > 2k >= 2, got p2={p2}, k={k}")
    if not (0 < p1 <= p2):
        raise OdeError(f"need 0 < p1 <= p2, got p1={p1}, p2={p2}")
    cap = (p2 - p1) * (p2 - k) / p1
    if p1 < p2 and not 0.0 <= eps < cap:
        raise OdeError(f"eps must lie in [0, {cap:.6g}), got {eps}")
    if p1 == p2 and eps == 0.0:
        xi = float(p2)  # exact: the quadratic factors through 2p - k
    else:
        xi = 0.5 * (k + math.sqrt(k * k + 4.0 * p1 * (p2 + eps - k)))
    beta = (xi + eps) * (xi + eps - k) / (p2 + eps - k)
    lhs = ((xi + eps) / k - 1.0) / beta
    rhs = ((p2 + eps) / k - 1.0) / (xi + eps)
    return xi, beta, abs(lhs - rhs)


def two_scale_orders(alpha: float, kappa1: float, kappa2: float) -> tuple[float, float]:
    """(sigma, lambda) of the two-scale boundary-mass family: bounded below
    kappa1, two-branch lower exponent across alpha = 1."""
    if not 0.0 < kappa1 < kappa2 < 1.0:
        raise OdeError(f"need 0 < kappa1 < kappa2 < 1, got {kappa1}, {kappa2}")
    if alpha == 1.0:
        raise OdeError("alpha = 1 is outside the formula's range")
    if alpha < kappa1:
        return 0.0, 0.0
    sigma = alpha - kappa1
    if alpha > 1.0:
        lam = alpha - kappa2
    else:
        lam = alpha * (alpha - kappa1) * (1.0 - kappa2) / (
            alpha * (1.0 - kappa2) + kappa2 - kappa1
        )
    return sigma, lam


def paired_radius_limit(c: float, q: float, g_grid: Sequence[float]) -> list[tuple[float, float]]:
    """Deviations |(rho/r)^(1/(1-r)) - e| with 1-rho = C(1-r)^q, computed in
    the log domain as exp(e^g (log rho - log r))."""
    if c <= 0.0 or q <= 1.0:
        raise OdeError("need C > 0 and q > 1")
    out = []
    for g in g_grid:
        g_rho = q * g - math.log(c)
        if g_rho <= g:
            raise OdeError(f"rho <= r at g = {g}; enlarge g or shrink C")
        diff = log_r_from_g(g_rho) - log_r_from_g(g)
        val = math.exp(math.exp(g) * diff)
        out.append((g, abs(val - math.e)))
    return out


def coefficient_integral_log_bound(
    log_m: Callable[[np.ndarray], np.ndarray], k: int, g: float, step: float = 0.01
) -> float:
    """log of the coefficient-integral bound k int_0^r M(t,A)^(1/k) dt for a
    log-domain majorant, summed piecewise in the log domain so M beyond
    double range stays usable.  Midpoint accuracy is O(step^2) relative.

    ``log_m`` maps an ndarray of g's to the ndarray of log M values (e.g.
    ``RadialProfile.phi``); it is called once, on the midpoints of the grid
    linspace(0, g, n+1)."""
    if g <= 0.0:
        raise OdeError("need g > 0")
    n = max(2, int(math.ceil(g / step)))
    edges = np.linspace(0.0, g, n + 1)
    lo, hi = edges[:-1], edges[1:]
    log_dr = -lo + np.log(-np.expm1(-(hi - lo)))  # log(e^-lo - e^-hi)
    pieces = np.asarray(log_m(0.5 * (lo + hi)), dtype=float) / k + log_dr
    m = float(np.max(pieces))
    return math.log(k) + m + math.log(float(np.sum(np.exp(pieces - m))))


# ---------------------------------------------------------------------------
# integrated log-derivative comparison (area integral vs characteristic)


@dataclass(frozen=True)
class AnalyticSpec:
    """Closed-form instance on a disc of radius up to R (plain coordinates):
    log|f^(k)/f^(j)| and log|f| as functions of z."""

    log_abs_ratio: Callable[[complex], float]
    log_abs_f: Callable[[complex], float]


def annulus_logderiv_check(
    spec: AnalyticSpec,
    k: int,
    j: int,
    r_inner: float,
    r: float,
    big_r: float,
    n_theta: int = 256,
    rel_tol: float = 1e-7,
) -> tuple[float, float]:
    """(lhs, rhs): the annulus integral of |f^(k)/f^(j)|^(1/(k-j)) against the
    shape R log(e(R-r')/(R-r)) (1 + log^+ 1/(R-r) + T(R,f)), with T the
    circle average of log^+|f|."""
    if not 0.0 <= r_inner < r < big_r:
        raise OdeError("need 0 <= r_inner < r < R")
    if not k > j >= 0:
        raise OdeError("need k > j >= 0")
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)

    def ring_mean(s: float) -> float:
        vals = [spec.log_abs_ratio(s * complex(math.cos(t), math.sin(t))) for t in thetas]
        vals = np.array(vals) / (k - j)
        finite = vals > -700.0
        if not np.any(finite):
            return 0.0
        return float(np.mean(np.where(finite, np.exp(np.where(finite, vals, 0.0)), 0.0)))

    lhs = 2.0 * math.pi * integrate(lambda s: s * ring_mean(s), r_inner, r, rel_tol=rel_tol)
    t_vals = [max(spec.log_abs_f(big_r * complex(math.cos(t), math.sin(t))), 0.0) for t in thetas]
    t_char = float(np.mean(t_vals))
    rhs = (
        big_r
        * math.log(math.e * (big_r - r_inner) / (big_r - r))
        * (1.0 + max(math.log(1.0 / (big_r - r)), 0.0) + t_char)
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# order estimation and the inequality audit


@dataclass(frozen=True)
class Estimate:
    tail: float  # tail extremum of the ratio
    slope: float  # secant slope over the window


@dataclass(frozen=True)
class GrowthIndicators:
    lambda_M: Estimate | None
    sigma_M: Estimate | None
    lambda_star: Estimate | None = None
    sigma_star: Estimate | None = None
    lambda_deg: Estimate | None = None
    sigma_deg: Estimate | None = None
    window: tuple[float, float] | None = None


def _tail_estimates(
    samples: Sequence[tuple[float, float]], window: float, min_span: float
) -> tuple[Estimate, Estimate]:
    """(lower, upper) indicator estimates from (g, value) samples where the
    indicator is the limit behaviour of value/g."""
    pts = sorted(samples)
    gs = [g for g, _ in pts]
    if len(pts) < 32:
        raise OdeError(f"need >= 32 samples, got {len(pts)}")
    if gs[-1] - gs[0] < min_span:
        raise OdeError(f"samples span {gs[-1] - gs[0]:.2f} in g; need >= {min_span}")
    cut = gs[-1] - window * (gs[-1] - gs[0])
    tail = [(g, v) for g, v in pts if g >= cut]
    ratios = [v / g for g, v in tail]
    lo, hi = min(ratios), max(ratios)
    slope = (tail[-1][1] - tail[0][1]) / (tail[-1][0] - tail[0][0])
    return Estimate(lo, slope), Estimate(hi, slope)


def estimate_orders(
    loglog_m: Sequence[tuple[float, float]],
    log_k: Sequence[tuple[float, float]] | None = None,
    log_m: Sequence[tuple[float, float]] | None = None,
    window: float = 0.5,
    min_span: float = 6.0,
) -> GrowthIndicators:
    """Indicator estimates from samples of log^+log^+M (orders), optionally
    log^+K (star indicators) and log^+M (degrees).  Both a tail-extremum and
    a secant-slope estimator ship for each; limsup/liminf can only be
    bracketed by finite data, so neither is preferred silently.

    min_span guards asymptotic honesty; pipelines reading truncated Taylor
    solutions lower it explicitly, because the trustworthy g-window is capped
    by the truncation degree.
    """
    lam, sig = _tail_estimates(loglog_m, window, min_span)
    out = {"lambda_M": lam, "sigma_M": sig}
    if log_k is not None:
        ls, ss = _tail_estimates(log_k, window, min_span)
        out["lambda_star"], out["sigma_star"] = ls, ss
    if log_m is not None:
        ld, sd = _tail_estimates(log_m, window, min_span)
        out["lambda_deg"], out["sigma_deg"] = ld, sd
    gs = [g for g, _ in loglog_m]
    return GrowthIndicators(window=(min(gs), max(gs)), **out)


@dataclass(frozen=True)
class AuditRow:
    name: str
    passed: bool
    margin: float
    detail: str


def audit_inequalities(
    indicators: GrowthIndicators, p1: float, p2: float, k: int, band_tol: float = 0.15
) -> list[AuditRow]:
    """The two structural growth inequalities for an instance with declared degrees:
    the lower-degree bound p1/k - 1 <= 1 + (lam - lam/sig)^+ and the
    regular-growth band for lam.

    Each check reads the estimator on its conservative side: the inequality
    takes the larger of the tail/slope estimates (finite range biases them
    downward), the band takes the tail-extremum liminf estimator.
    """
    lam_hi = max(indicators.lambda_M.tail, indicators.lambda_M.slope)
    sig_hi = max(indicators.sigma_M.tail, indicators.sigma_M.slope)
    plus = max(lam_hi - (lam_hi / sig_hi if sig_hi > 0 else 0.0), 0.0)
    lhs = p1 / k - 1.0
    rhs = 1.0 + plus
    row1 = AuditRow(
        name="lower-degree-vs-lower-order",
        passed=rhs - lhs >= 0.0,
        margin=rhs - lhs,
        detail=f"p1/k-1 = {lhs:.6g} <= 1+(lam-lam/sig)^+ = {rhs:.6g}",
    )
    lam_tail = indicators.lambda_M.tail
    lo = (p1 - 2.0 * k) / (p2 - 2.0 * k) * (p2 / k - 1.0) if p2 > 2 * k else 0.0
    hi = p1 / p2 * (p2 / k - 1.0)
    inside = lo - band_tol <= lam_tail <= hi + band_tol
    row2 = AuditRow(
        name="regular-band-contains-lambda",
        passed=inside,
        margin=min(lam_tail - (lo - band_tol), (hi + band_tol) - lam_tail),
        detail=f"lam = {lam_tail:.6g} vs band [{lo:.6g}, {hi:.6g}] +/- {band_tol}",
    )
    return [row1, row2]
