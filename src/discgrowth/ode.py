"""The equation f^(k) + A f = 0: power-series solving (log-domain
arithmetic, or plain floats on a shared power-of-two exponent for pole
coefficients), the coefficient-integral growth bound for a log-domain majorant
(``coefficient_integral_log_bound``), order/lower-order estimation from
samples, and the closed-form predictors tying coefficient degrees to
solution orders.

The majorant integral and ``SolutionSeries.log_abs_sum`` sum a window of
their terms: blocks whose bounded sums cannot change a bit of the total are
left out (:func:`_kept_range`), which needs a nondecreasing log M for the
majorant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._accel import taylor_recursion
from .numerics import LogGap, LogValue, NumericalFailure, NumericsError, as_g, integrate, log_r_from_g


class OdeError(NumericsError):
    pass


class OdeOverflowError(OdeError, NumericalFailure):
    """The recursion overflowed: a numerical failure, not bad input."""


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
    power is (1-z)^-p; A_j = scale * p * binom(j+p, p), its log the running
    sum of log1p(p/i) over i <= j."""
    if p < 1:
        raise OdeError(f"pole order must be >= 1, got {p}")
    if degree < 0:
        raise OdeError(f"degree must be >= 0, got {degree}")
    if not (math.isfinite(scale) and scale != 0.0):
        raise OdeError(f"scale must be finite and nonzero, got {scale}")
    logs = np.arange(degree + 1, dtype=float)
    steps = logs[1:]  # log1p(p/j) in place, then their running sum; logs[0] = 0
    np.cumsum(np.log1p(np.divide(p, steps, out=steps), out=steps), out=steps)
    logs += math.log(p) + math.log(abs(scale))
    signs = np.full(degree + 1, math.copysign(1.0, scale))
    return DenseCoeffs(signs, logs, pole=(p, scale))


# ---------------------------------------------------------------------------
# power-series solving


# Windowed sums of positive terms (the majorant integral and log_abs_sum):
# the terms come in blocks whose sums are bounded above and below, and a
# block whose upper bound is below e^-40 / (number of blocks) of the largest
# lower bound can be left out: all such blocks together hold less than
# e^-40 < 2^-57 of the sum, under a quarter ulp of it.  Block sizes: pieces
# of the majorant integral, coefficients of a series.
_DROP_LOG = -40.0
_BLOCK = 256
_SERIES_BLOCK = 64


def _kept_range(upper: np.ndarray, lower: np.ndarray) -> tuple[int, int]:
    """Blocks [a, b) to sum, given bounds e^lower <= block sum <= e^upper:
    from the first to the last block whose upper bound reaches e^-40 /
    len(upper) of the largest lower bound.  Every block when the largest
    lower bound is not finite (also NaN); a NaN upper bound keeps its block."""
    top = float(np.max(lower))
    if not math.isfinite(top):
        return 0, len(upper)
    kept = np.flatnonzero(~(upper < top + _DROP_LOG - math.log(len(upper))))
    return int(kept[0]), int(kept[-1]) + 1


@dataclass
class SolutionSeries:
    """Taylor coefficients of f, in (sign, log|.|) arrays."""

    sign: np.ndarray
    logmag: np.ndarray
    # the indices m of the nonzero coefficients (as floats) and their logs;
    # per block of _SERIES_BLOCK of them, the largest log and the first and
    # last m
    _live: np.ndarray = field(init=False, repr=False, compare=False)
    _live_log: np.ndarray = field(init=False, repr=False, compare=False)
    _block_max: np.ndarray = field(init=False, repr=False, compare=False)
    _block_first: np.ndarray = field(init=False, repr=False, compare=False)
    _block_last: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        live = np.flatnonzero(self.sign != 0.0)
        self._live, self._live_log = live.astype(float), self.logmag[live]
        starts = np.arange(0, len(live), _SERIES_BLOCK)
        self._block_max = np.maximum.reduceat(self._live_log, starts) if len(live) else np.empty(0)
        self._block_first = self._live[starts]
        self._block_last = self._live[np.minimum(starts + _SERIES_BLOCK, len(live)) - 1]

    def __len__(self) -> int:
        return len(self.sign)

    def coeff(self, m: int) -> LogValue:
        if self.sign[m] == 0.0:
            return LogValue.zero()
        return LogValue(int(self.sign[m]), float(self.logmag[m]))

    def log_abs_sum(self, g: LogGap | float) -> float:
        """log sum |f_m| r^m over the nonzero coefficients: equals log M(r, f)
        for nonnegative coefficients (an upper proxy otherwise), up to the
        truncation degree; log|f_0| at r = 0, and -inf when that sum is zero.

        The terms come in blocks of 64 coefficients.  With t = log r <= 0, a
        block's terms lie between L + m_last t and L + m_first t, L the
        block's largest log coefficient and m_first, m_last its end indices
        (64 times that above); only the blocks that can change a bit are
        summed (see :func:`_kept_range`)."""
        t = log_r_from_g(as_g(g))
        if not len(self._live):
            return -math.inf
        if t == -math.inf:  # r = 0: the sum is |f_0|
            return float(self.logmag[0]) if self.sign[0] != 0.0 else -math.inf
        top = self._block_max
        a, b = _kept_range(top + self._block_first * t + math.log(_SERIES_BLOCK), top + self._block_last * t)
        window = slice(a * _SERIES_BLOCK, b * _SERIES_BLOCK)
        vals = self._live[window] * t
        vals += self._live_log[window]
        m = float(np.max(vals))
        vals -= m
        return m + math.log(float(np.sum(np.exp(vals, out=vals))))


def taylor_solve(
    coeffs: DenseCoeffs,
    k: int,
    init: Sequence[LogValue],
    degree: int,
) -> SolutionSeries:
    """Solve f^(k) = -A f by the exact coefficient recursion
    f_{m+k} = -(m!/(m+k)!) sum_j A_j f_{m-j}.

    ``init`` supplies f(0), f'(0), ..., f^(k-1)(0)/(k-1)! as the first k
    Taylor coefficients.

    Path selection: coefficients tagged ``pole=(p, scale)`` with scale < 0,
    nonnegative ``init`` with log magnitudes below 1e15 and no truncation
    (``len(coeffs) > degree - k``) go through :func:`_pole_recursion`,
    O(degree * (p+1)) plain-float multiply-adds on one shared power-of-two
    exponent; every coefficient stays positive there, so nothing cancels.
    Any other input takes the dense O(degree^2) log-domain convolution
    ``_accel.taylor_recursion``.
    """
    if k < 1:
        raise OdeError("k must be >= 1")
    if len(init) != k:
        raise OdeError(f"need exactly k={k} initial coefficients, got {len(init)}")
    if degree < k:
        raise OdeError("degree must be at least k")
    init_log = np.array([v.logmag for v in init])
    if (
        coeffs.pole is not None
        and coeffs.pole[1] < 0.0
        and all(v.sign == 0 or (v.sign > 0 and abs(v.logmag) < 1e15) for v in init)
        and len(coeffs) > degree - k
    ):
        sign, logmag = _pole_recursion(*coeffs.pole, k, degree, init_log)
    else:
        init_sign = np.array([float(v.sign) for v in init])
        sign, logmag = taylor_recursion(coeffs.sign, coeffs.logmag, k, degree, init_sign, init_log)
    if np.any(np.isnan(logmag)):
        m = int(np.flatnonzero(np.isnan(logmag))[0])
        log_a = float(np.max(coeffs.logmag[coeffs.sign != 0.0], initial=0.0))
        log_init = max([0.0] + [v.logmag for v in init if v.sign != 0])
        raise OdeOverflowError(
            f"overflow in the recursion at coefficient {m}: the log magnitudes of the "
            f"coefficients and initial values (up to {max(log_a, log_init):.3g}) are near the "
            "double limit"
        )
    return SolutionSeries(sign, logmag)


# the ceiling of the running sum S^(p), which stays >= 1/2 once nonzero, and
# the exponent range of a plain-float alpha_m: alpha_m S lies in [2^-302, 2^900]
_SUM_HI = 2.0**600
_ALPHA_EXP = 300
_LN2 = math.log(2.0)


def _pole_alpha(p: int, scale: float, k: int, n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """alpha_m = p |scale| / ((m+1)...(m+k)) for m < n as (floats, binary
    exponents): the whole value and None when every alpha_m lies within
    2^+-300, mantissas in [0.5, 1) and their exponents otherwise."""
    mant, exp = math.frexp(-scale)
    a_mant, a_exp = np.full(n, p * mant), np.full(n, exp, dtype=np.int32)
    e = np.empty(n, dtype=np.int32)
    for i in range(1, k + 1):  # divide by m + i, one frexp at a time
        d = np.arange(i, n + i, dtype=float)
        np.frexp(d, out=(d, e))
        a_mant /= d
        a_exp -= e
        np.frexp(a_mant, out=(a_mant, e))
        a_exp += e
    if -_ALPHA_EXP <= a_exp.min() and a_exp.max() <= _ALPHA_EXP:
        return np.ldexp(a_mant, a_exp, out=a_mant), None
    return a_mant, a_exp


def _pole_recursion(p: int, scale: float, k: int, degree: int, init_log: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The recursion of :func:`taylor_solve` for A_j = scale p binom(j+p, p),
    scale < 0, and nonnegative initial values f_0..f_{k-1} with log
    magnitudes ``init_log``; returns (sign, log f_m).

    sum_j binom(j+p, p) f_{m-j} is the (p+1)-fold prefix sum of f (the series
    of (1 - z)^-(p+1) F(z)): s^(i)_m = s^(i)_{m-1} + s^(i-1)_m with s^(0) = f,
    and f_{m+k} = alpha_m s^(p)_m.  Every term is positive, so the p+1 sums
    are plain floats times 2^shared for one shared integer exponent,
    rescaled exactly by a power of two whenever S = s^(p) passes 2^600.  The
    k coefficients not yet summed wait as (float, exponent); one whose
    exponent is not ``shared`` enters the sums by ldexp, or rebases them on
    its own exponent when it starts them or lies more than 2^300 above them,
    so S stays >= 1/2.  With alpha_m split as in :func:`_pole_alpha`, no
    product overflows or underflows for any finite scale.  The exponent of
    f_{m+k} is ``shared`` after step m (logged only when it changes) plus
    that of alpha_m, and the logs are taken once, vectorised.
    """
    n = degree + 1 - k
    alpha, alpha_exp = _pole_alpha(p, scale, k, n)
    pend, pend_exp = [0.0] * k, [0] * k  # f_m..f_{m+k-1}, slot m % k
    for m, v in enumerate(init_log):
        if v > -math.inf:
            pend_exp[m] = math.floor(v / _LN2)
            pend[m] = math.exp(v - pend_exp[m] * _LN2)
    mant = np.zeros(degree + 1)
    out = memoryview(mant)
    ldexp, frexp, hi, cap, ring = math.ldexp, math.frexp, _SUM_HI, _ALPHA_EXP, range(p + 1)
    sums, shared, moves = [0.0] * (p + 1), 0, [(0, 0)]  # (step, shared from that step on)
    alpha_exps = itertools.repeat(0) if alpha_exp is None else memoryview(alpha_exp)
    for m, j, a, a_e in zip(range(n), itertools.cycle(range(k)), memoryview(alpha), alpha_exps):
        x, d = pend[j], pend_exp[j] - shared
        if d and x:
            if d > cap or sums[p] == 0.0:
                # x dominates (or starts) the sums: rebase on x in [0.5, 1)
                x, e = frexp(x)
                d += e
                sums = [ldexp(v, -d) for v in sums]
                shared += d
                moves.append((m, shared))
            else:
                x = ldexp(x, d)
        for i in ring:
            x = sums[i] = sums[i] + x
        if x > hi:
            e = frexp(x)[1]
            sums = [ldexp(v, -e) for v in sums]
            x, shared = sums[p], shared + e
            moves.append((m, shared))
        out[m + k] = pend[j] = a * x
        pend_exp[j] = shared + a_e
    starts, values = np.array(moves).T
    exps = np.repeat(values, np.diff(starts, append=n))
    if alpha_exp is not None:
        exps += alpha_exp
    logmag = mant
    with np.errstate(divide="ignore"):
        np.log(logmag, out=logmag)
    logmag[k:] += exps * _LN2
    logmag[:k] = init_log
    sign = np.where(logmag == -np.inf, 0.0, 1.0)
    return sign, logmag


# ---------------------------------------------------------------------------
# closed-form predictors


def predict_orders(p1: float, p2: float, k: int, p: float) -> tuple[float, float, float]:
    """(sigma_f, lambda_f, alpha): order p2/k - 1, the tuning exponent
    alpha(p) = p1/k - (p1/p)(p2/k - 1) clipped to [p1/p2, 1], and the lower
    order p1/k - alpha."""
    if not k >= 1:
        raise OdeError(f"need k >= 1, got k={k}")
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
    """Deviations |(s/r)^(1/(1-r)) - e| for the paired radius s with
    1-s = C(1-r)^q, computed in the log domain as exp(e^g (log s - log r))."""
    if c <= 0.0 or q <= 1.0:
        raise OdeError("need C > 0 and q > 1")
    out = []
    for g in g_grid:
        g_s = q * g - math.log(c)
        if g_s <= g:
            raise OdeError(f"s <= r at g = {g}; enlarge g or shrink C")
        diff = log_r_from_g(g_s) - log_r_from_g(g)
        val = math.exp(math.exp(g) * diff)
        out.append((g, abs(val - math.e)))
    return out


def _edges(g: float, n: int, idx: np.ndarray) -> np.ndarray:
    """Entries ``idx`` of np.linspace(0, g, n + 1), computed as linspace does."""
    step = g / n
    e = idx * step if step != 0.0 else idx / n * g
    return np.where(idx == n, g, e)


def coefficient_integral_log_bound(
    log_m: Callable[[np.ndarray], np.ndarray], k: int, g: float, step: float = 0.01
) -> float:
    """log of the coefficient-integral bound k int_0^r M(t,A)^(1/k) dt for a
    log-domain majorant, summed piecewise in the log domain so M beyond
    double range stays usable.  Midpoint accuracy is O(step^2) relative.

    The pieces are the midpoints of the grid linspace(0, g, n+1).
    ``log_m`` maps an ndarray of g's to the ndarray of log M values (e.g.
    ``RadialProfile.phi``) and must be nondecreasing in g, as log M(t, A)
    is; a decrease seen between its samples raises :class:`OdeError`.  It is
    called twice: once on the last midpoint of every block of 256 pieces,
    and once on the midpoints of the blocks that are summed.  Since log M
    is nondecreasing, a block's sum lies between its two neighbouring
    samples times the block's closed-form measure e^-lo - e^-hi; the blocks
    outside the first and last whose upper bound reaches e^-40 / (number of
    blocks) of the largest lower bound are left out, so only the pieces
    near the top of the integrand are evaluated (see :func:`_kept_range`)."""
    if not (math.isfinite(g) and g > 0.0):
        raise OdeError(f"g must be finite and > 0, got {g}")
    if not (math.isfinite(step) and step > 0.0):
        raise OdeError(f"step must be finite and > 0, got {step}")
    n = max(2, int(math.ceil(g / step)))
    # block j holds the pieces [first_j, last_j]; it is sampled at last_j
    first = np.arange(0, n, _BLOCK)
    last = np.minimum(first + _BLOCK, n) - 1
    lo, hi = _edges(g, n, first), _edges(g, n, last + 1)
    samples = np.asarray(log_m(0.5 * (_edges(g, n, last) + hi)), dtype=float) / k
    if np.any(samples[1:] < samples[:-1]):
        raise OdeError("log_m must be nondecreasing in g; its block samples decrease")
    log_w = -lo + np.log(-np.expm1(-(hi - lo)))  # log(e^-lo - e^-hi) of each block
    a, b = _kept_range(samples + log_w, np.append(-math.inf, samples[:-1]) + log_w)
    idx = np.arange(a * _BLOCK, min(b * _BLOCK, n))
    lo, hi = _edges(g, n, idx), _edges(g, n, idx + 1)
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


# the fewest samples an order estimate takes
MIN_SAMPLES = 32


def _tail_estimates(
    samples: Sequence[tuple[float, float]], window: float, min_span: float
) -> tuple[Estimate, Estimate]:
    """(lower, upper) indicator estimates from (g, value) samples where the
    indicator is the limit behaviour of value/g."""
    pts = sorted(samples)
    gs = [g for g, _ in pts]
    if len(pts) < MIN_SAMPLES:
        raise OdeError(f"need >= {MIN_SAMPLES} samples, got {len(pts)}")
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
    if not 0.0 < p1 <= p2:
        raise OdeError(f"need 0 < p1 <= p2, got p1={p1}, p2={p2}")
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
