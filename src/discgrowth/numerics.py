"""Shared numeric substrate.

Radii near the unit circle are handled through the log-gap coordinate
g = log(1/(1-r)); quantities that overflow a double (1/(1-r), ring masses,
coefficient magnitudes) only ever appear through their logarithms, carried by
:class:`LogValue`.  On top of that sit a signed log-sum-exp, a deterministic
bracketed root finder and an adaptive Gauss-Kronrod quadrature with an
exponential substitution for endpoint singularities.

Everything here is pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

NEG_INF = float("-inf")

# relative size under which a signed sum is flagged as catastrophically
# cancelled (result tiny against the largest term)
CANCEL_RATIO = 1e-12

# w_a below which the mass integral's series is replaced by its closed form
# (1 + w_b/w_a)/2; its relative stopping test underflows to 0 below ~1e-306
TINY_GAP = 1e-300

# Series variable x (q = e^(-g), or w_a of the mass integral) at and below
# which each log-gap series is its first term t_1 to the last bit.  Every
# later term obeys t_k <= x^(k-1) t_1 (q^k/k; q^k (1 - e^(-k dg))/k with
# 1 - e^(-k dg) <= k (1 - e^(-dg)); 2 sum_i w_a^i w_b^(k-i)/(k(k+1)) against
# (w_a + w_b)/2), and adding t < ulp(s)/2 to s leaves s unchanged, where
# ulp(s)/2 > 2^-54 s for normal s (Higham 2002, sec. 2.1).  At x <= 2^-56
# (g >= 38.82) the terms sit a factor 4 below that half ulp, which covers
# their own rounding, and next to a subnormal s they underflow to 0.  So the
# loops would return their k = 1 value; the exits compute it the same way.
_LEAD_X = 2.0**-56

# log-gap past which log(r_hi/r_lo) is its leading term e^(-g_lo)(1 - e^(-dg))
# to the last bit (the correction is ~e^(-g_lo) relative)
LEAD_ONLY_G = 700.0

# iteration cap of every log-gap series loop: converging series stop within
# ~40 terms, log_ratio_r's q^k < 1e-320 guard within ~740
SERIES_CAP = 1000


class NumericsError(ValueError):
    """Base class for numeric failures in this package."""


class BracketError(NumericsError):
    """No sign change over the supplied bracket."""

    def __init__(self, msg, lo, hi, f_lo, f_hi):
        super().__init__(f"{msg}: f({lo!r})={f_lo!r}, f({hi!r})={f_hi!r}")
        self.lo, self.hi, self.f_lo, self.f_hi = lo, hi, f_lo, f_hi


class RootConvergenceError(NumericsError):
    """Root iteration ran out of iterations; carries the last bracket."""

    def __init__(self, msg, lo, hi, f_lo, f_hi):
        super().__init__(f"{msg}: root in [{lo!r}, {hi!r}], f={f_lo!r}, {f_hi!r}")
        self.lo, self.hi, self.f_lo, self.f_hi = lo, hi, f_lo, f_hi


class SeriesCapError(NumericsError):
    """A log-gap series ran SERIES_CAP terms without converging."""

    def __init__(self, name):
        super().__init__(f"{name}: series did not converge in {SERIES_CAP} terms")


class QuadratureError(NumericsError):
    """Adaptive refinement did not converge; carries the last two estimates."""

    def __init__(self, msg, previous, last):
        super().__init__(f"{msg} (previous={previous!r}, last={last!r})")
        self.previous = previous
        self.last = last


# ---------------------------------------------------------------------------
# log-gap coordinate


@dataclass(frozen=True, order=True)
class LogGap:
    """A radius r in [0,1) stored as g = log(1/(1-r)).

    For g <= 30 the map r <-> g round-trips to ~1e-16 relative; for larger g
    only g is authoritative and 1 - r underflows by design.
    """

    g: float

    def __post_init__(self):
        if not (self.g >= 0.0 and math.isfinite(self.g)):
            raise NumericsError(f"log-gap must be finite and >= 0, got {self.g}")

    @classmethod
    def from_r(cls, r: float) -> "LogGap":
        if not 0.0 <= r < 1.0:
            raise NumericsError(f"radius must be in [0,1), got {r}")
        g = -math.log1p(-r)
        if g > 30.0:
            raise NumericsError(
                f"raw radius too close to 1 (g={g:.3g} > 30); construct from g directly"
            )
        return cls(g)

    @property
    def r(self) -> float:
        """1 - e^(-g); rounds to 1.0 for g beyond ~37."""
        return -math.expm1(-self.g)

    @property
    def gap(self) -> float:
        """1 - r = e^(-g); underflows to 0.0 for g beyond ~745."""
        return math.exp(-self.g)

    def u(self, log_c: float) -> float:
        """log(C/(1-r)) = g + log C."""
        return self.g + log_c


def as_g(g: LogGap | float) -> float:
    """The g-value of a radius argument given as a LogGap or a raw g."""
    return g.g if isinstance(g, LogGap) else float(g)


def log_r_from_g(g: float) -> float:
    """log r for r = 1 - e^(-g), accurate in absolute terms at any g >= 0.

    For g > 1 the series log(1-q) = -sum q^k/k in q = e^(-g) converges fast
    and keeps n*log r products meaningful for astronomically large n; below
    that a direct expm1 evaluation is exact enough.  Once q <= 2^-56
    (g >= 38.82) the next term is below half an ulp of q and log r = -q.
    A negative or NaN g raises :class:`NumericsError`.
    """
    if not g >= 0.0:
        raise NumericsError(f"log_r_from_g needs g >= 0, got {g}")
    if g == 0.0:
        return NEG_INF
    if g <= 1.0:
        return math.log(-math.expm1(-g))
    q = math.exp(-g)
    if q <= _LEAD_X:
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


def log_ratio_r(g_hi: float, g_lo: float) -> float:
    """log(r_hi / r_lo) >= 0 for g_hi >= g_lo, free of cancellation.

    Safe even when the two radii agree to within 1e-300 relative gap.  For
    g_lo > 1 it sums sum_k q^k (1 - e^(-k dg))/k in q = e^(-g_lo), dg =
    g_hi - g_lo; once q <= 2^-56 (g_lo >= 38.82) that is its first term
    q (1 - e^(-dg)) to the last bit.
    """
    if not g_hi >= g_lo:  # also NaN
        raise NumericsError(f"log_ratio_r needs g_hi >= g_lo, got {g_hi} < {g_lo}")
    dg = g_hi - g_lo
    if dg == 0.0:
        return 0.0
    if g_lo <= 1.0:
        # both radii well inside the disc; relative difference is stable here
        r_lo = -math.expm1(-g_lo)
        if r_lo == 0.0:
            return log_r_from_g(g_hi) - log_r_from_g(g_lo)
        diff = math.exp(-g_lo) * (-math.expm1(-dg))
        return math.log1p(diff / r_lo)
    q = math.exp(-g_lo)
    if q <= _LEAD_X:
        return q * -math.expm1(-dg)
    qk = q
    acc = 0.0
    for k in range(1, SERIES_CAP + 1):
        inc = qk / k * (-math.expm1(-k * dg))
        acc += inc
        if inc <= acc * 1e-18 or qk < 1e-320:
            return acc
        qk *= q
    raise SeriesCapError("log_ratio_r")


def gap_diff_log(g_lo: float, g_hi: float) -> float:
    """log of (1-r_lo) - (1-r_hi) = e^(-g_lo) - e^(-g_hi), for g_lo < g_hi."""
    if not g_hi > g_lo:  # also NaN
        raise NumericsError(f"gap_diff_log needs g_hi > g_lo, got {g_hi} <= {g_lo}")
    return -g_lo + math.log(-math.expm1(-(g_hi - g_lo)))


def log_log_ratio_r(g_hi: float, g_lo: float) -> float:
    """log(log(r_hi/r_lo)) for g_hi > g_lo; finite at any depth.

    log(r_hi/r_lo) ~ e^(-g_lo)(1 - e^(-dg)) with a correction series that
    only matters while e^(-g_lo) is representable.
    """
    if not g_hi > g_lo:  # also NaN
        raise NumericsError(f"log_log_ratio_r needs g_hi > g_lo, got {g_hi} <= {g_lo}")
    if g_lo > LEAD_ONLY_G:
        return gap_diff_log(g_lo, g_hi)
    val = log_ratio_r(g_hi, g_lo)
    if val > 0.0:
        return math.log(val)
    return gap_diff_log(g_lo, g_hi)


def log_neg_log_r(g: float) -> float:
    """log(-log r) = log(log(1/r)); -log r ~ e^(-g) so this is ~ -g for large g."""
    if not g > 0.0:  # also NaN
        raise NumericsError(f"log_neg_log_r needs g > 0, got {g}")
    if g <= 1.0:
        return math.log(-log_r_from_g(g))
    # -log r = q (1 + q/2 + q^2/3 + ...)
    q = math.exp(-g)
    corr = 0.0
    term = 1.0
    for k in range(2, SERIES_CAP + 1):
        term *= q
        inc = term / k
        corr += inc
        if inc < 1e-18:
            return -g + math.log1p(corr)
    raise SeriesCapError("log_neg_log_r")


def log_int_log_ratio(g_r: float, g_a: float, g_b: float, span_ba: float | None = None) -> float:
    """log of int_a^b log(r/t) dt for a <= b <= r, all given as log-gaps.

    Expands int log(r/t) dt = r * [F(w_a) - F(w_b)] with w = (r-t)/r and
    F(w) = sum_{k>=1} w^(k+1)/(k(k+1)); the difference is factored so that no
    cancellation occurs even when b - a is ~1e-300 relative.

    When the caller knows g_b - g_a to better accuracy than the stored
    endpoints (a thin interval between two large g's), passing it as
    ``span_ba`` removes the 1/(g_b - g_a) noise amplification in w_b/w_a.

    The series over w_a is its first term (w_a + w_b)/2 to the last bit once
    w_a <= 2^-56 (g_a >= 38.82); below w_a = TINY_GAP it is replaced by the
    closed form (1 + w_b/w_a)/2 in the log domain.
    """
    if not (g_a <= g_b <= g_r):
        raise NumericsError("log_int_log_ratio needs g_a <= g_b <= g_r")
    if g_a == g_b:
        return NEG_INF
    log_r = log_r_from_g(g_r)
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
    if wa <= _LEAD_X:
        return log_r + log_dw + math.log((wb + wa) / 2)
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
# array forms of the log-gap series, elementwise on float ndarrays; the
# scalar functions above are their reference


def _check_cap(k: int, name: str) -> None:
    if k > SERIES_CAP:
        raise SeriesCapError(name)


def log_r_from_g_array(g: np.ndarray) -> np.ndarray:
    """Array form of :func:`log_r_from_g`; an element with q <= 2^-56 takes
    -q without entering the series loop."""
    g = np.asarray(g, dtype=float)
    if not np.all(g >= 0.0):
        raise NumericsError("log_r_from_g_array needs every g >= 0 (no NaN)")
    out = np.empty_like(g)
    near = g <= 1.0
    with np.errstate(divide="ignore"):
        out[near] = np.log(-np.expm1(-g[near]))
    q = np.exp(-g[~near])
    term = q.copy()
    acc = q.copy()
    live = q > _LEAD_X
    k = 1
    while live.any():
        k += 1
        _check_cap(k, "log_r_from_g_array")
        term *= q
        inc = term / k
        acc[live] += inc[live]
        live &= inc >= acc * 1e-18
    out[~near] = -acc
    return out


def log_ratio_r_array(g_hi: np.ndarray, g_lo: float) -> np.ndarray:
    """Array form of :func:`log_ratio_r` for one lower log-gap ``g_lo``; at
    q = e^(-g_lo) <= 2^-56 every element is its first term."""
    g_hi = np.asarray(g_hi, dtype=float)
    if not np.all(g_hi >= g_lo):  # also NaN
        raise NumericsError(f"log_ratio_r_array needs g_hi >= g_lo = {g_lo} (no NaN)")
    dg = g_hi - g_lo
    if g_lo <= 1.0:
        return np.log1p(math.exp(-g_lo) * (-np.expm1(-dg)) / -math.expm1(-g_lo))
    q = math.exp(-g_lo)
    if q <= _LEAD_X:
        return q * -np.expm1(-dg)
    qk = q
    acc = np.zeros_like(dg)
    live = dg != 0.0
    k = 1
    while live.any():
        _check_cap(k, "log_ratio_r_array")
        inc = qk / k * (-np.expm1(-k * dg))
        acc[live] += inc[live]
        live &= inc > acc * 1e-18
        if qk < 1e-320:
            break
        k += 1
        qk *= q
    return acc


def log_log_ratio_r_array(g_hi: np.ndarray, g_lo: float) -> np.ndarray:
    """Array form of :func:`log_log_ratio_r`; -inf where g_hi == g_lo."""
    g_hi = np.asarray(g_hi, dtype=float)
    if not np.all(g_hi >= g_lo):  # also NaN
        raise NumericsError(f"log_log_ratio_r_array needs g_hi >= g_lo = {g_lo} (no NaN)")
    with np.errstate(divide="ignore"):
        if g_lo > LEAD_ONLY_G:
            return -g_lo + np.log(-np.expm1(-(g_hi - g_lo)))
        return np.log(log_ratio_r_array(g_hi, g_lo))


def log_int_log_ratio_array(
    g_r: np.ndarray, g_a: float, g_b: float | np.ndarray, span_ba: float | None = None
) -> np.ndarray:
    """Array form of :func:`log_int_log_ratio` over upper log-gaps ``g_r``;
    ``g_b`` is a float or an array shaped like ``g_r``.  An element with
    w_a <= 2^-56 keeps its first series term and leaves the loop at once."""
    g_r = np.asarray(g_r, dtype=float)
    g_b = np.broadcast_to(np.asarray(g_b, dtype=float), g_r.shape)
    if not np.all((g_a <= g_b) & (g_b <= g_r)):  # also NaN
        raise NumericsError("log_int_log_ratio_array needs g_a <= g_b <= g_r")
    out = np.full(g_r.shape, NEG_INF)
    sel = g_b > g_a
    gr, gb = g_r[sel], g_b[sel]
    log_r = log_r_from_g_array(gr)
    with np.errstate(divide="ignore"):
        # log w = gap_diff_log(g_t, g_r) - log r; w_b = 0 where g_b == g_r
        log_gap_a = np.log(-np.expm1(-(gr - g_a)))
        log_gap_b = np.log(-np.expm1(-(gr - gb)))
    log_wa = -g_a + log_gap_a - log_r
    log_wb = -gb + log_gap_b - log_r
    wa, wb = np.exp(log_wa), np.exp(log_wb)
    res = np.empty_like(gr)
    # wide geometry (possible only at tiny g): F(w_a) - F(w_b) directly
    wide = wa > 0.1
    f = lambda w: np.where(w > 0.0, (1.0 - w) * np.log1p(-w) + w, 0.0)
    res[wide] = log_r[wide] + np.log(f(wa[wide]) - f(wb[wide]))
    # log(w_a - w_b) without cancellation, then the series
    # sum_k (sum_i w_a^i w_b^(k-i))/(k(k+1)) with inner sums by recurrence
    n = ~wide
    if span_ba is not None:
        t = -span_ba + log_gap_b[n] - log_gap_a[n]
    else:
        t = log_wb[n] - log_wa[n]
    log_dw = log_wa[n] + np.log(-np.expm1(t))
    wa, wb = wa[n], wb[n]
    # the k = 1 term everywhere; it is the sum where w_a <= 2^-56, and
    # w_a < TINY_GAP takes the closed form of the scalar early-out below
    wa_k = wa.copy()
    inner = wb + wa
    acc = inner / 2
    live = wa > _LEAD_X
    k = 1
    while live.any():
        k += 1
        _check_cap(k, "log_int_log_ratio_array")
        wa_k *= wa
        inner = wb * inner + wa_k
        inc = inner / (k * (k + 1))
        acc[live] += inc[live]
        live &= inc >= acc * 1e-18
    with np.errstate(divide="ignore"):
        log_acc = np.log(acc)
    tiny = wa < TINY_GAP
    log_acc[tiny] = log_wa[n][tiny] + np.log1p(np.exp(t[tiny])) - math.log(2.0)
    res[n] = log_r[n] + log_dw + log_acc
    out[sel] = res
    return out


# ---------------------------------------------------------------------------
# signed log-domain values


@dataclass(frozen=True)
class LogValue:
    """A signed real x stored as (sign, log|x|)."""

    sign: int
    logmag: float
    cancelled: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.sign == 0 and self.logmag != NEG_INF:
            raise NumericsError("zero LogValue must carry -inf magnitude")
        if self.sign not in (-1, 0, 1):
            raise NumericsError(f"sign must be -1, 0 or +1, got {self.sign}")

    @classmethod
    def zero(cls, cancelled: bool = False) -> "LogValue":
        return cls(0, NEG_INF, cancelled)

    @classmethod
    def pos(cls, logmag: float) -> "LogValue":
        return cls(1, logmag)

    @classmethod
    def neg(cls, logmag: float) -> "LogValue":
        return cls(-1, logmag)

    @classmethod
    def from_float(cls, x: float) -> "LogValue":
        if x == 0.0:
            return cls.zero()
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        if self.logmag > 709.0:
            return math.inf * self.sign
        return self.sign * math.exp(self.logmag)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __neg__(self) -> "LogValue":
        return LogValue(-self.sign, self.logmag, self.cancelled)

    def __abs__(self) -> "LogValue":
        return LogValue(abs(self.sign), self.logmag, self.cancelled)

    def __mul__(self, other: "LogValue") -> "LogValue":
        s = self.sign * other.sign
        if s == 0:
            return LogValue.zero()
        return LogValue(s, self.logmag + other.logmag)

    def __truediv__(self, other: "LogValue") -> "LogValue":
        if other.sign == 0:
            raise ZeroDivisionError("LogValue division by zero")
        if self.sign == 0:
            return LogValue.zero()
        return LogValue(self.sign * other.sign, self.logmag - other.logmag)

    def __add__(self, other: "LogValue") -> "LogValue":
        return lse_sum((self, other))

    def __sub__(self, other: "LogValue") -> "LogValue":
        return lse_sum((self, -other))

    def _cmp_key(self):
        return (self.sign, self.sign * self.logmag if self.sign != 0 else 0.0)

    def __lt__(self, other: "LogValue") -> bool:
        return self._cmp_key() < other._cmp_key()

    def __le__(self, other: "LogValue") -> bool:
        return self._cmp_key() <= other._cmp_key()


def lse_sum(terms: Iterable[LogValue]) -> LogValue:
    """Signed sum in the log domain by max-extraction and compensated summation.

    Relative error <= 1e-13 for same-sign inputs.  When the result magnitude
    falls below ``CANCEL_RATIO`` times the largest term, the returned value is
    flagged ``cancelled``.
    """
    live = [t for t in terms if t.sign != 0]
    if not live:
        return LogValue.zero()
    m = max(t.logmag for t in live)
    if m == NEG_INF:
        return LogValue.zero()
    acc = math.fsum(t.sign * math.exp(t.logmag - m) for t in live)
    if acc == 0.0:
        return LogValue.zero(cancelled=True)
    cancelled = abs(acc) < CANCEL_RATIO
    return LogValue(1 if acc > 0 else -1, m + math.log(abs(acc)), cancelled)


# ---------------------------------------------------------------------------
# bracketed root finding (Brent: bisection/secant/inverse-quadratic hybrid)


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rel_tol: float = 1e-13,
    max_iter: int = 200,
) -> float:
    """Root of f on [lo, hi] with f(lo) f(hi) < 0; deterministic Brent iteration.

    Converges to a bracket of width <= rel_tol * max(1, |x|); raises
    RootConvergenceError with the last bracket if max_iter steps do not get
    there.
    """
    a, b = float(lo), float(hi)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise BracketError("no sign change over bracket", a, b, fa, fb)
    c, fc = a, fa
    d = e = b - a
    for it in range(max_iter + 1):
        if math.copysign(1.0, fb) == math.copysign(1.0, fc):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = rel_tol * max(1.0, abs(b))
        xm = 0.5 * (c - b)
        if abs(xm) <= tol or fb == 0.0:
            return b
        if it == max_iter:
            lo, hi = sorted(((b, fb), (c, fc)))
            raise RootConvergenceError(
                f"no convergence in {max_iter} iterations", lo[0], hi[0], lo[1], hi[1]
            )
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q2 = fa / fc
                r2 = fb / fc
                p = s * (2.0 * xm * q2 * (q2 - r2) - (b - a) * (r2 - 1.0))
                q2 = (q2 - 1.0) * (r2 - 1.0) * (s - 1.0)
                q = q2
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        b = b + (d if abs(d) > tol else math.copysign(tol, xm))
        fb = f(b)


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature

# 15-point Kronrod extension of 7-point Gauss (QUADPACK constants)
_XK = (
    0.0,
    0.2077849550078985,
    0.4058451513773972,
    0.5860872354676911,
    0.7415311855993945,
    0.8648644233597691,
    0.9491079123427585,
    0.9914553711208126,
)
_WK = (
    0.2094821410847278,
    0.2044329400752989,
    0.1903505780647854,
    0.1690047266392679,
    0.1406532597155259,
    0.1047900103222502,
    0.06309209262997855,
    0.02293532201052922,
)
_WG = (
    0.4179591836734694,
    0.3818300505051189,
    0.2797053914892767,
    0.1294849661688697,
)


def _gk15(f, a, b):
    """(kronrod, |kronrod - gauss|) on one interval."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    fc = f(c)
    kron = _WK[0] * fc
    gauss = _WG[0] * fc
    for i in range(1, 8):
        x = h * _XK[i]
        fsum_ = f(c - x) + f(c + x)
        kron += _WK[i] * fsum_
        if i % 2 == 0:
            gauss += _WG[i // 2] * fsum_
    return kron * h, abs(kron - gauss) * abs(h)


def _adaptive(f, a, b, rel_tol, abs_tol, max_intervals):
    val, err = _gk15(f, a, b)
    segs = [(err, a, b, val)]
    total = val
    total_err = err
    prev_total = val

    def good(e, t):
        return e <= max(rel_tol * abs(t), abs_tol)

    while not good(total_err, total) and len(segs) < max_intervals:
        segs.sort(key=lambda s: s[0])
        err0, a0, b0, v0 = segs.pop()
        mid = 0.5 * (a0 + b0)
        v1, e1 = _gk15(f, a0, mid)
        v2, e2 = _gk15(f, mid, b0)
        prev_total = total
        total += v1 + v2 - v0
        total_err += e1 + e2 - err0
        segs.append((e1, a0, mid, v1))
        segs.append((e2, mid, b0, v2))
    if not good(total_err, total):
        raise QuadratureError("adaptive refinement did not converge", prev_total, total)
    return total


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    singularity_hint: float | None = None,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    max_intervals: int = 2000,
    endpoint_f: Callable[[float], float] | None = None,
) -> float:
    """Adaptive integral of f over [a, b], estimated relative error <= rel_tol.

    ``singularity_hint=s`` declares f ~ (b-t)^(-s) with s < 1 near t = b; the
    integral is then transformed by t = b - e^(-x) so the integrand decays
    exponentially in x, and summed over x-segments until negligible.  When the
    singularity sits exactly at b, pass ``endpoint_f(u) = f(b - u)`` so the
    distance u to the endpoint is never formed by subtraction.
    """
    if a == b:
        return 0.0
    if singularity_hint is None and endpoint_f is None:
        return _adaptive(f, a, b, rel_tol, abs_tol, max_intervals)
    if singularity_hint is not None and singularity_hint >= 1.0:
        raise NumericsError(f"endpoint exponent must be < 1, got {singularity_hint}")
    h = endpoint_f if endpoint_f is not None else (lambda u: f(b - u))
    x0 = -math.log(b - a)
    g = lambda x: h(math.exp(-x)) * math.exp(-x)
    step = 5.0
    total = 0.0
    quiet = 0
    x = x0
    prev = math.nan
    while x < x0 + 700.0:
        seg = _adaptive(g, x, x + step, rel_tol, abs_tol, max_intervals)
        prev = total
        total += seg
        x += step
        if abs(seg) <= 0.25 * max(rel_tol * abs(total), abs_tol):
            quiet += 1
            if quiet >= 2:
                return total
        else:
            quiet = 0
    raise QuadratureError("singular tail did not converge", prev, total)


def lse_sum_floats(values: Sequence[float]) -> float:
    """log(sum(e^v)) over plain floats (all-positive convenience wrapper)."""
    m = max(values, default=NEG_INF)
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(math.fsum(math.exp(v - m) for v in values))
