"""Maximum-term machinery for sparse power series.

A sparse series is a sorted list of terms (n, log a_n) with nonnegative
coefficients.  The central index nu(r) is the largest index attaining the
maximum term mu(r) = max |a_n| r^n; K(r) = r f'(r)/f(r) is the growth gauge
for positive coefficients.  Three representations share one protocol,
each a class with ``central_index(g)``, ``log_max_term(g)``,
``k_indicator(g)`` and ``derivative_ratio(order, g)``:

* :class:`SparseSeries` - materialized terms; exact closed-form central index
  when the chain of break radii is attached (build_ladder_series attaches it).
* :class:`PowerLawSeries` - the dense unit-gap construction c_k =
  1 - (sigma/(k+sigma+1))^(1/(sigma+1)), n_k = k (the live index reaches
  ~1e10 at moderate g).  It has no closed-form log mu: ``log_max_term``
  raises SeriesError.
* :class:`DoublingSeries` - the sparse construction c_k = 1 - delta^(q^-k),
  n_{k+1} = floor(delta^(-(sigma+1)/q^k)) + 1 with q = lambda/sigma; break
  radii are exact in g, term counts switch to log form beyond 2^62.
  ``derivative_ratio`` of positive order raises SeriesError.

Each form supplies ``window(g)``: log n_ref and blocks of (n / n_ref, w), w
the log weight relative to the central term, for every term that can move a
double-precision sum (a materialized series: all terms in one block; the
power-law walk: blocks of 64 terms doubling up to 2^20 on each side of nu,
until w < -46; the doubling series: its ``weights`` terms).  The one pair
of reducers ``_k_indicator`` and ``_derivative_ratio`` sums those blocks.

The module functions ``central_index``, ``log_max_term``, ``k_indicator`` and
``derivative_asymptotic_ratio`` take the radius as a LogGap or a raw g and
call the method.  All radius arithmetic is g-aware, so evaluation works where
1 - r and even log mu overflow doubles.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .numerics import (
    LogGap,
    LogValue,
    NumericsError,
    as_g,
    find_root,
    log_log_ratio_r,
    log_neg_log_r,
    log_r_from_g,
    log_ratio_r,
    lse_sum,
)

_EXACT_N_LIMIT = 2**62
_W_CUTOFF = -46.0  # weights below e^-46 cannot move a double-precision sum
_BLOCK_FIRST = 64  # power-law walk: first block, doubled up to _BLOCK_MAX
_BLOCK_MAX = 1 << 20
_WEIGHT_TERMS = 400  # doubling walk above the central term, before SeriesError

_Blocks = Iterable[tuple[np.ndarray, np.ndarray]]  # (n / n_ref, w) per block


class SeriesError(NumericsError):
    """Invalid series construction input."""


@dataclass(frozen=True)
class Term:
    """Extended term count: exact integer when representable, else log only."""

    n: int | None
    log_n: float

    @classmethod
    def of(cls, n: int) -> "Term":
        return cls(n, math.log(n) if n > 0 else float("-inf"))

    def as_float(self) -> float:
        return float(self.n) if self.n is not None else math.exp(self.log_n)


def _k_indicator(log_ref: float, blocks: _Blocks) -> LogValue:
    """K = n_ref sum e^w (n/n_ref) / sum e^w over a window.  The sums are
    numpy's, not BLAS dot products, so K does not depend on the BLAS thread
    count; the products are taken in place in the block of weights."""
    s0 = s1 = 0.0
    for x, w in blocks:
        e = np.exp(w)
        s0 += float(np.sum(e))
        e *= x
        s1 += float(np.sum(e))
    return _k_of_sums(log_ref, s0, s1)


def _k_of_sums(log_ref: float, s0: float, s1: float) -> LogValue:
    if s1 <= 0.0:
        return LogValue.zero()
    return LogValue.pos(log_ref + math.log(s1) - math.log(s0))


def _derivative_ratio(series, order: int, g: float) -> float:
    """sum e^w n(n-1)...(n-order+1)/K^order / sum e^w over the window, with
    K summed in the same walk; exact indices come as n / math.exp(log_ref),
    so n - i vanishes at n = i.  Summed as in ``_k_indicator``, the weights
    times x, then times each factor x - i/n_ref, in place."""
    if order == 0:
        return 1.0
    log_ref, blocks = series.window(g)
    n_ref = math.exp(log_ref)
    s0 = s1 = sff = 0.0
    for x, w in blocks:
        e = np.exp(w)
        s0 += float(np.sum(e))
        e *= x
        s1 += float(np.sum(e))
        for i in range(1, order):
            e *= x - i / n_ref
        sff += float(np.sum(e))
    k = _k_of_sums(log_ref, s0, s1)
    if k.sign == 0:
        return 0.0
    # the falling factorial in units of K: (n_ref / K)^order prod (x - i/n_ref)
    return math.exp(log_ref - k.logmag) ** order * sff / s0


class SparseSeries:
    """Materialized sparse series with nonnegative coefficients."""

    def __init__(self, n_seq: Sequence[int], log_a: Sequence[float], chain_g: Sequence[float] | None = None):
        if len(n_seq) != len(log_a) or not n_seq:
            raise SeriesError("need matching, non-empty term arrays")
        if any(b <= a for a, b in zip(n_seq, n_seq[1:])):
            raise SeriesError("term indices must be strictly increasing")
        if n_seq[0] < 0:
            raise SeriesError("term indices must be nonnegative")
        self.n_seq = [int(n) for n in n_seq]
        self.log_a = np.asarray(log_a, dtype=float)
        self.log_n = np.array(
            [math.log(n) if n > 0 else -math.inf for n in self.n_seq]
        )
        if chain_g is not None and len(chain_g) != len(n_seq) - 1:
            raise SeriesError("chain must have one break radius between consecutive terms")
        self.chain_g = None if chain_g is None else [float(g) for g in chain_g]

    def __len__(self) -> int:
        return len(self.n_seq)

    def term(self, j: int) -> Term:
        return Term.of(self.n_seq[j])

    def term_values(self, g: float) -> np.ndarray:
        """log(a_n r^n) for every term; -inf saturation is harmless."""
        t = log_r_from_g(g)
        n = np.array([float(v) for v in self.n_seq])
        with np.errstate(invalid="ignore"):
            vals = self.log_a + n * t
        return vals

    def central_term_index(self, g: float) -> int:
        if self.chain_g is not None:
            return bisect.bisect_right(self.chain_g, g)
        vals = self.term_values(g)
        best = float(np.max(vals))
        # ties resolve to the larger index
        return int(np.nonzero(vals >= best)[0][-1])

    def central_index(self, g: float) -> Term:
        return self.term(self.central_term_index(g))

    def log_max_term(self, g: float) -> LogValue:
        return LogValue.from_float(float(np.max(self.term_values(g))))

    def window(self, g: float) -> tuple[float, _Blocks]:
        """One block of every term, indices relative to the largest."""
        vals = self.term_values(g)
        log_ref = math.log(max(self.n_seq[-1], 1))
        return log_ref, [(np.array(self.n_seq, dtype=float) / math.exp(log_ref), vals - np.max(vals))]

    def k_indicator(self, g: float) -> LogValue:
        return _k_indicator(*self.window(g))

    def derivative_ratio(self, order: int, g: float) -> float:
        return _derivative_ratio(self, order, g)

    def to_json_terms(self) -> list[dict]:
        return [
            {"n": n, "log_a": float(la)} if n < _EXACT_N_LIMIT else {"log_n": float(ln), "log_a": float(la)}
            for n, ln, la in zip(self.n_seq, self.log_n, self.log_a)
        ]


def build_ladder_series(
    n_seq: Sequence[int], c_seq: Sequence[LogGap | float], log_a0: float = 0.0
) -> SparseSeries:
    """Series with coefficient ladder log a_{k+1} = log a_k + (n_k - n_{k+1}) log c_k.

    ``c_seq`` holds the break radii (LogGap or raw g-values), one between
    each pair of consecutive indices; increments accumulate by compensated
    summation.
    """
    if len(c_seq) != len(n_seq) - 1:
        raise SeriesError(
            f"need {len(n_seq) - 1} break radii for {len(n_seq)} indices, got {len(c_seq)}"
        )
    gs = [as_g(c) for c in c_seq]
    if any(b <= a for a, b in zip(gs, gs[1:])):
        raise SeriesError("break radii must be strictly increasing")
    log_a = [log_a0]
    acc = log_a0
    comp = 0.0
    for k, g in enumerate(gs):
        inc = (n_seq[k + 1] - n_seq[k]) * (-log_r_from_g(g))
        y = inc - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        log_a.append(acc)
    return SparseSeries(n_seq, log_a, chain_g=gs)


class PowerLawSeries:
    """Dense construction n_k = k, c_k = 1 - (sigma/(k+sigma+1))^(1/(sigma+1)).

    The central index grows like sigma/(1-r)^(sigma+1); its window is walked
    outward from the central term in growing numpy blocks.
    """

    def __init__(self, sigma: float):
        if not 0.0 < sigma < math.inf:
            raise SeriesError(f"sigma must be in (0, inf), got {sigma}")
        self.sigma = sigma

    def break_g(self, k):
        """g of c_k; vectorized over k."""
        s = self.sigma
        return np.log((np.asarray(k, dtype=float) + s + 1.0) / s) / (s + 1.0)

    def central_term_index(self, g: float) -> int:
        s = self.sigma
        # nu = k+1 on [c_k, c_{k+1}); solve break_g(k) <= g
        k_float = s * math.exp((s + 1.0) * g) - s - 1.0
        if k_float > 2**53:
            raise SeriesError("central index beyond exact integer range; reduce g")
        k = int(math.floor(k_float))
        while k >= 0 and self.break_g(k) > g:
            k -= 1
        while self.break_g(k + 1) <= g:
            k += 1
        return k + 1

    def central_index(self, g: float) -> Term:
        return Term.of(self.central_term_index(g))

    def log_max_term(self, g: float) -> LogValue:
        raise SeriesError("log_max_term needs a materialized or doubling series")

    def materialize(self, terms: int, log_a0: float = 0.0) -> SparseSeries:
        if terms < 1:
            raise SeriesError(f"terms must be >= 1, got {terms}")
        return build_ladder_series(list(range(terms)), list(self.break_g(np.arange(terms - 1))), log_a0)

    def window(self, g: float) -> tuple[float, _Blocks]:
        """Blocks walked from the central index m0 (reference max(m0, 1))."""
        m0 = self.central_term_index(g)
        log_ref = math.log(max(m0, 1))
        return log_ref, self._walk(m0, math.exp(log_ref), log_r_from_g(g))

    def _walk(self, m0: int, n_ref: float, t: float) -> _Blocks:
        yield np.array([m0 / n_ref]), np.zeros(1)
        for up in (True, False):
            j, w_off, size = m0, 0.0, _BLOCK_FIRST
            while up or j > 0:
                if up:
                    idx = np.arange(j + 1, j + size + 1, dtype=float)
                    inc = t - np.log1p(-np.exp(-self.break_g(idx - 1.0)))
                else:
                    idx = np.arange(j - 1, max(0, j - size) - 1, -1, dtype=float)
                    inc = np.log1p(-np.exp(-self.break_g(idx))) - t
                w = w_off + np.cumsum(inc)
                # w falls monotonically away from the central term
                live = int(np.count_nonzero(w > _W_CUTOFF))
                yield idx[:live] / n_ref, w[:live]
                if live < len(w):
                    break
                j, w_off, size = int(idx[-1]), float(w[-1]), min(2 * size, _BLOCK_MAX)

    def k_indicator(self, g: float) -> LogValue:
        return _k_indicator(*self.window(g))

    def derivative_ratio(self, order: int, g: float) -> float:
        return _derivative_ratio(self, order, g)


class DoublingSeries:
    """Sparse construction with q = lambda/sigma: break gaps g_k = q^(-k) L,
    L = log(1/delta), and n_{k+1} = floor(e^((sigma+1) q^(-k) L)) + 1."""

    def __init__(self, lam: float, sigma: float, delta: float | None = None):
        if not 0.0 < lam < sigma < math.inf:
            raise SeriesError(f"need 0 < lambda < sigma, got {lam}, {sigma}")
        self.lam = lam
        self.sigma = sigma
        self.q = lam / sigma
        if delta is None:
            delta = default_doubling_delta(lam, sigma)
        self._validate_delta(delta)
        self.delta = delta
        self.L = math.log(1.0 / delta)

    def _validate_delta(self, delta: float):
        if not 0.0 < delta < 1.0:
            raise SeriesError(f"delta must be in (0,1), got {delta}")
        cap = math.exp(-1.0 / (self.sigma * (1.0 - self.q)))
        if delta >= cap:
            raise SeriesError(
                f"delta = {delta} violates the tail-sum bound delta < "
                f"exp(-1/(sigma(1-q))) = {cap:.6g}"
            )
        x0 = _coefficient_ladder_cap(self.sigma, self.q)
        if delta > x0:
            raise SeriesError(
                f"delta = {delta} violates the index-growth bound (critical value {x0:.6g})"
            )

    def break_g(self, k: int) -> float:
        return self.L / self.q**k

    def term(self, j: int) -> Term:
        """Term j carries index n_j: n_0 = 0, n_{k+1} = floor(e^((s+1) g_k)) + 1."""
        if j == 0:
            return Term.of(0)
        log_n = (self.sigma + 1.0) * self.break_g(j - 1)
        if log_n < 62.0 * math.log(2.0):
            return Term.of(int(math.floor(math.exp(log_n))) + 1)
        return Term(None, log_n)

    def central_term_index(self, g: float) -> int:
        j = 0
        while self.break_g(j) <= g:
            j += 1
        return j

    def central_index(self, g: float) -> Term:
        return self.term(self.central_term_index(g))

    def r_k(self, k: int) -> LogGap:
        """r_k = 2 c_k - 1, i.e. gap twice the break gap."""
        return LogGap(self.break_g(k) - math.log(2.0))

    def first_inside_k(self) -> int:
        """Smallest k with r_k > 0 inside the disc, i.e. break_g(k) > log 2."""
        k = 0
        while self.break_g(k) <= math.log(2.0):
            k += 1
        return k

    def materialize(self, terms: int, log_a0: float = 0.0) -> SparseSeries:
        if terms < 1:
            raise SeriesError(f"terms must be >= 1, got {terms}")
        ns = []
        for j in range(terms):
            t = self.term(j)
            if t.n is None:
                raise SeriesError(f"term {j} exceeds exact integer range")
            ns.append(t.n)
        return build_ladder_series(ns, [self.break_g(k) for k in range(terms - 1)], log_a0)

    # -- log-domain ladder pieces -------------------------------------------

    def _log_dn(self, j: int) -> float:
        """log(n_{j+1} - n_j)."""
        a, b = self.term(j), self.term(j + 1)
        if a.n is not None and b.n is not None:
            return math.log(b.n - a.n)
        return b.log_n + math.log1p(-math.exp(min(a.log_n - b.log_n, -1e-18)))

    def _w_increment(self, j: int, g: float) -> float:
        """w_{j+1} - w_j = (n_{j+1} - n_j)(log r - log c_j), saturating."""
        gj = self.break_g(j)
        if g == gj:
            return 0.0
        if g > gj:
            mag = self._log_dn(j) + log_log_ratio_r(g, gj)
            return math.exp(min(mag, 705.0))
        mag = self._log_dn(j) + log_log_ratio_r(gj, g)
        return -math.exp(min(mag, 705.0))

    def weights(self, g: float) -> tuple[int, list[int], list[float]]:
        """(nu_index, indices, w) with w relative to the central term."""
        m0 = self.central_term_index(g)
        idx = [m0]
        w = [0.0]
        acc = 0.0
        j = m0
        while acc > _W_CUTOFF:
            if j + 1 - m0 >= _WEIGHT_TERMS:
                raise SeriesError(f"doubling weights still live {_WEIGHT_TERMS} terms above nu")
            acc += self._w_increment(j, g)
            j += 1
            idx.append(j)
            w.append(acc)
        acc = 0.0
        j = m0
        while j > 0 and acc > _W_CUTOFF:
            acc -= self._w_increment(j - 1, g)
            j -= 1
            idx.insert(0, j)
            w.insert(0, acc)
        return m0, idx, w

    def window(self, g: float) -> tuple[float, _Blocks]:
        """The live weights, relative to n_{m0}; below the first break
        (n_0 = 0) every weight, relative to the largest index."""
        m0, idx, w = self.weights(g)
        terms = [(self.term(j).log_n, wj) for j, wj in zip(idx, w)]
        if m0 > 0:
            log_ref = self.term(m0).log_n
            terms = [t for t in terms if t[1] > _W_CUTOFF]
        else:
            log_ref = max(log_n for log_n, _ in terms)
        x = [math.exp(log_n - log_ref) for log_n, _ in terms]
        return log_ref, [(np.array(x), np.array([wj for _, wj in terms]))]

    def k_indicator(self, g: float) -> LogValue:
        return _k_indicator(*self.window(g))

    def log_max_term(self, g: float) -> LogValue:
        """log mu(r) as a LogValue, from the all-positive branch sums of
        the integral of nu(t)/t (a_0 = 1, n_0 = 0)."""
        m0 = self.central_term_index(g)
        pieces = []
        for j in range(1, m0 + 1):
            hi = min(g, self.break_g(j))
            lo = self.break_g(j - 1)
            if hi <= lo:
                continue
            t = self.term(j)
            pieces.append(LogValue.pos(t.log_n + log_log_ratio_r(hi, lo)))
        if not pieces:
            return LogValue.zero()
        return lse_sum(pieces)

    def derivative_ratio(self, order: int, g: float) -> float:
        if order == 0:
            return 1.0
        raise SeriesError("derivative_asymptotic_ratio needs a materialized or power-law series")


def default_doubling_delta(lam: float, sigma: float) -> float:
    q = lam / sigma
    return 0.9 * min(_coefficient_ladder_cap(sigma, q), math.exp(-1.0 / (sigma * (1.0 - q))))


def _coefficient_ladder_cap(sigma: float, q: float) -> float:
    """Critical x of x^((sigma+1)(1/q - 1)) + x^((sigma+1)/q) = 1, found by
    bisection; the index sequence is increasing for delta below it."""
    e1 = (sigma + 1.0) * (1.0 / q - 1.0)
    e2 = (sigma + 1.0) / q
    f = lambda x: x**e1 + x**e2 - 1.0
    return find_root(f, 1e-12, 1.0 - 1e-12, rel_tol=1e-15)


def build_reference_series(variant: str, sigma: float, lam: float | None = None, delta: float | None = None):
    """The two reference constructions: the regular power-law ladder and the
    doubling ladder with lambda < sigma."""
    if variant == "power-law":
        if lam is not None and lam != sigma:
            raise SeriesError("the power-law ladder has lambda = sigma by construction")
        if delta is not None:
            raise SeriesError("the power-law ladder takes no delta; only the doubling ladder has one")
        return PowerLawSeries(sigma)
    if variant == "doubling":
        if lam is None:
            raise SeriesError("the doubling ladder needs lambda < sigma")
        return DoublingSeries(lam, sigma, delta)
    raise SeriesError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# operations over any of the series forms (the protocol methods above)


def central_index(series, g: LogGap | float) -> Term:
    return series.central_index(as_g(g))


def log_max_term(series, g: LogGap | float) -> LogValue:
    return series.log_max_term(as_g(g))


def max_term_integral_residual(series: SparseSeries, g0: LogGap | float, g: LogGap | float) -> float:
    """Relative mismatch between log mu(g) - log mu(g0) and the branch-exact
    integral of nu(t)/t dt, on a materialized series."""
    g0v = as_g(g0)
    gv = as_g(g)
    if g0v >= gv:
        raise SeriesError("need g0 < g")
    lhs = float(np.max(series.term_values(gv))) - float(np.max(series.term_values(g0v)))
    # integral: sum over central-index plateaus of n * (log r segments)
    j0 = series.central_term_index(g0v)
    j1 = series.central_term_index(gv)
    if series.chain_g is not None:
        breaks = series.chain_g
    else:
        breaks = _envelope_breaks(series)
    rhs = 0.0
    for j in range(j0, j1 + 1):
        lo = g0v if j == j0 else breaks[j - 1]
        hi = gv if j == j1 else breaks[j]
        if hi <= lo:
            continue
        rhs += series.n_seq[j] * log_ratio_r(hi, lo)
    return abs(lhs - rhs) / max(1.0, abs(lhs))


def _envelope_breaks(series: SparseSeries) -> list[float]:
    """Break g-values between consecutive central-index plateaus, from the
    pairwise crossings of the lines log a + n log r.  Requires every term to
    be maximal somewhere (crossings increasing); otherwise attach a chain."""
    breaks = []
    for j in range(len(series) - 1):
        dn = series.n_seq[j + 1] - series.n_seq[j]
        x = (series.log_a[j + 1] - series.log_a[j]) / dn  # -log r at the crossing
        if x <= 0.0:
            raise SeriesError(
                f"term {j} never attains the maximum; build the series via "
                "build_ladder_series so the break radii are explicit"
            )
        # g with -log r(g) = x
        if x >= 1e-3:
            gx = -math.log(-math.expm1(-x)) if x < 700.0 else 0.0
        else:
            gx = -math.log(x) + x / 2.0  # 1 - r = x - x^2/2 + ...
        breaks.append(gx)
    if any(b <= a for a, b in zip(breaks, breaks[1:])):
        raise SeriesError(
            "crossings not increasing (a dominated term); build via build_ladder_series"
        )
    return breaks


def k_indicator(series, g: LogGap | float) -> LogValue:
    """K(r) = r f'(r)/f(r) = (sum n a_n r^n)/(sum a_n r^n) in the log domain."""
    return series.k_indicator(as_g(g))


def derivative_asymptotic_ratio(series, order: int, g: LogGap | float) -> float:
    """f^(order)(r) r^order / (K(r)^order f(r)) for positive coefficients."""
    return series.derivative_ratio(order, as_g(g))


# ---------------------------------------------------------------------------
# convex-growth indicators


@dataclass(frozen=True)
class ConvexSamples:
    """Samples of a convex h(x) on x < 0, stored as (log|x|, h as LogValue).

    x = log r underflows a double once g > ~700, so only log|x| is kept; h
    similarly overflows (it is log mu or log M), hence the LogValue form.
    ``h_prime`` optionally carries the exact right derivative at each node
    (for a sparse series that is the central index); without it the
    derivative is estimated by forward differences, which bottoms out once
    the relative growth of h between nodes falls under double resolution.
    """

    log_abs_x: tuple[float, ...]
    h: tuple[LogValue, ...]
    h_prime: tuple[LogValue, ...] | None = None

    def __post_init__(self):
        if len(self.log_abs_x) != len(self.h):
            raise SeriesError("mismatched sample arrays")
        if self.h_prime is not None and len(self.h_prime) != len(self.h):
            raise SeriesError("mismatched derivative samples")
        if any(b >= a for a, b in zip(self.log_abs_x, self.log_abs_x[1:])):
            raise SeriesError("samples must move toward x = 0 (log|x| decreasing)")

    @classmethod
    def from_g_samples(
        cls,
        gs: Sequence[float],
        h: Sequence[LogValue],
        h_prime: Sequence[LogValue] | None = None,
    ) -> "ConvexSamples":
        return cls(
            tuple(log_neg_log_r(g) for g in gs),
            tuple(h),
            None if h_prime is None else tuple(h_prime),
        )

    @classmethod
    def from_floats(cls, xs: Sequence[float], hs: Sequence[float]) -> "ConvexSamples":
        return cls(
            tuple(math.log(-x) for x in xs),
            tuple(LogValue.from_float(v) for v in hs),
        )

    def forward_slopes(self) -> tuple[tuple[float, ...], tuple[LogValue, ...]]:
        """Right-derivative samples ((log|x| nodes), values): the explicit
        ones when attached, else forward differences on the grid."""
        if self.h_prime is not None:
            return self.log_abs_x, self.h_prime
        slopes = []
        for i in range(len(self.h) - 1):
            dh = self.h[i + 1] - self.h[i]
            # dx = |x_i| - |x_{i+1}| > 0
            la, lb = self.log_abs_x[i], self.log_abs_x[i + 1]
            log_dx = la + math.log(-math.expm1(lb - la))
            slopes.append(LogValue(dh.sign, dh.logmag - log_dx) if dh.sign != 0 else LogValue.zero())
        return self.log_abs_x[:-1], tuple(slopes)

    def check_convex(self, rel_tol: float = 1e-9):
        _, slopes = self.forward_slopes()
        for a, b in zip(slopes, slopes[1:]):
            if b.sign < a.sign:
                raise SeriesError("samples are not convex (slope sign decreases)")
            if a.sign > 0 and b.sign > 0 and b.logmag < a.logmag - rel_tol:
                raise SeriesError(
                    f"samples are not convex (slope drops: {a.logmag} -> {b.logmag})"
                )


def doubling_convex_samples(
    series: DoublingSeries,
    k_lo: int,
    k_hi: int,
    fracs: Sequence[float] = (0.02, 0.1, 0.3, 0.6, 0.9, 0.98),
) -> ConvexSamples:
    """log mu samples of a doubling series over branches [k_lo, k_hi], with
    the central index attached as the exact right derivative."""
    gs, hs, nus = [], [], []
    for k in range(k_lo, k_hi + 1):
        g_k = series.break_g(k)
        g_next = series.break_g(k + 1)
        for frac in fracs:
            g = g_k + frac * (g_next - g_k)
            gs.append(g)
            hs.append(series.log_max_term(g))
            nus.append(LogValue.pos(series.central_index(g).log_n))
    return ConvexSamples.from_g_samples(gs, hs, nus)


@dataclass(frozen=True)
class ConvexIndicators:
    alpha: float
    beta: float
    alpha_prime: float
    beta_prime: float


def convex_indicators(samples: ConvexSamples, tail_fraction: float = 0.5) -> ConvexIndicators:
    """Tail inf/sup of log h/log(1/|x|) and the same for the forward-difference
    right derivative."""
    if len(samples.h) < 32:
        raise SeriesError(f"need >= 32 samples, got {len(samples.h)}")
    span = samples.log_abs_x[0] - samples.log_abs_x[-1]
    if span < 3.0 * math.log(10.0):
        raise SeriesError(f"samples span {span / math.log(10.0):.2f} decades of |x|; need >= 3")
    samples.check_convex()

    def tail_ratios(lx: Sequence[float], vals: Sequence[LogValue]) -> list[float]:
        n = len(lx)
        start = int(n * (1.0 - tail_fraction))
        out = []
        for i in range(start, n):
            if vals[i].sign <= 0:
                continue
            out.append(vals[i].logmag / (-lx[i]))
        if not out:
            raise SeriesError("no positive tail samples")
        return out

    r0 = tail_ratios(samples.log_abs_x, samples.h)
    lx1, slopes = samples.forward_slopes()
    r1 = tail_ratios(lx1, slopes)
    return ConvexIndicators(min(r0), max(r0), min(r1), max(r1))
