"""Core substrate: log-gap coordinates, signed log-domain sums, root finding,
quadrature.  Expected values for the non-trivial cases were frozen from
independent closed forms (antiderivatives, direct small-magnitude sums)."""

import math
import struct

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discgrowth import numerics
from discgrowth.numerics import (
    BracketError,
    LogGap,
    LogValue,
    NumericsError,
    QuadratureError,
    RootConvergenceError,
    SeriesCapError,
    find_root,
    gap_diff_log,
    integrate,
    log_int_log_ratio,
    log_log_ratio_r,
    log_neg_log_r,
    log_r_from_g,
    log_ratio_r,
    lse_sum,
)


class TestLogGap:
    def test_round_trip_bulk(self):
        # a double radius near 1 carries ~eps/(1-r) absolute slack in g, so
        # round-trip fidelity is measured where it is well-posed: on r itself
        rng = np.random.default_rng(7)
        for g in rng.uniform(1e-6, 30.0, size=10_000):
            lg = LogGap(float(g))
            back = LogGap.from_r(lg.r)
            assert abs(back.r - lg.r) <= 1e-14 * lg.r + 1e-300

    @given(st.floats(min_value=1e-6, max_value=30.0))
    def test_round_trip_property(self, g):
        lg = LogGap(g)
        back = LogGap.from_r(lg.r)
        assert abs(back.r - lg.r) <= 1e-14 * lg.r + 1e-300

    def test_rejects_bad_values(self):
        with pytest.raises(NumericsError):
            LogGap(-0.5)
        with pytest.raises(NumericsError):
            LogGap(math.inf)
        with pytest.raises(NumericsError):
            LogGap.from_r(1.0)
        with pytest.raises(NumericsError):
            LogGap.from_r(1.0 - 1e-15)  # g > 30: only g-form accepted

    def test_huge_g_is_first_class(self):
        lg = LogGap(5e4)
        assert lg.gap == 0.0  # underflow by design
        assert lg.u(12.0) == 5e4 + 12.0

    def test_log_r_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        for g in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 400.0):
            want = float(mp.log1p(-mp.exp(-mp.mpf(g))))
            assert log_r_from_g(g) == pytest.approx(want, rel=1e-14)

    def test_log_r_deep(self):
        # log r = -e^(-g) (1 + e^(-g)/2 + ...); at g = 100 the second term is
        # invisible, so -log r equals e^(-100) to full precision
        assert log_r_from_g(100.0) == pytest.approx(-math.exp(-100.0), rel=1e-15)

    @pytest.mark.parametrize("g", [700.0, 745.0, 1e3, 1e5, 1e8])
    def test_log_r_at_depth_against_mpmath(self, g):
        # e^(-g) is subnormal or zero here; the series' relative stopping
        # test underflows, so log r = -e^(-g) must come out directly
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        want = float(mp.log1p(-mp.exp(-mp.mpf(g))))
        got = log_r_from_g(g)
        assert got == pytest.approx(want, rel=1e-15, abs=1e-323)
        assert got <= 0.0

    def test_log_ratio_r_no_cancellation(self):
        # nearly identical huge radii: ratio ~ delta_lo - delta_hi, exactly
        g = 50.0
        dg = 1e-9
        got = log_ratio_r(g + dg, g)
        want = math.exp(-g) * (-math.expm1(-dg))  # leading term; q^2 corrections ~ e^-50
        assert got == pytest.approx(want, rel=1e-12)

    def test_log_neg_log_r(self):
        assert log_neg_log_r(0.5) == pytest.approx(math.log(-math.log(LogGap(0.5).r)))
        # deep: -log r = e^(-g)(1 + e^(-g)/2 + ...)
        assert log_neg_log_r(200.0) == pytest.approx(-200.0, abs=1e-12)

    def test_gap_diff_log(self):
        got = gap_diff_log(3.0, 5.0)
        assert got == pytest.approx(math.log(math.exp(-3.0) - math.exp(-5.0)), rel=1e-14)


class TestIntLogRatio:
    def test_against_quadrature(self):
        # int_a^b log(r/t) dt at ordinary scale
        r, a, b = 0.9, 0.5, 0.7
        oracle = integrate(lambda t: math.log(r / t), a, b)
        got = math.exp(
            log_int_log_ratio(LogGap.from_r(r).g, LogGap.from_r(a).g, LogGap.from_r(b).g)
        )
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_thin_interval_deep_in_disc(self):
        # a, b, r all share gap scale e^(-40); the closed form must not cancel
        g_a, g_b, g_r = 40.0, 40.5, 41.0
        got = log_int_log_ratio(g_r, g_a, g_b)
        # leading behaviour: r*(F(wa)-F(wb)) with w ~ e^(-40)-scale; compare
        # against 200-digit-free evaluation via direct series in small floats
        wa = (math.exp(-g_a) - math.exp(-g_r)) / (1 - math.exp(-g_r))
        wb = (math.exp(-g_b) - math.exp(-g_r)) / (1 - math.exp(-g_r))
        f = lambda w: sum(w ** (k + 1) / (k * (k + 1)) for k in range(1, 8))
        assert got == pytest.approx(math.log(f(wa) - f(wb)), rel=1e-10)

    def test_from_the_origin(self):
        # int_0^b log(r/t) dt = b (1 + log(r/b)), against mpmath's quadrature
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            r, b = -mpmath.expm1(-3), -mpmath.expm1(-1)
            oracle = mpmath.log(mpmath.quad(lambda t: mpmath.log(r / t), [0, b]))
        got = log_int_log_ratio(3.0, 0.0, 1.0)
        assert got == pytest.approx(float(oracle), rel=1e-15)

    def test_log_ratio_from_the_origin(self):
        # r_lo = 0: log(r_hi/0) = inf, and 0 at r_hi = 0
        assert (log_ratio_r(0.0, 0.0), log_ratio_r(1.0, 0.0)) == (0.0, math.inf)

    def test_log_int_log_ratio_agrees_with_mpmath_at_depth(self):
        # past w_a < TINY_GAP the series is its closed form (1 + w_b/w_a)/2;
        # the oracle is [t log r - t log t + t]_a^b, which cancels down to
        # ~e^(-2 g_a), so it needs ~2 g/ln 10 digits (1,200 give -inf at 3e3)
        mp = pytest.importorskip("mpmath")
        cases = [
            (800.0, 760.0, 780.0, None),
            (770.0, 750.0, 760.0, None),
            (801.0, 800.0, 800.5, None),
            (1e3 + 3.0, 1e3, 1e3 + 3.0, None),  # w_b = 0
            (3e3 + 25.0, 3e3, 3e3 + 20.0, None),
            (3e3 + 2.0, 3e3, 3e3 + 0.01, 0.01),
            (721.0, 720.0, 720.3, None),  # w_a subnormal, not 0
        ]
        for g_r, g_a, g_b, span in cases:
            mp.mp.dps = int(2.0 * g_r / math.log(10.0)) + 60
            gb = mp.mpf(g_a) + mp.mpf(span) if span is not None else mp.mpf(g_b)
            r, a, b = (-mp.expm1(-x) for x in (mp.mpf(g_r), mp.mpf(g_a), gb))
            antider = lambda t: t * mp.log(r) - t * mp.log(t) + t
            want = float(mp.log(antider(b) - antider(a)))
            got = log_int_log_ratio(g_r, g_a, g_b, span_ba=span)
            assert got == pytest.approx(want, rel=1e-14)
        assert 0.0 < math.exp(-720.0) < 2.2250738585072014e-308


class TestSubnormalLowerGap:
    """log(r_hi/r_lo) for a subnormal g_lo, where r_lo ~ g_lo and the gap
    difference over r_lo overflows, against mpmath."""

    @pytest.mark.parametrize("g_lo", [5e-324, 1e-320, 1e-300])
    def test_against_mpmath(self, g_lo):
        mp = pytest.importorskip("mpmath")
        g_his = [3.0, 0.5, 40.0]
        with mp.workdps(40):
            r = lambda g: -mp.expm1(-mp.mpf(g))
            want = [float(mp.log(r(g) / r(g_lo))) for g in g_his]
            # int_0^b log(r/t) dt = b (1 + log(r/b)) with b = r(g_lo)
            want_int = float(mp.log(r(g_lo) * (1 + mp.log(r(3.0) / r(g_lo)))))
        for g, w in zip(g_his, want):
            assert log_ratio_r(g, g_lo) == pytest.approx(w, rel=1e-15)
        assert log_log_ratio_r(3.0, g_lo) == pytest.approx(math.log(want[0]), rel=1e-15)
        assert log_int_log_ratio(3.0, 0.0, g_lo) == pytest.approx(want_int, rel=1e-15)

    @pytest.mark.parametrize("g_lo", [1e-300, 1e-200, 1e-20, 0.3, 1.0])
    def test_bits_kept_from_1e_300_on(self, g_lo):
        # the closed form log1p((e^-g_lo (1 - e^-dg)) / r_lo), as before
        g_his = np.array([g_lo, g_lo * 1.5, 0.5 + g_lo, 3.0, 40.0])
        want = [math.log1p(math.exp(-g_lo) * (-math.expm1(-(g - g_lo))) / -math.expm1(-g_lo))
                for g in g_his.tolist()]
        assert [log_ratio_r(g, g_lo) for g in g_his.tolist()] == want


def _same_bits(got, want):
    """Exact equality of floats or float arrays, sign of zero and NaN included."""
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    return struct.pack("<d", got) == struct.pack("<d", want)


def _same_outcome(f, oracle, *args, **kwargs):
    """f and its summed oracle give the same bits, or raise the same type."""
    outcomes = []
    for fn in (f, oracle):
        try:
            outcomes.append(fn(*args, **kwargs))
        except (ArithmeticError, ValueError, RuntimeWarning) as err:
            outcomes.append(type(err))
    got, want = outcomes
    if isinstance(want, type) or isinstance(got, type):
        return got is want
    return _same_bits(got, want)


# q = e^(-g) = 2^-56 at g = 56 log 2: the exits start at the first g whose
# e^(-g) rounds to 2^-56 or below
_G_LEAD = 56.0 * math.log(2.0)


def _ulps_around(x, n=2):
    out, lo, hi = [x], x, x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return sorted(out)


_THRESHOLD_GS = _ulps_around(_G_LEAD) + _ulps_around(38.9) + _ulps_around(-math.log(numerics.TINY_GAP))
_GS = st.floats(min_value=0.0, max_value=800.0)
# log-gap differences from 0 through subnormal widths to wide ones
_DGS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=6.0),
    st.floats(min_value=-320.0, max_value=0.5).map(lambda e: 10.0**e),
)


class TestLeadingTermExit:
    """The series return their first term once the next one cannot change a
    bit; the summed loops of ``oracles`` must agree bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_GS, min_size=1, max_size=8))
    def test_log_r_from_g(self, gs):
        for g in gs:
            assert _same_outcome(log_r_from_g, oracles.summed_log_r_from_g, g)

    @settings(max_examples=300, deadline=None)
    @given(_GS, st.lists(_DGS, min_size=1, max_size=6))
    def test_log_ratio_r(self, g_lo, dgs):
        g_hi = g_lo + np.array(dgs)
        if g_lo == 0.0:
            # r_lo = 0: log(r_hi / 0) = inf, and 0 at g_hi = 0
            want = np.where(g_hi == 0.0, 0.0, math.inf)
            for g, w in zip(g_hi.tolist(), want.tolist()):
                assert _same_bits(log_ratio_r(g, g_lo), w)
            return
        for g in g_hi:
            assert _same_outcome(log_ratio_r, oracles.summed_log_ratio_r, float(g), g_lo)

    @settings(max_examples=300, deadline=None)
    @given(_GS, _DGS, st.lists(_DGS, min_size=1, max_size=5), st.booleans())
    def test_log_int_log_ratio(self, g_a, dg_ab, dgs_br, with_span):
        g_b = g_a + dg_ab
        span = dg_ab if with_span else None
        g_r = g_b + np.array(dgs_br)
        if g_a == 0.0:
            # from t = 0: log of b (1 + log(r/b)), and -inf at b = 0
            want = np.array([-math.inf if g_b == 0.0 else log_r_from_g(g_b) + math.log1p(log_ratio_r(g, g_b))
                             for g in g_r.tolist()])
            for g, w in zip(g_r.tolist(), want.tolist()):
                assert _same_bits(log_int_log_ratio(g, g_a, g_b, span_ba=span), w)
            return
        for g in g_r:
            assert _same_outcome(log_int_log_ratio, oracles.summed_log_int_log_ratio,
                                 float(g), g_a, g_b, span_ba=span)

    def test_fixed_cases(self):
        dgs = np.array([0.0, 1e-12, 1e-300, 5e-324, 1e-3, 0.7, 25.0])
        # every 0.25 from 25 to 40 too: a looser threshold changes bits there
        gs = _THRESHOLD_GS + np.linspace(25.0, 40.0, 61).tolist() + [1.0, 2.0, 700.0, 708.4, 745.2, 800.0]
        for g in gs:
            assert _same_bits(log_r_from_g(g), oracles.summed_log_r_from_g(g))
            g_hi = g + dgs
            for gh in g_hi:
                assert _same_bits(log_ratio_r(float(gh), g), oracles.summed_log_ratio_r(float(gh), g))
            for dg_ab in dgs[1:]:
                g_b = g + float(dg_ab)
                # g_b == g_r first, then w_b/w_a from 1 - 1e-12 down to e^-25
                g_r = g_b + dgs
                for span in (None, float(dg_ab)):
                    for gr in g_r:
                        want = oracles.summed_log_int_log_ratio(float(gr), g, g_b, span_ba=span)
                        assert _same_bits(log_int_log_ratio(float(gr), g, g_b, span_ba=span), want)

    def test_subnormal_and_zero_results(self):
        # q (1 - e^(-dg)) below 2^-1022 at g_lo >= 700; +0.0 once it underflows
        got = []
        for g_lo, g_hi in ((700.0, math.nextafter(700.0, math.inf)), (700.0, 700.0 + 1e-11),
                           (720.0, 720.0 + 1e-10), (740.0, 740.0 + 1e-6), (745.0, 745.5)):
            got.append(log_ratio_r(g_hi, g_lo))
            assert _same_bits(got[-1], oracles.summed_log_ratio_r(g_hi, g_lo))
        assert all(0.0 <= x < 2.2250738585072014e-308 for x in got)
        assert got[0] > 0.0 and _same_bits(got[3], 0.0)
        assert _same_bits(log_r_from_g(746.0), -0.0)
        assert _same_bits(log_r_from_g(math.inf), -0.0)

    @pytest.mark.parametrize("g", [40.0, 41.5, 100.0, 700.0, 745.0, 800.0])
    def test_one_term_cap_is_enough_past_the_exit(self, monkeypatch, g):
        # with SERIES_CAP = 1 no loop may run, and nothing changes
        want = [
            oracles.summed_log_r_from_g(g),
            oracles.summed_log_ratio_r(g + 0.5, g),
            oracles.summed_log_int_log_ratio(g + 3.0, g, g + 0.5),
        ]
        monkeypatch.setattr(numerics, "SERIES_CAP", 1)
        got = [
            log_r_from_g(g),
            log_ratio_r(g + 0.5, g),
            log_int_log_ratio(g + 3.0, g, g + 0.5),
        ]
        for a, b in zip(got, want):
            assert _same_bits(a, b)

    @pytest.mark.parametrize("g", [math.nan, -1.0, -5e-324, -math.inf])
    def test_log_r_rejects_negative_and_nan(self, g):
        with pytest.raises(NumericsError, match="log_r_from_g needs g >= 0"):
            log_r_from_g(g)

    @pytest.mark.parametrize("g_lo", [0.5, 2.0, 50.0])
    def test_nan_is_bad_input_in_every_log_gap_routine(self, g_lo):
        # no NaN result and no series loop run to its cap on NaN: each routine
        # rejects it as it rejects misordered log-gaps
        nan = math.nan
        calls = [
            lambda: log_ratio_r(nan, g_lo), lambda: log_ratio_r(g_lo + 1.0, nan),
            lambda: log_log_ratio_r(nan, g_lo), lambda: log_log_ratio_r(g_lo + 1.0, nan),
            lambda: gap_diff_log(g_lo, nan), lambda: gap_diff_log(nan, g_lo),
            lambda: log_neg_log_r(nan),
            lambda: log_int_log_ratio(g_lo + 3.0, g_lo, nan),
        ]
        for call in calls:
            with pytest.raises(NumericsError) as err:
                call()
            assert not isinstance(err.value, SeriesCapError)


class TestSeriesCap:
    def test_every_scalar_series_loop_is_capped(self, monkeypatch):
        monkeypatch.setattr(numerics, "SERIES_CAP", 3)
        calls = [
            ("log_r_from_g", lambda: log_r_from_g(2.0)),
            ("log_ratio_r", lambda: log_ratio_r(3.0, 2.0)),
            ("log_neg_log_r", lambda: log_neg_log_r(2.0)),
            ("log_int_log_ratio", lambda: log_int_log_ratio(40.0, 2.5, 3.0)),
        ]
        for name, call in calls:
            with pytest.raises(SeriesCapError, match=f"{name}: series did not converge in 3"):
                call()
        assert issubclass(SeriesCapError, NumericsError)


class TestLseSum:
    def test_identity_case(self):
        got = lse_sum([LogValue.pos(math.log(1.0)), LogValue.pos(math.log(1.0))])
        assert got.sign == 1
        assert got.logmag == pytest.approx(math.log(2.0), rel=1e-15)

    def test_zero_absorbs(self):
        got = lse_sum([LogValue.zero(), LogValue.pos(math.log(5.0))])
        assert got.logmag == pytest.approx(math.log(5.0), rel=1e-15)

    def test_three_term_oracle(self):
        # direct small-magnitude sum: 3 + 4 + 5 = 12
        got = lse_sum([LogValue.from_float(x) for x in (3.0, 4.0, 5.0)])
        assert got.logmag == pytest.approx(math.log(12.0), rel=1e-14)
        assert not got.cancelled

    def test_signed_and_cancellation_flag(self):
        a = LogValue.from_float(1.0)
        b = LogValue.from_float(-1.0 + 1e-14)
        got = lse_sum([a, b])
        assert got.cancelled
        exact = lse_sum([LogValue.from_float(1.0), LogValue.from_float(-1.0)])
        assert exact.is_zero and exact.cancelled

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3).filter(lambda x: abs(x) > 1e-6),
            min_size=1,
            max_size=12,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200)
    def test_permutation_invariance(self, xs, rnd):
        terms = [LogValue.from_float(x) for x in xs]
        ref = lse_sum(terms)
        shuffled = list(terms)
        rnd.shuffle(shuffled)
        got = lse_sum(shuffled)
        if ref.is_zero:
            assert got.is_zero
        elif not ref.cancelled:
            assert got.sign == ref.sign
            assert got.logmag == pytest.approx(ref.logmag, abs=1e-13)

    def test_huge_magnitudes(self):
        got = lse_sum([LogValue.pos(5e4), LogValue.pos(5e4 - math.log(2.0))])
        assert got.logmag == pytest.approx(5e4 + math.log(1.5), rel=1e-15)


class TestLogValueArithmetic:
    def test_mul_div(self):
        a, b = LogValue.from_float(-6.0), LogValue.from_float(2.0)
        assert (a * b).to_float() == pytest.approx(-12.0)
        assert (a / b).to_float() == pytest.approx(-3.0)


class TestFindRoot:
    def test_sqrt2(self):
        x = find_root(lambda t: t * t - 2.0, 1.0, 2.0)
        assert x == pytest.approx(math.sqrt(2.0), rel=1e-13)

    def test_linear(self):
        assert find_root(lambda t: 2.0 * t - 1.0, 0.0, 1.0) == pytest.approx(0.5, rel=1e-13)

    def test_bracket_error_carries_endpoints(self):
        with pytest.raises(BracketError) as ei:
            find_root(lambda t: t * t + 1.0, -1.0, 1.0)
        assert ei.value.f_lo == 2.0 and ei.value.f_hi == 2.0

    def test_exhausted_iterations_raise_with_last_bracket(self):
        f = lambda t: t**3 - 2.0
        with pytest.raises(RootConvergenceError) as ei:
            find_root(f, 0.0, 2.0, max_iter=3)
        err = ei.value
        assert isinstance(err, NumericsError)
        assert 0.0 <= err.lo < 2.0 ** (1.0 / 3.0) < err.hi <= 2.0
        assert (err.f_lo, err.f_hi) == (f(err.lo), f(err.hi))
        assert err.f_lo < 0.0 < err.f_hi
        assert find_root(f, 0.0, 2.0) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-13)

    def test_inside_bracket_and_stable_under_perturbation(self):
        f = lambda t: math.tan(t) - 2.0 * t  # root near 1.1655
        lo, hi = 1.0, 1.4
        x0 = find_root(f, lo, hi)
        assert lo <= x0 <= hi
        for s in (-0.01, 0.01):
            x1 = find_root(f, lo * (1 + s), hi * (1 - s))
            assert x1 == pytest.approx(x0, rel=1e-10)

    def test_grid_scan_oracle_transcendental(self):
        # the same root located by a 10^6-point scan
        f = lambda t: math.exp(t) - 3.0 * t
        lo, hi = 0.0, 1.0
        xs = np.linspace(lo, hi, 1_000_001)
        vals = np.exp(xs) - 3.0 * xs
        idx = int(np.nonzero(np.diff(np.sign(vals)))[0][0])
        assert find_root(f, lo, hi) == pytest.approx(xs[idx], abs=2e-6)


class TestIntegrate:
    def test_polynomial_exact(self):
        assert integrate(lambda t: t, 0.0, 1.0) == pytest.approx(0.5, rel=1e-14)
        assert integrate(lambda t: t**9, 0.0, 2.0) == pytest.approx(2.0**10 / 10.0, rel=1e-13)

    def test_log_kernel_oracle(self):
        # int_0^R (R-t)/(1-t) dt = R - (1-R) log(1/(1-R)) at R = 0.9
        r = 0.9
        got = integrate(lambda t: (r - t) / (1.0 - t), 0.0, r)
        assert got == pytest.approx(0.9 - 0.1 * math.log(10.0), rel=1e-11)

    def test_endpoint_singularity(self):
        got = integrate(lambda t: (1.0 - t) ** -0.5, 0.0, 0.99, singularity_hint=0.5)
        assert got == pytest.approx(1.8, rel=1e-10)

    def test_strong_singularity(self):
        # singularity exactly at b: supply the distance form of the integrand
        got = integrate(
            None, 0.0, 1.0, singularity_hint=0.9, endpoint_f=lambda u: u**-0.9
        )
        assert got == pytest.approx(10.0, rel=1e-8)

    def test_oscillatory(self):
        got = integrate(math.sin, 0.0, 10.0 * math.pi)
        assert got == pytest.approx(0.0, abs=1e-10)

    def test_rejects_bad_hint(self):
        with pytest.raises(NumericsError):
            integrate(lambda t: t, 0.0, 1.0, singularity_hint=1.5)

    def test_unconverged_refinement_raises(self):
        # the kink at 1/3 keeps the error estimate above the tolerance
        # (2.56x) once the 16 intervals are spent
        with pytest.raises(QuadratureError):
            integrate(lambda t: math.sqrt(abs(t - 1.0 / 3.0)), 0.0, 1.0, max_intervals=16)
