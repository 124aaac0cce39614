"""Power-series solving of f^(k) + A f = 0, the coefficient-integral bound,
closed-form predictors, order estimation and the inequality audit."""

import math
import warnings

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discgrowth import ode as O
from discgrowth.numerics import LogGap, LogValue, log_r_from_g
from discgrowth.profiles import RadialProfile
from discgrowth.scaffold import ScaffoldParams, build_scaffold
from oracles import power_majorant_bound


def exp_frac_coeffs(n: int) -> list[float]:
    """Taylor coefficients of exp(z/(1-z)) via the exact recurrence
    (m+1) f_{m+1} = (2m+1) f_m - (m-1) f_{m-1}."""
    f = [1.0]
    for m in range(n):
        prev = f[m - 1] if m >= 1 else 0.0
        f.append(((2 * m + 1) * f[m] - (m - 1) * prev) / (m + 1))
    return f


@pytest.fixture(scope="module")
def exp_solution():
    # f' = (1-z)^-2 f, i.e. the equation coefficient is -(1-z)^-2
    return O.taylor_solve(
        O.pole_coeffs(1, 220, scale=-1.0), 1, [LogValue.from_float(1.0)], 220
    )


class TestTaylorSolve:
    def test_zero_coefficient_keeps_initial_polynomial(self):
        sol = O.taylor_solve(O.DenseCoeffs.from_floats([0.0]), 2,
                             [LogValue.from_float(2.0), LogValue.from_float(-1.0)], 9)
        assert sol.coeff(0).to_float() == pytest.approx(2.0)
        assert sol.coeff(1).to_float() == pytest.approx(-1.0)
        assert all(sol.coeff(m).is_zero for m in range(2, 10))

    def test_cosine(self):
        sol = O.taylor_solve(O.DenseCoeffs.from_floats([1.0]), 2,
                             [LogValue.from_float(1.0), LogValue.zero()], 10)
        for m, want in ((2, -0.5), (4, 1.0 / 24.0), (6, -1.0 / 720.0), (3, 0.0)):
            assert sol.coeff(m).to_float() == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_first_coefficients_of_exp_frac(self, exp_solution):
        # f = exp(z/(1-z)) = 1 + z + 3/2 z^2 + 13/6 z^3 + ...
        assert exp_solution.coeff(2).to_float() == pytest.approx(1.5, rel=1e-13)
        assert exp_solution.coeff(3).to_float() == pytest.approx(13.0 / 6.0, rel=1e-13)

    def test_matches_recurrence_oracle_through_200(self, exp_solution):
        want = exp_frac_coeffs(200)
        for m in range(201):
            got = exp_solution.coeff(m).to_float()
            assert got == pytest.approx(want[m], rel=1e-10)

    def test_log_abs_sum_over_the_nonzero_coefficients(self):
        # the cached live set gives the bytes of the sum over np.nonzero
        sol = O.taylor_solve(O.DenseCoeffs.from_floats([1.0]), 2,
                             [LogValue.from_float(1.0), LogValue.zero()], 30)
        for g in (0.3, 2.0):
            t = log_r_from_g(g)
            live = np.nonzero(sol.sign != 0.0)[0]
            vals = sol.logmag[live] + live * t
            m = float(np.max(vals))
            assert sol.log_abs_sum(g) == m + math.log(float(np.sum(np.exp(vals - m))))

    @pytest.mark.parametrize("init,want", [
        ([LogValue.from_float(3.0)], math.log(3.0)),  # the pole path
        ([LogValue.zero(), LogValue.from_float(1.0)], -math.inf),
    ])
    def test_log_abs_sum_at_the_centre_is_log_f0(self, init, want):
        # r = 0 (g = 0): the sum is |f_0|, without the 0 * -inf of m log r
        sol = O.taylor_solve(O.pole_coeffs(2, 200, scale=-1.0), len(init), init, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sol.log_abs_sum(0.0) == want

    def test_validation(self):
        coeffs = O.DenseCoeffs.from_floats([1.0])
        with pytest.raises(O.OdeError):
            O.taylor_solve(coeffs, 0, [], 5)
        with pytest.raises(O.OdeError):
            O.taylor_solve(coeffs, 2, [LogValue.from_float(1.0)], 5)
        with pytest.raises(O.OdeError):
            O.taylor_solve(coeffs, 2, [LogValue.from_float(1.0)] * 2, 1)
        with pytest.raises(O.OdeError):
            O.pole_coeffs(0, 5)
        for degree in (-1, -5):
            with pytest.raises(O.OdeError, match="degree must be >= 0"):
                O.pole_coeffs(2, degree)
        assert len(O.pole_coeffs(2, 0).logmag) == 1
        for scale in (0.0, -math.inf, math.nan):
            with pytest.raises(O.OdeError, match="scale must be finite and nonzero"):
                O.pole_coeffs(2, 5, scale=scale)

    def test_overflow_is_a_numerical_failure(self):
        # finite inputs whose log magnitudes overflow in the recursion
        coeffs = O.DenseCoeffs(np.array([1.0, 1.0]), np.array([1e308, 1e308]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(O.OdeOverflowError, match="overflow in the recursion"):
                O.taylor_solve(coeffs, 1, [LogValue.from_float(1.0)], 5)

    def test_overflow_message_names_the_cause(self):
        # log magnitudes near the double limit, the one way to overflow
        coeffs = O.DenseCoeffs(np.array([1.0, 1.0]), np.array([1e308, 1e308]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(O.OdeOverflowError) as info:
                O.taylor_solve(coeffs, 1, [LogValue.from_float(1.0)], 5)
        msg = str(info.value)
        assert "at coefficient 2:" in msg and "near the double limit" in msg


def dense_oracle(coeffs, k, init, degree, rho=1.0):
    # the same coefficients without the pole tag take the dense convolution;
    # for rho != 1 it solves for the coefficients f_m rho^m of f(rho z),
    # whose equation has the coefficients A_j rho^(j+k)
    log_rho = math.log(rho)
    a_log = coeffs.logmag + (np.arange(len(coeffs)) + k) * log_rho
    init = [LogValue(v.sign, v.logmag + m * log_rho) for m, v in enumerate(init)]
    return O.taylor_solve(O.DenseCoeffs(coeffs.sign, a_log), k, init, degree)


def log_deviation(got, want, rho=1.0):
    # relative deviation in log|f_m rho^m| (``want`` from dense_oracle at
    # rho), floored at 1 where that log is near 0
    assert np.array_equal(got.sign, want.sign)
    live = want.sign != 0.0
    got_log = got.logmag + np.arange(len(got)) * math.log(rho)
    assert np.array_equal(np.isfinite(got_log), live)
    return float(np.max(np.abs(got_log[live] - want.logmag[live])
                        / np.maximum(1.0, np.abs(want.logmag[live]))))


class TestPolePath:
    """The O(degree p) pole recursion against the dense kernel."""

    @pytest.fixture
    def dense_calls(self, monkeypatch):
        calls = []
        kernel = O.taylor_recursion

        def spy(*args):
            calls.append(args[3])
            return kernel(*args)

        monkeypatch.setattr(O, "taylor_recursion", spy)
        return calls

    @pytest.mark.parametrize("rho", [1.0, 0.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_dense_kernel(self, p, k, rho, dense_calls):
        degree = 240
        coeffs = O.pole_coeffs(p, degree, scale=-1.5)
        init = [LogValue.from_float(v) for v in (1.0, 0.0, 0.25)[:k]]
        got = O.taylor_solve(coeffs, k, init, degree)
        assert dense_calls == []
        assert log_deviation(got, dense_oracle(coeffs, k, init, degree, rho), rho) <= 1e-12

    @pytest.mark.parametrize("p,degree", [(2, 12000), (3, 18000)])
    def test_matches_dense_kernel_c5_pair(self, p, degree, dense_calls):
        coeffs = O.pole_coeffs(p, degree, scale=-1.0)
        init = [LogValue.from_float(1.0)]
        got = O.taylor_solve(coeffs, 1, init, degree)
        assert dense_calls == []
        assert log_deviation(got, dense_oracle(coeffs, 1, init, degree)) <= 1e-12

    @pytest.mark.parametrize("rho", [1e-3, 1e3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("scale", [-5e-324, -1e-300, -1e300, -1.5e308])
    def test_extreme_scale_and_rho(self, scale, k, rho, dense_calls):
        # alpha_m = p |scale| / ((m+1)...(m+k)) far outside 2^+-300, and as
        # one float 0 or inf at the double limits: the split-exponent branch;
        # the new path emits no warning
        degree = 240
        coeffs = O.pole_coeffs(2, degree, scale=scale)
        init = [LogValue.from_float(v) for v in (1.0, 0.0, 0.25)[:k]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = O.taylor_solve(coeffs, k, init, degree)
        assert dense_calls == []
        assert log_deviation(got, dense_oracle(coeffs, k, init, degree, rho), rho) <= 1e-12

    @pytest.mark.parametrize("logs", [
        (1000.0, -1000.0, 5.0),  # an input far below the running sums
        (-1000.0, 1000.0, -math.inf),  # an input far above them
        (-math.inf, -1000.0, 2.0),  # the sums start at the second input
    ])
    def test_initial_values_far_apart(self, logs, dense_calls):
        coeffs = O.pole_coeffs(3, 200, scale=-1.0)
        init = [LogValue.zero() if v == -math.inf else LogValue.pos(v) for v in logs]
        got = O.taylor_solve(coeffs, 3, init, 200)
        assert dense_calls == []
        assert log_deviation(got, dense_oracle(coeffs, 3, init, 200)) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_zero_initial_values_give_zero_coefficients(self, k, dense_calls):
        sol = O.taylor_solve(O.pole_coeffs(2, 50, scale=-1.0), k, [LogValue.zero()] * k, 50)
        assert dense_calls == []
        assert np.all(sol.sign == 0.0) and np.all(sol.logmag == -np.inf)
        assert sol.log_abs_sum(1.0) == -math.inf

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_pole_coeffs_against_mpmath(self, p):
        mp = pytest.importorskip("mpmath")
        got = O.pole_coeffs(p, 18000).logmag
        with mp.workdps(40):
            for j in (1, 10, 1000, 9000, 18000):
                want = float(mp.log(p * mp.binomial(j + p, p)))
                assert abs(got[j] - want) <= 2e-13

    @pytest.mark.parametrize("scale,coeff_degree,init", [
        (1.0, 200, [1.0, 0.5]),  # positive scale: mixed signs can cancel
        (-1.0, 150, [1.0, 0.5]),  # truncated coefficients
        (-1.0, 200, [1.0, -0.5]),  # negative initial value
    ])
    def test_other_inputs_fall_back_bit_identical(self, scale, coeff_degree, init, dense_calls):
        coeffs = O.pole_coeffs(2, coeff_degree, scale=scale)
        init = [LogValue.from_float(v) for v in init]
        got = O.taylor_solve(coeffs, 2, init, 200)
        want = dense_oracle(coeffs, 2, init, 200)
        assert dense_calls == [200, 200]
        assert np.array_equal(got.sign, want.sign)
        assert np.array_equal(got.logmag, want.logmag)

    def test_initial_log_magnitude_beyond_1e15_takes_the_dense_kernel(self, dense_calls):
        coeffs = O.pole_coeffs(2, 20, scale=-1.0)
        got = O.taylor_solve(coeffs, 1, [LogValue.pos(1e300)], 20)
        assert dense_calls == [20]
        assert np.all(got.logmag == 1e300)  # the later terms are below its last bit


class TestGrowthMajorant:
    """coefficient_integral_log_bound against the closed form of the bound for
    M = B (1-t)^-s.  With e = s/k and step h, the midpoint rule in g is off by
    the same factor (e-1) sinh(h/2) / sinh((e-1) h/2) on every piece, so
    log(got) - log(closed form) = e (2-e) h^2/24 + O(h^4), exact at e = 2."""

    def test_pure_power_closed_form(self):
        # M = (1-t)^-2, k = 1: bound = r/(1-r)
        for g in (1.0, 3.0, 6.0):
            r = LogGap(g).r
            assert power_majorant_bound(1.0, 2.0, 1, g) == pytest.approx(r / (1.0 - r), rel=1e-12)

    @pytest.mark.parametrize("g", [0.5, 3.0, 6.0, 20.0])
    @pytest.mark.parametrize("b,s,k", [
        (1.0, 0.5, 1), (3.0, 3.0, 4),  # e < 1
        (1.0, 2.0, 2),  # e = 1
        (1.0, 2.0, 1), (3.0, 2.0, 1),  # e = 2
        (1.0, 6.0, 2), (2.0, 4.0, 1),  # e > 2
    ])
    def test_integral_matches_closed_form(self, b, s, k, g):
        step, e = 0.02, s / k
        h = g / max(2, int(math.ceil(g / step)))
        got = O.coefficient_integral_log_bound(lambda gs: math.log(b) + s * gs, k, g, step=step)
        residual = got - math.log(power_majorant_bound(b, s, k, g)) - e * (2.0 - e) * h * h / 24.0
        assert abs(residual) <= (1e-12 if e == 2.0 else 1e-8)

    def test_bounded_model(self):
        b = 7.0
        for k in (1, 2):
            got = O.coefficient_integral_log_bound(lambda gs: np.full(len(gs), math.log(b)), k, LogGap.from_r(0.8).g)
            assert abs(got - math.log(k * b ** (1.0 / k) * 0.8)) <= 1e-12

    @pytest.mark.parametrize("g, step, name", [
        (math.nan, 0.01, "g"), (math.inf, 0.01, "g"), (-math.inf, 0.01, "g"), (0.0, 0.01, "g"),
        (5.0, 0.0, "step"), (5.0, math.nan, "step"), (5.0, -1.0, "step"), (5.0, math.inf, "step"),
    ])
    def test_bad_grid_arguments_raise(self, g, step, name):
        with pytest.raises(O.OdeError, match=f"^{name} must be finite and > 0"):
            O.coefficient_integral_log_bound(lambda gs: 2.0 * gs, 1, g, step=step)

    def test_solution_below_majorant(self, exp_solution):
        # |A| = (1-t)^-2 exactly, k = 1
        for g in np.linspace(0.3, 6.0, 30):
            bound = power_majorant_bound(1.0, 2.0, 1, float(g))
            assert exp_solution.log_abs_sum(float(g)) <= bound * (1.0 + 1e-12) + 1e-9


def _within_2ulp(got: float, want: float) -> bool:
    return abs(got - want) <= 2.0 * math.ulp(want)


class _Counted:
    """A log M that records how many g's each call asks for."""

    def __init__(self, log_m):
        self.log_m, self.sizes = log_m, []

    def __call__(self, gs):
        self.sizes.append(len(gs))
        return self.log_m(gs)


@pytest.fixture(scope="module")
def majorant_profiles(ref_scaffold, ref_params):
    """phi of the reference scaffold, of eight generations of it (e^-g
    underflows from generation 6 on) and of the (3,4,4) study scaffold."""
    study = build_scaffold(ScaffoldParams.with_defaults(k=1, p1=3.0, p2=4.0, p=4.0), 5)
    return {
        "ref": RadialProfile(ref_scaffold),
        "deep": RadialProfile(build_scaffold(ref_params, 8)),
        "study": RadialProfile(study),
    }


class TestWindowedMajorant:
    """coefficient_integral_log_bound sums only the blocks of pieces that can
    change its value; the sum over every piece (``oracles``) agrees within
    2 ulp, given the same log M."""

    @pytest.mark.parametrize("name", ["ref", "deep", "study"])
    @pytest.mark.parametrize("step", [0.01, 0.02])
    def test_profiles_match_every_piece(self, majorant_profiles, name, step):
        prof = majorant_profiles[name]
        for g in np.linspace(1.0, prof.g_end - 1.0, 12).tolist():
            want = oracles.summed_coefficient_integral_log_bound(prof.phi, 1, g, step=step)
            assert _within_2ulp(O.coefficient_integral_log_bound(prof.phi, 1, g, step=step), want)

    def test_only_the_top_of_the_integrand_is_evaluated(self, majorant_profiles):
        # near its end the study profile's integrand spans hundreds in log M:
        # one sample per 256 pieces, then the kept blocks
        prof = majorant_profiles["study"]
        g = prof.g_end - 1.0
        log_m = _Counted(prof.phi)
        O.coefficient_integral_log_bound(log_m, 1, g, step=0.02)
        n = math.ceil(g / 0.02)
        assert log_m.sizes[0] == math.ceil(n / 256)
        assert log_m.sizes[1] < n / 5

    @pytest.mark.parametrize("g", [0.5, 3.0, 6.0, 20.0])
    @pytest.mark.parametrize("b,s,k", [
        (1.0, 0.5, 1), (3.0, 3.0, 4),  # e < 1
        (1.0, 2.0, 2),  # e = 1
        (1.0, 6.0, 2), (2.0, 4.0, 1), (1.0, 9.0, 3),  # e > 2
    ])
    def test_closed_form_majorants_match_every_piece(self, b, s, k, g):
        log_m = _Counted(lambda gs: math.log(b) + s * gs)
        got = O.coefficient_integral_log_bound(log_m, k, g, step=0.01)
        want = oracles.summed_coefficient_integral_log_bound(log_m, k, g, step=0.01)
        assert _within_2ulp(got, want)
        if s / k <= 1.0:  # the integrand does not grow: every block is summed
            assert log_m.sizes[1] == max(2, math.ceil(g / 0.01))

    @pytest.mark.parametrize("g", [0.3, 5.0, 20.0])
    def test_constant_majorant_sums_every_block(self, g):
        log_m = _Counted(lambda gs: np.full(len(gs), math.log(7.0)))
        got = O.coefficient_integral_log_bound(log_m, 2, g, step=0.01)
        assert _within_2ulp(got, oracles.summed_coefficient_integral_log_bound(log_m, 2, g, step=0.01))
        assert log_m.sizes[1] == max(2, math.ceil(g / 0.01))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.05, max_value=360.0), st.sampled_from([0.01, 0.02, 0.05]))
    def test_sweep_over_g(self, majorant_profiles, g, step):
        prof = majorant_profiles["study"]
        want = oracles.summed_coefficient_integral_log_bound(prof.phi, 1, g, step=step)
        assert _within_2ulp(O.coefficient_integral_log_bound(prof.phi, 1, g, step=step), want)

    def test_decreasing_log_m_raises(self):
        with pytest.raises(O.OdeError, match="nondecreasing"):
            O.coefficient_integral_log_bound(lambda gs: -gs, 1, 10.0)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.floats(min_value=5e-324, max_value=1e-300), st.floats(min_value=1e-300, max_value=1e4)),
           st.integers(min_value=2, max_value=3000))
    def test_edges_are_linspace(self, g, n):
        want = np.linspace(0.0, g, n + 1)
        assert O._edges(g, n, np.arange(n + 1)).tobytes() == want.tobytes()
        picks = np.array([0, n // 3, n - 1, n])
        assert O._edges(g, n, picks).tobytes() == want[picks].tobytes()


class TestWindowedLogAbsSum:
    """SolutionSeries.log_abs_sum sums only the blocks of coefficients that
    can change its value; the sum over every coefficient (``oracles``)
    agrees within 2 ulp."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("scale", [-1.0, -0.5, -2.0])
    def test_pole_series(self, p, scale):
        degree = 6000
        sol = O.taylor_solve(O.pole_coeffs(p, degree, scale=scale), 1, [LogValue.from_float(1.0)], degree)
        for g in np.linspace(0.3, 2.6, 24).tolist():
            assert _within_2ulp(sol.log_abs_sum(g), oracles.summed_log_abs_sum(sol, g))

    def test_growing_terms_and_zero_coefficients(self):
        # cosh(1000 z): the terms (1000 r)^m / m! grow up to m ~ 1000 r, over
        # many blocks; every other coefficient is 0
        sol = O.taylor_solve(O.DenseCoeffs.from_floats([-1e6]), 2,
                             [LogValue.from_float(1.0), LogValue.zero()], 3000)
        assert np.count_nonzero(sol.sign == 0.0) > 1000
        for g in (0.2, 0.69, 1.0, 3.0):
            assert _within_2ulp(sol.log_abs_sum(g), oracles.summed_log_abs_sum(sol, g))

    def test_only_the_top_terms_are_summed(self, monkeypatch):
        kept = []
        real = O._kept_range

        def spy(upper, lower):
            a, b = real(upper, lower)
            kept.append((b - a, len(upper)))
            return a, b

        sol = O.taylor_solve(O.pole_coeffs(3, 18000, scale=-1.0), 1, [LogValue.from_float(1.0)], 18000)
        monkeypatch.setattr(O, "_kept_range", spy)
        for g in (0.8, 1.4, 1.95):
            assert _within_2ulp(sol.log_abs_sum(g), oracles.summed_log_abs_sum(sol, g))
        # 18001 coefficients in 282 blocks, of which a window is summed
        assert [n for _, n in kept] == [math.ceil(18001 / 64)] * 3
        assert sum(k for k, _ in kept) < 3 * 282 / 4


class TestPredictors:
    def test_alpha_at_p_equals_p2(self):
        sigma, lam, alpha = O.predict_orders(2.0, 4.0, 1, 4.0)
        assert (sigma, lam, alpha) == (3.0, 1.5, 0.5)

    def test_regular_case(self):
        sigma, lam, alpha = O.predict_orders(3.0, 3.0, 1, 3.0)
        assert sigma == lam == 2.0
        assert alpha == 1.0

    def test_clip_at_large_p(self):
        sigma, lam, alpha = O.predict_orders(2.0, 4.0, 1, 8.0)
        assert sigma == 3.0
        assert alpha == 1.0  # 1.25 clipped
        assert lam == 1.0

    def test_validation(self):
        with pytest.raises(O.OdeError):
            O.predict_orders(2.0, 4.0, 1, 3.0)  # p < p2
        with pytest.raises(O.OdeError):
            O.predict_orders(1.0, 2.0, 1, 2.0)  # p2 = 2k

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        # k = 0 divided by zero; k = -1 gave sigma = -4
        with pytest.raises(O.OdeError, match=f"need k >= 1, got k={k}"):
            O.predict_orders(2.0, 3.0, k, 3.0)

    def test_xi_reference_value(self):
        xi, beta, res = O.quadratic_growth_exponents(2, 5.0, 6.0, 0.0)
        assert xi == pytest.approx(1.0 + math.sqrt(21.0), rel=1e-13)
        assert xi == pytest.approx(5.58257569495584, rel=1e-12)
        # root check on the defining quadratic
        assert xi * xi - 2.0 * xi - 5.0 * (6.0 - 2.0) == pytest.approx(0.0, abs=1e-12)
        assert res <= 1e-12

    def test_xi_exact_when_degrees_match(self):
        xi, _, _ = O.quadratic_growth_exponents(1, 3.0, 3.0, 0.0)
        assert xi == 3.0

    def test_xi_inside_interval_and_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            p2 = float(rng.uniform(2 * k + 0.1, 6 * k))
            p1 = float(rng.uniform(0.2, p2))
            cap = (p2 - p1) * (p2 - k) / p1
            eps = float(rng.uniform(0.0, cap * 0.9)) if p1 < p2 else 0.0
            xi, beta, res = O.quadratic_growth_exponents(k, p1, p2, eps)
            assert p1 < xi < p2 or (p1 == p2 and xi == p2)
            assert res <= 1e-12

    def test_xi_eps_validation(self):
        cap = (6.0 - 5.0) * (6.0 - 2.0) / 5.0
        with pytest.raises(O.OdeError):
            O.quadratic_growth_exponents(2, 5.0, 6.0, cap * 1.01)

    def test_two_scale_branches(self):
        assert O.two_scale_orders(2.0, 0.2, 0.5) == (1.8, 1.5)
        assert O.two_scale_orders(0.1, 0.2, 0.5) == (0.0, 0.0)
        sigma, lam = O.two_scale_orders(0.8, 0.2, 0.5)
        assert lam == pytest.approx(0.24 / 0.7, rel=1e-13)
        assert sigma == pytest.approx(0.6, rel=1e-13)
        with pytest.raises(O.OdeError):
            O.two_scale_orders(1.0, 0.2, 0.5)
        with pytest.raises(O.OdeError):
            O.two_scale_orders(0.5, 0.7, 0.5)

    def test_paired_radius_limit(self):
        dev = O.paired_radius_limit(1.0, 2.0, [-math.log(0.01)])
        assert dev[0][1] == pytest.approx(0.01348, abs=2e-4)
        grid = [4.0, 6.0, 8.0, 10.0, 12.0]
        devs = [d for _, d in O.paired_radius_limit(1.0, 2.0, grid)]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-3


class TestAnnulusLogderiv:
    def test_constant_function(self):
        spec = O.AnalyticSpec(lambda z: -math.inf, lambda z: 0.0)
        lhs, rhs = O.annulus_logderiv_check(spec, 1, 0, 0.2, 0.8, 1.5)
        assert lhs == 0.0

    def test_exponential_closed_form(self):
        # f = e^z: |f'/f| = 1, so lhs = pi (r^2 - r_inner^2)
        spec = O.AnalyticSpec(lambda z: 0.0, lambda z: z.real)
        lhs, rhs = O.annulus_logderiv_check(spec, 1, 0, 0.3, 1.2, 2.0)
        assert lhs == pytest.approx(math.pi * (1.2**2 - 0.3**2), rel=1e-7)
        assert lhs <= rhs

    def test_essential_singularity_ratio_bounded(self):
        # f = exp(1/(1-z)) inside R < 1
        def log_ratio(z: complex) -> float:
            return -2.0 * math.log(abs(1.0 - z))

        def log_f(z: complex) -> float:
            return (1.0 / (1.0 - z)).real

        spec = O.AnalyticSpec(log_ratio, log_f)
        big_r = 0.995
        ratios = []
        for r in (0.9, 0.95, 0.98):
            lhs, rhs = O.annulus_logderiv_check(spec, 1, 0, 0.0, r, big_r)
            ratios.append(lhs / rhs)
        assert max(ratios) < 10.0


class TestEstimateOrders:
    def test_constant_ratio_recovers_exponent(self):
        gs = np.linspace(1.0, 8.0, 64)
        samples = [(float(g), 2.0 * float(g)) for g in gs]  # log M = (1-r)^-2
        ind = O.estimate_orders(samples)
        assert ind.lambda_M.tail == pytest.approx(2.0, abs=0.02)
        assert ind.sigma_M.tail == pytest.approx(2.0, abs=0.02)
        assert ind.lambda_M.slope == pytest.approx(2.0, abs=0.02)

    def test_oscillating_exponent(self):
        # dyadic blocks alternating between ratio 1 and 2 via monotone
        # piecewise-linear anchors
        anchors_g = [2.0**j for j in range(1, 9)]
        anchors_v = [g * (1.0 if j % 2 == 0 else 2.0) for j, g in enumerate(anchors_g)]
        gs = np.linspace(2.0, 250.0, 600)
        vals = np.interp(gs, anchors_g, anchors_v)
        ind = O.estimate_orders(list(zip(gs, vals)), window=0.9)
        assert ind.sigma_M.tail == pytest.approx(2.0, abs=0.1)
        assert ind.lambda_M.tail == pytest.approx(1.0, abs=0.1)

    def test_star_indicators_from_k_samples(self):
        gs = np.linspace(1.0, 9.0, 64)
        loglog = [(float(g), 1.5 * float(g)) for g in gs]
        logk = [(float(g), 2.5 * float(g)) for g in gs]
        ind = O.estimate_orders(loglog, log_k=logk)
        assert ind.lambda_star.tail == pytest.approx(2.5, abs=0.02)
        assert ind.sigma_star.tail == pytest.approx(2.5, abs=0.02)

    def test_preconditions(self):
        gs = np.linspace(1.0, 9.0, 10)
        with pytest.raises(O.OdeError):
            O.estimate_orders([(float(g), g) for g in gs])  # too few
        gs = np.linspace(1.0, 3.0, 64)
        with pytest.raises(O.OdeError):
            O.estimate_orders([(float(g), g) for g in gs])  # span < 6

    def test_doubling_series_k_samples_star_indicator(self):
        # K samples of the doubling construction: the lower star indicator
        # approaches lam + lam/sigma
        from discgrowth import wiman as W

        lam, sigma = 1.0, 2.0
        b = W.build_reference_series("doubling", sigma=sigma, lam=lam)
        loglog, logk = [], []
        for k in range(8, 15):
            g_k, g_next = b.break_g(k), b.break_g(k + 1)
            for frac in (0.005, 0.05, 0.3, 0.6, 0.9, 0.995):
                g = g_k + frac * (g_next - g_k)
                loglog.append((g, b.log_max_term(g).logmag))
                logk.append((g, b.k_indicator(g).logmag))
        ind = O.estimate_orders(loglog, log_k=logk, window=1.0)
        assert ind.lambda_star.tail == pytest.approx(lam + lam / sigma, abs=0.1)
        assert ind.sigma_star.tail == pytest.approx(sigma + 1.0, abs=0.1)


def solve_and_estimate(p: int, degree: int, g_lo: float, g_hi: float):
    sol = O.taylor_solve(O.pole_coeffs(p, degree, scale=-1.0), 1,
                         [LogValue.from_float(1.0)], degree)
    gs = np.linspace(g_lo, g_hi, 48)
    samples = [(float(g), math.log(sol.log_abs_sum(float(g)))) for g in gs]
    ind = O.estimate_orders(samples, window=0.4, min_span=1.0)
    return sol, ind


class TestOrderRecovery:
    @pytest.mark.parametrize("p,degree,g_lo,g_hi", [(2, 12000, 1.0, 2.6), (3, 18000, 0.8, 1.95)])
    def test_sigma_recovered_within_5_percent(self, p, degree, g_lo, g_hi):
        sol, ind = solve_and_estimate(p, degree, g_lo, g_hi)
        assert ind.sigma_M.tail == pytest.approx(p, rel=0.05)
        assert ind.lambda_M.tail == pytest.approx(p, rel=0.05)
        # cross-check against the closed form log M = e^(pg) - 1
        g = g_hi
        assert sol.log_abs_sum(g) == pytest.approx(math.expm1(p * g), rel=1e-9)

    def test_audit_rows_regular_instance(self):
        _, ind = solve_and_estimate(2, 12000, 1.0, 2.6)
        rows = O.audit_inequalities(ind, p1=3.0, p2=3.0, k=1)
        assert all(r.passed for r in rows)
        assert rows[0].margin >= 0.0

    @pytest.mark.parametrize("p1, p2", [(3.0, 0.0), (0.0, 3.0), (-1.0, 3.0), (3.0, 2.0), (math.nan, 3.0)])
    def test_audit_needs_ordered_positive_degrees(self, p1, p2):
        # p2 = 0 divided by zero in the regular band before this check
        ind = O.GrowthIndicators(lambda_M=O.Estimate(2.0, 2.0), sigma_M=O.Estimate(2.0, 2.0))
        with pytest.raises(O.OdeError, match="need 0 < p1 <= p2"):
            O.audit_inequalities(ind, p1=p1, p2=p2, k=1)
