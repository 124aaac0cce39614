"""Sparse-series machinery: coefficient ladders, central index, maximum term,
K(r), the two reference constructions and the convex-growth indicators."""

import math

import numpy as np
import pytest

from discgrowth.numerics import LogGap, LogValue, NumericsError
from discgrowth import wiman as W


def geometric_ladder(n_terms=8, log_a0=0.0):
    """Simple ladder: n_k = k^2, c_k = 1 - 2^-(k+1)."""
    n_seq = [k * k for k in range(n_terms)]
    c_g = [(k + 1) * math.log(2.0) for k in range(n_terms - 1)]
    return W.build_ladder_series(n_seq, c_g, log_a0)


class TestBuildLadderSeries:
    def test_single_step_product(self):
        # log a_{n_1} = log a_{n_0} + (n_0 - n_1) log c_0
        s = W.build_ladder_series([2, 5], [LogGap.from_r(0.6)], log_a0=1.5)
        assert s.log_a[1] == pytest.approx(1.5 + (2 - 5) * math.log(0.6), rel=1e-14)

    def test_ladder_matches_fsum_oracle(self):
        n_seq = [0, 3, 7, 12, 20]
        gs = [0.9, 1.4, 2.2, 3.7]
        s = W.build_ladder_series(n_seq, gs)
        for k in range(1, 5):
            want = math.fsum(
                (n_seq[j] - n_seq[j + 1]) * math.log(LogGap(gs[j]).r) for j in range(k)
            )
            assert s.log_a[k] == pytest.approx(want, rel=1e-13)

    def test_near_constant_ratio_telescopes(self):
        # with all break radii equal to c the ladder telescopes to
        # (n_0 - n_k) log c; approximate c by an ascending hair's-width stack
        c = 0.7
        g = LogGap.from_r(c).g
        s = W.build_ladder_series([0, 3, 7, 12], [g, g * (1 + 1e-13), g * (1 + 2e-13)])
        assert s.log_a[-1] == pytest.approx(-12.0 * math.log(c), rel=1e-10)

    def test_power_law_prefix_matches_product_oracle(self):
        # direct product: a_{k+1} = a_0 prod c_j^-1 for the unit-gap ladder
        ser = W.build_reference_series("power-law", sigma=1.0).materialize(6)
        cs = 1.0 - np.exp(-W.build_reference_series("power-law", sigma=1.0).break_g(np.arange(5)))
        acc = 0.0
        for k in range(5):
            acc -= math.log(cs[k])
            assert ser.log_a[k + 1] == pytest.approx(acc, rel=1e-12, abs=1e-12)

    def test_validation(self):
        with pytest.raises(W.SeriesError):
            W.build_ladder_series([3, 1], [1.0])
        with pytest.raises(W.SeriesError):
            W.build_ladder_series([0, 1, 2], [2.0, 1.0])
        with pytest.raises(W.SeriesError):
            W.build_ladder_series([0, 1], [1.0, 2.0])

    @pytest.mark.parametrize("variant,lam", [("power-law", None), ("doubling", 1.0)])
    def test_materialize_needs_a_term(self, variant, lam):
        series = W.build_reference_series(variant, sigma=2.0, lam=lam)
        for terms in (0, -3):
            with pytest.raises(W.SeriesError, match=f"terms must be >= 1, got {terms}"):
                series.materialize(terms)
        assert series.materialize(1).n_seq == [0]


class TestCentralIndex:
    def test_closed_form_exact_on_random_radii(self):
        s = geometric_ladder()
        rng = np.random.default_rng(11)
        gs = rng.uniform(0.05, 12.0, size=1000)
        for g in gs:
            want_branch = sum(1 for c in s.chain_g if c <= g)
            got = W.central_index(s, float(g))
            assert got.n == s.n_seq[want_branch]

    def test_below_first_break(self):
        s = geometric_ladder()
        assert W.central_index(s, 0.01).n == 0

    def test_tie_takes_larger_index(self):
        s = geometric_ladder()
        g_break = s.chain_g[2]
        assert W.central_index(s, g_break).n == s.n_seq[3]

    def test_power_law_sigma1_at_045(self):
        s = W.build_reference_series("power-law", sigma=1.0)
        # c_1 = 1 - (1/3)^(1/2) = 0.42264973 <= 0.45 < c_2 = 0.5
        assert W.central_index(s, LogGap.from_r(0.45)).n == 2

    def test_argmax_path_matches_chain_path(self):
        s = geometric_ladder()
        bare = W.SparseSeries(s.n_seq, s.log_a)  # same terms, no chain
        rng = np.random.default_rng(3)
        for g in rng.uniform(0.05, 12.0, size=200):
            assert bare.central_term_index(float(g)) == s.central_term_index(float(g))


class TestMaxTermIntegralIdentity:
    def test_log_mu_nondecreasing(self):
        s = geometric_ladder()
        gs = np.linspace(0.01, 14.0, 300)
        vals = [W.log_max_term(s, float(g)).to_float() for g in gs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_residual_tiny_everywhere(self):
        s = geometric_ladder(log_a0=0.3)
        rng = np.random.default_rng(5)
        for _ in range(200):
            g0, g = sorted(rng.uniform(0.05, 14.0, size=2))
            if g - g0 < 1e-3:
                continue
            assert W.max_term_integral_residual(s, float(g0), float(g)) <= 1e-10

    def test_residual_without_chain(self):
        s = geometric_ladder()
        bare = W.SparseSeries(s.n_seq, s.log_a)
        assert W.max_term_integral_residual(bare, 0.5, 9.0) <= 1e-10

    def test_slope_of_log_mu_is_nu(self):
        # finite-difference slope of log mu w.r.t. log r equals the central
        # index strictly inside a plateau
        s = geometric_ladder()
        g = 0.5 * (s.chain_g[3] + s.chain_g[4])
        nu = W.central_index(s, g).n
        t0, t1 = -1.0005e-2, -0.9995e-2  # log r values near r(g)? use direct
        r = LogGap(g).r
        h = 1e-6
        mu = lambda rr: max(s.log_a + np.array([float(n) for n in s.n_seq]) * math.log(rr))
        slope = (mu(r * math.exp(h)) - mu(r * math.exp(-h))) / (2 * h)
        assert slope == pytest.approx(nu, rel=1e-9)

    def test_doubling_chain_vs_materialized(self):
        b = W.build_reference_series("doubling", sigma=2.0, lam=1.0)
        mat = b.materialize(4)
        g = b.break_g(2) + 0.4
        assert b.log_max_term(g).to_float() == pytest.approx(
            W.log_max_term(mat, g).to_float(), rel=1e-12
        )


class TestKIndicator:
    def test_two_term_closed_form(self):
        # f = 1 + z^2 at r = 0.5: K = 2 * 0.25/1.25 = 0.4
        s = W.SparseSeries([0, 2], [0.0, 0.0])
        k = W.k_indicator(s, LogGap.from_r(0.5))
        assert k.to_float() == pytest.approx(0.4, rel=1e-13)

    def test_single_term_gives_n(self):
        s = W.SparseSeries([7], [0.3])
        for r in (0.2, 0.6, 0.9):
            assert W.k_indicator(s, LogGap.from_r(r)).to_float() == pytest.approx(7.0, rel=1e-14)

    def test_monotone_in_r(self):
        s = geometric_ladder()
        gs = np.linspace(0.05, 13.0, 200)
        vals = [W.k_indicator(s, float(g)).logmag for g in gs]
        assert all(b >= a - 1e-11 for a, b in zip(vals, vals[1:]))

    def test_k_close_to_nu_inside_plateau(self):
        s = geometric_ladder()
        for j in (2, 3, 4):
            g = 0.5 * (s.chain_g[j] + s.chain_g[j + 1])
            nu = W.central_index(s, g).as_float()
            k = W.k_indicator(s, g).to_float()
            assert abs(k - nu) <= nu  # sanity band

    def test_doubling_k_below_index_bound(self):
        b = W.build_reference_series("doubling", sigma=2.0, lam=1.0)
        for k in range(5, 15):
            K = b.k_indicator(b.r_k(k).g)
            n_k = b.term(k)
            assert K.logmag <= n_k.log_n + 1e-12  # K <= n_k, hence K < n_k + 1

    def test_doubling_k_ratio_window(self):
        b = W.build_reference_series("doubling", sigma=2.0, lam=1.0)
        for k in range(8, 15):
            rk = b.r_k(k)
            ratio = b.k_indicator(rk.g).logmag / rk.g
            assert 1.35 <= ratio <= 1.65

    @pytest.mark.parametrize("g", [0.01, 0.3, 0.55, 1.0])
    def test_doubling_k_below_first_break_matches_ladder(self, g):
        # central index n_0 = 0 below break_g(0): the old ratio to n_0 gave NaN
        b = W.DoublingSeries(1.0, 2.0)
        assert g < b.break_g(0)
        want = W.k_indicator(b.materialize(5), g).logmag
        got = b.k_indicator(g).logmag
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12)

    def test_power_law_nu_asymptotics(self):
        s = W.build_reference_series("power-law", sigma=1.5)
        g = 8.0
        nu = W.central_index(s, g)
        val = nu.as_float() * math.exp(-(1.5 + 1.0) * g) / 1.5
        assert 0.95 <= val <= 1.05


class TestDerivativeAsymptotics:
    def test_order_zero_is_one(self):
        assert W.derivative_asymptotic_ratio(geometric_ladder(), 0, 3.0) == 1.0

    def test_single_term_closed_form(self):
        # ratio = n! C(N, n)/N^n = N(N-1)...(N-n+1)/N^n
        for N, n in ((40, 2), (200, 3), (10_000, 2)):
            s = W.SparseSeries([N], [0.0])
            want = math.prod(N - i for i in range(n)) / N**n
            got = W.derivative_asymptotic_ratio(s, n, LogGap.from_r(0.5).g)
            assert got == pytest.approx(want, rel=1e-10)

    def test_single_term_limit_to_one(self):
        s = W.SparseSeries([10**6], [0.0])
        assert W.derivative_asymptotic_ratio(s, 2, 1.0) == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_one_walk_matches_the_two_walk_form(self, order, monkeypatch):
        # reference: K from k_indicator, then a second walk for the falling
        # factorial with every factor scaled by n_ref / K
        for s, g in ((W.PowerLawSeries(1.5), 4.0), (W.PowerLawSeries(0.5), 6.0), (geometric_ladder(), 3.0)):
            k = s.k_indicator(g)
            log_ref, blocks = s.window(g)
            n_ref, scale = math.exp(log_ref), math.exp(log_ref - k.logmag)
            s0 = sff = 0.0
            for x, w in blocks:
                e = np.exp(w)
                fac = np.ones_like(x)
                for i in range(order):
                    fac *= (x - i / n_ref) * scale
                s0 += float(np.sum(e))
                sff += float(np.dot(e, fac))
            walks = []
            window = s.window
            monkeypatch.setattr(s, "window", lambda g: walks.append(g) or window(g))
            assert s.derivative_ratio(order, g) == pytest.approx(sff / s0, rel=1e-14)
            assert walks == [g]

    def test_power_law_near_one(self):
        s = W.build_reference_series("power-law", sigma=1.5)
        got = W.derivative_asymptotic_ratio(s, 1, 8.0)
        assert 0.9 <= got <= 1.1
        # K = r f'/f makes the first-order ratio exactly 1
        assert got == pytest.approx(1.0, rel=1e-10)


class TestReferenceConstructions:
    def test_variant_b_identity_exact_in_g(self):
        b = W.build_reference_series("doubling", sigma=2.0, lam=1.0)
        for k in range(0, 20):
            lhs = (b.lam + b.q) * b.break_g(k + 1)
            rhs = (b.sigma + 1.0) * b.break_g(k)
            assert lhs == pytest.approx(rhs, rel=1e-15)

    def test_variant_b_default_delta_respects_both_caps(self):
        b = W.build_reference_series("doubling", sigma=2.0, lam=1.0)
        assert b.delta < math.exp(-1.0 / (b.sigma * (1.0 - b.q)))
        x = b.delta
        s = b.sigma
        assert 1.0 / x ** (s + 1.0) + 1.0 <= 1.0 / x ** ((s + 1.0) / b.q)

    def test_variant_b_rejects_bad_delta(self):
        with pytest.raises(W.SeriesError):
            W.build_reference_series("doubling", sigma=2.0, lam=1.0, delta=0.5)  # above tail cap
        with pytest.raises(W.SeriesError):
            W.build_reference_series("doubling", sigma=2.0, lam=1.0, delta=1.2)

    def test_variant_b_index_sequence_increasing(self):
        b = W.build_reference_series("doubling", sigma=2.0, lam=1.0)
        prev = -1.0
        for j in range(12):
            t = b.term(j)
            val = t.log_n if t.n is None else math.log(max(t.n, 1))
            assert val > prev or j == 0
            prev = val

    @pytest.mark.parametrize("lam, sigma, delta", [(1.0, 3.0, None), (1.0, 2.0, None), (0.5, 3.0, None),
                                                   (2.9, 3.0, None), (5.0, 20.0, 0.9), (10.0, 20.0, 0.9),
                                                   (20.0, 40.0, 0.95), (30.0, 40.0, 0.9)])
    def test_first_inside_k_is_the_first_radius_in_the_disc(self, lam, sigma, delta):
        b = W.DoublingSeries(lam, sigma, delta)
        k = b.first_inside_k()
        assert b.r_k(k).g > 0.0
        if k > 0:
            with pytest.raises(NumericsError):
                b.r_k(k - 1)

    def test_variant_a_rejects_lambda(self):
        with pytest.raises(W.SeriesError):
            W.build_reference_series("power-law", sigma=2.0, lam=1.0)

    def test_variant_a_rejects_delta(self):
        with pytest.raises(W.SeriesError, match="takes no delta"):
            W.build_reference_series("power-law", sigma=2.0, delta=0.1)

    def test_unknown_variant(self):
        with pytest.raises(W.SeriesError):
            W.build_reference_series("mystery", sigma=2.0)


class TestConvexIndicators:
    def test_power_law_closed_form(self):
        xs = [-math.exp(-t) for t in np.linspace(1.0, 30.0, 400)]
        hs = [abs(x) ** -2.0 for x in xs]
        ind = W.convex_indicators(W.ConvexSamples.from_floats(xs, hs), tail_fraction=0.3)
        assert ind.alpha == pytest.approx(2.0, abs=0.02)
        assert ind.beta == pytest.approx(2.0, abs=0.02)
        assert ind.alpha_prime == pytest.approx(3.0, abs=0.05)
        assert ind.beta_prime == pytest.approx(3.0, abs=0.05)

    def test_doubling_series_window(self):
        b = W.build_reference_series("doubling", sigma=2.0, lam=1.0)
        ind = W.convex_indicators(W.doubling_convex_samples(b, 8, 14), tail_fraction=1.0)
        assert ind.alpha_prime == pytest.approx(1.5, abs=0.1)
        assert abs(ind.beta_prime - (ind.beta + 1.0)) <= 0.05

    def test_rejects_small_or_narrow_samples(self):
        xs = [-math.exp(-t) for t in np.linspace(1.0, 2.0, 40)]
        hs = [abs(x) ** -2.0 for x in xs]
        with pytest.raises(W.SeriesError):
            W.convex_indicators(W.ConvexSamples.from_floats(xs, hs))
        xs = [-math.exp(-t) for t in np.linspace(1.0, 30.0, 10)]
        hs = [abs(x) ** -2.0 for x in xs]
        with pytest.raises(W.SeriesError):
            W.convex_indicators(W.ConvexSamples.from_floats(xs, hs))

    def test_rejects_nonconvex(self):
        xs = [-math.exp(-t) for t in np.linspace(1.0, 12.0, 40)]
        hs = [abs(x) ** -2.0 for x in xs]
        hs[20] *= 50.0  # a bump breaks slope monotonicity
        with pytest.raises(W.SeriesError):
            W.convex_indicators(W.ConvexSamples.from_floats(xs, hs))


class TestSerialization:
    def test_terms_json(self):
        s = geometric_ladder(4)
        doc = s.to_json_terms()
        assert [d["n"] for d in doc] == [0, 1, 4, 9]
        assert all("log_a" in d for d in doc)


# form -> (series, its materialized ladder, sample g's, unsupported operation)
_SERIES_FORMS = {
    "sparse": (geometric_ladder, lambda s: s, (1.0, 3.0, 6.0), None),
    "power-law": (lambda: W.PowerLawSeries(1.0), lambda s: s.materialize(400), (0.5, 1.0, 1.5), "log_max_term"),
    "doubling": (lambda: W.DoublingSeries(1.0, 2.0), lambda s: s.materialize(4), (1.5, 2.6, 4.8), "derivative_ratio"),
}
_MODULE_OPS = {
    "central_index": W.central_index,
    "log_max_term": W.log_max_term,
    "k_indicator": W.k_indicator,
    "derivative_ratio": lambda s, g: W.derivative_asymptotic_ratio(s, 2, g),
}


def _call_method(series, op, g):
    return series.derivative_ratio(2, g) if op == "derivative_ratio" else getattr(series, op)(g)


def _comparable(v):
    if isinstance(v, W.Term):
        return v.log_n
    if isinstance(v, LogValue):
        return v.logmag
    return v


class TestSeriesProtocol:
    @pytest.mark.parametrize("op", list(_MODULE_OPS))
    @pytest.mark.parametrize("form", list(_SERIES_FORMS))
    def test_method_matches_module_and_materialized(self, form, op):
        make, materialize, gs, unsupported = _SERIES_FORMS[form]
        series = make()
        assert callable(getattr(type(series), op))
        mat = materialize(series)
        for g in gs:
            if op == unsupported:
                with pytest.raises(W.SeriesError):
                    _call_method(series, op, g)
                with pytest.raises(W.SeriesError):
                    _MODULE_OPS[op](series, LogGap(g))
                continue
            got = _comparable(_call_method(series, op, g))
            assert _comparable(_MODULE_OPS[op](series, LogGap(g))) == got
            assert _comparable(_call_method(mat, op, g)) == pytest.approx(got, rel=1e-12, abs=1e-12)


class TestWindowReducer:
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_doubling_k_at_exact_break_radius(self, j):
        # at g = g_j the weight increment (n_{j+1} - n_j)(log r - log c_j) is 0
        b = W.DoublingSeries(1.0, 2.0)
        g = b.break_g(j)
        got = b.k_indicator(g).logmag
        assert math.isfinite(got)
        assert got == pytest.approx(W.k_indicator(b.materialize(5), g).logmag, rel=1e-12)

    def test_doubling_sweep_ending_on_a_break(self):
        b = W.DoublingSeries(1.0, 2.0)
        gs = np.linspace(b.break_g(0), b.break_g(6), 200)
        assert gs[-1] == b.break_g(6)
        for g in gs:
            assert math.isfinite(b.k_indicator(float(g)).logmag)
            b.weights(float(g))

    def test_doubling_weights_walk_cap_raises(self, monkeypatch):
        b = W.DoublingSeries(1.0, 2.0)
        b.weights(2.6)
        monkeypatch.setattr(W, "_WEIGHT_TERMS", 1)
        with pytest.raises(W.SeriesError):
            b.weights(2.6)
        with pytest.raises(W.SeriesError):
            b.k_indicator(2.6)

    @pytest.mark.parametrize("g", [0.2, 2.5, 3.0])
    def test_power_law_matches_ladder(self, g):
        # g = 0.2 lies below the first break (central index 0)
        s = W.PowerLawSeries(1.0)
        mat = s.materialize(3000)
        assert s.k_indicator(g).logmag == pytest.approx(mat.k_indicator(g).logmag, rel=1e-12)
        assert s.derivative_ratio(2, g) == pytest.approx(mat.derivative_ratio(2, g), rel=1e-12)

    def test_power_law_window_stops_where_weights_die(self):
        s = W.PowerLawSeries(1.0)
        visited = []
        break_g = s.break_g
        s.break_g = lambda k: visited.append(np.size(k)) or break_g(k)
        log_ref, blocks = s.window(0.5)
        assert sum(len(x) for x, _ in blocks) > 10
        assert sum(visited) < 1000
