"""Scaffold construction: intermediate-radius algebra, closure-equation
bracket and root, per-generation residuals and asymptotic diagnostics."""

import json
import math
import time

import numpy as np
import oracles
import pytest

from discgrowth.numerics import LogGap
from discgrowth.scaffold import (
    ConstructionError,
    ScaffoldParams,
    _closure_evaluator,
    build_scaffold,
    closure_residuals,
    derive_intermediates,
    scaffold_from_json_dict,
    seed_generation,
    solve_closure,
)


class TestParams:
    def test_validation(self):
        with pytest.raises(ConstructionError):
            ScaffoldParams.with_defaults(k=0, p1=2.0, p2=3.0)
        with pytest.raises(ConstructionError):
            ScaffoldParams.with_defaults(k=1, p1=3.0, p2=2.0)
        with pytest.raises(ConstructionError):
            # log C below p2/(p2-p1)
            ScaffoldParams.with_defaults(k=1, p1=2.0, p2=3.0, log_c=2.0)

    @pytest.mark.parametrize("field", ["p1", "p2", "p", "log_c", "g1"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, ref_params, field, value):
        # p2 = p = inf passed every other check
        kw = {**vars(ref_params), field: value}
        if field == "p2":
            kw["p"] = value
        with pytest.raises(ConstructionError, match="need finite p1, p2, p, log C and g1"):
            ScaffoldParams(**kw)

    @pytest.mark.parametrize("offset", [0, -1])
    def test_eta_offset_rejected_before_any_retry(self, offset):
        # it used to fail inside the retry loop: C bumped 8 times, then
        # RetriesExhaustedError (a numerical failure)
        with pytest.raises(ConstructionError, match=f"need eta_offset >= 1 so that eta_n > 1, got {offset}"):
            ScaffoldParams.with_defaults(k=1, p1=2.0, p2=3.0, eta_offset=offset)

    def test_equal_degrees_rejected(self):
        # the default log C divided by p2 - p1 = 0
        with pytest.raises(ConstructionError, match="need 0 < p1 < p2 <= p"):
            ScaffoldParams.with_defaults(k=1, p1=3.0, p2=3.0)

    def test_bumped_rescales(self, ref_params):
        b = ref_params.bumped()
        assert b.log_c == pytest.approx(ref_params.log_c + math.log(10.0))
        assert b.a == pytest.approx(b.log_c**0.45)


class TestDeriveIntermediates:
    def test_u_doubling_case(self):
        # C = e^10, p1 = 2, p2 = 4, eps = 0, u(r_n) = 20 -> u' = 40, g' = 30
        params = ScaffoldParams(
            k=1, p1=2.0, p2=4.0, p=4.0, log_c=10.0, g1=10.0, a=2.0, b=0.2
        )
        r_prime, r_hat, _, _, _ = derive_intermediates(LogGap(10.0), 0.0, params)
        assert r_prime.g == pytest.approx(30.0, rel=1e-15)
        assert r_hat.g == pytest.approx(30.0, rel=1e-15)  # p = p2 forces r_hat = r'

    def test_p_equal_p2_collapses_hat(self, ref_params):
        r_prime, r_hat, _, _, _ = derive_intermediates(LogGap(ref_params.g1), 0.0, ref_params)
        assert r_hat.g == r_prime.g

    def test_p_above_p2_separates_hat(self):
        params = ScaffoldParams.with_defaults(k=1, p1=2.0, p2=3.0, p=4.0, log_c=4.0, g1=3.0)
        r_prime, r_hat, _, _, _ = derive_intermediates(LogGap(3.0), 0.0, params)
        assert r_hat.g == pytest.approx(r_prime.g * 4.0 / 3.0, rel=1e-15)

    def test_r_star_displacement(self):
        # 1 - r_hat = 0.01, C = e: u(r_hat) = 1 + ln 100, r* = 0.99 + 0.01/u
        g_hat = -math.log(0.01)
        u_hat = g_hat + 1.0
        assert u_hat == pytest.approx(5.605170185988091)
        g_star = g_hat - math.log1p(-1.0 / u_hat)
        r_star = 1.0 - math.exp(-g_star)
        assert r_star == pytest.approx(0.99 + 0.01 / u_hat, rel=1e-14)
        assert r_star == pytest.approx(0.9917841, abs=5e-8)

    def test_rejects_large_eps(self, ref_params):
        with pytest.raises(ConstructionError):
            derive_intermediates(LogGap(48.0), 0.9, ref_params)


class TestClosure:
    def test_bracket_signs(self, ref_params):
        seed = seed_generation(1, LogGap(ref_params.g1), 0.0, ref_params)
        u_hat = seed.r_hat.g + ref_params.log_c
        s_alpha = 0.5 * math.log(u_hat) - math.log(ref_params.a)
        s_beta = 2.0 * math.log(u_hat) - math.log(ref_params.b)
        gl_a, gr_a = closure_residuals(LogGap(seed.r_hat.g + s_alpha), seed, ref_params)
        gl_b, gr_b = closure_residuals(LogGap(seed.r_hat.g + s_beta), seed, ref_params)
        assert gl_a > gr_a
        assert gl_b < gr_b

    def test_g_r_strictly_increasing(self, ref_params):
        seed = seed_generation(1, LogGap(ref_params.g1), 0.0, ref_params)
        s_grid = np.linspace(0.5, 10.0, 200)
        vals = [closure_residuals(LogGap(seed.r_hat.g + s), seed, ref_params)[1] for s in s_grid]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_g_l_strictly_decreasing(self, ref_params):
        seed = seed_generation(1, LogGap(ref_params.g1), 0.0, ref_params)
        s_grid = np.linspace(0.5, 10.0, 200)
        vals = [closure_residuals(LogGap(seed.r_hat.g + s), seed, ref_params)[0] for s in s_grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_identities_coincide_at_root(self, ref_params):
        seed = seed_generation(1, LogGap(ref_params.g1), 0.0, ref_params)
        _, eps_next, residual, _ = solve_closure(seed, ref_params)
        assert residual <= 1e-9 * abs(eps_next - (ref_params.p1 - ref_params.p2)) / abs(
            eps_next + ref_params.p2 - ref_params.p1
        ) + 1e-12

    def test_root_against_grid_scan_oracle(self, ref_params):
        # locate the sign change on a 10^6-point grid, then refine that cell
        # by pure bisection; the production root must agree to 1e-10 in g
        seed = seed_generation(1, LogGap(ref_params.g1), 0.0, ref_params)
        r_dp, _, _, _ = solve_closure(seed, ref_params)

        def f(s):
            gl, gr = closure_residuals(LogGap(seed.r_hat.g + s), seed, ref_params)
            return gl - gr

        u_hat = seed.r_hat.g + ref_params.log_c
        lo = 0.5 * math.log(u_hat) - math.log(ref_params.a)
        hi = 2.0 * math.log(u_hat) - math.log(ref_params.b)
        grid = np.linspace(lo, hi, 1_000_001)
        coarse = np.linspace(lo, hi, 4001)
        vals = np.array([f(s) for s in coarse])
        cell = int(np.nonzero(np.diff(np.sign(vals)))[0][0])
        # narrow to the 10^6-grid cell inside the coarse cell
        j0 = int((coarse[cell] - lo) / (hi - lo) * 1_000_000)
        j1 = int((coarse[cell + 1] - lo) / (hi - lo) * 1_000_000) + 2
        sub = grid[j0 : j1 + 1]
        subvals = [f(s) for s in sub]
        kk = next(i for i in range(len(sub) - 1) if subvals[i] * subvals[i + 1] <= 0)
        a, b = sub[kk], sub[kk + 1]
        for _ in range(60):
            m = 0.5 * (a + b)
            if f(a) * f(m) <= 0:
                b = m
            else:
                a = m
        oracle_g = seed.r_hat.g + 0.5 * (a + b)
        assert r_dp.g == pytest.approx(oracle_g, rel=1e-10)


# the (p1, p2, p) triples of the benchmark's construction grid
_CONSTRUCT_TRIPLES = (
    (2.0, 3.0, 3.0), (2.0, 4.0, 4.0), (1.5, 3.0, 3.0), (3.0, 4.0, 4.0),
    (2.5, 3.0, 3.0), (3.5, 4.0, 4.0), (4.0, 5.0, 5.0), (2.0, 2.5, 2.5),
)


class TestClosureEvaluator:
    """The per-seed closure evaluator gives the bits of the closure built
    through LogValue objects and lse_sum (``oracles``)."""

    @pytest.mark.parametrize("triple", _CONSTRUCT_TRIPLES)
    def test_bit_equal_to_the_log_value_closure(self, triple):
        params = ScaffoldParams.with_defaults(k=1, p1=triple[0], p2=triple[1], p=triple[2])
        scaffold = build_scaffold(params, 5)
        params = scaffold.params  # after any retry
        for gen in scaffold.generations:
            seed = seed_generation(gen.index, gen.r_n, gen.eps_n, params)
            evaluate = _closure_evaluator(seed, params)
            # across the root bracket, the root itself and just past r*
            u_hat = seed.r_hat.g + params.log_c
            s_lo = seed.star_span(params.log_c)
            s_hi = 2.0 * math.log(u_hat) - math.log(params.b)
            gs = (seed.r_hat.g + np.linspace(s_lo, s_hi, 5)).tolist() + [gen.r_dprime.g]
            for g in gs:
                want = oracles.lse_closure_residuals(LogGap(g), seed, params)
                assert evaluate(g) == want
                assert closure_residuals(LogGap(g), seed, params) == want


class TestBuild:
    def test_reference_four_generations(self, ref_scaffold):
        assert len(ref_scaffold.generations) == 4
        assert ref_scaffold.generations[0].eps_n == 0.0
        assert ref_scaffold.generation_start(0) == 0.0  # r_0'' = 0 convention
        for g in ref_scaffold.generations:
            assert abs(g.eps_n) < 0.5
            assert g.residual <= 1e-9
            assert g.ordered()

    def test_single_generation_seed(self, ref_params):
        sc = build_scaffold(ref_params, 1)
        assert len(sc.generations) == 1
        assert sc.generations[0].eps_n == 0.0
        assert sc.generation_start(0) == 0.0

    def test_generations_strictly_increase(self, ref_scaffold):
        gens = ref_scaffold.generations
        for a, b in zip(gens, gens[1:]):
            assert a.r_dprime.g < b.r_n.g

    def test_eps_decays(self, ref_scaffold):
        eps = [g.eps_n for g in ref_scaffold.generations]
        assert abs(eps[3]) < abs(eps[1])

    def test_ratio_diagnostic_band(self, ref_scaffold):
        # (1-r'') log(1/(1-r_hat)) / (1-r_hat) approaches 1
        g4 = ref_scaffold.generations[3]
        assert 0.8 <= g4.ratio_diag <= 1.25

    def test_doubly_exponential_thinning(self, ref_scaffold):
        p = ref_scaffold.params
        for g in ref_scaffold.generations[:-1]:
            nxt = ref_scaffold.generations[g.index].r_n.g
            assert nxt >= (p.p2 + g.eps_n) / p.p1 * g.r_n.g

    def test_cross_generation_eps_chain(self, ref_scaffold):
        gens = ref_scaffold.generations
        for a, b in zip(gens, gens[1:]):
            assert b.eps_n == a.eps_next

    def test_retry_policy_bumps_c(self, monkeypatch):
        import discgrowth.scaffold as mod

        real = mod.solve_closure
        calls = {"n": 0}

        def flaky(seed, params):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ConstructionError("forced bracket failure", blamed_constant="b")
            return real(seed, params)

        monkeypatch.setattr(mod, "solve_closure", flaky)
        base = ScaffoldParams.with_defaults(k=1, p1=2.0, p2=3.0)
        sc = build_scaffold(base, 1)
        assert sc.retries == 1
        assert sc.params.log_c == pytest.approx(base.log_c + math.log(10.0))

    def test_retries_exhaust_with_named_constant(self, monkeypatch):
        import discgrowth.scaffold as mod

        def always_fail(seed, params):
            raise ConstructionError("forced", blamed_constant="b")

        monkeypatch.setattr(mod, "solve_closure", always_fail)
        with pytest.raises(ConstructionError) as ei:
            build_scaffold(ScaffoldParams.with_defaults(k=1, p1=2.0, p2=3.0), 1, max_retries=2)
        assert ei.value.blamed_constant == "b"

    def test_count_radii_below(self, ref_scaffold):
        gens = ref_scaffold.generations
        assert ref_scaffold.count_radii_below(gens[0].r_n.g - 1.0) == 0
        assert ref_scaffold.count_radii_below(gens[1].r_n.g) == 2
        assert ref_scaffold.count_radii_below(ref_scaffold.g_end) == 4

    def test_json_round_trip(self, ref_scaffold):
        doc = ref_scaffold.to_json_dict()
        back = scaffold_from_json_dict(doc)
        for a, b in zip(ref_scaffold.generations, back.generations):
            assert a.r_dprime.g == b.r_dprime.g
            assert a.eps_next == b.eps_next

    def test_json_round_trip_keeps_eta_offset(self):
        params = ScaffoldParams.with_defaults(k=1, p1=2.0, p2=3.0, p=3.0, log_c=3.2, g1=3.0, eta_offset=3)
        sc = build_scaffold(params, 2)
        doc = json.loads(json.dumps(sc.to_json_dict()))
        assert doc["params"]["eta"] == [4.0, 5.0]
        back = scaffold_from_json_dict(doc)
        assert back.params == sc.params
        for n in (3, 4, 10):  # past the last stored generation
            assert back.params.eta(n) == n + 3

    @pytest.mark.parametrize("etas", [[2.0, 4.0], [2.5, 3.5]])
    def test_json_rejects_eta_not_n_plus_offset(self, ref_scaffold, etas):
        doc = ref_scaffold.to_json_dict()
        doc["params"]["eta"] = etas
        with pytest.raises(ConstructionError):
            scaffold_from_json_dict(doc)


# the construction grid of the benchmark and its +0.01, +0.02 shifts in p1;
# e^(-g) underflows past g ~ 745, which all but (3.5,4,4) cross by generation 10
_GRID = [
    (round(p1 + shift, 2), p2, p)
    for p1, p2, p in (
        (2.0, 3.0, 3.0), (2.0, 4.0, 4.0), (1.5, 3.0, 3.0), (3.0, 4.0, 4.0),
        (2.5, 3.0, 3.0), (3.5, 4.0, 4.0), (4.0, 5.0, 5.0), (2.0, 2.5, 2.5),
    )
    for shift in (0.0, 0.01, 0.02)
]


class TestDepth:
    @pytest.mark.parametrize("p1,p2,p", _GRID)
    def test_generations_sweep_within_paper_bounds(self, p1, p2, p):
        params = ScaffoldParams.with_defaults(k=1, p1=p1, p2=p2, p=p)
        for n in range(1, 11):
            t0 = time.perf_counter()
            sc = build_scaffold(params, n)
            # a build takes <= 5 ms; the bound catches a loop that runs away
            assert time.perf_counter() - t0 < 0.5
            assert len(sc.generations) == n
            for gen in sc.generations:
                assert gen.residual <= 1e-9
                assert abs(gen.eps_n) < (p2 - p1) / 2.0
                assert abs(gen.eps_next) < (p2 - p1) / 2.0
                assert gen.ordered()
            starts = [gen.r_n.g for gen in sc.generations]
            ends = [gen.r_dprime.g for gen in sc.generations]
            assert all(e < s for e, s in zip(ends, starts[1:]))

    def test_closure_sides_against_mpmath_past_underflow(self):
        # generation 7 of (2,3,3) starts at g ~ 765: both sides of the
        # closure, evaluated at the bracket ends and the root
        mp = pytest.importorskip("mpmath")
        params = ScaffoldParams.with_defaults(k=1, p1=2.0, p2=3.0, p=3.0)
        gen = build_scaffold(params, 7).generations[6]
        seed = seed_generation(7, gen.r_n, gen.eps_n, params)
        assert seed.r_n.g > 745.0
        u_hat = seed.r_hat.g + params.log_c
        s_alpha = 0.5 * math.log(u_hat) - math.log(params.a)
        s_beta = 2.0 * math.log(u_hat) - math.log(params.b)
        for g in (seed.r_hat.g + s_alpha, gen.r_dprime.g, seed.r_hat.g + s_beta):
            # the mass integral cancels down to ~e^(-2 g_hat) of its terms
            mp.mp.dps = int(2.0 * g / math.log(10.0)) + 60
            r, r_n, r_prime, r_hat, r_star_stored = (
                -mp.expm1(-mp.mpf(x))
                for x in (g, seed.r_n.g, seed.r_prime.g, seed.r_hat.g, seed.r_star.g)
            )
            # gR takes the width of [r_hat, r*] exactly, gL from the stored g*
            r_star = 1 - (1 - r_hat) * (1 - 1 / mp.mpf(u_hat))
            big_r, big_m, p1 = mp.exp(seed.log_R), mp.exp(seed.log_M), mp.mpf(params.p1)
            antider = lambda t: t * mp.log(r) - t * mp.log(t) + t
            want_r = (
                big_r * mp.log(r / r_n)
                + big_m * (antider(r_star) - antider(r_hat))
                - p1 * (r - r_prime) / (1 - r_prime)
            )
            want_l = (
                (big_r + big_m * (r_star_stored - r_hat) - p1 * r / (1 - r_prime))
                * (1 - r) / r * (mp.mpf(g) + params.log_c)
            )
            g_l, g_r = closure_residuals(LogGap(g), seed, params)
            # the stored g's carry ulp ~2e-13 against a width of [r_hat, r*]
            # of 9e-4, so the mass term is conditioned to ~1e-11 relative;
            # dropping R_n log(r/r_n) would move g_r by 3e-3
            assert g_l == pytest.approx(float(want_l), rel=1e-10)
            assert g_r == pytest.approx(float(want_r), rel=1e-10)
