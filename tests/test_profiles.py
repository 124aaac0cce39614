"""Piecewise profile: branch values, junction regularity, Laplacian versus a
finite-difference oracle, and the oscillation of phi/g between the two
exponents."""

import math

import numpy as np
import pytest

from discgrowth import ode as O
from discgrowth.numerics import LogGap, NumericsError
from discgrowth.profiles import ProfileRangeError, RadialProfile, branch_samples
from discgrowth.scaffold import ScaffoldParams, build_scaffold
from oracles import laplacian_fd


@pytest.fixture(scope="module")
def ref_profile(ref_scaffold):
    return RadialProfile(ref_scaffold)


@pytest.fixture(scope="module")
def deep_profile(ref_params):
    """Eight generations: e^(-g) underflows from generation 6 on."""
    return RadialProfile(build_scaffold(ref_params, 8))


class TestEval:
    def test_first_branch_closed_form(self, ref_profile):
        # eps_1 = 0, so phi = p2 (g + log C) on [0, r_1)
        p = ref_profile.params
        g = 0.5 * p.g1
        assert ref_profile.phi(g) == pytest.approx(p.p2 * (g + p.log_c), rel=1e-15)

    def test_laplacian_zero_between_rn_and_rprime(self, ref_profile):
        gen = ref_profile.scaffold.generations[0]
        g = 0.5 * (gen.r_n.g + gen.r_prime.g)
        v = ref_profile.eval(g)
        assert v.branch == 2
        assert v.laplacian.is_zero

    def test_accepts_loggap_and_float(self, ref_profile):
        g = 1.0
        assert ref_profile.eval(LogGap(g)).phi == ref_profile.eval(g).phi

    def test_range_error(self, ref_profile):
        with pytest.raises(ProfileRangeError):
            ref_profile.eval(ref_profile.g_end + 1.0)
        with pytest.raises(ProfileRangeError):
            ref_profile.eval(ref_profile.g_end)

    def test_branch_membership_right_continuous(self, ref_profile):
        gen = ref_profile.scaffold.generations[0]
        assert ref_profile.branch_at(gen.r_n.g)[1] == 2
        assert ref_profile.branch_at(math.nextafter(gen.r_n.g, 0.0))[1] == 1


class TestArrayPhi:
    @pytest.mark.parametrize("fixture", ["ref", "wide"])
    def test_matches_scalar_phi_on_every_branch(self, fixture, ref_scaffold, wide_scaffold):
        prof = RadialProfile(ref_scaffold if fixture == "ref" else wide_scaffold)
        # interior points of every branch plus the junctions themselves,
        # where membership is right-continuous
        gs = np.array(branch_samples(prof, 9) + [b[0] for b in prof._bounds])
        want = np.array([prof.phi(float(g)) for g in gs])
        got = prof.phi(gs)
        assert got.shape == gs.shape
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
        # branch 3 exists only when p > p2 (the wide scaffold)
        assert {prof.branch_at(float(g))[1] for g in gs} == {b for _, _, b in prof._bounds}

    @pytest.mark.parametrize("fixture", ["ref", "wide"])
    def test_dispatch_is_bitwise_pointwise(self, fixture, ref_scaffold, wide_scaffold):
        # each entry's value does not depend on the order, the duplicates or
        # the branches of the other entries: shuffled points with repeats,
        # every branch start and the double just below it
        prof = RadialProfile(ref_scaffold if fixture == "ref" else wide_scaffold)
        starts = prof._starts
        below = np.nextafter(starts, -np.inf)
        gs = np.concatenate([branch_samples(prof, 5), starts, below[below >= 0.0]])
        gs = np.random.default_rng(7).permutation(np.concatenate([gs, gs[::3]]))
        one_by_one = np.array([prof.phi(gs[i:i + 1])[0] for i in range(len(gs))])
        assert prof.phi(gs).tobytes() == one_by_one.tobytes()
        assert prof.phi(gs[:1]).tobytes() == one_by_one[:1].tobytes()
        assert prof.phi(gs[:0]).shape == (0,)

    def test_equal_g_share_one_scalar_call(self, small_scaffold, monkeypatch):
        # a surrogate circle's 16 samples share one g: one _phi call for the
        # run, values equal to the per-point loop
        prof = RadialProfile(small_scaffold)
        (g_lo, _, b), g_hi = next((row, end) for row, end in zip(prof._bounds, prof._starts[1:])
                                  if row[2] != 1 and not prof._terms[row[1]].lead)
        g = 0.5 * (g_lo + g_hi)
        want = np.array([prof.phi(g)] * 16 + [prof.phi(g_lo)])
        phi, calls = prof._phi, []
        monkeypatch.setattr(prof, "_phi", lambda x, gen, branch: calls.append(x) or phi(x, gen, branch))
        got = prof.phi(np.array([g] * 8 + [g_lo] + [g] * 8))
        assert sorted(calls) == [g_lo, g] and prof.branch_at(g)[1] == b
        assert np.array_equal(got, want[[*range(8), 16, *range(8, 16)]])

    def test_matches_scalar_phi_past_the_underflow_depth(self, deep_profile):
        gs = np.array(branch_samples(deep_profile, 16) + [b[0] for b in deep_profile._bounds])
        assert gs.max() > 1.5e3
        want = np.array([deep_profile.phi(float(g)) for g in gs])
        assert np.max(np.abs(deep_profile.phi(gs) - want) / np.abs(want)) <= 1e-12

    def test_q1_against_mpmath_past_the_underflow_depth(self, deep_profile):
        # R_n log(r/r_n) is O(p2) on branch 2 and must survive e^(-g_n)
        # underflowing to 0
        mp = pytest.importorskip("mpmath")
        gen = next(gen for gen in deep_profile.scaffold.generations if gen.r_n.g > 745.0)
        g = 0.5 * (gen.r_n.g + gen.r_prime.g)
        assert deep_profile.branch_at(g)[1] == 2
        mp.mp.dps = int(g / math.log(10.0)) + 60
        r, r_n = (-mp.expm1(-mp.mpf(x)) for x in (g, gen.r_n.g))
        q1 = mp.exp(gen.log_R) * mp.log(r / r_n)
        assert q1 > 1.0
        assert gen.slope_term(g) == pytest.approx(float(q1), rel=1e-13)
        p = deep_profile.params
        want = (p.p2 + gen.eps_n) * (gen.r_n.g + p.log_c) + q1
        assert deep_profile.phi(g) == pytest.approx(float(want), rel=1e-15)
        assert deep_profile.phi(np.array([g]))[0] == pytest.approx(float(want), rel=1e-15)

    def test_out_of_range_entry(self, ref_profile):
        for bad in (ref_profile.g_end, -0.5):
            with pytest.raises(ProfileRangeError):
                ref_profile.phi(np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("g", [2.0, 9.5, 31.0])
    def test_majorant_integral_matches_scalar_loop(self, ref_profile, g):
        # the loop the integral replaced: one scalar phi call per midpoint
        step, k = 0.02, 1
        n = max(2, int(math.ceil(g / step)))
        edges = np.linspace(0.0, g, n + 1)
        pieces = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            log_dr = -lo + math.log(-math.expm1(-(hi - lo)))
            pieces.append(ref_profile.phi(float(0.5 * (lo + hi))) / k + log_dr)
        m = max(pieces)
        want = math.log(k) + m + math.log(sum(math.exp(x - m) for x in pieces))
        got = O.coefficient_integral_log_bound(ref_profile.phi, k, g, step=step)
        assert got == pytest.approx(want, rel=1e-10)


def _branch_points(prof: RadialProfile, per_branch: int = 40):
    """(branch, g's) of every branch: its start, interior points and the
    double below its end."""
    ends = list(prof._starts[1:]) + [prof.g_end]
    for (g_lo, _, b), g_hi in zip(prof._bounds, ends):
        if g_hi > g_lo:
            gs = np.append(np.linspace(g_lo, g_hi, per_branch, endpoint=False), math.nextafter(g_hi, 0.0))
            yield b, gs


def _scalar_phi(prof: RadialProfile, gs: np.ndarray) -> np.ndarray:
    return np.array([prof.phi(g) for g in gs.tolist()])


class TestLeadOnlyBranches:
    """Past e^-g_n <= 2^-56 every series of a generation's branches is its
    first term, and the array phi takes those first terms in closed form;
    on every other generation it is the scalar phi bit for bit."""

    @pytest.mark.parametrize("fixture", ["small", "wide"])
    def test_other_branches_keep_their_bits(self, fixture, small_scaffold, wide_scaffold):
        prof = RadialProfile(small_scaffold if fixture == "small" else wide_scaffold)
        assert not any(t.lead for t in prof._terms)
        for _, gs in _branch_points(prof):
            assert prof.phi(gs).tobytes() == _scalar_phi(prof, gs).tobytes()

    @pytest.mark.parametrize("triple,generations,tol", [
        ((2.0, 3.0, 3.0), 4, 1e-13), ((3.0, 4.0, 4.0), 5, 1e-13),  # the benchmark's studies
        ((2.0, 3.0, 3.0), 8, 1e-12),  # e^-g underflows from generation 6 on
    ])
    def test_lead_only_branches_near_the_log_domain_series(self, triple, generations, tol):
        # the log-domain sums of the scalar phi carry a few ulp of g_hat in
        # the exponent of the mass term, so at depth they differ from the
        # closed form by more
        prof = RadialProfile(build_scaffold(ScaffoldParams.with_defaults(k=1, p1=triple[0], p2=triple[1], p=triple[2]),
                                            generations))
        assert all(t.lead for t in prof._terms)
        worst = 0.0
        for b, gs in _branch_points(prof):
            want = _scalar_phi(prof, gs)
            got = prof.phi(gs)
            if b == 1:
                assert got.tobytes() == want.tobytes()
            worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
        assert worst <= tol

    def test_one_call_over_lead_and_other_generations(self):
        # the wide parameters to generation 4: g_n = 3, 12.1, 29.3 and 64.05,
        # so only the last generation is lead
        prof = RadialProfile(build_scaffold(ScaffoldParams.with_defaults(k=1, p1=2.0, p2=3.0, p=4.0, log_c=4.0, g1=3.0),
                                            4))
        assert [t.lead for t in prof._terms] == [False, False, False, True]
        gs = np.random.default_rng(11).permutation(np.concatenate([gs for _, gs in _branch_points(prof)]))
        got, want = prof.phi(gs), _scalar_phi(prof, gs)
        lead = np.array([prof._terms[prof.branch_at(g)[0]].lead for g in gs.tolist()])
        assert 0 < np.count_nonzero(lead) < len(gs)
        assert got[~lead].tobytes() == want[~lead].tobytes()
        assert np.max(np.abs(got[lead] - want[lead]) / np.abs(want[lead])) <= 1e-13


class TestJunctions:
    def test_phi_jumps(self, ref_profile):
        rpt = ref_profile.junction_report()
        assert len(rpt) >= 12
        assert max(j.phi_rel_jump for j in rpt) <= 1e-9

    def test_phi_prime_jumps(self, ref_profile):
        rpt = ref_profile.junction_report()
        assert max(j.dphi_rel_jump for j in rpt) <= 1e-9

    def test_eps_corruption_breaks_rdprime_junction(self, ref_scaffold):
        # sensitivity oracle: a 1e-3 shift of eps_{n+1} must show up as a
        # visible kink at r_n''
        import dataclasses

        g0 = ref_scaffold.generations[0]
        corrupted = dataclasses.replace(g0, eps_next=g0.eps_next + 1e-3)
        g1 = dataclasses.replace(
            ref_scaffold.generations[1], eps_n=ref_scaffold.generations[1].eps_n + 1e-3
        )
        sc = dataclasses.replace(
            ref_scaffold,
            generations=(corrupted, g1) + ref_scaffold.generations[2:],
        )
        rpt = RadialProfile(sc).junction_report()
        jump = next(j for j in rpt if j.label == "gen1:r_dprime")
        assert jump.phi_rel_jump > 1e-4 or jump.dphi_rel_jump > 1e-4


class TestLaplacian:
    @pytest.mark.parametrize("fixture", ["ref", "wide"])
    def test_matches_finite_differences(self, fixture, ref_scaffold, wide_scaffold):
        sc = ref_scaffold if fixture == "ref" else wide_scaffold
        prof = RadialProfile(sc)
        pts = branch_samples(prof, 1000 // (5 * len(sc.generations)) + 5)
        assert len(pts) >= 100
        for g in pts:
            v = prof.eval(g)
            fd, inner = laplacian_fd(prof, g)
            if v.laplacian.is_zero:
                assert abs(inner) <= 1e-5
            else:
                assert fd.sign == v.laplacian.sign
                assert abs(math.expm1(fd.logmag - v.laplacian.logmag)) <= 1e-5

    def test_thousand_points_per_branch_generation1(self, ref_scaffold):
        prof = RadialProfile(ref_scaffold)
        bounds = [b for b in prof._bounds if b[1] == 0] + [
            (ref_scaffold.generations[0].r_dprime.g, 0, 6)
        ]
        for (g_lo, _, branch), (g_hi, _, _) in zip(bounds, bounds[1:]):
            width = g_hi - g_lo
            gs = np.linspace(g_lo + 0.01 * width, g_hi - 0.01 * width, 1000)
            lap = [prof.eval(g) for g in gs]
            for g, v in zip(gs, lap):
                fd, inner = laplacian_fd(prof, g)
                if v.laplacian.is_zero:
                    assert abs(inner) <= 1e-5
                else:
                    assert abs(math.expm1(fd.logmag - v.laplacian.logmag)) <= 1e-5


class TestRatios:
    def test_ratio_at_rn_approaches_p2(self, ref_profile):
        p = ref_profile.params
        for gen in ref_profile.scaffold.generations[2:]:
            ratio = ref_profile.phi(gen.r_n.g) / gen.r_n.g
            assert abs(ratio - p.p2) <= 0.1 * p.p2

    def test_ratio_at_rprime_approaches_p1_from_above(self, ref_profile):
        p = ref_profile.params
        ratios = [
            ref_profile.phi(gen.r_prime.g) / gen.r_prime.g
            for gen in ref_profile.scaffold.generations
        ]
        for gen, ratio in zip(ref_profile.scaffold.generations[2:], ratios[2:]):
            assert abs(ratio - p.p1) <= 0.1 * p.p1
        assert all(r > p.p1 for r in ratios)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_all_ratios_inside_band(self, ref_profile):
        # dense sampling: phi/g confined to [p1 - 0.2, p2 + 0.2] after the
        # first generation settles (the seed region carries the log C offset)
        p = ref_profile.params
        g2 = ref_profile.scaffold.generations[1]
        gs = np.linspace(g2.r_n.g, ref_profile.g_end - 1e-6, 4000)
        ratios = [r for _, r in ref_profile.ratio_profile(gs)]
        lo, hi = p.p1 - 0.2, p.p2 + 0.2
        frac_inside = np.mean([(lo <= r <= hi) for r in ratios])
        assert frac_inside > 0.95
        assert min(ratios) > p.p1  # never dips under the lower exponent

    def test_phi_nondecreasing(self, ref_profile):
        gs = np.linspace(1e-3, ref_profile.g_end - 1e-6, 4000)
        vals = [ref_profile.phi(g) for g in gs]
        assert all(b >= a - 1e-12 * abs(a) for a, b in zip(vals, vals[1:]))
        for g in branch_samples(ref_profile, 20):
            assert ref_profile.eval(g).phi_prime.sign >= 0

    def test_extremes_localized(self, ref_profile):
        sc = ref_profile.scaffold
        gs = np.linspace(sc.generations[0].r_n.g, ref_profile.g_end - 1e-6, 8000)
        ratios = np.array([r for _, r in ref_profile.ratio_profile(gs)])
        g_min = gs[int(np.argmin(ratios))]
        g_max = gs[int(np.argmax(ratios))]
        # min of phi/g sits within O(1) of some r_n', max within O(1) of some r_n
        assert min(abs(g_min - gen.r_prime.g) for gen in sc.generations) < 3.0
        assert min(abs(g_max - gen.r_n.g) for gen in sc.generations) < 3.0


class TestCsv:
    @pytest.mark.parametrize("per_branch", [0, -2])
    def test_per_branch_must_be_positive(self, ref_profile, per_branch):
        with pytest.raises(NumericsError, match="per_branch must be >= 1"):
            branch_samples(ref_profile, per_branch)

    def test_schema_and_determinism(self, ref_profile):
        gs = branch_samples(ref_profile, 3)
        rows = ref_profile.sample_rows(gs)
        assert ref_profile.sample_rows(gs) == rows
        assert rows[0] == ["g", "r", "phi", "phi_over_g", "branch_id"]
        assert len(rows) == len(gs) + 1
        g_col = [float(r[0]) for r in rows[1:]]
        assert g_col == sorted(g_col)
        # r blank once 1-r underflows the raw-radius window
        deep = [r for r in rows[1:] if float(r[0]) > 36.0]
        assert all(r[1] == "" for r in deep)
