"""Windowed log-derivative machinery: the singular growth integral, density
windows, zero counting, the circle-average integral and the certificate."""

import math

import numpy as np
import pytest

from discgrowth import logderiv as L
from discgrowth import riesz as R
from discgrowth.numerics import LogGap, NumericsError
from discgrowth.profiles import RadialProfile


@pytest.fixture(scope="module")
def small_cloud(small_scaffold):
    prof = RadialProfile(small_scaffold)
    part = R.partition_region(prof, 1, g_max=25.0, ceiling=100_000)
    return R.atomize(part, prof), prof


def synthetic_cloud(points):
    gs = np.array([g for g, _, _ in points], dtype=float)
    ts = np.array([t for _, t, _ in points], dtype=float)
    ms = np.array([m for _, _, m in points], dtype=float)
    return R.ZeroCloud(gs, ts, ms, ["A"] * len(points), [None] * len(points))


class TestGrowthIntegral:
    def test_zero_model_gives_zero(self):
        model = L.LogMModel(lambda g: 0.0, 0.0, 0.0)
        v = L.growth_integral(model, 0.5, LogGap.from_r(0.9), LogGap.from_r(0.1))
        assert v.is_zero

    def test_closed_form_oracle(self):
        # log+M(t) = 1/(1-t), alpha = 1/2, R = 0.9, log+M(R0) = 1:
        # I = (R - (1-R) log(1/(1-R)) + 1)/(1-R)^2
        model = L.power_model(1.0)
        r0 = LogGap.from_r(0.0)  # log+M(R0) = 1
        got = L.growth_integral(model, 0.5, LogGap.from_r(0.9), r0)
        want = (0.9 - 0.1 * math.log(10.0) + 1.0) / 0.01
        assert got.to_float() == pytest.approx(want, rel=1e-6)
        assert got.to_float() == pytest.approx(166.97414907005954, rel=1e-6)

    def test_nondecreasing_in_r(self):
        model = L.power_model(1.5)
        vals = [
            L.growth_integral(model, 0.6, LogGap(g), LogGap(0.05)).logmag
            for g in np.linspace(1.0, 8.0, 24)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha", [0.6, 0.75])
    def test_power_scaling_slope(self, alpha):
        # with log+M = (1-t)^-s the integral scales like
        # (1-R)^(-max(s, 1/alpha) + o(1)): the prefactor power 1/alpha is
        # cancelled by the kernel mass near t = R up to the model's own power
        s = 1.5
        model = L.power_model(s)
        gs = np.linspace(6.0, 12.0, 13)
        vals = [L.growth_integral(model, alpha, LogGap(float(g)), LogGap(0.05)).logmag for g in gs]
        slope = (vals[-1] - vals[0]) / (gs[-1] - gs[0])
        assert slope == pytest.approx(max(s, 1.0 / alpha), rel=0.05)

    def test_alpha_range_validated(self):
        model = L.power_model(1.0)
        with pytest.raises(Exception):
            L.growth_integral(model, 0.3, LogGap(2.0), LogGap(0.1))


class TestWindows:
    def test_shrink_identity(self):
        ws = L.loworder_windows(1.0, 0.5, [4.0, 8.0, 16.0])
        for (g_lo, g_hi) in ws.intervals:
            assert g_lo / g_hi == pytest.approx(1.25 / 1.5, rel=1e-14)

    def test_relative_length_tends_to_one(self):
        ws = L.loworder_windows(1.0, 0.5, [2.0**n for n in range(2, 12)])
        rels = [
            -math.expm1(-(b - a))  # (R - R*)/(1 - R*) = 1 - e^{-(g_hi - g_lo)}
            for a, b in ws.intervals
        ]
        assert rels[-1] > 0.999
        assert all(y >= x for x, y in zip(rels, rels[1:]))

    def test_density_one_for_doubling_g(self):
        ws = L.loworder_windows(1.0, 0.5, [2.0**n for n in range(1, 31)])
        d = L.upper_density(ws)
        assert not d.flagged
        assert d.value == pytest.approx(1.0, abs=1e-3)


class TestUpperDensity:
    def test_full_interval(self):
        ws = L.RadialWindowSet(((0.0, math.inf),))
        assert L.upper_density(ws).value == pytest.approx(1.0, rel=1e-12)

    def test_dyadic_two_thirds(self):
        # E = union of [1-2^-2n, 1-2^-2n-1]: density 2/3
        iv = tuple((2 * n * math.log(2.0), (2 * n + 1) * math.log(2.0)) for n in range(1, 40))
        d = L.upper_density(L.RadialWindowSet(iv))
        assert d.value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_finite_union_away_from_one(self):
        ws = L.RadialWindowSet(((0.5, 1.0), (2.0, 2.5)), tail_to_one=False)
        d = L.upper_density(ws)
        assert d.value == 0.0
        assert d.flagged

    def test_invariant_under_interval_split(self):
        iv = tuple((2 * n * math.log(2.0), (2 * n + 1) * math.log(2.0)) for n in range(1, 30))
        base = L.upper_density(L.RadialWindowSet(iv)).value
        # split the third interval in two
        a, b = iv[2]
        m = 0.5 * (a + b)
        split = iv[:2] + ((a, m), (m, b)) + iv[3:]
        got = L.upper_density(L.RadialWindowSet(split)).value
        assert got == pytest.approx(base, rel=1e-12)

    def test_empty(self):
        assert L.upper_density(L.RadialWindowSet(())).value == 0.0


class TestZeroCounts:
    def test_single_zero(self):
        cloud = synthetic_cloud([(2.0, 0.5, 1)])
        zg = 2.0
        d = L._pair_distance(zg, 0.5 + 0.05, 2.0, 0.5)
        h = 2.0 * d
        n, big_n = L.zero_counts(cloud, (LogGap(zg), 0.55), h)
        assert n == 1
        assert big_n == pytest.approx(math.log(h / d), rel=1e-12)

    def test_empty_cloud(self):
        cloud = synthetic_cloud([])
        n, big_n = L.zero_counts(cloud, (LogGap(2.0), 0.0), 0.01)
        assert (n, big_n) == (0, 0.0)

    def test_h_validation(self):
        cloud = synthetic_cloud([(2.0, 0.5, 1)])
        with pytest.raises(Exception):
            L.zero_counts(cloud, (LogGap(2.0), 0.0), 0.5)

    @pytest.mark.parametrize("h", [0.0, -0.01, math.nan])
    def test_rejects_radius_not_positive(self, h):
        cloud = synthetic_cloud([(2.0, 0.5, 1)])
        with pytest.raises(NumericsError, match="need 0 < h < 1"):
            L.zero_counts(cloud, (LogGap(2.0), 0.5), h)

    def test_n_against_trapezoid_quadrature(self):
        rng = np.random.default_rng(17)
        pts = [(float(g), float(t), 1) for g, t in zip(rng.uniform(2.0, 2.3, 100), rng.uniform(0, 2 * math.pi, 100))]
        cloud = synthetic_cloud(pts)
        zeta = (LogGap(2.1), 1.0)
        h = 0.4 * math.exp(-2.1)
        n, big_n = L.zero_counts(cloud, zeta, h)
        if n == 0:
            pytest.skip("no zeros landed inside the disc")
        ts = np.linspace(1e-9, h, 400_001)
        counts = np.array([L.zero_counts(cloud, zeta, float(t))[0] for t in ts[:: 4000]])
        # exact integral of the step function n(t)/t between its jumps
        ds = sorted(
            L._pair_distance(2.1, 1.0, g, t)
            for g, t, _ in pts
            if L._pair_distance(2.1, 1.0, g, t) <= h
        )
        acc = 0.0
        for i, d in enumerate(ds):
            acc += (i + 1) * (math.log(ds[i + 1] / d) if i + 1 < len(ds) else math.log(h / d))
        assert big_n == pytest.approx(acc, rel=1e-9)
        assert counts[-1] == n

    def test_monotone_in_h(self):
        rng = np.random.default_rng(3)
        pts = [(float(g), float(t), 1) for g, t in zip(rng.uniform(2.0, 2.2, 40), rng.uniform(0, 2 * math.pi, 40))]
        cloud = synthetic_cloud(pts)
        hs = np.linspace(1e-4, 0.3 * math.exp(-2.1), 60)
        vals = [L.zero_counts(cloud, (LogGap(2.1), 0.3), float(h))[1] for h in hs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestCircleCountingIntegral:
    def test_empty_cloud(self):
        cloud = synthetic_cloud([])
        assert L.circle_counting_integral(cloud, (LogGap(1.0), 0.0), LogGap(2.0)) == 0.0

    def test_distant_zero_vanishes(self):
        # a zero radially far from every point of the circle: N = 0 on it
        cloud = synthetic_cloud([(0.5, 0.0, 1)])
        assert L.circle_counting_integral(cloud, (LogGap(1.0), 0.3), LogGap(4.0)) == 0.0

    def test_positive_when_zeros_near_circle(self, small_cloud):
        cloud, prof = small_cloud
        g_r = float(cloud.g[len(cloud) // 2])
        v = L.circle_counting_integral(cloud, (LogGap(g_r - 1.5), 0.1), LogGap(g_r))
        assert v > 0.0

    def test_dyadic_window_bound_against_growth_integral(self, small_cloud):
        # integral of J over [r_{nu+1}, r_{nu+2}] against I_alpha(r_{nu+4}):
        # the fitted constant stays modest across nu
        cloud, prof = small_cloud
        model = L.LogMModel(lambda g: max(prof.phi(min(g, prof.g_end - 1e-9)), 0.0), 2.0, 3.0)
        consts = []
        for nu in (2, 3):
            z = (LogGap(L.dyadic_g(nu) - 0.2), 0.7)
            lo, hi = L.dyadic_g(nu + 1), L.dyadic_g(nu + 2)
            rs = np.linspace(lo, hi, 9)
            js = [L.circle_counting_integral(cloud, z, LogGap(float(g)), n_theta=256) for g in rs]
            ys = np.array([j * math.exp(-g) for j, g in zip(js, rs)])
            lhs = float(np.sum(np.diff(rs) * (ys[1:] + ys[:-1]) / 2.0))  # trapezoid rule
            # dR = e^-g dg
            rhs = L.growth_integral(model, 0.75, LogGap(L.dyadic_g(nu + 4)), LogGap(0.05)).to_float()
            consts.append(lhs / rhs)
        assert all(c < 50.0 for c in consts)


class TestSectorCrowding:
    def test_empty(self):
        assert L.sector_crowding(synthetic_cloud([]), 2.0) == 0

    def test_rejects_nan(self):
        with pytest.raises(NumericsError, match="sector_crowding needs a log-gap"):
            L.sector_crowding(synthetic_cloud([(2.3, 1.0, 2)]), math.nan)

    def test_single_zero_in_annulus(self):
        g = 2.0
        cloud = synthetic_cloud([(g + 0.3, 1.0, 1)])
        assert L.sector_crowding(cloud, g) == 1

    def test_clustered_versus_spread(self):
        g = 3.0
        gap = math.exp(-g)
        width = (math.pi / 4.0) * gap
        pts = [(g + 0.2, 1.0 + 0.01 * width * i, 1) for i in range(10)]
        pts += [(g + 0.2, 1.0 + math.pi * (0.3 + 0.15 * i), 1) for i in range(10)]
        cloud = synthetic_cloud(pts)
        # brute-force oracle over a fine offset grid
        angles = np.array([t for _, t, _ in pts])
        gaps = np.array([math.exp(-p[0]) for p in pts])
        keep = (gaps <= gap) & (gaps >= gap / 2.0)
        best = 0
        for phi in np.linspace(0, 2 * math.pi, 20000):
            d = np.abs((angles[keep] - phi + math.pi) % (2 * math.pi) - math.pi)
            best = max(best, int(np.sum(d <= width)))
        assert L.sector_crowding(cloud, g) == best == 10

    def test_respects_multiplicity(self):
        cloud = synthetic_cloud([(2.3, 1.0, 2)])
        assert L.sector_crowding(cloud, 2.0) == 2


def _crowding_by_atom(cloud, g):
    """(count, start, wraps): the largest multiplicity in a window [theta_i,
    theta_i + 2 width] that starts at an atom of the band, found atom by atom,
    the first such window's start and whether one of them reaches past 2 pi."""
    gap = math.exp(-g)
    sel = (cloud.delta <= gap) & (cloud.delta >= gap / 2.0)
    theta = np.mod(cloud.theta[sel], 2.0 * math.pi)
    mult = cloud.mult[sel]
    best, start, wraps = 0, 0.0, False
    for t in theta:
        end = t + 2.0 * (math.pi / 4.0) * gap
        wrapped = theta + 2.0 * math.pi <= end
        count = int(mult[((theta >= t) & (theta <= end)) | wrapped].sum())
        if count > best:
            best, start, wraps = count, t, False
        wraps |= count == best and bool(wrapped.any())
    return best, start, wraps


@pytest.fixture(scope="module")
def sweep_clouds(small_cloud, wide_scaffold):
    cloud, prof = small_cloud
    part = R.partition_region(prof, 1, g_max=25.0, ceiling=100_000)
    wide_prof = RadialProfile(wide_scaffold)
    wide_part = R.partition_region(wide_prof, 1, g_max=25.0, ceiling=200_000)
    return [cloud, R.atomize(part, prof, split_doubles=True), R.atomize(wide_part, wide_prof)]


class TestSectorCrowdingSweep:
    def test_window_is_closed(self):
        # an atom exactly 2 width after another shares its window
        g = 2.0
        width = (math.pi / 4.0) * math.exp(-g)
        cloud = synthetic_cloud([(g + 0.3, 1.0, 1), (g + 0.3, 1.0 + 2.0 * width, 1)])
        assert L.sector_crowding(cloud, g) == 2

    def test_matches_per_atom_count(self, sweep_clouds):
        # bands of at most 2500 atoms on a grid of radii, each as given and
        # turned so that its fullest window straddles theta = 0
        checked = wrapped = 0
        for cloud in sweep_clouds:
            for g in np.linspace(cloud.g.min() - 0.5, cloud.g.max(), 12):
                gap = math.exp(-g)
                if not 0 < np.sum((cloud.delta <= gap) & (cloud.delta >= gap / 2.0)) <= 2500:
                    continue
                best, start, _ = _crowding_by_atom(cloud, g)
                assert L.sector_crowding(cloud, g) == best
                turned = R.ZeroCloud(cloud.g, cloud.theta - start - (math.pi / 4.0) * gap,
                                     cloud.mult, cloud.kind, cloud.cells, cloud.nodes)
                best, _, wraps = _crowding_by_atom(turned, g)
                assert L.sector_crowding(turned, g) == best
                checked += 1
                wrapped += wraps
        assert checked >= 15 and wrapped >= 2


class TestCertificate:
    def test_zero_free_power_instance_bounded(self):
        p = 2.0
        spec = L.exp_inverse_power_spec(p)
        ws = L.loworder_windows(p, 0.4, [6.0, 9.0, 12.0])
        rpt = L.logderiv_certificate(spec, 1, 0, eps=0.1, windows=ws)
        assert rpt.max_statistic <= p + 1e-9

    def test_polynomial_statistic_vanishes(self):
        # f polynomial away from its zeros: |f'/f| bounded, so the statistic
        # decays like (1-r)^(2+eps)
        spec = L.ClosedFormSpec(lambda g, t: math.log(3.0), lam=0.0, sigma=0.0)
        ws = L.RadialWindowSet(((4.0, 5.0), (8.0, 9.0), (12.0, 13.0)))
        rpt = L.logderiv_certificate(spec, 1, 0, eps=0.1, windows=ws)
        assert rpt.max_statistic < 1e-3

    def test_cloud_exclusion_reported(self, small_cloud):
        cloud, prof = small_cloud
        spec = L.ClosedFormSpec(
            lambda g, t: 2.0 * g, lam=2.0, sigma=3.0, zeros=cloud
        )
        ws = L.RadialWindowSet(((2.0, 3.0), (5.0, 6.0)))
        rpt = L.logderiv_certificate(spec, 1, 0, eps=0.1, windows=ws, radii_per_window=4)
        assert rpt.excluded_per_circle
        assert rpt.fitted_radius_coef >= 0.0

    def test_k_j_validated(self):
        spec = L.exp_inverse_power_spec(2.0)
        with pytest.raises(Exception):
            L.logderiv_certificate(spec, 1, 1, 0.1, L.RadialWindowSet(((1.0, 2.0),)))


class TestZeroCountsBandEdge:
    def test_atoms_straddling_the_radial_band(self):
        # atoms at radial gap s*h from zeta, on its ray and off it: the count
        # and N must equal the per-atom loop over every atom
        gz, tz, h = 3.0, 1.2, 0.3 * math.exp(-3.0)
        offsets = [-2.5, -2.0001, -1.5, -1 - 1e-12, -1.0, -0.5, 0.25,
                   0.5, 1.0, 1 + 1e-12, 1.5, 1.9999, 2.0001, 2.5]
        pts = [(-math.log(math.exp(-gz) + s * h), tz + dt, m)
               for s in offsets for dt, m in ((0.0, 1), (0.05 * h, 2), (2.0, 1))]
        cloud = synthetic_cloud(pts)
        n, big_n = 0, 0.0
        for g, t, m in pts:
            d = L._pair_distance(gz, tz, g, t)
            if d <= h:
                n += m
                big_n += m * math.log(h / d)
        assert n >= 10
        assert L.zero_counts(cloud, (LogGap(gz), tz), h) == (n, big_n)

    @pytest.mark.parametrize("gz, tz, h_frac", [(3.0, 0.01, 0.3), (3.0, 2.0 * math.pi - 0.01, 0.3),
                                                (8.0, 3.0, 0.9), (0.51, 0.2, 0.8)])
    def test_atoms_straddling_the_angular_window(self, gz, tz, h_frac):
        # atoms on and just off zeta's circle, and near the origin, at angular
        # offsets around the disc's edge, the window 2 h/|zeta| and pi, across
        # theta = 0 and given both wrapped and unwrapped; the last disc holds
        # the origin (h > |zeta|), so its atoms near the origin at any angle count
        h = h_frac * math.exp(-gz)
        rz = -math.expm1(-gz)
        edge = 2.0 * math.asin(min(1.0, h / (2.0 * rz)))  # chord h on zeta's circle
        dts = [u * 2.0 * h / rz for u in (-1.0001, -0.9999, -0.5, 0.5, 0.9999, 1.0001, 3.0)]
        dts += [u * edge for u in (-1 - 1e-9, -1 + 1e-9, 1 - 1e-9, 1 + 1e-9)] + [math.pi]
        pts = [(g, t, m) for g in (gz, gz + 0.01, 0.05) for dt in dts
               for t, m in ((tz + dt, 1), ((tz + dt) % (2.0 * math.pi), 2))]
        cloud = synthetic_cloud(pts)
        n, big_n = 0, 0.0
        for g, t, m in pts:
            d = L._pair_distance(gz, tz, g, t)
            if d <= h:
                n += m
                big_n += m * math.log(h / d)
        assert n >= 6
        assert L.zero_counts(cloud, (LogGap(gz), tz), h) == (n, big_n)
