"""The circle queries select their atoms through the cloud's ring index
(``ZeroCloud.band`` and the rings and angular windows of ``_RingIndex``) and
must return exactly what they returned when each filtered every gap with
its own mask (``oracles.masked_*``), repr for repr, on the test clouds, on
hand-built clouds with atoms on every band edge and angles outside one
turn, and on the empty cloud."""

import math
import tracemalloc

import numpy as np
import oracles
import pytest

from discgrowth import logderiv as L
from discgrowth import riesz as R
from discgrowth.numerics import LogGap, NumericsError
from discgrowth.profiles import RadialProfile


def _hand_built(g, theta, mult=None):
    g = np.asarray(g, dtype=float)
    mult = np.full(len(g), 2.0) if mult is None else np.asarray(mult, dtype=float)
    return R.ZeroCloud(g, np.asarray(theta, dtype=float), mult, np.zeros(len(g), dtype=np.int8))


def _neighbours(g, n=8):
    """g and the n floats on either side of it."""
    out, lo, hi = [g], g, g
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return sorted(out)


def _gaps(gs):
    # the gaps as ZeroCloud.delta computes them: numpy's exp over an array
    return np.exp(-np.asarray(gs, dtype=float))


@pytest.fixture(scope="module")
def edge_case():
    """A hand-built cloud with atoms exactly on the edges of the bands of
    its queries about the circle g0: at gap = e^-g0 (delta = gap), at gap/2,
    at |dr| = lim = eps gap, and at |dr| = gap/16 (the counting integral's h).
    Its rings come out of radial order, each ring holds repeated radii at
    several angles, and one atom has a NaN g."""
    # the first radius on a grid where the edges are doubles and atoms hit them
    for g0 in (2.0 + 1e-3 * np.arange(2000)).tolist():
        gap = math.exp(-g0)
        half = _neighbours(g0 + math.log(2.0))
        ring = _neighbours(-math.log(gap * 17.0 / 16.0))
        if (_gaps([g0])[0] == gap and np.any(_gaps(half) == gap / 2.0)
                and np.any(_gaps(ring) - gap == gap / 16.0)):
            break
    else:
        pytest.fail("no radius puts atoms on every band edge")
    outer = _neighbours(-math.log(gap * 0.9))
    lim = gap - float(_gaps(outer)[8])  # exact: the two gaps are within a factor 2
    eps = lim / gap
    for e in _neighbours(eps, 4):
        if e * gap == lim:
            eps = e
            break
    assert eps * gap == lim
    inner = _neighbours(-math.log(gap * 1.1))
    gs = outer + [g0] + half + ring + inner + [g0 + 0.5, g0 - 0.3, math.nan]
    rng = np.random.default_rng(4)
    perm = rng.permutation(3 * len(gs))  # rings out of radial order
    g = np.repeat(gs, 3)[perm]
    theta = np.tile([0.1, 2.0, 2.0 * math.pi - 0.05], len(gs))[perm]
    mult = np.tile([1.0, 2.0, 1.0], len(gs))[perm]
    return _hand_built(g, theta, mult), g0, eps, lim


@pytest.fixture(scope="module")
def clouds(small_scaffold, wide_scaffold, edge_case):
    out = {"edge": edge_case[0], "empty": _hand_built([], [])}
    for name, scaffold, ceiling in (("small", small_scaffold, 100_000), ("wide", wide_scaffold, 200_000)):
        prof = RadialProfile(scaffold)
        part = R.partition_region(prof, 1, g_max=25.0, ceiling=ceiling)
        out[name] = R.atomize(part, prof)
        out[name + "-split"] = R.atomize(part, prof, split_doubles=True)
    return out


def _circles(cloud, k=16):
    """Ring radii of the cloud and radii between them."""
    rings = np.unique(cloud.g[np.isfinite(cloud.g)])
    if not len(rings):
        return [0.5, 3.0]
    picks = rings[:: max(1, len(rings) // k)].tolist()
    return picks + np.linspace(max(rings[0] - 0.4, 0.05), rings[-1] + 0.4, k).tolist()


ALL = ["small", "small-split", "wide", "wide-split", "edge", "empty"]


class TestBand:
    def test_band_is_the_mask_in_gap_order(self, edge_case):
        cloud, g0, _, _ = edge_case
        gap = math.exp(-g0)
        for lo, hi in ((gap / 2.0, gap), (gap, gap), (0.0, 1.0), (gap, gap / 2.0), (0.0, math.inf)):
            got = cloud.band(lo, hi)
            assert got.dtype == np.intp
            assert np.array_equal(np.sort(got), np.flatnonzero((cloud.delta >= lo) & (cloud.delta <= hi)))
            assert np.all(np.diff(cloud.delta[got]) >= 0.0)
        assert not np.isnan(cloud.delta[cloud.band(0.0, math.inf)]).any()

    def test_band_keeps_equal_gaps_in_angle_order(self, edge_case):
        # the edge cloud lists its rings' atoms out of angle order
        cloud, g0, _, _ = edge_case
        got = cloud.band(math.exp(-g0), math.exp(-g0))
        assert len(got) == 3 and np.all(np.diff(np.mod(cloud.theta[got], 2.0 * math.pi)) > 0)
        rings = cloud.band(0.0, math.inf)
        runs = np.flatnonzero(np.diff(cloud.g[rings]) != 0.0) + 1
        assert any(np.any(np.diff(ring) < 0) for ring in np.split(rings, runs))
        for ring in np.split(rings, runs):
            assert np.all(np.diff(np.mod(cloud.theta[ring], 2.0 * math.pi)) >= 0.0)


class TestMatchesMaskedQueries:
    @pytest.mark.parametrize("name", ALL)
    def test_excluded_arcs_and_sector_crowding(self, clouds, name):
        cloud = clouds[name]
        for g in _circles(cloud, 10):
            for eps in (0.01, 0.05, 0.3):
                got = R.excluded_arcs(cloud, g, eps)
                assert repr(got) == repr(oracles.masked_excluded_arcs(cloud, g, eps))
            assert repr(L.sector_crowding(cloud, g)) == repr(oracles.masked_sector_crowding(cloud, g))

    @pytest.mark.parametrize("name", ALL)
    def test_excluded_measure_sums_the_arcs(self, clouds, name):
        # summed from the merged arrays, in another order than the list's sum
        cloud = clouds[name]
        for g in _circles(cloud, 10):
            for eps in (0.01, 0.05, 0.3):
                arcs = oracles.masked_excluded_arcs(cloud, g, eps)
                got = R.excluded_measure(cloud, g, eps)
                assert type(got) is float
                if arcs:
                    want = sum(hi - lo for lo, hi in arcs)
                    assert abs(got - want) <= 1e-13 * want
                else:
                    assert repr(got) == "0.0"

    @pytest.mark.parametrize("name", ALL)
    def test_zero_counts(self, clouds, name):
        cloud = clouds[name]
        rng = np.random.default_rng(11)
        finite = np.flatnonzero(np.isfinite(cloud.g))
        points = [(float(cloud.g[i]), float(cloud.theta[i])) for i in rng.choice(finite, 8)] if len(finite) else []
        points += [(2.0, 1.0), (0.4, 6.0)]
        for g, t in points:
            for gz, tz in ((g, t), (g + 0.01, t + 1e-3), (g + 0.2, t - 0.3)):
                for frac in (0.1, 0.5, 0.9):
                    zeta, h = (LogGap(gz), tz), frac * math.exp(-gz)
                    assert repr(L.zero_counts(cloud, zeta, h)) == repr(oracles.masked_zero_counts(cloud, zeta, h))

    @pytest.mark.parametrize("name", ALL)
    def test_circle_counting_integral(self, clouds, name):
        cloud = clouds[name]
        # the inner rings and the first ring of 1,000 atoms or more (the
        # oracle costs a pass over the nodes per atom)
        rings, counts = np.unique(cloud.g[np.isfinite(cloud.g)], return_counts=True)
        large = [g for g, k in zip(rings.tolist(), counts.tolist()) if k >= 1_000][:1]
        assert large or name in ("edge", "empty")
        rings = rings.tolist()
        for g_r in rings[:4] + large + [0.5 * sum(rings[1:3]), rings[-1] + 0.3] if len(rings) > 2 else [0.5, 3.0]:
            for z in ((LogGap(g_r + 0.7), 0.4), (LogGap(max(g_r - 1.5, 0.0)), 2.0)):
                got = L.circle_counting_integral(cloud, z, LogGap(g_r), n_theta=64)
                assert repr(got) == repr(oracles.masked_circle_counting_integral(cloud, z, LogGap(g_r), n_theta=64))

    def test_circle_counting_integral_near_the_origin(self):
        # atoms at the origin (g = 0) and rings within h of the circles
        # g_r <= 0.03, where arcs run from a few nodes to the whole circle
        # (also an atom's arc of n nodes or more, which takes each node
        # once); NaN angles, angles outside one turn and arcs over theta = 0
        turn = 2.0 * math.pi
        g = np.repeat([0.0, 0.005, 0.02, 0.04, 0.06, 0.0665, 0.5], 7)
        theta = np.tile([math.nan, -30.0, turn - 1e-3, 1e-17, -0.0, turn + 0.3, 3.0], 7)
        mult = np.tile([1.0, 2.0, 1.0, 2.0, 2.0, 1.0, 2.0], 7)
        cloud = _hand_built(g, theta, mult)
        for g_r in (0.0, 0.01, 0.03):
            for z in ((LogGap(g_r + 0.7), 0.4), (LogGap(g_r + 2.0), turn - 0.1)):
                for n_theta in (1, 8, 64):
                    got = L.circle_counting_integral(cloud, z, LogGap(g_r), n_theta=n_theta)
                    want = oracles.masked_circle_counting_integral(cloud, z, LogGap(g_r), n_theta=n_theta)
                    assert repr(got) == repr(want)
                    # an atom at the centre of the circle R = 0 has dist 0
                    assert (got == math.inf) == (g_r == 0.0) and got > 0.0

    @pytest.mark.parametrize("g_r,g,t,n_theta", [
        (3.180521551188528e-14, 0.0645385211376029, -6.45383567456177, 16384),
        (8.67231543666117e-15, 0.06453852113757981, -6.951767593345213, 16384),
        (2.587937218709038e-15, 0.06453852113757366, -4.350360538698044, 16384),
        (2.9003743191602976e-15, 0.06453852113757401, 8.529880943345706, 2048),
    ])
    def test_circle_counting_integral_ill_posed_arcs(self, g_r, g, t, n_theta):
        # a ring on the edge of the band about a circle of radius ~1e-15:
        # 4 r_a R is ~1e-16 against h^2 ~ 4e-3, so the end of the arc is
        # ill-posed, and the nodes where dist rounds to h (a term of 0)
        # reach tens of nodes past the closed-form arc at h
        cloud = _hand_built([g], [t])
        z = (LogGap(g_r + 1.0), 0.3)
        got = L.circle_counting_integral(cloud, z, LogGap(g_r), n_theta=n_theta)
        assert repr(got) == repr(oracles.masked_circle_counting_integral(cloud, z, LogGap(g_r), n_theta=n_theta))

    def test_circle_counting_integral_drops_infinite_angles(self):
        # an atom with an infinite angle is at no node, as one with a NaN
        # angle (the oracle's sin(inf) would warn)
        g = np.repeat([2.0, 2.05, 2.1], 3)
        theta = np.tile([math.nan, 1.0, 6.2], 3)
        z, big_r = (LogGap(1.0), 0.3), LogGap(2.05)
        want = L.circle_counting_integral(_hand_built(g, theta), z, big_r)
        assert want > 0.0 and repr(want) == repr(oracles.masked_circle_counting_integral(_hand_built(g, theta), z, big_r))
        for inf in (math.inf, -math.inf):
            theta[::3] = inf
            assert repr(L.circle_counting_integral(_hand_built(g, theta), z, big_r)) == repr(want)

    def test_angles_stored_outside_one_turn(self):
        # hand-built rings with angles anywhere in [-30, 30], on and next to
        # 0 and 2 pi, and a NaN angle; two rings one ulp apart in g.  The
        # angular windows wrap, and their padding covers the rounding of the
        # queries' own wrapped differences
        rng = np.random.default_rng(8)
        g = np.repeat([1.2, 2.5, math.nextafter(2.5, 3.0), 4.0], 40)
        theta = rng.uniform(-30.0, 30.0, len(g))
        turn = 2.0 * math.pi
        theta[:8] = [0.0, -0.0, turn, -turn, 1e-17, -1e-17, math.nextafter(turn, 0.0), math.nan]
        theta[40:44] = theta[80:84] = [0.5, -0.5, 0.5 + turn, 0.5 - 2.0 * turn]
        cloud = _hand_built(g, theta, rng.choice([1.0, 2.0], len(g)))
        points = [(float(a), float(b)) for a, b in zip(g[::7], theta[::7]) if math.isfinite(b)]
        points += [(2.5, 0.0), (2.5, turn), (2.5, -1e-12), (4.0, 6.2831853), (1.2, 30.0)]
        for gz, tz in points:
            for dg, dt in ((0.0, 0.0), (0.01, 1e-3), (-0.05, -0.02), (0.2, turn)):
                for frac in (0.05, 0.5, 0.9):
                    zeta, h = (LogGap(gz + dg), tz + dt), frac * math.exp(-(gz + dg))
                    assert repr(L.zero_counts(cloud, zeta, h)) == repr(oracles.masked_zero_counts(cloud, zeta, h))
        for gc in (1.2, 2.45, 2.5, 3.9, 4.0):
            for eps in (0.01, 0.3, 2.0):
                got = R.excluded_arcs(cloud, gc, eps)
                assert repr(got) == repr(oracles.masked_excluded_arcs(cloud, gc, eps))

    def test_atoms_on_every_band_edge(self, edge_case):
        cloud, g0, eps, lim = edge_case
        gap = math.exp(-g0)
        # the exact edges are in the cloud, and each query sees them
        assert np.any(cloud.delta == gap) and np.any(cloud.delta == gap / 2.0)
        assert np.any(gap - cloud.delta == lim) and np.any(cloud.delta - gap == gap / 16.0)
        for e in (eps, math.nextafter(eps, 0.0), math.nextafter(eps, 1.0)):
            got = R.excluded_arcs(cloud, g0, e)
            assert got and repr(got) == repr(oracles.masked_excluded_arcs(cloud, g0, e))
        assert L.sector_crowding(cloud, g0) == oracles.masked_sector_crowding(cloud, g0) > 0
        # |dr| = 2 h exactly for the atoms at gap - lim
        zeta = (LogGap(g0), 2.0)
        for h in (lim / 2.0, math.nextafter(lim / 2.0, 0.0)):
            assert repr(L.zero_counts(cloud, zeta, h)) == repr(oracles.masked_zero_counts(cloud, zeta, h))
        z = (LogGap(g0 - 1.0), 0.3)
        got = L.circle_counting_integral(cloud, z, LogGap(g0), n_theta=64)
        assert got > 0.0 and repr(got) == repr(oracles.masked_circle_counting_integral(cloud, z, LogGap(g0), n_theta=64))


def test_empty_band_query_makes_no_cloud_sized_temporary(clouds):
    # the masks these queries replaced made ~1.4 MB of temporaries per call
    # on this 127k-atom cloud; an empty band costs a few small arrays
    cloud = clouds["wide"]
    g = float(cloud.g.max()) + 3.0
    assert len(cloud.band(0.0, math.exp(-g) * 2.0)) == 0  # builds delta and the gap order
    tracemalloc.start()
    try:
        assert R.excluded_arcs(cloud, g, 0.1) == []
        assert L.zero_counts(cloud, (LogGap(g), 1.0), 0.5 * math.exp(-g)) == (0, 0.0)
        assert L.circle_counting_integral(cloud, (LogGap(1.0), 0.3), LogGap(g)) == 0.0
        assert L.sector_crowding(cloud, g) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000


def test_zero_counts_touch_only_their_window(clouds):
    # with h = gap/2 the radial test keeps every ring deeper than the point
    # (tens of thousands of atoms on this cloud); the angular windows keep
    # a few atoms of each
    cloud = clouds["wide"]
    g = float(cloud.g[np.argmin(np.abs(cloud.g - 8.7))])
    zeta, h = (LogGap(g), 1.0), 0.5 * math.exp(-g)
    assert len(cloud.band(0.0, 2.0 * math.exp(-g))) > 30_000  # also builds the ring index
    tracemalloc.start()
    try:
        got = L.zero_counts(cloud, zeta, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert repr(got) == repr(oracles.masked_zero_counts(cloud, zeta, h))
    assert peak < 64_000


def test_queries_after_the_surrogate_build_nothing(wide_scaffold):
    # the surrogate's first call builds the ring index that the circle
    # queries read, so their first calls on a fresh 127k-atom cloud make no
    # cloud-sized array (the index alone is ~4 MB)
    prof = RadialProfile(wide_scaffold)
    cloud = R.atomize(R.partition_region(prof, 1, g_max=25.0, ceiling=200_000), prof)
    deep, inner = (float(cloud.g[np.argmin(np.abs(cloud.g - g))]) for g in (8.7, 3.0))
    R.eval_log_surrogate_many(cloud, prof, [(LogGap(deep + 0.1), 0.0)])
    # zero counts whose radial test keeps tens of thousands of atoms, and
    # the arcs of a ring of a few dozen atoms
    for query in (lambda: L.zero_counts(cloud, (LogGap(deep), 1.0), 0.5 * math.exp(-deep))[0],
                  lambda: R.excluded_measure(cloud, inner, 0.05)):
        tracemalloc.start()
        try:
            got = query()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got > 0 and peak < 64_000


class TestReportsPinned:
    """Values recorded before the queries read the band and the report and
    the certificate shared one off-arc sampler; the report's
    max_scaled_error was re-recorded when the surrogate began to sum its
    lattice rings in closed form (1.9255208676 -> 1.9255337325; the direct
    sum over every source gives 1.9255866558), and in their last digits when
    the partition put split rings' cells on the exact lattice k w."""

    def test_approximation_report(self, small_scaffold, clouds):
        cloud = clouds["small"]
        rpt = R.approximation_report(cloud, RadialProfile(small_scaffold),
                                     circle_gs=[2.0, 3.5, float(np.unique(cloud.g)[6])],
                                     eps=0.05, thetas_per_circle=8)
        assert repr(rpt) == (
            "ApproxReport(max_scaled_error=1.9255337324644175, per_circle_excluded=[(2.0, "
            "0.06744615814996635), (3.5, 0), (2.857574026617402, 0.04872341386674961)], "
            "fitted_c4=1.348923162999327, eps=0.05, samples_used=24)"
        )

    def test_certificate_with_zeros(self, clouds):
        # the circle at g = 2 is excluded whole, so its sampler gives up
        # after 50 x 64 draws
        spec = L.ClosedFormSpec(lambda g, t: 2.0 * g + np.cos(t), lam=2.0, sigma=3.0, zeros=clouds["small"])
        ws = L.RadialWindowSet(((2.0, 3.0), (5.0, 6.0)))
        rpt = L.logderiv_certificate(spec, 1, 0, eps=0.1, windows=ws, radii_per_window=4)
        assert repr(rpt) == (
            "CertificateReport(windows=RadialWindowSet(intervals=((2.0, 3.0), (5.0, 6.0)), "
            "tail_to_one=True), max_statistic=0.09589604802944975, excluded_per_circle=[(2.0, "
            "6.283185307179586), (2.3333333333333335, 2.5444898316547317), (2.6666666666666665, "
            "1.223199968523657), (3.0, 0.40066091017698025), (5.0, 0), (5.333333333333333, 0), "
            "(5.666666666666667, 0), (6.0, 1.4684858122492317)], fitted_radius_coef=7.3424290612461585, "
            "eps=0.1, k=1, j=0)"
        )


@pytest.mark.parametrize("circles,eps", [([], 0.05), ([2.0, 3.5], math.inf), ([2.0, 3.5], 1e6)])
def test_approximation_report_without_samples(small_scaffold, clouds, circles, eps):
    # no circle, or arcs that cover every circle, leave no sample
    with pytest.raises(NumericsError, match="no sample was left off the excluded arcs"):
        R.approximation_report(clouds["small"], RadialProfile(small_scaffold), circles, eps, thetas_per_circle=8)


class TestOffArcSampler:
    def test_same_draws_as_a_rejection_loop(self):
        arcs = [(0.5, 2.0), (3.0, 3.1)]
        want, rng = [], np.random.default_rng(2)
        while len(want) < 10:
            t = float(rng.uniform(0.0, 2.0 * math.pi))
            if not any(lo <= t <= hi for lo, hi in arcs):
                want.append(t)
        assert R.angles_off_arcs(np.random.default_rng(2), arcs, 10) == want

    @pytest.mark.parametrize("name", ["small", "wide"])
    def test_bit_equal_to_the_scalar_loop_on_cloud_arcs(self, clouds, name):
        # the arcs the certificate and the approximation report exclude, the
        # same angles and the same generator state afterwards
        cloud = clouds[name]
        circles = np.unique(cloud.g)[[0, 5, -1]].tolist() + [2.0, 3.5]
        for g in circles:
            for eps, n in ((0.05, 64), (0.5, 16), (3.0, 8)):
                arcs = R.excluded_arcs(cloud, g, eps)
                rng, ref = np.random.default_rng(11), np.random.default_rng(11)
                assert R.angles_off_arcs(rng, arcs, n) == oracles.scalar_angles_off_arcs(ref, arcs, n)
                assert rng.uniform() == ref.uniform()

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_bit_equal_to_the_scalar_loop_up_to_the_cap(self, n):
        # 1.3% of the circle is free: about 0.66 angles per 50 draws, so most
        # runs end at the cap of 50 n draws with fewer than n angles
        arcs = [(0.0, 3.0), (2.5, 6.2)]
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        got = R.angles_off_arcs(rng, arcs, n)
        assert got == oracles.scalar_angles_off_arcs(ref, arcs, n)
        assert rng.uniform() == ref.uniform()
        assert n == 1 or len(got) < n

    def test_gives_up_after_fifty_draws_per_angle(self):
        rng = np.random.default_rng(2)
        assert R.angles_off_arcs(rng, [(0.0, 2.0 * math.pi)], 3) == []
        assert rng.uniform() == np.random.default_rng(2).uniform(size=151)[-1]
        assert R.angles_off_arcs(rng, [], 0) == []


class TestOriginCircle:
    """The circle g = 0 is the origin: every angle lies within eps of an
    atom with |zeta| <= eps, and none otherwise."""

    cloud = _hand_built([0.3, 2.0], [1.0, 4.0])

    def test_whole_circle_within_eps(self):
        # |zeta| = 1 - e^-0.3 = 0.259
        assert R.excluded_arcs(self.cloud, 0.0, 0.3) == [(0.0, 2.0 * math.pi)]
        assert R.excluded_measure(self.cloud, 0.0, 0.3) == 2.0 * math.pi

    def test_empty_beyond_eps(self):
        assert R.excluded_arcs(self.cloud, 0.0, 0.25) == []
        assert R.excluded_arcs(_hand_built([], []), 0.0, 0.3) == []


class TestRejectsBadCircles:
    cloud = _hand_built([2.3, 3.0], [1.0, 2.0])

    @pytest.mark.parametrize("g", [math.nan, math.inf, -1.0])
    def test_excluded_arcs(self, g):
        with pytest.raises(NumericsError, match="log-gap must be finite and >= 0"):
            R.excluded_arcs(self.cloud, g, 0.1)

    @pytest.mark.parametrize("g", [math.inf, -1.0])
    def test_sector_crowding(self, g):
        with pytest.raises(NumericsError, match="sector_crowding needs a log-gap"):
            L.sector_crowding(self.cloud, g)

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_zero_counts_angle(self, theta):
        with pytest.raises(NumericsError, match="zero_counts needs a finite angle"):
            L.zero_counts(self.cloud, (LogGap(3.0), theta), 0.01)

    @pytest.mark.parametrize("z", [(math.nan, 0.3), (1.0, math.nan)])
    def test_circle_counting_integral_point(self, z):
        with pytest.raises(NumericsError):
            L.circle_counting_integral(self.cloud, z, LogGap(3.0))

    @pytest.mark.parametrize("n_theta", [0, -3])
    def test_circle_counting_integral_nodes(self, n_theta):
        # the atom at g = 3 lies on the circle, so the quadrature would run
        with pytest.raises(NumericsError, match=f"n_theta >= 1, got n_theta = {n_theta}"):
            L.circle_counting_integral(self.cloud, (LogGap(1.0), 0.3), LogGap(3.0), n_theta=n_theta)
