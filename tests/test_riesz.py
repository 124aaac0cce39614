"""Equal-mass polar cells, surrogate zeros and the log-modulus surrogate.
The cell-mass and centroid oracles run independent adaptive quadrature
through the profile's pointwise Laplacian."""

import hashlib
import math

import numpy as np
import pytest

from discgrowth import riesz as R
from discgrowth.numerics import LogGap, integrate
from discgrowth.profiles import RadialProfile
from discgrowth.scaffold import ScaffoldParams, build_scaffold


@pytest.fixture(scope="module")
def small_profile(small_scaffold):
    return RadialProfile(small_scaffold)


@pytest.fixture(scope="module")
def gen1_partition(small_profile):
    return R.partition_region(small_profile, 1, g_max=25.0, ceiling=100_000)


@pytest.fixture(scope="module")
def gen1_cloud(gen1_partition, small_profile):
    return R.atomize(gen1_partition, small_profile)


def quad_mass(profile, cell):
    def integrand(r):
        lap = profile.eval(-math.log1p(-r)).laplacian.to_float()
        return lap * r

    inner = integrate(integrand, cell.r_lo, cell.r_hi, rel_tol=1e-10)
    return inner * (cell.theta_hi - cell.theta_lo) / (2.0 * math.pi)


class TestNextRingRadius:
    def test_closed_form_example(self):
        # r_k = 0.9, p_eff = 4: m = 10, c = 0.5 -> r_{k+1} = 1.4/1.5
        nxt = R.next_ring_radius(LogGap.from_r(0.9), 4.0)
        assert nxt.r == pytest.approx(0.9333333333333333, rel=1e-13)

    def test_mass_recomputed_exact(self):
        g0 = LogGap.from_r(0.9)
        p_eff = 4.0
        g1 = R.next_ring_radius(g0, p_eff)
        m = math.floor(1.0 / (1.0 - g0.r))
        mass = (
            p_eff
            * (g1.r - g0.r)
            / (m * (1.0 - g0.r) * (1.0 - g1.r))
        )
        assert mass == pytest.approx(2.0, rel=1e-12)

    def test_gap_ratio_approaches_two_over_p(self):
        p2 = 3.0
        g = LogGap(12.0)
        for _ in range(30):
            g = R.next_ring_radius(g, p2)
        nxt = R.next_ring_radius(g, p2)
        ratio = (math.exp(-g.g) - math.exp(-nxt.g)) / math.exp(-nxt.g)
        assert ratio == pytest.approx(2.0 / p2, rel=1e-6)

    def test_deep_g_no_overflow(self):
        nxt = R.next_ring_radius(LogGap(5000.0), 3.0)
        assert nxt.g == pytest.approx(5000.0 + math.log1p(2.0 / 3.0), rel=1e-12)


class TestPartition:
    def test_regions_complete_for_small_scaffold(self, gen1_partition):
        assert not any(gen1_partition.truncated.values())
        kinds = {c.kind for c in gen1_partition.cells}
        assert {"A", "A-star", "A-dprime", "remainder"} <= kinds

    def test_regular_cells_carry_mass_two(self, gen1_partition):
        for c in gen1_partition.regular_cells():
            assert c.mass == pytest.approx(2.0, abs=1e-12)

    def test_remainder_masses_in_range(self, gen1_partition):
        rem = [c for c in gen1_partition.cells if c.kind == "remainder"]
        assert rem
        for c in rem:
            assert 2.0 <= c.mass < 4.0

    def test_angular_count_is_integer_part(self, gen1_partition):
        by_ring = {}
        for c in gen1_partition.cells:
            if c.kind == "A":
                by_ring.setdefault(c.g_lo, []).append(c)
        full_rings = 0
        for g_lo, cells in by_ring.items():
            m = math.floor(math.exp(g_lo))
            width = cells[0].theta_hi - cells[0].theta_lo
            if abs(width - 2.0 * math.pi / m) < 1e-9:  # leftover rings re-split
                assert len(cells) == m
                full_rings += 1
        assert full_rings >= 4

    def test_quadrature_mass_oracle_50_random_cells(self, gen1_partition, small_profile):
        rng = np.random.default_rng(42)
        idx = rng.choice(len(gen1_partition.cells), size=50, replace=False)
        for i in idx:
            cell = gen1_partition.cells[int(i)]
            assert quad_mass(small_profile, cell) == pytest.approx(cell.mass, abs=1e-6)

    def test_side_comparability(self, gen1_partition):
        # regular rings stay within the geometric constant pi (p_eff + 2);
        # leftover rings and the innermost integer-part region cost a factor
        ratios = [c.side_ratio() for c in gen1_partition.cells]
        assert max(ratios) <= 32.0 * math.pi
        deep_regular = [
            c.side_ratio()
            for c in gen1_partition.regular_cells()
            if c.g_lo >= 2.0 and c.kind in ("A-star", "A-dprime")
        ]
        assert deep_regular and max(deep_regular) <= 8.0 * math.pi

    def test_ceiling_truncates_with_report(self, small_profile):
        part = R.partition_region(small_profile, 1, g_max=25.0, ceiling=500)
        assert any(part.truncated.values())
        assert len(part.cells) <= 500

    def test_g_max_truncates(self, small_profile):
        part = R.partition_region(small_profile, 1, g_max=2.0, ceiling=100_000)
        assert part.truncated["A"]
        assert all(c.g_hi <= 2.5 for c in part.cells if c.kind == "A")

    def test_bad_generation(self, small_profile):
        with pytest.raises(R.PartitionError):
            R.partition_region(small_profile, 7)

    def test_hat_region_present_when_p_exceeds_p2(self, wide_scaffold):
        prof = RadialProfile(wide_scaffold)
        part = R.partition_region(prof, 1, g_max=25.0, ceiling=100_000)
        hat = [c for c in part.cells if c.kind == "A-hat"]
        assert hat
        for c in hat[:10]:
            assert quad_mass(prof, c) == pytest.approx(c.mass, abs=1e-6)


class TestAtomize:
    def test_counts_and_mass_accounting(self, gen1_partition, gen1_cloud):
        heavy = sum(1 for c in gen1_partition.cells if c.mass >= 3.0)
        assert len(gen1_cloud) == len(gen1_partition.cells) + heavy
        assert gen1_cloud.total_multiplicity == 2 * len(gen1_cloud)

    def test_empty_partition(self, small_profile):
        part = R.PartitionResult(cells=[], truncated={}, generation=1)
        cloud = R.atomize(part, small_profile)
        assert len(cloud) == 0

    def test_single_cell_single_double_zero(self, gen1_partition, small_profile):
        one = R.PartitionResult(
            cells=[gen1_partition.regular_cells()[5]], truncated={}, generation=1
        )
        cloud = R.atomize(one, small_profile)
        assert len(cloud) == 1
        assert cloud.mult[0] == 2

    def test_split_doubles_flag(self, gen1_partition, small_profile):
        one = R.PartitionResult(
            cells=[gen1_partition.regular_cells()[5]], truncated={}, generation=1
        )
        cloud = R.atomize(one, small_profile, split_doubles=True)
        assert len(cloud) == 2
        assert all(m == 1 for m in cloud.mult)

    def test_centroid_against_quadrature(self, gen1_partition, small_profile):
        # density ~ (1-r)^-2 on the outer-approach cells
        cell = next(c for c in gen1_partition.cells if c.kind == "A" and c.g_lo > 1.0)
        den = R._density_for(small_profile, 0, 1)
        got = R._cell_centroid(den, cell.g_lo, cell.g_hi)
        num = integrate(lambda r: (1 - r) * den.rho(r), cell.r_lo, cell.r_hi, rel_tol=1e-12)
        mass = integrate(lambda r: den.rho(r), cell.r_lo, cell.r_hi, rel_tol=1e-12)
        assert got == pytest.approx(-math.log(num / mass), rel=1e-8)

    def test_atom_inside_cell(self, gen1_cloud):
        for g, t, cell in zip(gen1_cloud.g, gen1_cloud.theta, gen1_cloud.cells):
            assert cell.g_lo <= g <= cell.g_hi
            assert cell.theta_lo <= t <= cell.theta_hi

    def test_jsonl_schema(self, gen1_cloud):
        import json

        lines = gen1_cloud.to_jsonl().strip().split("\n")
        assert len(lines) == len(gen1_cloud)
        doc = json.loads(lines[0])
        assert set(doc) == {"g", "theta", "mult", "cell_kind"}


class TestSurrogate:
    def test_no_atoms_returns_phi(self, small_profile):
        cloud = R.ZeroCloud(
            np.array([]), np.array([]), np.array([]), [], [], small_profile
        )
        v = R.eval_log_surrogate(cloud, small_profile, (LogGap(2.0), 0.7))
        assert v == small_profile.phi(2.0)

    def test_on_atom_sentinel(self, gen1_cloud, small_profile):
        z = (LogGap(float(gen1_cloud.g[10])), float(gen1_cloud.theta[10]))
        assert R.eval_log_surrogate(gen1_cloud, small_profile, z) == -math.inf

    def test_near_atom_logarithmic_dip(self, gen1_cloud, small_profile):
        g = float(gen1_cloud.g[10])
        t = float(gen1_cloud.theta[10])
        gap = math.exp(-g)
        vals = [
            R.eval_log_surrogate(gen1_cloud, small_profile, (LogGap(g), t + s * gap))
            for s in (1e-3, 1e-6)
        ]
        assert vals[1] < vals[0] - 10.0  # ~ 2 log of the approach factor

    def test_far_field_bound(self, small_profile, gen1_partition):
        # atoms far out, sample near the origin: the atom-only correction obeys
        # |corr| <= 4 mult-sum of (1-|zeta|)/(1-|z|)
        far_cells = [c for c in gen1_partition.cells if c.g_lo >= 5.0][:500]
        part = R.PartitionResult(cells=far_cells, truncated={}, generation=1)
        cloud = R.atomize(part, small_profile)
        budget = 4.0 * float(np.sum(cloud.mult * np.exp(-cloud.g)))
        for (g, t) in ((0.2, 0.0), (0.5, 2.1), (0.69, 4.0)):
            corr = R.atom_correction_sum(cloud, (LogGap(g), t))
            assert abs(corr) <= budget / (math.exp(-g))

    def test_surrogate_tracks_phi(self, gen1_cloud, small_profile):
        rpt = R.approximation_report(
            gen1_cloud, small_profile, circle_gs=[1.0, 2.0, 3.5, 5.0, 6.5], eps=0.05,
            thetas_per_circle=24,
        )
        assert rpt.max_scaled_error < 5.0  # |err| <= c (1 + log g) with modest c

    def test_error_statistic_sublinear_in_g(self, gen1_cloud, small_profile):
        gs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        rng = np.random.default_rng(9)
        worst = []
        for g in gs:
            zs = [(LogGap(g), float(t)) for t in rng.uniform(0, 2 * math.pi, 16)]
            arcs = R.excluded_arcs(gen1_cloud, g, 0.05)
            zs = [z for z in zs if not any(a <= z[1] <= b for a, b in arcs)]
            vals = R.eval_log_surrogate_many(gen1_cloud, small_profile, zs)
            err = max(abs(v - small_profile.phi(g)) for v in vals)
            worst.append(err / (1.0 + math.log(max(g, 1.0))))
        # scaled errors do not trend upward: the last is no worse than twice
        # the running median
        assert worst[-1] <= 2.0 * sorted(worst)[len(worst) // 2] + 1.0


class TestColumns:
    def test_no_cell_objects_on_the_pipeline(self, small_profile, monkeypatch):
        built = []
        monkeypatch.setattr(R, "PolarCell", lambda *a: built.append(a))
        part = R.partition_region(small_profile, 1, g_max=25.0, ceiling=100_000)
        cloud = R.atomize(part, small_profile, split_doubles=True)
        cloud.to_jsonl()
        R.eval_log_surrogate_many(cloud, small_profile, [(LogGap(2.0), 0.1)])
        assert part.total_mass > 0.0 and not built

    def test_list_of_cells_gives_the_same_cloud(self, gen1_partition, gen1_cloud, small_profile):
        rows = R.PartitionResult(cells=list(gen1_partition.cells), truncated={}, generation=1)
        cloud = R.atomize(rows, small_profile)
        assert cloud.to_jsonl() == gen1_cloud.to_jsonl()
        assert list(cloud.cells) == list(gen1_cloud.cells)
        assert gen1_partition.cells[-1] == list(gen1_partition.cells)[-1]

    def test_jsonl_rejects_non_finite_like_dumps17(self, small_profile):
        cloud = R.ZeroCloud(
            np.array([1.0, math.nan]), np.array([0.5, 0.5]), np.array([2.0, 2.0]),
            ["A", "A"], [None, None], small_profile,
        )
        with pytest.raises(ValueError, match="non-finite float nan"):
            cloud.to_jsonl()


class TestPinnedValues:
    """Values recorded at commit dc95d27 (one PolarCell per cell and per
    atom); the column layout must reproduce them bit for bit."""

    def test_surrogate_values(self, gen1_cloud, small_profile):
        zs = [(LogGap(1.0), 0.3), (LogGap(3.5), 2.0), (LogGap(6.15), 1.0), (LogGap(8.0), 5.0)]
        got = R.eval_log_surrogate_many(gen1_cloud, small_profile, zs)
        want = ["0x1.e0455c12d7429p+3", "0x1.33942de12a136p+4",
                "0x1.9c4c91dcccf8fp+3", "0x1.03662bc3253d4p+5"]
        assert [v.hex() for v in got.tolist()] == want

    def test_hat_region_cloud_and_surrogate(self):
        # p > p2 opens the A-hat region; the ceiling stops inside A-dprime
        params = ScaffoldParams.with_defaults(k=1, p1=2.0, p2=3.0, p=3.5, log_c=3.2, g1=3.0)
        prof = RadialProfile(build_scaffold(params, 2))
        part = R.partition_region(prof, 1, g_max=25.0, ceiling=3000)
        assert len(part.cells) == 2177
        assert part.total_mass.hex() == (4356.9362555897505).hex()
        cloud = R.atomize(part, prof, split_doubles=True)
        digest = hashlib.sha256(cloud.to_jsonl().encode()).hexdigest()
        assert digest == "f63e024ca262afb9840dbddebdc386068ac9f48950e7bb8d7ca53e34719f3a3a"
        got = R.eval_log_surrogate_many(cloud, prof, [(LogGap(6.3), 0.5), (LogGap(2.0), 4.0)])
        assert [v.hex() for v in got.tolist()] == ["0x1.596b141685cdcp+4", "0x1.d90f88e561307p+3"]


class TestExcludedArcs:
    def test_zero_eps_empty(self, gen1_cloud):
        assert R.excluded_arcs(gen1_cloud, 3.0, 0.0) == []
        assert R.excluded_measure(gen1_cloud, 3.0, 0.0) == 0.0

    def test_measure_scales_linearly(self, gen1_cloud):
        # circles through atom radii see arcs; the fitted coefficient stays
        # flat across eps (linear scaling) and modest in size
        ring_gs = sorted(set(float(g) for g in gen1_cloud.g))
        picks = [ring_gs[1], ring_gs[len(ring_gs) // 2], ring_gs[-2]]
        coefs = []
        for eps in (0.01, 0.05, 0.1):
            ms = [R.excluded_measure(gen1_cloud, g, eps) for g in picks]
            coefs.append(max(ms) / eps)
        assert max(coefs) <= 4.0 * math.pi
        assert max(coefs) <= 1.5 * min(coefs)

    def test_report_carries_fitted_constant(self, gen1_cloud, small_profile):
        rpt = R.approximation_report(
            gen1_cloud, small_profile, circle_gs=[2.0, 4.0], eps=0.05, thetas_per_circle=8
        )
        assert rpt.fitted_c4 >= 0.0
        for g, m in rpt.per_circle_excluded:
            assert m <= rpt.fitted_c4 * rpt.eps + 1e-12


def _excluded_arcs_scalar(cloud, g_circle, eps):
    """Reference: the per-atom loop over every atom, merged as in the module."""
    r = -math.expm1(-g_circle)
    lim = eps * math.exp(-g_circle)
    flat = []
    for ga, ta in zip(cloud.g, cloud.theta):
        dr = math.exp(-g_circle) - math.exp(-ga)
        if abs(dr) > lim:
            continue
        sin2 = (lim * lim - dr * dr) / (4.0 * r * -math.expm1(-ga))
        half = 2.0 * math.asin(min(1.0, math.sqrt(max(sin2, 0.0))))
        lo, hi = (ta - half) % (2.0 * math.pi), (ta + half) % (2.0 * math.pi)
        flat.extend([(lo, 2.0 * math.pi), (0.0, hi)] if hi < lo else [(lo, hi)])
    merged = []
    for lo, hi in sorted(flat):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


class TestExcludedArcsBandEdge:
    @pytest.mark.parametrize("g_circle, eps", [(2.0, 0.05), (6.5, 0.3), (12.0, 0.01)])
    def test_atoms_straddling_the_band_edge(self, g_circle, eps):
        # radial offsets in units of the band half-width eps (1 - r): inside,
        # on and just beyond the edge, and past the prefilter's 2x margin
        lim = eps * math.exp(-g_circle)
        offsets = [-2.5, -2.0001, -1.5, -1 - 1e-12, -1.0, -1 + 1e-12, -0.5, 0.0,
                   0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 1.5, 1.9999, 2.0001, 2.5]
        gs = np.array([-math.log(math.exp(-g_circle) + s * lim) for s in offsets])
        thetas = np.linspace(0.1, 6.2, len(offsets))
        cloud = R.ZeroCloud(gs, thetas, np.full(len(gs), 2.0), ["A"] * len(gs), [None] * len(gs))
        want = _excluded_arcs_scalar(cloud, g_circle, eps)
        assert len(want) >= 5
        assert R.excluded_arcs(cloud, g_circle, eps) == want

    def test_cloud_matches_scalar_loop(self, gen1_cloud):
        for g in (1.0, 3.5, float(gen1_cloud.g[100])):
            assert R.excluded_arcs(gen1_cloud, g, 0.05) == _excluded_arcs_scalar(gen1_cloud, g, 0.05)
