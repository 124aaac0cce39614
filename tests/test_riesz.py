"""Equal-mass polar cells, surrogate zeros and the log-modulus surrogate.
The cell-mass and centroid oracles run independent adaptive quadrature
through the profile's pointwise Laplacian."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from discgrowth import riesz as R
from discgrowth._accel import kernel_sums
from discgrowth.numerics import LogGap, NumericsError, integrate
from discgrowth.profiles import RadialProfile
from discgrowth.scaffold import ScaffoldParams, build_scaffold
from discgrowth.serialize import dumps17, format17_lines


@pytest.fixture(scope="module")
def small_profile(small_scaffold):
    return RadialProfile(small_scaffold)


@pytest.fixture(scope="module")
def gen1_partition(small_profile):
    return R.partition_region(small_profile, 1, g_max=25.0, ceiling=100_000)


@pytest.fixture(scope="module")
def gen1_cloud(gen1_partition, small_profile):
    return R.atomize(gen1_partition, small_profile)


@pytest.fixture(scope="module")
def wide_partition(wide_scaffold):
    prof = RadialProfile(wide_scaffold)
    return R.partition_region(prof, 1, g_max=25.0, ceiling=200_000), prof


@pytest.fixture(scope="module")
def wide_cloud(wide_partition):
    """Generation 1 of the wide scaffold: 127k atoms."""
    part, prof = wide_partition
    return R.atomize(part, prof), prof


_A, _HAT, _STAR, _DPRIME, _REMAINDER = map(R.KINDS.index, ("A", "A-hat", "A-star", "A-dprime", "remainder"))


def ring_edges(cells):
    """Per cell: the log-gaps g_lo, g_hi of its ring."""
    return cells.rings.g_lo[cells.ring], cells.rings.g_hi[cells.ring]


def quad_mass(profile, cells, i):
    """The mass of cell i by quadrature of the Laplacian over its radii."""
    def integrand(r):
        lap = profile.eval(-math.log1p(-r)).laplacian.to_float()
        return lap * r

    k = cells.ring[i]
    r_lo, r_hi = -math.expm1(-cells.rings.g_lo[k]), -math.expm1(-cells.rings.g_hi[k])
    inner = integrate(integrand, r_lo, r_hi, rel_tol=1e-10)
    return inner * (cells.theta_hi[i] - cells.theta_lo[i]) / (2.0 * math.pi)


def _next_outer_ring(g_k: float, p_eff: float) -> float:
    """Next equal-mass ring boundary for the outer-approach density
    p_eff/(1-r)^2, as the partition steps it: m = floor(1/(1-r_k)) sectors of
    mass 2."""
    density = R._BranchDensity(1, p_eff, p_eff, 0.0, 0.0)
    return density.next_ring_g(g_k, 2.0 * R._sector_count(g_k))


class TestNextRingRadius:
    def test_closed_form_example(self):
        # r_k = 0.9, p_eff = 4: m = 10, c = 0.5 -> r_{k+1} = 1.4/1.5
        nxt = LogGap(_next_outer_ring(LogGap.from_r(0.9).g, 4.0))
        assert nxt.r == pytest.approx(0.9333333333333333, rel=1e-13)

    def test_mass_recomputed_exact(self):
        g0 = LogGap.from_r(0.9)
        p_eff = 4.0
        g1 = LogGap(_next_outer_ring(g0.g, p_eff))
        m = math.floor(1.0 / (1.0 - g0.r))
        mass = (
            p_eff
            * (g1.r - g0.r)
            / (m * (1.0 - g0.r) * (1.0 - g1.r))
        )
        assert mass == pytest.approx(2.0, rel=1e-12)

    def test_gap_ratio_approaches_two_over_p(self):
        p2 = 3.0
        g = 12.0
        for _ in range(30):
            g = _next_outer_ring(g, p2)
        nxt = _next_outer_ring(g, p2)
        ratio = (math.exp(-g) - math.exp(-nxt)) / math.exp(-nxt)
        assert ratio == pytest.approx(2.0 / p2, rel=1e-6)


class TestPartition:
    def test_regions_complete_for_small_scaffold(self, gen1_partition):
        assert not any(gen1_partition.truncated.values())
        kinds = {R.KINDS[k] for k in gen1_partition.cells.kind.tolist()}
        assert {"A", "A-star", "A-dprime", "remainder"} <= kinds

    def test_regular_cells_carry_mass_two(self, gen1_partition):
        cells = gen1_partition.cells
        assert np.all(np.abs(cells.mass[cells.kind != _REMAINDER] - 2.0) <= 1e-12)

    def test_remainder_masses_in_range(self, gen1_partition):
        cells = gen1_partition.cells
        rem = cells.mass[cells.kind == _REMAINDER]
        assert len(rem)
        assert np.all((2.0 <= rem) & (rem < 4.0))

    def test_angular_count_is_integer_part(self, gen1_partition):
        cells = gen1_partition.cells
        g_lo = ring_edges(cells)[0]
        full_rings = 0
        for g in np.unique(g_lo[cells.kind == _A]).tolist():
            on = np.flatnonzero((cells.kind == _A) & (g_lo == g))
            m = math.floor(math.exp(g))
            width = cells.theta_hi[on[0]] - cells.theta_lo[on[0]]
            if abs(width - 2.0 * math.pi / m) < 1e-9:  # leftover rings re-split
                assert len(on) == m
                full_rings += 1
        assert full_rings >= 4

    def test_quadrature_mass_oracle_50_random_cells(self, gen1_partition, small_profile):
        cells = gen1_partition.cells
        rng = np.random.default_rng(42)
        idx = rng.choice(len(cells), size=50, replace=False)
        for i in idx:
            assert quad_mass(small_profile, cells, i) == pytest.approx(cells.mass[i], abs=1e-6)

    def test_side_comparability(self, gen1_partition):
        # regular rings stay within the geometric constant pi (p_eff + 2);
        # leftover rings and the innermost integer-part region cost a factor.
        # The side ratio is max/min of (angular width, radial width): radii
        # near 1, so the arc length is the plain angle
        cells = gen1_partition.cells
        g_lo, g_hi = ring_edges(cells)
        dr, dth = np.exp(-g_lo) - np.exp(-g_hi), cells.theta_hi - cells.theta_lo
        ratios = np.maximum(dth, dr) / np.minimum(dth, dr)
        assert max(ratios) <= 32.0 * math.pi
        deep_regular = ratios[(g_lo >= 2.0) & np.isin(cells.kind, [_STAR, _DPRIME])]
        assert len(deep_regular) and max(deep_regular) <= 8.0 * math.pi

    def test_ceiling_truncates_with_report(self, small_profile):
        part = R.partition_region(small_profile, 1, g_max=25.0, ceiling=500)
        assert any(part.truncated.values())
        assert len(part.cells) <= 500

    def test_g_max_truncates(self, small_profile):
        part = R.partition_region(small_profile, 1, g_max=2.0, ceiling=100_000)
        assert part.truncated["A"]
        assert np.all(ring_edges(part.cells)[1][part.cells.kind == _A] <= 2.5)

    def test_bad_generation(self, small_profile):
        with pytest.raises(R.PartitionError):
            R.partition_region(small_profile, 7)

    @pytest.mark.parametrize("g_max", [math.nan, math.inf, -math.inf])
    def test_g_max_must_be_finite(self, small_profile, g_max):
        with pytest.raises(R.PartitionError, match="g_max must be finite"):
            R.partition_region(small_profile, 1, g_max=g_max, ceiling=100_000)

    @pytest.mark.parametrize("ceiling", [0, -3])
    def test_ceiling_must_be_positive(self, small_profile, ceiling):
        with pytest.raises(R.PartitionError, match="ceiling must be >= 1"):
            R.partition_region(small_profile, 1, ceiling=ceiling)

    def test_hat_region_present_when_p_exceeds_p2(self, wide_scaffold):
        prof = RadialProfile(wide_scaffold)
        part = R.partition_region(prof, 1, g_max=25.0, ceiling=100_000)
        hat = np.flatnonzero(part.cells.kind == _HAT)
        assert len(hat)
        for i in hat[:10]:
            assert quad_mass(prof, part.cells, i) == pytest.approx(part.cells.mass[i], abs=1e-6)


class TestAtomize:
    def test_counts_and_mass_accounting(self, gen1_partition, gen1_cloud):
        heavy = np.count_nonzero(gen1_partition.cells.mass >= 3.0)
        assert len(gen1_cloud) == len(gen1_partition.cells) + heavy
        assert np.sum(gen1_cloud.mult) == 2 * len(gen1_cloud)

    def test_empty_partition(self, gen1_partition, small_profile):
        part = R.PartitionResult(cells=gen1_partition.cells[:0], truncated={})
        cloud = R.atomize(part, small_profile)
        assert len(cloud) == 0

    def test_single_cell_single_double_zero(self, gen1_partition, small_profile):
        cells = gen1_partition.cells
        one = R.PartitionResult(cells=cells[cells.kind != _REMAINDER][5:6], truncated={})
        cloud = R.atomize(one, small_profile)
        assert len(cloud) == 1
        assert cloud.mult[0] == 2

    def test_split_doubles_flag(self, gen1_partition, small_profile):
        cells = gen1_partition.cells
        one = R.PartitionResult(cells=cells[cells.kind != _REMAINDER][5:6], truncated={})
        cloud = R.atomize(one, small_profile, split_doubles=True)
        assert len(cloud) == 2
        assert all(m == 1 for m in cloud.mult)

    def test_centroid_against_quadrature(self, gen1_partition, small_profile):
        # density ~ (1-r)^-2 on the outer-approach cells
        cells = gen1_partition.cells
        g_lo, g_hi = ring_edges(cells)
        i = np.flatnonzero((cells.kind == _A) & (g_lo > 1.0))[0]
        den = R._density_for(small_profile, 0, 1)
        got = R._cell_centroid(den, float(g_lo[i]), float(g_hi[i]))
        r_lo, r_hi = -math.expm1(-g_lo[i]), -math.expm1(-g_hi[i])
        num = integrate(lambda r: (1 - r) * den.rho(r), r_lo, r_hi, rel_tol=1e-12)
        mass = integrate(lambda r: den.rho(r), r_lo, r_hi, rel_tol=1e-12)
        assert got == pytest.approx(-math.log(num / mass), rel=1e-8)

    def test_atom_inside_cell(self, gen1_cloud):
        cells, g, t = gen1_cloud.cells, gen1_cloud.g, gen1_cloud.theta
        g_lo, g_hi = ring_edges(cells)
        assert np.all((g_lo <= g) & (g <= g_hi))
        assert np.all((cells.theta_lo <= t) & (t <= cells.theta_hi))

    def test_jsonl_schema(self, gen1_cloud):
        import json

        lines = "".join(gen1_cloud.to_jsonl()).strip().split("\n")
        assert len(lines) == len(gen1_cloud)
        doc = json.loads(lines[0])
        assert set(doc) == {"g", "theta", "mult", "cell_kind"}


class TestSurrogate:
    def test_no_atoms_returns_phi(self, small_profile):
        cloud = R.ZeroCloud(np.array([]), np.array([]), np.array([]), [])
        v = R.eval_log_surrogate_many(cloud, small_profile, [(LogGap(2.0), 0.7)])[0]
        assert v == small_profile.phi(2.0)

    def test_cloud_without_cells_is_refused(self, small_profile):
        cloud = R.ZeroCloud(np.array([2.0]), np.array([0.5]), np.array([2.0]), ["A"])
        with pytest.raises(R.PartitionError, match="needs the cloud's cells and nodes"):
            R.eval_log_surrogate_many(cloud, small_profile, [(LogGap(2.0), 0.7)])

    def test_on_atom_sentinel(self, gen1_cloud, gen1_partition, small_profile, wide_cloud):
        # a sample on an atom has that atom in its near field, where the
        # kernel's log 0 makes the sum -inf with no NaN; off-atom samples
        # batched among them keep their solo values bit for bit.  Batches of
        # at most 2000 on-atom samples bound the pair arrays.
        split = R.atomize(gen1_partition, small_profile, split_doubles=True)
        wide, wide_profile = wide_cloud
        rng = np.random.default_rng(23)
        for cloud, prof, atoms in (
            (gen1_cloud, small_profile, np.arange(len(gen1_cloud))),
            (split, small_profile, np.arange(len(split))),
            (wide, wide_profile, rng.choice(len(wide), 2000, replace=False)),
        ):
            for chunk in np.array_split(atoms, range(2000, len(atoms), 2000)):
                on = [(LogGap(float(cloud.g[a])), float(cloud.theta[a])) for a in chunk]
                off = [(LogGap(float(g)), float(t))
                       for g, t in zip(rng.uniform(0.0, float(np.max(cloud.g)), 8), rng.uniform(0.0, 6.3, 8))]
                off += [(g, t + 1e-9) for g, t in on[:4]]
                where = np.sort(rng.choice(len(on) + len(off), len(off), replace=False))
                zs = list(on)
                for k, z in zip(where, off):
                    zs.insert(k, z)
                got = R.eval_log_surrogate_many(cloud, prof, zs)
                is_off = np.zeros(len(zs), dtype=bool)
                is_off[where] = True
                assert np.all(got[~is_off] == -math.inf)
                solo = [R.eval_log_surrogate_many(cloud, prof, [z])[0] for z in off]
                assert np.all(np.isfinite(solo)) and np.array_equal(got[is_off], solo)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angles(self, gen1_cloud, small_profile, theta):
        empty = R.ZeroCloud(np.array([]), np.array([]), np.array([]), [])
        for cloud in (gen1_cloud, empty):
            with pytest.raises(NumericsError, match="finite sample angles"):
                R.eval_log_surrogate_many(cloud, small_profile, [(LogGap(2.0), 0.5), (LogGap(3.0), theta)])

    @pytest.mark.parametrize("which", ["small", "wide"])
    def test_angle_enters_mod_two_pi(self, gen1_cloud, small_profile, wide_cloud, which):
        # theta + 2 pi k is the point at np.mod(theta + 2 pi k, 2 pi), and
        # gives its value bit for bit, near-field pairs and ring sums alike
        cloud, prof = (gen1_cloud, small_profile) if which == "small" else wide_cloud
        rng = np.random.default_rng(29)
        gs = rng.uniform(0.0, float(np.max(cloud.g)) + 0.3, 300)
        thetas = rng.uniform(0.0, 2.0 * math.pi, 300)
        for k in (1, -1, 3):
            moved = thetas + 2.0 * math.pi * k
            got = R.eval_log_surrogate_many(cloud, prof, [(LogGap(g), t) for g, t in zip(gs, moved)])
            reduced = np.mod(moved, 2.0 * math.pi)
            want = R.eval_log_surrogate_many(cloud, prof, [(LogGap(g), t) for g, t in zip(gs, reduced)])
            assert np.array_equal(got, want)

    def test_on_atom_a_turn_away(self, gen1_cloud, small_profile):
        # np.mod gives back atom 3000's theta from theta -+ 2 pi; at atom
        # 5900, theta + 2 pi rounds to another angle mod 2 pi
        def value(a, shift):
            z = (LogGap(float(gen1_cloud.g[a])), float(gen1_cloud.theta[a]) + shift)
            return R.eval_log_surrogate_many(gen1_cloud, small_profile, [z])[0]

        for shift in (2.0 * math.pi, -2.0 * math.pi):
            assert value(3000, shift) == -math.inf
        assert value(5900, -2.0 * math.pi) == -math.inf
        assert np.mod(gen1_cloud.theta[5900] + 2.0 * math.pi, 2.0 * math.pi) != gen1_cloud.theta[5900]
        assert math.isfinite(value(5900, 2.0 * math.pi))

    def test_on_an_atom_stored_a_turn_away(self, gen1_cloud, small_profile):
        # atom 3000 stored at theta + 2 pi is the same point: the source
        # table keeps its theta mod 2 pi, so both angles hit it
        theta = gen1_cloud.theta.copy()
        old = float(theta[3000])
        theta[3000] += 2.0 * math.pi
        moved = R.ZeroCloud(gen1_cloud.g, theta, gen1_cloud.mult, gen1_cloud.kind, gen1_cloud.cells, gen1_cloud.nodes)
        g = LogGap(float(gen1_cloud.g[3000]))
        got = R.eval_log_surrogate_many(moved, small_profile, [(g, old), (g, float(theta[3000]))])
        assert got.tolist() == [-math.inf, -math.inf]

    def test_near_atom_logarithmic_dip(self, gen1_cloud, small_profile):
        g = float(gen1_cloud.g[10])
        t = float(gen1_cloud.theta[10])
        gap = math.exp(-g)
        vals = [
            R.eval_log_surrogate_many(gen1_cloud, small_profile, [(LogGap(g), t + s * gap)])[0]
            for s in (1e-3, 1e-6)
        ]
        assert vals[1] < vals[0] - 10.0  # ~ 2 log of the approach factor

    def test_far_field_bound(self, small_profile, gen1_partition):
        # atoms far out, sample near the origin: the atom-only correction obeys
        # |corr| <= 4 mult-sum of (1-|zeta|)/(1-|z|)
        cells = gen1_partition.cells
        far_cells = cells[cells.rings.g_lo[cells.ring] >= 5.0][:500]
        part = R.PartitionResult(cells=far_cells, truncated={})
        cloud = R.atomize(part, small_profile)
        budget = 4.0 * float(np.sum(cloud.mult * cloud.delta))
        for (g, t) in ((0.2, 0.0), (0.5, 2.1), (0.69, 4.0)):
            corr = kernel_sums(
                np.array([math.exp(-g)]), np.array([t]), cloud.delta, cloud.theta, cloud.mult.astype(float)
            )[0]
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
    def test_one_ring_table_for_the_partition_and_its_cloud(self, wide_partition):
        # the wide cloud's 126,749 cells sit in 15 rings; each cell keeps only
        # its ring's index, and slices, masks and the cloud share the table
        part, prof = wide_partition
        cells, rings = part.cells, part.cells.rings
        assert len(rings.g_lo) == len(rings.g_hi) == len(rings.branch) == 15
        assert rings.generation == 1
        assert np.all(np.diff(cells.ring) >= 0) and np.unique(cells.ring).tolist() == list(range(15))
        assert np.all(rings.g_lo < rings.g_hi)
        assert cells[10:20].rings is rings and cells[cells.kind == 0].rings is rings
        cloud = R.atomize(part, prof, split_doubles=True)
        assert cloud.cells.rings is rings and cloud.nodes.shape == (9, 15)

    def test_jsonl_rejects_non_finite_like_dumps17(self, small_profile):
        for bad_g, bad_theta, shown in ((math.nan, 0.5, "nan"), (1.0, math.inf, "inf")):
            cloud = R.ZeroCloud(
                np.array([1.0, bad_g]), np.array([0.5, bad_theta]), np.array([2.0, 2.0]),
                ["A", "A"],
            )
            with pytest.raises(ValueError, match=f"non-finite float {shown}"):
                cloud.to_jsonl()


def _jsonl_rows(cloud):
    """The cloud's text as one dumps17 record per atom."""
    return "".join(
        dumps17({"cell_kind": k, "g": float(g), "mult": int(m), "theta": float(t)}) + "\n"
        for k, g, m, t in zip(cloud.kind, cloud.g, cloud.mult, cloud.theta)
    )


class TestJsonlRuns:
    """to_jsonl formats one row prefix per run of equal (kind, g, mult); the
    text must equal the per-atom dumps17 rows wherever a run breaks."""

    def test_hand_built_run_boundaries(self):
        rows = [
            ("A", 1.5, 2.0, 0.1), ("A", 1.5, 2.0, 0.2),
            ("remainder", 1.5, 2.0, 0.3),  # kind changes at equal g
            ("remainder", 1.5, 1.0, 0.4), ("remainder", 1.5, 2.0, 0.5),  # mult 2 -> 1 -> 2
            ("remainder", 1.75, 2.0, 0.6),  # g changes at equal kind
            ("A", 1.5, 2.0, 0.7),  # back to an earlier prefix: a new run
            ("50%", 0.0, 2.0, -0.0), ("50%", -0.0, 2.0, 1e-300),  # '%' in kind, signed zeros
        ]
        kind, g, mult, theta = zip(*rows)
        cloud = R.ZeroCloud(np.array(g), np.array(theta), np.array(mult), list(kind))
        text = "".join(cloud.to_jsonl())
        assert text == _jsonl_rows(cloud)
        assert '"g":-0,' in text and '"theta":-0}' in text

    @staticmethod
    def _runs_cloud(runs):
        """A hand-built cloud of runs (kind, g, mult, length), random thetas."""
        kind = [k for k, _, _, n in runs for _ in range(n)]
        g = np.concatenate([np.full(n, g) for _, g, _, n in runs])
        mult = np.concatenate([np.full(n, m) for _, _, m, n in runs])
        theta = np.random.default_rng(len(g)).uniform(-1.0, 7.0, len(g))
        return R.ZeroCloud(g, theta, mult, kind)

    @pytest.mark.parametrize("n", [R._JSONL_CHUNK - 1, R._JSONL_CHUNK, R._JSONL_CHUNK + 1,
                                   2 * R._JSONL_CHUNK + 1])
    def test_run_lengths_around_the_chunk(self, n):
        cloud = self._runs_cloud([("A", 4.25, 2.0, n)])
        assert "".join(cloud.to_jsonl()) == _jsonl_rows(cloud)

    def test_prefix_breaks_on_chunk_boundaries(self):
        c = R._JSONL_CHUNK
        cloud = self._runs_cloud([("A", 4.25, 2.0, c), ("A", 4.5, 2.0, 2 * c), ("remainder", 4.5, 2.0, 1)])
        assert "".join(cloud.to_jsonl()) == _jsonl_rows(cloud)

    def test_percent_in_kind_across_chunks(self):
        c = R._JSONL_CHUNK
        cloud = self._runs_cloud([("A", 1.5, 1.0, 3), ("50%d%%", 2.5, 2.0, 2 * c + 5), ("A", 1.5, 1.0, 2)])
        text = "".join(cloud.to_jsonl())
        assert text == _jsonl_rows(cloud)
        assert text.count('"cell_kind":"50%d%%"') == 2 * c + 5

    def test_blocks_of_the_chunk(self):
        # one string per block of _JSONL_CHUNK rows, the last one shorter
        c = R._JSONL_CHUNK
        cloud = self._runs_cloud([("A", 4.25, 2.0, c + 3), ("remainder", 4.5, 1.0, c)])
        blocks = cloud.to_jsonl()
        assert iter(blocks) is blocks
        blocks = list(blocks)
        assert [b.count("\n") for b in blocks] == [c, c, 3]
        assert "".join(blocks) == _jsonl_rows(cloud)

    def test_empty_cloud(self):
        cloud = R.ZeroCloud(np.array([]), np.array([]), np.array([]), [])
        assert list(cloud.to_jsonl()) == [] and _jsonl_rows(cloud) == ""

    @pytest.mark.parametrize("split", [False, True])
    def test_gen1_cloud_matches_rows_and_round_trips(self, gen1_partition, small_profile, split):
        import json

        cloud = R.atomize(gen1_partition, small_profile, split_doubles=split)
        text = "".join(cloud.to_jsonl())
        assert text == _jsonl_rows(cloud)
        docs = [json.loads(line) for line in text.splitlines()]
        g = np.array([d["g"] for d in docs])
        theta = np.array([d["theta"] for d in docs])
        assert g.tobytes() == np.asarray(cloud.g, dtype=float).tobytes()
        assert theta.tobytes() == np.asarray(cloud.theta, dtype=float).tobytes()
        assert [d["cell_kind"] for d in docs] == list(cloud.kind)
        assert [d["mult"] for d in docs] == np.asarray(cloud.mult).astype(int).tolist()


@pytest.mark.parametrize("name", ["small", "mid", "wide"])
def test_theta_kernel_matches_percent_on_every_cloud(name, small_scaffold, wide_scaffold):
    """format17_lines formats every theta of the small, mid and wide clouds,
    generations 1 and 2, plain and split, as %.17g does."""
    scaffold = {"small": small_scaffold, "wide": wide_scaffold}.get(name) or build_scaffold(
        ScaffoldParams.with_defaults(k=1, p1=2.0, p2=3.0, p=3.0, log_c=3.5, g1=3.5), 2)
    prof = RadialProfile(scaffold)
    for generation in (1, 2):
        part = R.partition_region(prof, generation, g_max=25.0, ceiling=200_000)
        for split in (False, True):
            theta = np.asarray(R.atomize(part, prof, split_doubles=split).theta, dtype=float)
            assert len(theta) > 5000
            assert format17_lines(theta)[0] == "".join("%.17g\n" % t for t in theta.tolist())


def _direct_sum(cloud, profile, zs):
    """The surrogate as a direct sum: scalar phi plus the kernel sum over every
    source of the cloud (all atoms, then all their cell nodes)."""
    atoms = (cloud.delta, cloud.theta, cloud.mult)
    sources = [np.concatenate(cols) for cols in zip(atoms, R._cell_nodes(cloud))]
    return [
        profile.phi(g.g) + kernel_sums(np.array([math.exp(-g.g)]), np.array([t]), *sources)[0]
        for g, t in zs
    ]


def _nodes_digest(cloud):
    return hashlib.sha256(b"".join(col.tobytes() for col in R._cell_nodes(cloud))).hexdigest()


class TestPinnedValues:
    """The cell nodes are pinned bit for bit by the sha256 of their
    (delta, theta, weight) bytes, recorded at commit 8d59609 (the 17 N source
    triple built once per cloud).  The direct sums over every source and the
    values of eval_log_surrogate_many (closed-form lattice rings, the near
    field at split-ring seams) are pinned beside them; the two differ by at
    most 1.3e-6 here.  Neither sum calls BLAS, so the values do not depend
    on its thread count."""

    def test_surrogate_values(self, gen1_cloud, small_profile):
        assert _nodes_digest(gen1_cloud) == "3c7fa41c7006074cf9ab3ce0ab55ec19e40ad057d1d19c305d5842f904885ac5"
        zs = [(LogGap(1.0), 0.3), (LogGap(3.5), 2.0), (LogGap(6.15), 1.0), (LogGap(8.0), 5.0)]
        direct = _direct_sum(gen1_cloud, small_profile, zs)
        assert [v.hex() for v in direct] == ["0x1.e0455c12d7426p+3", "0x1.33942de12a137p+4",
                                             "0x1.9c4c91dcccfb3p+3", "0x1.03662bc3253d4p+5"]
        got = R.eval_log_surrogate_many(gen1_cloud, small_profile, zs)
        assert [v.hex() for v in got.tolist()] == ["0x1.e0455c0efb6b8p+3", "0x1.33942de1268b3p+4",
                                                   "0x1.9c4c91dccbcc0p+3", "0x1.03662bc325373p+5"]

    def test_hat_region_cloud_and_surrogate(self):
        # p > p2 opens the A-hat region; the ceiling stops inside A-dprime
        params = ScaffoldParams.with_defaults(k=1, p1=2.0, p2=3.0, p=3.5, log_c=3.2, g1=3.0)
        prof = RadialProfile(build_scaffold(params, 2))
        part = R.partition_region(prof, 1, g_max=25.0, ceiling=3000)
        assert len(part.cells) == 2177
        assert part.total_mass.hex() == (4356.9362555897505).hex()
        cloud = R.atomize(part, prof, split_doubles=True)
        digest = hashlib.sha256("".join(cloud.to_jsonl()).encode()).hexdigest()
        assert digest == "f63e024ca262afb9840dbddebdc386068ac9f48950e7bb8d7ca53e34719f3a3a"
        assert _nodes_digest(cloud) == "2d59ef9fd74fd0d1f7fa97720efe1a53a413e878dd340920bf82836dd6eb65cc"
        zs = [(LogGap(6.3), 0.5), (LogGap(2.0), 4.0)]
        direct = _direct_sum(cloud, prof, zs)
        assert [v.hex() for v in direct] == ["0x1.596b141685cdbp+4", "0x1.d90f88e561303p+3"]
        got = R.eval_log_surrogate_many(cloud, prof, zs)
        assert [v.hex() for v in got.tolist()] == ["0x1.596b12bba2c83p+4", "0x1.d90f88e1193cep+3"]

    # sha256 of the cell nodes of the 127k-atom cloud, plain and split_doubles,
    # and of the generation-2 cloud of the small scaffold, recorded at commit
    # a9a7c55 (ring values found by runs of equal per-cell ring columns)
    @pytest.mark.parametrize("scaffold,generation,split,digest", [
        ("wide", 1, False, "c5c721a4447812d1cbca49750bdff971f408319c8a7c8522c836fee2f51de09e"),
        ("wide", 1, True, "c917dfb1900111c0fa62d77662ee8abd4023f2f393b8e9774e4e71d61af87d6a"),
        ("small", 2, False, "0f31e24f46978c77a79aef0884fc0297a549417a22c0f4bd5fcef4dff13dc99f"),
    ])
    def test_cell_nodes_pinned(self, wide_partition, small_profile, scaffold, generation, split, digest):
        if scaffold == "wide":
            part, prof = wide_partition
        else:
            prof = small_profile
            part = R.partition_region(prof, generation, g_max=25.0, ceiling=200_000)
        assert _nodes_digest(R.atomize(part, prof, split_doubles=split)) == digest

    # sha256 and length of the 127k-atom cloud text, plain and split_doubles,
    # recorded at commit 947e291 (one format of the whole row per atom)
    @pytest.mark.parametrize("split,atoms,chars,digest", [
        (False, 126_749, 10_527_289, "f19d82258ea9f8900f3afbdd5c6c6b3ba1b36868a78a52e7836e22cc10d8c647"),
        (True, 253_498, 21_054_600, "85edc9b5c25139b9a19f246a2f036385117eff78dbcbdfeeab90f64b8f5a9e72"),
    ])
    def test_wide_cloud_bytes(self, wide_partition, split, atoms, chars, digest):
        part, prof = wide_partition
        cloud = R.atomize(part, prof, split_doubles=split)
        text = "".join(cloud.to_jsonl())
        assert (len(cloud), len(text)) == (atoms, chars)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # sha256 of the dtype and bytes of every atom column and cell-piece
    # column, and the hex of the partition's total mass, recorded at commit
    # 84cdd91 (every column gathered through per-piece index arrays); the
    # mass column pins the m w / w rounding of whole cells
    @pytest.mark.parametrize("name,split,total_mass,digests", [
        ("small", False, "0x1.72a5df9e9a2bep+13", {
            "g": "fd1dacfcec88e138889e7da4a5495533fe9b8fbf19a17a00fed216299c2dc64d",
            "theta": "0a225a5bb1650b1e6494e7a35297327f2323e052f8c276ed513f4fd032b56f9c",
            "mult": "4a82d03f39b89250d54ac24e5ce92a5e932860a688a4edc68adbd151b71c6892",
            "ring": "567b15b8e03ee0201ae8f625eff5b0923b42aa2cc3171531961cebd99ac84c4d",
            "theta_lo": "73c2d8c648fbde6094b868af4cf583253e5aebc94fe1925d20494a446c315d12",
            "theta_hi": "ffeaff2d98fa67f8597243525df976e3d9c8689847723aaec3a0f503c2e32da3",
            "mass": "67c5d270f08c3796f4935326aa3d1ef817eceeb5b12d8e796f1eae3a57312cf5",
            "kind": "5ae5d88ff80a8db00f62f5a714dd988901eb4e82aee6daba84ad00a4651e496d",
        }),
        ("wide", False, "0x1.ef1cd1ea38a20p+17", {
            "g": "be81e54e74a73d1dad8ea4d8518b2e6419c992ea051329d9c5a936cb96954135",
            "theta": "fae24b9d54062321ef47cdb6f47e1a930bf1bfa49e7a5d75598e8abf75e3e0ac",
            "mult": "e598533b7d6a7580994439c1f034cf87a68b610a696bd7ababa39f7ff4b64203",
            "ring": "2893f62648e42a2643d497369ea1161284c69c1396c71b10dc84663c244e92cd",
            "theta_lo": "f0637227550990e244fb8efbe68b4d87639bf6fb475125751c1c9660a447a0ad",
            "theta_hi": "01ba797acf40d63f5bc4c98a196e56176072bce72e2e4e4cde6c36182f697f24",
            "mass": "5bf60d956040bd57af9acba28105e9adfb3f13b80164d36c7600cfe276a3fc81",
            "kind": "c22e9d7fca6fd572786b929a2986021e7d02a91891e9908a697d4c61c39e2244",
        }),
        ("small", True, "0x1.72a5df9e9a2bep+13", {
            "g": "63f92e65e560b7a7a75cc2dc5c5d023f14b7270b207a0cc8ffb4a72bb603fc2e",
            "theta": "c4625348e046c6f42ced10d51c823c35018719c1ca455ed15e1dbc00a31245a1",
            "mult": "693ccd61781a6c17e8c8abfae776e3a98c9d29c759f14ee359a13e642234ccdc",
            "ring": "8c8bc4a45f4c5dd1b12c63a1b8fec98db4d041729d4adea3accb753c2654902b",
            "theta_lo": "aeb707a646a4e98c9deee02b4173605bf039ffea28fc0fc7ce6cfd1a283d624c",
            "theta_hi": "09a68cf3d1c57c1cae49501d118ecf6f0f1f09e01c193645cb754b992c13d693",
            "mass": "f8b98d90e58b2c3253c2500caf4953fb1a5d051b1e0154a31e2858be163e3b0b",
            "kind": "85358f1463a726e58395f021038f51ca194b32843c86c72cf80a724d3f5a2398",
        }),
    ])
    def test_atom_columns_pinned(self, gen1_partition, small_profile, wide_partition, name, split,
                                 total_mass, digests):
        part, prof = wide_partition if name == "wide" else (gen1_partition, small_profile)
        cloud = R.atomize(part, prof, split_doubles=split)
        columns = {col: getattr(cloud, col) for col in ("g", "theta", "mult")}
        columns.update((col, getattr(cloud.cells, col)) for col in ("ring", "theta_lo", "theta_hi", "mass", "kind"))
        got = {col: hashlib.sha256(a.dtype.str.encode() + a.tobytes()).hexdigest() for col, a in columns.items()}
        assert got == digests
        assert part.total_mass.hex() == total_mass


def _near_atoms_loop(cloud, delta, theta):
    """The near-field rule atom by atom: keep an atom when its ring (its
    cell's g_lo, g_hi) lies within 64 s of the point, s = max(radial extent,
    widest cell width on the ring x r_lo), and its angle lies within
    sqrt((64 s)^2 - dr^2) / r_lo of theta, or that window reaches pi."""
    edges = list(zip(*(e.tolist() for e in ring_edges(cloud.cells))))
    widths = (cloud.cells.theta_hi - cloud.cells.theta_lo).tolist()
    widest = {}
    for key, width in zip(edges, widths):
        widest[key] = max(widest.get(key, 0.0), width)
    r = 1.0 - delta
    kept = []
    for i, (g_lo, g_hi) in enumerate(edges):
        r_lo, r_hi = -math.expm1(-g_lo), -math.expm1(-g_hi)
        s = max(math.exp(-g_lo) - math.exp(-g_hi), widest[(g_lo, g_hi)] * r_lo)
        reach = 64.0 * s
        dr = max(r_lo - r, r - r_hi, 0.0)
        if dr > reach:
            continue
        span = math.sqrt(reach * reach - dr * dr)
        off = abs((float(cloud.theta[i]) - theta + math.pi) % (2.0 * math.pi) - math.pi)
        if span >= math.pi * r_lo or off <= span / r_lo:
            kept.append(i)
    return kept


class TestNearField:
    def test_agrees_with_direct_sum(self, gen1_cloud, small_profile, wide_cloud):
        rng = np.random.default_rng(11)
        for (cloud, prof), m in (((gen1_cloud, small_profile), 64), (wide_cloud, 8)):
            g_top = float(np.max(cloud.g)) + 0.3
            zs = [(LogGap(float(g)), float(t))
                  for g, t in zip(rng.uniform(0.0, g_top, m), rng.uniform(0.0, 2.0 * math.pi, m))]
            got = R.eval_log_surrogate_many(cloud, prof, zs)
            assert np.max(np.abs(got - _direct_sum(cloud, prof, zs))) <= 2e-4

    @pytest.mark.parametrize("g", [0.1, 2.2, 6.0, 7.9])
    def test_window_matches_the_per_atom_rule(self, gen1_cloud, small_profile, g):
        # the ring index gives the same atoms as the rule applied atom by atom,
        # also for windows across theta = 0 and angles outside [0, 2 pi)
        src = gen1_cloud.sources
        delta = math.exp(-g)
        for theta in (1e-12, 0.02, 2.0, 2.0 * math.pi - 0.02, -0.3, 2.0 * math.pi + 0.3):
            want = _near_atoms_loop(gen1_cloud, delta, theta)
            windows = R._near_windows(src, np.array([delta]), np.array([theta]))
            atoms, count = src.index.window(src.run, *windows)
            assert want and sorted(atoms.tolist()) == want and count.tolist() == [len(want)]

    def test_shuffled_rings_give_the_same_values(self, gen1_cloud, small_profile):
        # a positional cloud with each ring's atoms out of theta order
        rng = np.random.default_rng(5)
        order = np.lexsort((rng.random(len(gen1_cloud)), gen1_cloud.cells.ring))
        shuffled = R.ZeroCloud(
            gen1_cloud.g[order], gen1_cloud.theta[order], gen1_cloud.mult[order],
            gen1_cloud.kind[order], gen1_cloud.cells[order], gen1_cloud.nodes,
        )
        zs = [(LogGap(g), t) for g, t in ((1.0, 0.3), (3.5, 2.0), (6.15, 1.0), (8.0, 6.2))]
        assert np.array_equal(
            R.eval_log_surrogate_many(shuffled, small_profile, zs),
            R.eval_log_surrogate_many(gen1_cloud, small_profile, zs),
        )

    @pytest.mark.parametrize("ring,message", [(1, "ring [01] of the cell table"), (2, "ring 2 of the cell table")])
    def test_a_ring_that_is_not_one_run_is_an_error(self, gen1_cloud, small_profile, ring, message):
        # the surrogate reads each ring of the cell table as one run of the
        # ring index: ring 1 given ring 0's g, or half of ring 2 one ulp off
        g, of = gen1_cloud.g.copy(), gen1_cloud.cells.ring
        if ring == 1:
            g[of == 1] = g[of == 0][0]
        else:
            half = np.flatnonzero(of == 2)[::2]
            g[half] = np.nextafter(g[half], math.inf)
        cloud = R.ZeroCloud(g, gen1_cloud.theta, gen1_cloud.mult, gen1_cloud.kind, gen1_cloud.cells, gen1_cloud.nodes)
        with pytest.raises(R.PartitionError, match=message):
            R.eval_log_surrogate_many(cloud, small_profile, [(LogGap(2.0), 0.5)])

    def test_shuffled_rings_do_not_import_numpy_ma(self):
        # the first np.unique of a process imports numpy.ma (tens of ms); the
        # ring index puts the atoms in gap and theta order by argsorts instead
        probe = "\n".join([
            "import sys",
            "import numpy as np",
            "from discgrowth import riesz as R",
            "from discgrowth.numerics import LogGap",
            "from discgrowth.profiles import RadialProfile",
            "from discgrowth.scaffold import ScaffoldParams, build_scaffold",
            "params = ScaffoldParams.with_defaults(k=1, p1=2.0, p2=3.0, p=3.0, log_c=3.2, g1=3.0)",
            "prof = RadialProfile(build_scaffold(params, 2))",
            "c = R.atomize(R.partition_region(prof, 1, g_max=25.0, ceiling=100_000), prof)",
            "rev = slice(None, None, -1)",
            "c = R.ZeroCloud(c.g[rev], c.theta[rev], c.mult[rev], c.kind[rev], c.cells[rev], c.nodes)",
            "R.eval_log_surrogate_many(c, prof, [(LogGap(1.0), 0.3)])",
            "order = c.ring_index.order",
            "assert order.tolist() != list(range(len(c)))",
            "assert order.tolist() != np.argsort(c.delta, kind='stable').tolist()  # a ring's atoms moved",
            "print('numpy.ma' in sys.modules)",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(R.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]

    def test_sources_per_sample_under_two_percent(self, wide_cloud, monkeypatch):
        # a fall-back to the full sum over 17 N sources shows without timing;
        # a (sample, atom) pair of the kernel stands for the atom and its 16
        # cell nodes, 17 sources
        cloud, prof = wide_cloud
        pair_terms, pairs = R._pair_terms, []

        def counting(src, dz, tz, atom):
            pairs.append(len(atom))
            return pair_terms(src, dz, tz, atom)

        monkeypatch.setattr(R, "_pair_terms", counting)
        zs = [(LogGap(float(g)), float(t)) for g, t in zip(np.linspace(0.2, 11.3, 12), np.linspace(0.0, 6.2, 12))]
        R.eval_log_surrogate_many(cloud, prof, zs)
        assert sum(pairs) > 0 and max(pairs) <= R._PAIR_BLOCK
        assert 17 * sum(pairs) < 0.02 * 17 * len(cloud) * len(zs)

    @pytest.mark.parametrize("split", [False, True])
    def test_source_table_keeps_no_atom_column(self, wide_partition, split):
        # the table reads each atom's cell piece, its ring's node values, its
        # gap, angle and multiplicity from the cloud (127k atoms, 253k with
        # split doubles); what it keeps of its own is per ring
        part, prof = wide_partition
        cloud = R.atomize(part, prof, split_doubles=split)
        assert len(cloud.ring_index.order) == len(cloud) > 100_000
        tracemalloc.start()
        try:
            src = cloud.sources
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 64_000
        assert src.cells is cloud.cells and src.nodes is cloud.nodes


class TestBatchedKernel:
    def test_pair_terms_match_the_expanded_nodes(self, gen1_cloud):
        # the kernel reads the compact node parameters; kernel_sums over each
        # atom's 17 expanded sources (the atom, then its 16 nodes) agrees
        src = gen1_cloud.sources
        delta, theta, weight = (col.reshape(-1, 16) for col in R._cell_nodes(gen1_cloud))
        atoms = np.arange(0, len(gen1_cloud), 37)
        for g, t in ((0.4, 1.0), (3.5, 2.0), (6.1, 0.01)):
            dz, tz = np.full(len(atoms), math.exp(-g)), np.full(len(atoms), t)
            got = R._pair_terms(src, dz, tz, atoms)
            for a, v in zip(atoms, got):
                want = kernel_sums(
                    dz[:1], tz[:1], np.append(src.delta[a], delta[a]), np.append(src.theta[a], theta[a]),
                    np.append(src.mult[a], weight[a]),
                )[0]
                assert 0.5 * v == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("block", [7, 500, 4096])
    def test_same_bits_alone_in_a_batch_and_across_blocks(self, gen1_cloud, small_profile, monkeypatch, block):
        rng = np.random.default_rng(3)
        zs = [(LogGap(float(g)), float(t)) for g, t in zip(rng.uniform(0.0, 8.0, 24), rng.uniform(0.0, 6.3, 24))]
        alone = [R.eval_log_surrogate_many(gen1_cloud, small_profile, [z])[0] for z in zs]
        monkeypatch.setattr(R, "_PAIR_BLOCK", block)
        batch = R.eval_log_surrogate_many(gen1_cloud, small_profile, zs)
        assert np.array_equal(batch, alone)
        assert np.array_equal(R.eval_log_surrogate_many(gen1_cloud, small_profile, zs[::-1]), alone[::-1])

    def test_sample_without_near_atoms_returns_phi(self, gen1_partition, small_profile):
        # a cloud of deep cells with theta < 0.5 only: a sample on their
        # rings at theta = 3 sees none of them
        cells = gen1_partition.cells
        deep = cells.rings.g_lo[cells.ring] >= 5.5
        part = R.PartitionResult(cells=cells[deep & (cells.theta_hi <= 0.5)], truncated={})
        cloud = R.atomize(part, small_profile)
        assert len(cloud) > 0
        src = cloud.sources
        empty, near = (LogGap(6.0), 3.0), (LogGap(6.0), 0.25)
        assert len(src.lattice.ring) == 0  # partial rings are no lattice
        for theta, atoms in ((3.0, 0), (0.25, 1)):
            windows = R._near_windows(src, np.array([math.exp(-6.0)]), np.array([theta]))
            found, count = src.index.window(src.run, *windows)
            assert min(len(found), 1) == atoms and count.tolist() == [len(found)]
        got = R.eval_log_surrogate_many(cloud, small_profile, [empty, near, empty])
        assert got[0] == got[2] == small_profile.phi(6.0)
        assert got[1] == R.eval_log_surrogate_many(cloud, small_profile, [near])[0] != small_profile.phi(6.0)


class TestExcludedArcs:
    def test_zero_eps_empty(self, gen1_cloud):
        assert R.excluded_arcs(gen1_cloud, 3.0, 0.0) == []
        assert R.excluded_measure(gen1_cloud, 3.0, 0.0) == 0.0

    @pytest.mark.parametrize("eps", [-0.05, -5e-324, math.nan])
    def test_rejects_negative_and_nan_eps(self, gen1_cloud, eps):
        with pytest.raises(NumericsError, match="excluded_arcs needs eps >= 0"):
            R.excluded_arcs(gen1_cloud, 3.0, eps)

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
        cloud = R.ZeroCloud(gs, thetas, np.full(len(gs), 2.0), ["A"] * len(gs))
        want = _excluded_arcs_scalar(cloud, g_circle, eps)
        assert len(want) >= 5
        assert R.excluded_arcs(cloud, g_circle, eps) == want

    def test_cloud_matches_scalar_loop(self, gen1_cloud):
        for g in (1.0, 3.5, float(gen1_cloud.g[100])):
            assert R.excluded_arcs(gen1_cloud, g, 0.05) == _excluded_arcs_scalar(gen1_cloud, g, 0.05)

    def test_split_doubles_cloud_matches_scalar_loop(self, gen1_partition, small_profile):
        cloud = R.atomize(gen1_partition, small_profile, split_doubles=True)
        seen = 0
        for g in (1.0, float(cloud.g[100]), float(cloud.g[-1])):
            for eps in (0.05, 0.3):
                want = _excluded_arcs_scalar(cloud, g, eps)
                assert R.excluded_arcs(cloud, g, eps) == want
                seen += len(want)
        assert seen > 5000

    def test_arcs_split_at_theta_zero_and_merge_when_touching_or_nested(self):
        # atoms just either side of theta = 0 give arcs that wrap, and the
        # pieces merge across 0; at theta = 1 two arcs touch end to start; near
        # theta = 3 a short arc nested in a long one is followed by an arc
        # starting past the short one's end but inside the long one
        g_circle, eps = 3.0, 0.4
        lim = eps * math.exp(-g_circle)
        h = 2.0 * math.asin(lim / (2.0 * -math.expm1(-g_circle)))  # half-width on the circle
        g_off = -math.log(math.exp(-g_circle) + 0.9 * lim)
        gs = np.array([g_circle] * 7 + [g_off] * 2)
        thetas = np.array([0.0, 1e-4, 2.0 * math.pi - 1e-4, 2.0 * math.pi - 0.05,
                           1.0, 1.0 + 2.0 * h, 3.0, 3.0 - 0.3 * h, 3.0 + 0.7 * h])
        cloud = R.ZeroCloud(gs, thetas, np.full(len(gs), 2.0), ["A"] * len(gs))
        want = _excluded_arcs_scalar(cloud, g_circle, eps)
        assert len(want) == 5
        assert want[0][0] == 0.0 and want[-1][1] == 2.0 * math.pi
        assert want[1][0] < 1.0 < 1.0 + 2.0 * h < want[1][1]
        assert want[2][1] > 3.0 + h
        assert R.excluded_arcs(cloud, g_circle, eps) == want

    def test_wide_cloud_matches_scalar_loop(self, wide_cloud):
        # numpy's transcendentals may differ from math's in the last bit
        cloud = wide_cloud[0]
        seen = 0
        for g in (3.5, 6.0, float(cloud.g[5000]), 10.9):
            for eps in (0.01, 0.1):
                got = R.excluded_arcs(cloud, g, eps)
                want = _excluded_arcs_scalar(cloud, g, eps)
                assert len(got) == len(want)
                if want:
                    assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-14
                seen += len(want)
        assert seen > 1000


@pytest.fixture(scope="module")
def hat_cloud():
    """The A-hat instance of TestPinnedValues: p > p2, split doubles, a
    ceiling that stops the partition inside A-dprime."""
    prof = RadialProfile(build_scaffold(ScaffoldParams.with_defaults(k=1, p1=2.0, p2=3.0, p=3.5, log_c=3.2, g1=3.0), 2))
    return R.atomize(R.partition_region(prof, 1, g_max=25.0, ceiling=3000), prof, split_doubles=True), prof


@pytest.fixture(scope="module")
def clouds(gen1_cloud, gen1_partition, small_profile, wide_cloud, hat_cloud):
    return {
        "small": (gen1_cloud, small_profile),
        "split": (R.atomize(gen1_partition, small_profile, split_doubles=True), small_profile),
        "wide": wide_cloud,
        "hat": hat_cloud,
    }


def _ring_errors(cloud, src):
    """Per lattice ring q, the largest distance between its closed form and
    kernel_sums over every atom of the ring and the atom's cell nodes (the
    remainder cell of a split ring included).  On a full ring the samples
    sweep g and theta, with theta < 0 and > 2 pi; on a split ring they keep
    theta at least 64 cells from the seam arc [seam, 2 pi], and their
    copies shifted by -+ 2 pi."""
    lat = src.lattice
    delta, theta, weight = (col.reshape(len(cloud), 16) for col in R._cell_nodes(cloud))
    gs = np.linspace(0.05, float(np.max(cloud.g)) + 0.3, 9)
    full, split = [], []
    for q, k in enumerate(lat.ring.tolist()):
        atoms = np.flatnonzero(src.cells.ring == k)
        sources = [np.concatenate([col[atoms], nodes[atoms].ravel()])
                   for col, nodes in ((src.delta, delta), (src.theta, theta), (src.mult, weight))]
        if lat.full[k]:
            thetas = np.array([-2.0, 0.7, 3.9, 2.0 * math.pi + 1.3, 4.0 * math.pi - 0.2])
        else:
            margin = 64.0 * lat.w[q]
            if lat.seam[k] < 3.0 * margin:
                continue  # no angle is 64 cells from the seam
            inside = np.array([margin, 0.5 * lat.seam[k] + 0.1 * margin, lat.seam[k] - margin])
            thetas = np.concatenate([inside, inside - 2.0 * math.pi, inside + 2.0 * math.pi])
        g, t = (a.ravel() for a in np.meshgrid(gs, thetas))
        dz = np.exp(-g)
        got = 0.5 * R._ring_sums(src, np.log1p(-dz), np.mod(t, 2.0 * math.pi))[:, q]
        want = kernel_sums(dz, t, *sources)
        (full if lat.full[k] else split).append(float(np.max(np.abs(got - want))))
    return full, split


class TestClosedForm:
    """Every ring of an atomize cloud is a lattice ring and sums in closed form."""

    @pytest.mark.parametrize("name,rings,full,split", [
        ("small", 11, 8, 3), ("split", 11, 8, 3), ("wide", 15, 11, 4), ("hat", 9, 7, 2),
    ])
    def test_every_ring_is_a_lattice(self, clouds, name, rings, full, split):
        # the wide cloud's split rings drift up to 4.9e-12 rad from k w, so
        # the check's tolerance must grow with k
        lat = clouds[name][0].sources.lattice
        assert len(lat.ring) == rings and lat.ring.tolist() == list(range(rings))
        assert (int(np.sum(lat.full)), int(np.sum(lat.seam >= 0.0))) == (full, split)
        assert lat.per_cell == (2 if name in ("split", "hat") else 1)

    @pytest.mark.parametrize("name", ["small", "split", "wide", "hat"])
    def test_each_ring_matches_its_direct_sum(self, clouds, name):
        # a full ring is exact to rounding (<= 3.4e-11 measured); a split
        # ring misses its seam by at most 2.0e-7 at 64 cells (wide, hat)
        cloud = clouds[name][0]
        full, split = _ring_errors(cloud, cloud.sources)
        assert len(full) >= 7 and max(full) <= 1e-9
        assert split and max(split) <= 5e-7

    def test_a_shifted_split_ring_fails_the_ring_check(self, clouds):
        cloud = clouds["small"][0]
        src = cloud.sources
        lat = src.lattice
        q = int(np.flatnonzero(lat.seam[lat.ring] >= 0.0)[-1])
        phase = lat.phase.copy()
        phase[q] += 0.5 * lat.w[q]
        full, split = _ring_errors(cloud, dataclasses.replace(src, lattice=dataclasses.replace(lat, phase=phase)))
        assert max(full) <= 1e-9 and max(split) > 1e-2

    def test_seam_samples_take_the_near_field(self, clouds, monkeypatch):
        # samples 1-5 cells either side of a split ring's seam arc, and inside
        # it, sum that ring explicitly; the whole sum stays within 2e-4
        pair_terms, seen = R._pair_terms, []
        monkeypatch.setattr(R, "_pair_terms", lambda src, dz, tz, atom: seen.append(src.cells.ring[atom]) or
                            pair_terms(src, dz, tz, atom))
        for name in ("small", "wide"):
            cloud, prof = clouds[name]
            src = cloud.sources
            lat = src.lattice
            zs = []
            for q, k in enumerate(lat.ring.tolist()):
                seam, w = lat.seam[k], lat.w[q]
                if seam < 0.0:
                    continue
                g = float(-math.log(lat.delta[q]))
                angles = [seam - j * w for j in (1, 3, 5)] + [j * w for j in (1, 5)] + [0.5 * (seam + 2.0 * math.pi)]
                for t in angles:
                    seen.clear()
                    R.eval_log_surrogate_many(cloud, prof, [(LogGap(g), t)])
                    assert k in np.concatenate(seen).tolist(), (name, k, t)
                zs += [(LogGap(g), t) for t in angles[::2]]
            got = R.eval_log_surrogate_many(cloud, prof, zs)
            assert np.max(np.abs(got - _direct_sum(cloud, prof, zs))) <= 2e-4

    def test_whole_window_samples_are_within_1e6(self, clouds, monkeypatch):
        # a sample whose explicit rings all have whole windows (every atom of
        # the ring in its near field) carries only the closed-form error
        pair_terms, seen = R._pair_terms, []
        monkeypatch.setattr(R, "_pair_terms", lambda src, dz, tz, atom: seen.append(src.cells.ring[atom]) or
                            pair_terms(src, dz, tz, atom))
        rng = np.random.default_rng(17)
        for name, m in (("small", 48), ("wide", 12), ("hat", 24)):
            cloud, prof = clouds[name]
            size = np.bincount(cloud.sources.cells.ring)
            g_top = float(np.max(cloud.g)) + 0.3
            kept = []
            for g, t in zip(rng.uniform(0.0, g_top, m), rng.uniform(-1.0, 7.0, m)):
                seen.clear()
                R.eval_log_surrogate_many(cloud, prof, [(LogGap(float(g)), float(t))])
                rings = np.concatenate(seen) if seen else np.empty(0, dtype=int)
                if np.array_equal(np.bincount(rings, minlength=len(size)) % np.maximum(size, 1), np.zeros(len(size))):
                    kept.append((LogGap(float(g)), float(t)))
            assert len(kept) >= m // 2
            got = R.eval_log_surrogate_many(cloud, prof, kept)
            assert np.max(np.abs(got - _direct_sum(cloud, prof, kept))) <= 1e-6
