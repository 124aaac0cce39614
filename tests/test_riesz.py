"""Equal-mass polar cells, surrogate zeros and the log-modulus surrogate.
The cell-mass and centroid oracles run independent adaptive quadrature
through the profile's pointwise Laplacian."""

import hashlib
import math
import os
import subprocess
import sys

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


def quad_mass(profile, cell):
    def integrand(r):
        lap = profile.eval(-math.log1p(-r)).laplacian.to_float()
        return lap * r

    inner = integrate(integrand, cell.r_lo, cell.r_hi, rel_tol=1e-10)
    return inner * (cell.theta_hi - cell.theta_lo) / (2.0 * math.pi)


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

    @pytest.mark.parametrize("g_max", [math.nan, math.inf, -math.inf])
    def test_g_max_must_be_finite(self, small_profile, g_max):
        with pytest.raises(R.PartitionError, match="g_max must be finite"):
            R.partition_region(small_profile, 1, g_max=g_max, ceiling=100_000)

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

    def test_empty_partition(self, gen1_partition, small_profile):
        part = R.PartitionResult(cells=gen1_partition.cells[:0], truncated={}, generation=1)
        cloud = R.atomize(part, small_profile)
        assert len(cloud) == 0

    def test_single_cell_single_double_zero(self, gen1_partition, small_profile):
        one = R.PartitionResult(cells=gen1_partition.regular_cells()[5:6], truncated={}, generation=1)
        cloud = R.atomize(one, small_profile)
        assert len(cloud) == 1
        assert cloud.mult[0] == 2

    def test_split_doubles_flag(self, gen1_partition, small_profile):
        one = R.PartitionResult(cells=gen1_partition.regular_cells()[5:6], truncated={}, generation=1)
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
        cloud = R.ZeroCloud(np.array([]), np.array([]), np.array([]), [], [])
        v = R.eval_log_surrogate_many(cloud, small_profile, [(LogGap(2.0), 0.7)])[0]
        assert v == small_profile.phi(2.0)

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
        empty = R.ZeroCloud(np.array([]), np.array([]), np.array([]), [], [])
        for cloud in (gen1_cloud, empty):
            with pytest.raises(NumericsError, match="finite sample angles"):
                R.eval_log_surrogate_many(cloud, small_profile, [(LogGap(2.0), 0.5), (LogGap(3.0), theta)])

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
        part = R.PartitionResult(cells=far_cells, truncated={}, generation=1)
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
        assert rings.generation == part.generation == 1
        assert np.all(np.diff(cells.ring) >= 0) and np.unique(cells.ring).tolist() == list(range(15))
        assert np.all(rings.g_lo < rings.g_hi)
        assert cells[10:20].rings is rings and cells[cells.kind == 0].rings is rings
        cloud = R.atomize(part, prof, split_doubles=True)
        assert cloud.cells.rings is rings and cloud.nodes.shape == (9, 15)
        cell = cells[-1]
        k = cells.ring[-1]
        assert (cell.g_lo, cell.g_hi, cell.branch, cell.generation) == (
            rings.g_lo[k], rings.g_hi[k], rings.branch[k], 1)
        assert list(cells[-3:]) == [cells[len(cells) - 3], cells[len(cells) - 2], cell]

    def test_no_cell_objects_on_the_pipeline(self, small_profile, monkeypatch):
        built = []
        monkeypatch.setattr(R, "PolarCell", lambda *a: built.append(a))
        part = R.partition_region(small_profile, 1, g_max=25.0, ceiling=100_000)
        cloud = R.atomize(part, small_profile, split_doubles=True)
        cloud.to_jsonl()
        R.eval_log_surrogate_many(cloud, small_profile, [(LogGap(2.0), 0.1)])
        assert part.total_mass > 0.0 and not built

    def test_jsonl_rejects_non_finite_like_dumps17(self, small_profile):
        for bad_g, bad_theta, shown in ((math.nan, 0.5, "nan"), (1.0, math.inf, "inf")):
            cloud = R.ZeroCloud(
                np.array([1.0, bad_g]), np.array([0.5, bad_theta]), np.array([2.0, 2.0]),
                ["A", "A"], [None, None],
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
        cloud = R.ZeroCloud(np.array(g), np.array(theta), np.array(mult), list(kind), [None] * len(g))
        text = cloud.to_jsonl()
        assert text == _jsonl_rows(cloud)
        assert '"g":-0,' in text and '"theta":-0}' in text

    @staticmethod
    def _runs_cloud(runs):
        """A hand-built cloud of runs (kind, g, mult, length), random thetas."""
        kind = [k for k, _, _, n in runs for _ in range(n)]
        g = np.concatenate([np.full(n, g) for _, g, _, n in runs])
        mult = np.concatenate([np.full(n, m) for _, _, m, n in runs])
        theta = np.random.default_rng(len(g)).uniform(-1.0, 7.0, len(g))
        return R.ZeroCloud(g, theta, mult, kind, [None] * len(g))

    @pytest.mark.parametrize("n", [R._JSONL_CHUNK - 1, R._JSONL_CHUNK, R._JSONL_CHUNK + 1,
                                   2 * R._JSONL_CHUNK + 1])
    def test_run_lengths_around_the_chunk(self, n):
        cloud = self._runs_cloud([("A", 4.25, 2.0, n)])
        assert cloud.to_jsonl() == _jsonl_rows(cloud)

    def test_prefix_breaks_on_chunk_boundaries(self):
        c = R._JSONL_CHUNK
        cloud = self._runs_cloud([("A", 4.25, 2.0, c), ("A", 4.5, 2.0, 2 * c), ("remainder", 4.5, 2.0, 1)])
        assert cloud.to_jsonl() == _jsonl_rows(cloud)

    def test_percent_in_kind_across_chunks(self):
        c = R._JSONL_CHUNK
        cloud = self._runs_cloud([("A", 1.5, 1.0, 3), ("50%d%%", 2.5, 2.0, 2 * c + 5), ("A", 1.5, 1.0, 2)])
        text = cloud.to_jsonl()
        assert text == _jsonl_rows(cloud)
        assert text.count('"cell_kind":"50%d%%"') == 2 * c + 5

    def test_empty_cloud(self):
        cloud = R.ZeroCloud(np.array([]), np.array([]), np.array([]), [], [])
        assert cloud.to_jsonl() == "" == _jsonl_rows(cloud)

    @pytest.mark.parametrize("split", [False, True])
    def test_gen1_cloud_matches_rows_and_round_trips(self, gen1_partition, small_profile, split):
        import json

        cloud = R.atomize(gen1_partition, small_profile, split_doubles=split)
        text = cloud.to_jsonl()
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
    near-field values of eval_log_surrogate_many are pinned beside them; the
    two differ by at most 1.3e-4.  Neither sum calls BLAS, so the values do
    not depend on its thread count."""

    def test_surrogate_values(self, gen1_cloud, small_profile):
        assert _nodes_digest(gen1_cloud) == "3c7fa41c7006074cf9ab3ce0ab55ec19e40ad057d1d19c305d5842f904885ac5"
        zs = [(LogGap(1.0), 0.3), (LogGap(3.5), 2.0), (LogGap(6.15), 1.0), (LogGap(8.0), 5.0)]
        direct = _direct_sum(gen1_cloud, small_profile, zs)
        assert [v.hex() for v in direct] == ["0x1.e0455c12d7426p+3", "0x1.33942de12a137p+4",
                                             "0x1.9c4c91dcccfb3p+3", "0x1.03662bc3253d4p+5"]
        got = R.eval_log_surrogate_many(gen1_cloud, small_profile, zs)
        assert [v.hex() for v in got.tolist()] == ["0x1.e0448459e04c1p+3", "0x1.33940c1c7fdf7p+4",
                                                   "0x1.9c4c8d22af155p+3", "0x1.03662b939cc1dp+5"]

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
        assert _nodes_digest(cloud) == "2d59ef9fd74fd0d1f7fa97720efe1a53a413e878dd340920bf82836dd6eb65cc"
        zs = [(LogGap(6.3), 0.5), (LogGap(2.0), 4.0)]
        direct = _direct_sum(cloud, prof, zs)
        assert [v.hex() for v in direct] == ["0x1.596b141685cdbp+4", "0x1.d90f88e561303p+3"]
        got = R.eval_log_surrogate_many(cloud, prof, zs)
        assert [v.hex() for v in got.tolist()] == ["0x1.596b123e6d67ap+4", "0x1.d90e8505de20dp+3"]

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
        text = cloud.to_jsonl()
        assert (len(cloud), len(text)) == (atoms, chars)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _near_atoms_loop(cloud, delta, theta):
    """The near-field rule atom by atom: keep an atom when its ring (its
    cell's g_lo, g_hi) lies within 64 s of the point, s = max(radial extent,
    widest cell width on the ring x r_lo), and its angle lies within
    sqrt((64 s)^2 - dr^2) / r_lo of theta, or that window reaches pi."""
    cells = list(cloud.cells)
    widest = {}
    for c in cells:
        key = (c.g_lo, c.g_hi)
        widest[key] = max(widest.get(key, 0.0), c.theta_hi - c.theta_lo)
    r = 1.0 - delta
    kept = []
    for i, c in enumerate(cells):
        s = max(math.exp(-c.g_lo) - math.exp(-c.g_hi), widest[(c.g_lo, c.g_hi)] * c.r_lo)
        reach = 64.0 * s
        dr = max(c.r_lo - r, r - c.r_hi, 0.0)
        if dr > reach:
            continue
        span = math.sqrt(reach * reach - dr * dr)
        off = abs((float(cloud.theta[i]) - theta + math.pi) % (2.0 * math.pi) - math.pi)
        if span >= math.pi * c.r_lo or off <= span / c.r_lo:
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
        src = R._sources(gen1_cloud)
        delta = math.exp(-g)
        for theta in (1e-12, 0.02, 2.0, 2.0 * math.pi - 0.02, -0.3, 2.0 * math.pi + 0.3):
            want = _near_atoms_loop(gen1_cloud, delta, theta)
            assert want and sorted(R._near_pairs(src, np.array([delta]), np.array([theta]))[0].tolist()) == want

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

    def test_shuffled_rings_do_not_import_numpy_ma(self):
        # the first np.unique of a process imports numpy.ma (tens of ms); the
        # atoms are put in ring and theta order by one argsort instead
        probe = "\n".join([
            "import sys",
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
            "assert R._sources(c).order.tolist() != list(range(len(c)))",
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


class TestBatchedKernel:
    def test_pair_terms_match_the_expanded_nodes(self, gen1_cloud):
        # the kernel reads the compact node parameters; kernel_sums over each
        # atom's 17 expanded sources (the atom, then its 16 nodes) agrees
        src = R._sources(gen1_cloud)
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
        part = R.PartitionResult(cells=cells[deep & (cells.theta_hi <= 0.5)], truncated={}, generation=1)
        cloud = R.atomize(part, small_profile)
        assert len(cloud) > 0
        src = R._sources(cloud)
        empty, near = (LogGap(6.0), 3.0), (LogGap(6.0), 0.25)
        assert len(R._near_pairs(src, np.array([math.exp(-6.0)]), np.array([3.0]))[0]) == 0
        assert len(R._near_pairs(src, np.array([math.exp(-6.0)]), np.array([0.25]))[0]) > 0
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
        cloud = R.ZeroCloud(gs, thetas, np.full(len(gs), 2.0), ["A"] * len(gs), [None] * len(gs))
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
        cloud = R.ZeroCloud(gs, thetas, np.full(len(gs), 2.0), ["A"] * len(gs), [None] * len(gs))
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
