"""Discretization of the radial Riesz measure (Laplacian of the profile over
2 pi) into polar cells of mass 2, surrogate zeros at their weighted
centroids, and the resulting log-modulus surrogate.

Four sub-annuli carry mass per generation (the slope region between r_n and
r_n' has none): the outer approach [r_{n-1}'', r_n), the compensated band
[r_n', r_hat), the mass ring [r_hat, r*) and the closing band [r*, r_n'').
The first, second and fourth are split into rings of floor(1/(1-r_k))
equal sectors, advancing the ring radius so each cell holds mass exactly 2;
the thin mass ring is a single ring split by angle alone.  Region leftovers
become flagged remainder cells of mass in [2, 4).

Enumeration happens in plain double arithmetic and is therefore capped at
moderate g (cells per ring grow like e^g); the cap and the cell-count
ceiling are explicit, and hitting them yields a truncation report rather
than a silent failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._accel import kernel_sums
from .numerics import LogGap, NumericsError, as_g
from .profiles import RadialProfile

_LEG_NODES = {
    4: (
        (-0.8611363115940526, 0.34785484513745385),
        (-0.3399810435848563, 0.6521451548625461),
        (0.3399810435848563, 0.6521451548625461),
        (0.8611363115940526, 0.34785484513745385),
    )
}


class PartitionError(NumericsError):
    pass


@dataclass(frozen=True)
class PolarCell:
    g_lo: float
    g_hi: float
    theta_lo: float
    theta_hi: float
    mass: float
    kind: str  # A | A-hat | A-star | A-dprime | remainder
    generation: int
    branch: int  # profile branch carrying the density (1, 3, 4, 5)

    @property
    def r_lo(self) -> float:
        return -math.expm1(-self.g_lo)

    @property
    def r_hi(self) -> float:
        return -math.expm1(-self.g_hi)

    def side_ratio(self) -> float:
        """max/min of (angular width, radial width); radii near 1 so the arc
        length is the plain angle."""
        dr = math.exp(-self.g_lo) - math.exp(-self.g_hi)
        dth = self.theta_hi - self.theta_lo
        return max(dth, dr) / min(dth, dr)


@dataclass
class PartitionResult:
    cells: list[PolarCell]
    truncated: dict[str, bool]
    generation: int

    @property
    def total_mass(self) -> float:
        return math.fsum(c.mass for c in self.cells)

    def regular_cells(self) -> list[PolarCell]:
        return [c for c in self.cells if c.kind != "remainder"]


# -- per-branch densities (full-circle ring masses and first moments) -------


class _BranchDensity:
    """rho(r) = Laplacian * r on one branch; closed-form ring integrals."""

    def __init__(self, branch: int, coef: float, p1: float, e_prime: float, big_m: float):
        self.branch = branch
        self.coef = coef  # p2 + eps_n for branch 1, p1 otherwise
        self.p1 = p1
        self.e_prime = e_prime  # 1/(1-r_n')
        self.big_m = big_m  # M_n (only for branch 4)

    def rho(self, r: float) -> float:
        e2 = 1.0 / (1.0 - r) ** 2
        if self.branch == 1:
            return self.coef * e2
        val = self.p1 * (e2 - self.e_prime)
        if self.branch == 4:
            val += self.big_m
        return val

    def ring_mass(self, g_lo: float, g_hi: float) -> float:
        e_lo, e_hi = math.exp(g_lo), math.exp(g_hi)
        de = e_lo * math.expm1(g_hi - g_lo)
        if self.branch == 1:
            return self.coef * de
        dr = math.exp(-g_lo) - math.exp(-g_hi)
        val = self.p1 * (de - dr * self.e_prime)
        if self.branch == 4:
            val += self.big_m * dr
        return val

    def ring_gap_moment(self, g_lo: float, g_hi: float) -> float:
        """int (1-r) rho(r) dr over the ring (for centroids via the gap)."""
        dg = g_hi - g_lo  # int dr/(1-r)
        if self.branch == 1:
            return self.coef * dg
        r_lo, r_hi = -math.expm1(-g_lo), -math.expm1(-g_hi)
        q = lambda r: r - r * r / 2.0  # int (1-r) dr
        lin = q(r_hi) - q(r_lo)
        val = self.p1 * (dg - self.e_prime * lin)
        if self.branch == 4:
            val += self.big_m * lin
        return val

    def next_ring_g(self, g_lo: float, target: float) -> float:
        """g with ring_mass(g_lo, g) = target, by the closed forms."""
        e_lo = math.exp(g_lo)
        if self.branch == 1:
            return math.log(e_lo + target / self.coef)
        # p1 (E - E_lo) - p1 e'(1/E_lo - 1/E) [+ M (1/E_lo - 1/E)] = target
        c_inv = self.e_prime - (self.big_m / self.p1 if self.branch == 4 else 0.0)
        b = target / self.p1 + e_lo + c_inv / e_lo
        disc = b * b - 4.0 * c_inv
        e_hi = 0.5 * (b + math.sqrt(disc))
        return math.log(e_hi)


def _density_for(profile: RadialProfile, gen_index: int, branch: int) -> _BranchDensity:
    gen = profile.scaffold.generations[gen_index]
    p = profile.params
    e_prime = math.exp(gen.r_prime.g)
    big_m = math.exp(gen.log_M) if gen.log_M < 700.0 else math.inf
    coef = p.p2 + gen.eps_n if branch == 1 else p.p1
    return _BranchDensity(branch, coef, p.p1, e_prime, big_m)


def next_ring_radius(g_k: LogGap, p_eff: float) -> LogGap:
    """Next equal-mass ring boundary for the outer-approach density
    p_eff/(1-r)^2: with m = floor(1/(1-r_k)), the per-sector mass-2 condition
    solves in closed form to 1/(1-r_{k+1}) = 1/(1-r_k) + 2m/p_eff."""
    if p_eff <= 0.0:
        raise PartitionError(f"density coefficient must be positive, got {p_eff}")
    g = g_k.g
    if g <= 36.0:
        m_gap = math.floor(math.exp(g)) * math.exp(-g)
    else:
        m_gap = 1.0  # floor(1/(1-r)) (1-r) -> 1 beyond exact-integer range
    c = 2.0 * m_gap / p_eff
    return LogGap(g + math.log1p(c))


def _sector_count(g: float) -> int:
    if g > 36.0:
        raise PartitionError("sector count beyond exact range; lower g_max")
    return max(1, int(math.floor(math.exp(g))))


def _split_ring_by_angle(
    out: list[PolarCell], density, g_lo, g_hi, kind, gen_index
) -> None:
    """Angular split of one full ring into mass-2 cells plus a remainder."""
    total = density.ring_mass(g_lo, g_hi)
    if total < 2.0:
        raise PartitionError(f"ring mass {total} below one cell")
    n_full = int(math.floor(total / 2.0))
    width = 2.0 * math.pi * (2.0 / total)
    theta = 0.0
    for _ in range(n_full - 1):
        out.append(
            PolarCell(g_lo, g_hi, theta, theta + width, 2.0, kind, gen_index + 1, density.branch)
        )
        theta += width
    out.append(
        PolarCell(
            g_lo, g_hi, theta, 2.0 * math.pi,
            total - 2.0 * (n_full - 1), "remainder", gen_index + 1, density.branch,
        )
    )


def _partition_ringed_region(
    out: list[PolarCell],
    density: _BranchDensity,
    g_start: float,
    g_end: float,
    kind: str,
    gen_index: int,
    g_max: float,
    ceiling: int,
) -> bool:
    """Rings of floor(1/(1-r)) sectors with per-cell mass 2; returns True if
    truncated by g_max or the ceiling."""
    g_k = g_start
    rings: list[tuple[float, float, int]] = []
    while True:
        if g_k >= g_max:
            self_truncated = True
            break
        m = _sector_count(g_k)
        g_next = density.next_ring_g(g_k, 2.0 * m)
        if g_next >= g_end:
            # region leftover [g_k, g_end): angular re-split; a leftover too
            # thin to keep comparable sides (or too light for one cell) is
            # merged back into the previous ring first
            leftover = density.ring_mass(g_k, g_end)
            width = g_end - g_k
            prev_width = g_k - rings[-1][0] if rings else math.inf
            if leftover >= 2.0 and width >= 0.5 * prev_width:
                _split_ring_by_angle(out, density, g_k, g_end, kind, gen_index)
                self_truncated = False
            elif rings:
                prev_lo, _, prev_m = rings.pop()
                del out[-prev_m:]
                _split_ring_by_angle(out, density, prev_lo, g_end, kind, gen_index)
                self_truncated = False
            elif leftover >= 2.0:
                _split_ring_by_angle(out, density, g_k, g_end, kind, gen_index)
                self_truncated = False
            else:
                # whole region holds less than one cell; dropped, flagged
                self_truncated = leftover > 0.0
            break
        if len(out) + m > ceiling:
            self_truncated = True
            break
        width = 2.0 * math.pi / m
        for j in range(m):
            out.append(
                PolarCell(
                    g_k, g_next, j * width, (j + 1) * width, 2.0, kind, gen_index + 1,
                    density.branch,
                )
            )
        rings.append((g_k, g_next, m))
        g_k = g_next
    return self_truncated


def partition_region(
    profile: RadialProfile,
    generation: int,
    g_max: float = 25.0,
    ceiling: int = 200_000,
) -> PartitionResult:
    """All mass-2 cells of one generation up to g_max, per sub-annulus."""
    sc = profile.scaffold
    if not 1 <= generation <= len(sc.generations):
        raise PartitionError(f"generation {generation} not constructed")
    i = generation - 1
    gen = sc.generations[i]
    cells: list[PolarCell] = []
    truncated: dict[str, bool] = {}

    regions = [
        ("A", 1, sc.generation_start(i), gen.r_n.g),
        ("A-hat", 3, gen.r_prime.g, gen.r_hat.g),
        ("A-dprime", 5, gen.r_star.g, gen.r_dprime.g),
    ]
    for kind, branch, g_lo, g_hi in regions:
        if g_hi <= g_lo:
            truncated[kind] = False
            continue
        density = _density_for(profile, i, branch)
        truncated[kind] = _partition_ringed_region(
            cells, density, g_lo, g_hi, kind, i, g_max, ceiling
        )

    # the thin mass ring: single ring, angular split only
    if gen.r_hat.g < g_max and gen.r_hat.g <= 36.0:
        density = _density_for(profile, i, 4)
        total = density.ring_mass(gen.r_hat.g, gen.r_star.g)
        if len(cells) + total / 2.0 <= ceiling:
            _split_ring_by_angle(cells, density, gen.r_hat.g, gen.r_star.g, "A-star", i)
            truncated["A-star"] = False
        else:
            truncated["A-star"] = True
    else:
        truncated["A-star"] = True

    return PartitionResult(cells=cells, truncated=truncated, generation=generation)


# -- atomization -------------------------------------------------------------


@dataclass
class ZeroCloud:
    """Surrogate zeros: one double zero per cell at the density-weighted
    radial centroid and angular midpoint (split_doubles turns each into two
    simple zeros straddling the midpoint)."""

    g: np.ndarray
    theta: np.ndarray
    mult: np.ndarray
    kind: list[str]
    cells: list[PolarCell]
    profile: RadialProfile | None = None
    _nodes: tuple | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.g)

    @property
    def total_multiplicity(self) -> int:
        return int(np.sum(self.mult))

    def to_jsonl(self) -> str:
        from .serialize import dumps17

        lines = [
            dumps17({"g": float(g), "theta": float(t), "mult": int(m), "cell_kind": k})
            for g, t, m, k in zip(self.g, self.theta, self.mult, self.kind)
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def _cell_centroid(density: _BranchDensity, cell_g_lo, cell_g_hi) -> float:
    """g of the density-weighted radial centroid."""
    mass = density.ring_mass(cell_g_lo, cell_g_hi)
    gap = density.ring_gap_moment(cell_g_lo, cell_g_hi) / mass
    return -math.log(gap)


def atomize(
    partition: PartitionResult, profile: RadialProfile, split_doubles: bool = False
) -> ZeroCloud:
    gs, thetas, mults, kinds, cells = [], [], [], [], []

    def place(cell: PolarCell, th_lo: float, th_hi: float):
        density = _density_for(profile, cell.generation - 1, cell.branch)
        g_c = _cell_centroid(density, cell.g_lo, cell.g_hi)
        mid = 0.5 * (th_lo + th_hi)
        piece = PolarCell(
            cell.g_lo, cell.g_hi, th_lo, th_hi,
            cell.mass * (th_hi - th_lo) / (cell.theta_hi - cell.theta_lo),
            cell.kind, cell.generation, cell.branch,
        )
        if split_doubles:
            quarter = 0.25 * (th_hi - th_lo)
            for th in (mid - quarter, mid + quarter):
                gs.append(g_c), thetas.append(th), mults.append(1)
                kinds.append(cell.kind), cells.append(piece)
        else:
            gs.append(g_c), thetas.append(mid), mults.append(2)
            kinds.append(cell.kind), cells.append(piece)

    for cell in partition.cells:
        if cell.mass < 3.0:
            place(cell, cell.theta_lo, cell.theta_hi)
        else:
            mid = 0.5 * (cell.theta_lo + cell.theta_hi)
            place(cell, cell.theta_lo, mid)
            place(cell, mid, cell.theta_hi)

    return ZeroCloud(
        g=np.array(gs), theta=np.array(thetas), mult=np.array(mults, dtype=float),
        kind=kinds, cells=cells, profile=profile,
    )


# -- surrogate potential ------------------------------------------------------


def _cell_nodes(cloud: ZeroCloud) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density-weighted quadrature nodes over every atom's source cell,
    normalized so each cell's node weights sum to the mass its atom carries."""
    if cloud._nodes is not None:
        return cloud._nodes
    leg = _LEG_NODES[4]
    deltas, thetas, weights = [], [], []
    for atom_idx, cell in enumerate(cloud.cells):
        density = _density_for(cloud.profile, cell.generation - 1, cell.branch)
        r_lo, r_hi = cell.r_lo, cell.r_hi
        hr = 0.5 * (r_hi - r_lo)
        cr = 0.5 * (r_hi + r_lo)
        ht = 0.5 * (cell.theta_hi - cell.theta_lo)
        ct = 0.5 * (cell.theta_hi + cell.theta_lo)
        rw = [(cr + hr * x, w * density.rho(cr + hr * x)) for x, w in leg]
        total = sum(w for _, w in rw) * sum(w for _, w in leg)
        # node weights sum exactly to the mass the atom carries
        scale = cloud.mult[atom_idx] / total
        for rv, wr in rw:
            for xt, wt in leg:
                deltas.append(1.0 - rv)
                thetas.append(ct + ht * xt)
                weights.append(wr * wt * scale)
    nodes = (np.array(deltas), np.array(thetas), np.array(weights))
    cloud._nodes = nodes
    return nodes


def eval_log_surrogate(
    cloud: ZeroCloud, profile: RadialProfile, z: tuple[LogGap, float]
) -> float:
    return eval_log_surrogate_many(cloud, profile, [z])[0]


def eval_log_surrogate_many(
    cloud: ZeroCloud, profile: RadialProfile, zs: Sequence[tuple[LogGap, float]]
) -> np.ndarray:
    """phi(|z|) plus the atomization correction
    sum_atoms mult [log|(z-zeta)/(1-conj(z) zeta)| - cell average of the same
    kernel]; -inf at a point that sits exactly on an atom."""
    samp_delta = np.array([math.exp(-as_g(g)) for g, _ in zs])
    samp_theta = np.array([t for _, t in zs])
    base = np.array([profile.phi(as_g(g)) for g, _ in zs])
    if len(cloud) == 0:
        return base
    atom_delta = np.exp(-cloud.g)
    nd, nt, nw = _cell_nodes(cloud)
    src_delta = np.concatenate([atom_delta, nd])
    src_theta = np.concatenate([cloud.theta, nt])
    src_weight = np.concatenate([cloud.mult, -nw])
    atom_set = set(zip(atom_delta.tolist(), cloud.theta.tolist()))
    corr = kernel_sums(samp_delta, samp_theta, src_delta, src_theta, src_weight)
    out = base + corr
    for i, (d, t) in enumerate(zip(samp_delta.tolist(), samp_theta.tolist())):
        if (d, t) in atom_set:
            out[i] = -math.inf
    return out


def atom_correction_sum(cloud: ZeroCloud, z: tuple[LogGap, float]) -> float:
    """Direct atom-only kernel sum (no cell averages); the far-field bound
    oracle works against this."""
    g, t = z
    gv = as_g(g)
    dz = math.exp(-gv)
    out = kernel_sums(
        np.array([dz]), np.array([t]), np.exp(-cloud.g), cloud.theta, cloud.mult.astype(float)
    )
    return float(out[0])


# -- excluded arcs and the approximation report -------------------------------


def excluded_arcs(cloud: ZeroCloud, g_circle: float, eps: float) -> list[tuple[float, float]]:
    """Merged arcs of {theta : dist(r e^(i theta), zeros) <= eps (1-r)} on the
    circle of log-gap g_circle."""
    if eps == 0.0:
        return []
    r = -math.expm1(-g_circle)
    gap = math.exp(-g_circle)
    lim = eps * gap
    arcs = []
    for ga, ta in zip(cloud.g, cloud.theta):
        s = -math.expm1(-ga)
        dr = math.exp(-g_circle) - math.exp(-ga)
        if abs(dr) > lim:
            continue
        num = lim * lim - dr * dr
        sin2 = num / (4.0 * r * s)
        half = 2.0 * math.asin(min(1.0, math.sqrt(max(sin2, 0.0))))
        arcs.append(((ta - half) % (2.0 * math.pi), (ta + half) % (2.0 * math.pi)))
    if not arcs:
        return []
    # unwrap, sort, merge
    flat = []
    for lo, hi in arcs:
        if hi < lo:
            flat.append((lo, 2.0 * math.pi))
            flat.append((0.0, hi))
        else:
            flat.append((lo, hi))
    flat.sort()
    merged = [flat[0]]
    for lo, hi in flat[1:]:
        if lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def excluded_measure(cloud: ZeroCloud, g_circle: float, eps: float) -> float:
    return sum(hi - lo for lo, hi in excluded_arcs(cloud, g_circle, eps))


@dataclass(frozen=True)
class ApproxReport:
    max_scaled_error: float  # max |err| / (1 + log g) off the excluded arcs
    per_circle_excluded: list[tuple[float, float]]  # (g, measure)
    fitted_c4: float  # c with measure <= c * eps
    eps: float
    samples_used: int


def approximation_report(
    cloud: ZeroCloud,
    profile: RadialProfile,
    circle_gs: Sequence[float],
    eps: float,
    thetas_per_circle: int = 64,
    seed: int = 0,
) -> ApproxReport:
    """Surrogate-vs-profile error statistics off the eps-neighborhood of the
    zeros, plus the per-circle excluded-arc measure."""
    rng = np.random.default_rng(seed)
    zs = []
    for g in circle_gs:
        arcs = excluded_arcs(cloud, g, eps) if eps > 0 else []
        picked = 0
        guard = 0
        while picked < thetas_per_circle and guard < 50 * thetas_per_circle:
            guard += 1
            t = float(rng.uniform(0.0, 2.0 * math.pi))
            if any(lo <= t <= hi for lo, hi in arcs):
                continue
            zs.append((LogGap(g), t))
            picked += 1
    vals = eval_log_surrogate_many(cloud, profile, zs)
    errs = np.array(
        [abs(v - profile.phi(z[0].g)) / (1.0 + math.log(max(z[0].g, 1.0))) for v, z in zip(vals, zs)]
    )
    per_circle = [(g, excluded_measure(cloud, g, eps)) for g in circle_gs]
    c4 = max((m / eps for _, m in per_circle), default=0.0) if eps > 0 else 0.0
    return ApproxReport(
        max_scaled_error=float(np.max(errs)),
        per_circle_excluded=per_circle,
        fitted_c4=c4,
        eps=eps,
        samples_used=len(zs),
    )
