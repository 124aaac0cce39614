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

Cells are stored as numpy columns (``CellColumns``: g_lo, g_hi, theta_lo,
theta_hi, mass, kind code, generation, branch), one row per cell, and a
``ZeroCloud`` keeps the same columns for the cell piece behind each atom.
All cells of one ring share g_lo, g_hi, generation and branch, so every
transcendental value (ring boundaries, centroids, the density at the
Gauss-Legendre radii) is computed once per ring, with the scalar ``math``
calls of a per-cell loop; a generation has tens of rings against up to
~1e5 cells.  Per-cell and per-atom values follow by numpy arithmetic in the
same operation and element order as that loop, so outputs are bit-identical
to it.  ``PolarCell`` objects are built only when a caller indexes or
iterates the columns.

Enumeration happens in plain double arithmetic and is therefore capped at
moderate g (cells per ring grow like e^g); the cap and the cell-count
ceiling are explicit, and hitting them yields a truncation report rather
than a silent failure.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from ._accel import kernel_sums
from .numerics import LogGap, NumericsError, as_g
from .profiles import RadialProfile
from .serialize import dumps17

_LEG_NODES = {
    4: (
        (-0.8611363115940526, 0.34785484513745385),
        (-0.3399810435848563, 0.6521451548625461),
        (0.3399810435848563, 0.6521451548625461),
        (0.8611363115940526, 0.34785484513745385),
    )
}

KINDS = ("A", "A-hat", "A-star", "A-dprime", "remainder")
_KIND_CODE = {k: i for i, k in enumerate(KINDS)}
_KIND_NAMES = np.array(KINDS, dtype=object)
_REMAINDER = _KIND_CODE["remainder"]

# one cloud line, the bytes dumps17 gives {"cell_kind", "g", "mult", "theta"}
_JSONL_ROW = '{"cell_kind":%s,"g":%s,"mult":%d,"theta":%s}\n'


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


@dataclass(frozen=True, eq=False)
class CellColumns(Sequence):
    """Polar cells as columns, one row per cell; ``kind`` holds codes into
    KINDS.  An integer index builds the row's PolarCell; a slice, mask or
    index array selects rows as CellColumns."""

    g_lo: np.ndarray
    g_hi: np.ndarray
    theta_lo: np.ndarray
    theta_hi: np.ndarray
    mass: np.ndarray
    kind: np.ndarray
    generation: np.ndarray
    branch: np.ndarray

    @classmethod
    def of(cls, cells: Sequence[PolarCell]) -> CellColumns:
        """Columns of a sequence of PolarCell (CellColumns pass through)."""
        if isinstance(cells, CellColumns):
            return cells
        floats = ("g_lo", "g_hi", "theta_lo", "theta_hi", "mass")
        return cls(
            *(np.array([getattr(c, name) for c in cells], dtype=float) for name in floats),
            np.array([_KIND_CODE[c.kind] for c in cells], dtype=np.int8),
            np.array([c.generation for c in cells], dtype=np.int32),
            np.array([c.branch for c in cells], dtype=np.int8),
        )

    @classmethod
    def concat(cls, parts: Sequence[CellColumns]) -> CellColumns:
        if not parts:
            return cls.of([])
        return cls(*(np.concatenate(cols) for cols in zip(*(p._columns() for p in parts))))

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def __len__(self) -> int:
        return len(self.g_lo)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return _polar_cell(*(col[index].item() for col in self._columns()))
        return CellColumns(*(col[index] for col in self._columns()))

    def __iter__(self):
        return (_polar_cell(*row) for row in zip(*(col.tolist() for col in self._columns())))


def _polar_cell(g_lo, g_hi, theta_lo, theta_hi, mass, kind, generation, branch) -> PolarCell:
    return PolarCell(g_lo, g_hi, theta_lo, theta_hi, mass, KINDS[kind], generation, branch)


def _per_ring(cells: CellColumns, fn) -> tuple[np.ndarray, np.ndarray]:
    """fn(g_lo, g_hi, generation, branch) once per ring, i.e. per run of
    consecutive rows sharing those four values; returns the results as an
    array, one row per ring, and each cell's ring index into it."""
    keys = (cells.g_lo, cells.g_hi, cells.generation, cells.branch)
    new_ring = np.ones(len(cells), dtype=bool)
    new_ring[1:] = np.any([col[1:] != col[:-1] for col in keys], axis=0)
    starts = np.flatnonzero(new_ring)
    per_ring = [fn(*key) for key in zip(*(col[starts].tolist() for col in keys))]
    return np.array(per_ring, dtype=float), np.cumsum(new_ring) - 1


@dataclass
class PartitionResult:
    cells: CellColumns  # a sequence of PolarCell is converted to columns
    truncated: dict[str, bool]
    generation: int

    def __post_init__(self):
        self.cells = CellColumns.of(self.cells)

    @property
    def total_mass(self) -> float:
        return math.fsum(self.cells.mass.tolist())

    def regular_cells(self) -> CellColumns:
        return self.cells[self.cells.kind != _REMAINDER]


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


def _ring(g_lo, g_hi, theta_lo, theta_hi, mass, kind, generation, branch) -> CellColumns:
    """The cells of one ring, given their angular edges, masses and kind codes."""
    n = len(mass)
    return CellColumns(
        np.full(n, g_lo), np.full(n, g_hi), theta_lo, theta_hi, mass, kind,
        np.full(n, generation, dtype=np.int32), np.full(n, branch, dtype=np.int8),
    )


def _sector_ring(g_lo, g_hi, m, kind, generation, branch) -> CellColumns:
    """m equal sectors of mass 2."""
    width = 2.0 * math.pi / m
    j = np.arange(m, dtype=float)
    codes = np.full(m, _KIND_CODE[kind], dtype=np.int8)
    return _ring(g_lo, g_hi, j * width, (j + 1.0) * width, np.full(m, 2.0), codes, generation, branch)


def _split_ring_by_angle(
    rings: list[CellColumns], density, g_lo, g_hi, kind, generation
) -> None:
    """Angular split of one full ring into mass-2 cells plus a remainder."""
    total = density.ring_mass(g_lo, g_hi)
    if total < 2.0:
        raise PartitionError(f"ring mass {total} below one cell")
    n_full = int(math.floor(total / 2.0))
    width = 2.0 * math.pi * (2.0 / total)
    steps = np.full(n_full, width)
    steps[0] = 0.0
    theta_lo = np.add.accumulate(steps)  # theta += width, in sequence
    theta_hi = theta_lo + width
    theta_hi[-1] = 2.0 * math.pi
    mass = np.full(n_full, 2.0)
    mass[-1] = total - 2.0 * (n_full - 1)
    codes = np.full(n_full, _KIND_CODE[kind], dtype=np.int8)
    codes[-1] = _REMAINDER
    rings.append(_ring(g_lo, g_hi, theta_lo, theta_hi, mass, codes, generation, density.branch))


def _cell_count(rings: list[CellColumns]) -> int:
    return sum(len(ring) for ring in rings)


def _partition_ringed_region(
    rings: list[CellColumns],
    density: _BranchDensity,
    g_start: float,
    g_end: float,
    kind: str,
    generation: int,
    g_max: float,
    ceiling: int,
) -> bool:
    """Rings of floor(1/(1-r)) sectors with per-cell mass 2, appended to
    ``rings``; returns True if truncated by g_max or the ceiling."""
    first = len(rings)  # this region's sector rings are rings[first:]
    g_k = g_start
    while True:
        if g_k >= g_max:
            return True
        m = _sector_count(g_k)
        g_next = density.next_ring_g(g_k, 2.0 * m)
        if g_next >= g_end:
            # region leftover [g_k, g_end): angular re-split; a leftover too
            # thin to keep comparable sides (or too light for one cell) is
            # merged back into the previous ring first
            leftover = density.ring_mass(g_k, g_end)
            width = g_end - g_k
            prev_width = g_k - rings[-1].g_lo[0].item() if len(rings) > first else math.inf
            if leftover >= 2.0 and width >= 0.5 * prev_width:
                _split_ring_by_angle(rings, density, g_k, g_end, kind, generation)
            elif len(rings) > first:
                prev_lo = rings.pop().g_lo[0].item()
                _split_ring_by_angle(rings, density, prev_lo, g_end, kind, generation)
            elif leftover >= 2.0:
                _split_ring_by_angle(rings, density, g_k, g_end, kind, generation)
            else:
                # whole region holds less than one cell; dropped, flagged
                return leftover > 0.0
            return False
        if _cell_count(rings) + m > ceiling:
            return True
        rings.append(_sector_ring(g_k, g_next, m, kind, generation, density.branch))
        g_k = g_next


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
    rings: list[CellColumns] = []
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
            rings, density, g_lo, g_hi, kind, generation, g_max, ceiling
        )

    # the thin mass ring: single ring, angular split only
    if gen.r_hat.g < g_max and gen.r_hat.g <= 36.0:
        density = _density_for(profile, i, 4)
        total = density.ring_mass(gen.r_hat.g, gen.r_star.g)
        if _cell_count(rings) + total / 2.0 <= ceiling:
            _split_ring_by_angle(
                rings, density, gen.r_hat.g, gen.r_star.g, "A-star", generation
            )
            truncated["A-star"] = False
        else:
            truncated["A-star"] = True
    else:
        truncated["A-star"] = True

    return PartitionResult(
        cells=CellColumns.concat(rings), truncated=truncated, generation=generation
    )


# -- atomization -------------------------------------------------------------


@dataclass
class ZeroCloud:
    """Surrogate zeros: one double zero per cell at the density-weighted
    radial centroid and angular midpoint (split_doubles turns each into two
    simple zeros straddling the midpoint).  ``cells`` holds, per atom, the
    piece of its cell the atom stands for (CellColumns from ``atomize``)."""

    g: np.ndarray
    theta: np.ndarray
    mult: np.ndarray
    kind: Sequence[str]
    cells: Sequence[PolarCell]
    profile: RadialProfile | None = None
    # built on the first surrogate evaluation: the kernel source triple
    # (atoms ++ cell nodes), its node tail and the sorted atom positions
    _sources: tuple | None = field(default=None, repr=False)
    _nodes: tuple | None = field(default=None, repr=False)
    _atom_keys: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.g)

    @property
    def total_multiplicity(self) -> int:
        return int(np.sum(self.mult))

    def to_jsonl(self) -> str:
        """One dumps17 record per atom with keys cell_kind, g, mult, theta;
        a non-finite g or theta raises dumps17's ValueError."""
        g = np.asarray(self.g, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        bad = np.flatnonzero(~(np.isfinite(g) & np.isfinite(theta)))
        if len(bad):  # dumps17 raises its ValueError on the first one
            dumps17([float(g[bad[0]]), float(theta[bad[0]])])
        quoted = {k: json.dumps(k) for k in set(self.kind)}
        rows = zip(
            map(quoted.__getitem__, self.kind),
            map(format, g.tolist(), repeat(".17g")),
            np.asarray(self.mult).tolist(),
            map(format, theta.tolist(), repeat(".17g")),
        )
        return "".join(map(_JSONL_ROW.__mod__, rows))


def _cell_centroid(density: _BranchDensity, cell_g_lo, cell_g_hi) -> float:
    """g of the density-weighted radial centroid."""
    mass = density.ring_mass(cell_g_lo, cell_g_hi)
    gap = density.ring_gap_moment(cell_g_lo, cell_g_hi) / mass
    return -math.log(gap)


def atomize(
    partition: PartitionResult, profile: RadialProfile, split_doubles: bool = False
) -> ZeroCloud:
    cells = partition.cells

    def centroid(g_lo, g_hi, generation, branch):
        return _cell_centroid(_density_for(profile, generation - 1, branch), g_lo, g_hi)

    g_ring, ring_of = _per_ring(cells, centroid)
    # a heavy cell (mass >= 3) becomes two pieces split at its angular midpoint
    n_pieces = np.where(cells.mass < 3.0, 1, 2)
    cell_of = np.repeat(np.arange(len(cells)), n_pieces)
    lo, hi = cells.theta_lo[cell_of], cells.theta_hi[cell_of]
    first = (np.cumsum(n_pieces) - n_pieces)[n_pieces == 2]
    cut = 0.5 * (lo[first] + hi[first])
    hi[first] = cut
    lo[first + 1] = cut
    mass = cells.mass[cell_of] * (hi - lo) / (cells.theta_hi[cell_of] - cells.theta_lo[cell_of])
    mid = 0.5 * (lo + hi)
    if split_doubles:
        quarter = 0.25 * (hi - lo)
        theta = np.column_stack([mid - quarter, mid + quarter]).ravel()
        piece_of = np.repeat(np.arange(len(mid)), 2)
        mult = np.full(len(theta), 1.0)
    else:
        theta, piece_of, mult = mid, np.arange(len(mid)), np.full(len(mid), 2.0)
    atom_cell = cell_of[piece_of]
    pieces = CellColumns(
        cells.g_lo[atom_cell], cells.g_hi[atom_cell], lo[piece_of], hi[piece_of],
        mass[piece_of], cells.kind[atom_cell], cells.generation[atom_cell],
        cells.branch[atom_cell],
    )
    return ZeroCloud(
        g=g_ring[ring_of[atom_cell]], theta=theta, mult=mult, kind=_KIND_NAMES[pieces.kind],
        cells=pieces, profile=profile,
    )


# -- surrogate potential ------------------------------------------------------


def _cell_nodes(cloud: ZeroCloud) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density-weighted quadrature nodes over every atom's source cell (4 x 4
    Gauss-Legendre; atom-major, r-major, theta-minor), normalized so each
    cell's node weights sum to the mass its atom carries.

    Built once per cloud as the tail of its kernel source triple (atoms ++
    nodes); returns (delta, theta, weight) views of that tail, the weights
    negated as ``kernel_sums`` takes cell averages.
    """
    if cloud._nodes is not None:
        return cloud._nodes
    cells = CellColumns.of(cloud.cells)
    leg = _LEG_NODES[4]

    def ring(g_lo, g_hi, generation, branch):
        # per ring: 1 - r at the four radii, their radial weights, the total
        density = _density_for(cloud.profile, generation - 1, branch)
        r_lo, r_hi = -math.expm1(-g_lo), -math.expm1(-g_hi)
        hr = 0.5 * (r_hi - r_lo)
        cr = 0.5 * (r_hi + r_lo)
        rw = [(cr + hr * x, w * density.rho(cr + hr * x)) for x, w in leg]
        total = sum(w for _, w in rw) * sum(w for _, w in leg)
        return [1.0 - rv for rv, _ in rw] + [wr for _, wr in rw] + [total]

    per_ring, ring_of = _per_ring(cells, ring)
    per_atom = per_ring.reshape(-1, 9)[ring_of]
    n = len(cells)
    half_width = 0.5 * (cells.theta_hi - cells.theta_lo)
    centre = 0.5 * (cells.theta_hi + cells.theta_lo)
    scale = cloud.mult / per_atom[:, 8]
    src_delta, src_theta, src_weight = (np.empty(17 * n) for _ in range(3))
    src_delta[:n] = np.exp(-cloud.g)
    src_theta[:n] = cloud.theta
    src_weight[:n] = cloud.mult
    src_delta[n:].reshape(n, 4, 4)[...] = per_atom[:, :4, None]
    leg_x = np.array([x for x, _ in leg])
    leg_w = np.array([w for _, w in leg])
    src_theta[n:].reshape(n, 4, 4)[...] = (centre[:, None] + half_width[:, None] * leg_x)[:, None, :]
    node_w = src_weight[n:].reshape(n, 4, 4)
    np.multiply(per_atom[:, 4:8, None] * leg_w, scale[:, None, None], out=node_w)
    np.negative(node_w, out=node_w)
    cloud._sources = (src_delta, src_theta, src_weight)
    cloud._nodes = (src_delta[n:], src_theta[n:], src_weight[n:])
    return cloud._nodes


def _on_atom(cloud: ZeroCloud, delta: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Which points (delta, theta) sit exactly on an atom: a binary search in
    the atom positions, sorted once per cloud as complex keys delta + i theta."""
    n = len(cloud)
    if cloud._atom_keys is None:
        cloud._atom_keys = np.sort(cloud._sources[0][:n] + 1j * cloud._sources[1][:n])
    probe = delta + 1j * theta
    at = np.minimum(np.searchsorted(cloud._atom_keys, probe), n - 1)
    return cloud._atom_keys[at] == probe


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
    _cell_nodes(cloud)
    corr = kernel_sums(samp_delta, samp_theta, *cloud._sources)
    out = base + corr
    out[_on_atom(cloud, samp_delta, samp_theta)] = -math.inf
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
    # the loop keeps |dr| <= lim; the factor 2 covers numpy's exp rounding
    near = np.abs(np.exp(-cloud.g) - gap) <= 2.0 * lim
    for ga, ta in zip(cloud.g[near], cloud.theta[near]):
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
