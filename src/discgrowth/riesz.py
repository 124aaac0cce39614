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

Only ``partition_region`` decides what a ring is.  It keeps what the cells of
a ring share (g_lo, g_hi, branch) once per ring in a ``RingTable``, with the
partition's generation, and the cells as numpy columns (``CellColumns``: ring
index into the table, theta_lo, theta_hi, mass, kind code), one row per cell.
``atomize`` computes every transcendental value once per ring (the centroid
g, the density at the Gauss-Legendre radii), with the scalar ``math`` calls
of a per-cell loop; a generation has tens of rings against up to ~1e5 cells.
Per-cell and per-atom values follow by numpy arithmetic in the same
operation and element order as that loop, so outputs are bit-identical to
it.  A ``ZeroCloud`` keeps the same columns for the cell piece behind each
atom, and the node values per ring.  ``PolarCell`` objects are built only
when a caller indexes or iterates the columns.

``ZeroCloud.to_jsonl`` writes one dumps17 row per atom.  All atoms of a ring
share their cell kind, centroid g and multiplicity, so the row prefix up to
theta is formatted once per run of equal (kind, g, mult), and the thetas by
one exact numpy ``%.17g`` kernel call (``serialize.format17_lines``) per block
of atoms; the text is byte-identical to per-atom dumps17 rows.

Every query of a cloud reads one table built once per cloud (``_Sources``)
and the atom gaps exp(-g) (``ZeroCloud.delta``).  The surrogate sums each
sample over its near field only: the rings within 64 local cell sizes of it
and, on each, an angular window found by binary search in the table's ring
index.  One call evaluates all its samples in one batched pass over
(sample, atom) pairs, reading the cell nodes in compact form (per ring the
four node radii and radial weights, per atom the angular centre, half-width
and weight scale); it makes no BLAS call, so its values do not depend on the
BLAS thread count.  A sample that sits exactly on an atom has that atom in
its near field, where the kernel's log 0 makes the sum -inf.
``_cell_nodes`` expands the compact nodes one by one for the direct sum
over all 17 N sources (``_accel.kernel_sums``) that the tests compare the
surrogate against; the library never calls it.

Enumeration happens in plain double arithmetic and is therefore capped at
moderate g (cells per ring grow like e^g); the cap and the cell-count
ceiling are explicit, and hitting them yields a truncation report rather
than a silent failure.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import LogGap, NumericsError, as_g
from .profiles import RadialProfile
from .serialize import dumps17, format17_lines

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
class RingTable:
    """The rings of one partition, one row per ring: the log-gaps of its
    edges and the profile branch carrying its density (1, 3, 4, 5); every
    ring belongs to ``generation``."""

    g_lo: np.ndarray
    g_hi: np.ndarray
    branch: np.ndarray
    generation: int


@dataclass(frozen=True, eq=False)
class CellColumns(Sequence):
    """Polar cells as columns, one row per cell: the index of its ring in
    ``rings``, its angular edges, its mass and its kind as a code into KINDS.
    An integer index builds the row's PolarCell; a slice, mask or index array
    selects rows as CellColumns over the same ring table."""

    ring: np.ndarray
    theta_lo: np.ndarray
    theta_hi: np.ndarray
    mass: np.ndarray
    kind: np.ndarray
    rings: RingTable

    def __len__(self) -> int:
        return len(self.ring)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            k, rings = self.ring[index], self.rings
            return PolarCell(
                rings.g_lo[k].item(), rings.g_hi[k].item(), self.theta_lo[index].item(),
                self.theta_hi[index].item(), self.mass[index].item(), KINDS[self.kind[index]],
                rings.generation, rings.branch[k].item(),
            )
        return CellColumns(
            self.ring[index], self.theta_lo[index], self.theta_hi[index], self.mass[index],
            self.kind[index], self.rings,
        )


@dataclass
class PartitionResult:
    cells: CellColumns
    truncated: dict[str, bool]
    generation: int

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


def _sector_count(g: float) -> int:
    if g > 36.0:
        raise PartitionError("sector count beyond exact range; lower g_max")
    return max(1, int(math.floor(math.exp(g))))


def _sector_ring(g_lo, g_hi, m, kind, branch) -> tuple:
    """m equal sectors of mass 2, as the row (g_lo, g_hi, branch, theta_lo,
    theta_hi, mass, kind codes) that partition_region collects per ring; the
    last four are the columns of its cells."""
    width = 2.0 * math.pi / m
    j = np.arange(m, dtype=float)
    codes = np.full(m, _KIND_CODE[kind], dtype=np.int8)
    return g_lo, g_hi, branch, j * width, (j + 1.0) * width, np.full(m, 2.0), codes


def _split_ring_by_angle(rings: list[tuple], density, g_lo, g_hi, kind) -> None:
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
    rings.append((g_lo, g_hi, density.branch, theta_lo, theta_hi, mass, codes))


def _cell_count(rings: list[tuple]) -> int:
    return sum(len(ring[-1]) for ring in rings)


def _partition_ringed_region(
    rings: list[tuple],
    density: _BranchDensity,
    g_start: float,
    g_end: float,
    kind: str,
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
            prev_width = g_k - rings[-1][0] if len(rings) > first else math.inf
            if leftover >= 2.0 and width >= 0.5 * prev_width:
                _split_ring_by_angle(rings, density, g_k, g_end, kind)
            elif len(rings) > first:
                _split_ring_by_angle(rings, density, rings.pop()[0], g_end, kind)
            elif leftover >= 2.0:
                _split_ring_by_angle(rings, density, g_k, g_end, kind)
            else:
                # whole region holds less than one cell; dropped, flagged
                return leftover > 0.0
            return False
        if _cell_count(rings) + m > ceiling:
            return True
        rings.append(_sector_ring(g_k, g_next, m, kind, density.branch))
        g_k = g_next


def partition_region(
    profile: RadialProfile,
    generation: int,
    g_max: float = 25.0,
    ceiling: int = 200_000,
) -> PartitionResult:
    """All mass-2 cells of one generation up to a finite g_max, per
    sub-annulus."""
    sc = profile.scaffold
    if not 1 <= generation <= len(sc.generations):
        raise PartitionError(f"generation {generation} not constructed")
    if not math.isfinite(g_max):
        raise PartitionError(f"g_max must be finite, got {g_max}")
    i = generation - 1
    gen = sc.generations[i]
    rings: list[tuple] = []
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
            rings, density, g_lo, g_hi, kind, g_max, ceiling
        )

    # the thin mass ring: single ring, angular split only
    if gen.r_hat.g < g_max and gen.r_hat.g <= 36.0:
        density = _density_for(profile, i, 4)
        total = density.ring_mass(gen.r_hat.g, gen.r_star.g)
        if _cell_count(rings) + total / 2.0 <= ceiling:
            _split_ring_by_angle(rings, density, gen.r_hat.g, gen.r_star.g, "A-star")
            truncated["A-star"] = False
        else:
            truncated["A-star"] = True
    else:
        truncated["A-star"] = True

    g_lo, g_hi, branch, theta_lo, theta_hi, mass, kind = zip(*rings) if rings else [()] * 7
    table = RingTable(
        np.array(g_lo, dtype=float), np.array(g_hi, dtype=float), np.array(branch, dtype=np.int8),
        generation,
    )
    cells = CellColumns(
        np.repeat(np.arange(len(rings)), [len(codes) for codes in kind]),
        *(np.concatenate([np.empty(0), *col]) for col in (theta_lo, theta_hi, mass)),
        np.concatenate([np.empty(0, dtype=np.int8), *kind]), table,
    )
    return PartitionResult(cells=cells, truncated=truncated, generation=generation)


# -- atomization -------------------------------------------------------------


# rows per format17_lines call of ZeroCloud.to_jsonl: enough to spread the
# call's fixed cost, few enough for the block's arrays to stay in cache
_JSONL_CHUNK = 1024


@dataclass
class ZeroCloud:
    """Surrogate zeros: one double zero per cell at the density-weighted
    radial centroid and angular midpoint (split_doubles turns each into two
    simple zeros straddling the midpoint).  ``cells`` holds, per atom, the
    piece of its cell the atom stands for, and ``nodes`` the node values of
    each ring of their ring table (both from ``atomize``; the surrogate
    reads them)."""

    g: np.ndarray
    theta: np.ndarray
    mult: np.ndarray
    kind: Sequence[str]
    cells: Sequence[PolarCell]
    # (9, rings): 1 - r at the ring's four Gauss-Legendre radii, their radial
    # weights w rho(r) and the total weight of a cell's 4 x 4 nodes
    nodes: np.ndarray | None = None
    # the kernel sources and ring index, built on the first surrogate call
    _sources: _Sources | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.g)

    @cached_property
    def delta(self) -> np.ndarray:
        """exp(-g) = 1 - |zeta| per atom, computed once per cloud."""
        return np.exp(-np.asarray(self.g, dtype=float))

    @property
    def total_multiplicity(self) -> int:
        return int(np.sum(self.mult))

    def to_jsonl(self) -> str:
        """One dumps17 record per atom with keys cell_kind, g, mult, theta;
        a non-finite g or theta raises dumps17's ValueError.

        The row prefix up to theta depends on (kind, g, mult) alone, so it is
        formatted once per run of atoms with equal values (a ring of one cell
        kind).  Runs break wherever a value or the bits of g change (0.0 and
        -0.0 print differently).  The thetas are formatted by
        ``format17_lines`` in blocks of ``_JSONL_CHUNK`` atoms, across run
        boundaries: its numpy path covers 1e-4 <= theta < 8, and any other
        theta falls back to ``%.17g`` for its row alone.  The rows of a run
        within a block are its slice of the block's lines with each newline
        replaced by the row end and the run's prefix, so the text is
        byte-identical to the dumps17 rows for any cloud.  Each block's rows
        are joined into one string before the whole text is: pieces of one
        size leave the freed heap in pieces the next text can reuse."""
        g = np.ascontiguousarray(self.g, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        bad = np.flatnonzero(~(np.isfinite(g) & np.isfinite(theta)))
        if len(bad):  # dumps17 raises its ValueError on the first one
            dumps17([float(g[bad[0]]), float(theta[bad[0]])])
        bits, kind, mult = g.view(np.int64), np.asarray(self.kind, dtype=object), np.asarray(self.mult)
        n = len(g)
        change = np.ones(n, dtype=bool)
        change[1:] = (bits[1:] != bits[:-1]) | (kind[1:] != kind[:-1]) | (mult[1:] != mult[:-1])
        starts = np.flatnonzero(change)
        heads = [
            '{"cell_kind":%s,"g":%.17g,"mult":%d,"theta":' % (json.dumps(kind[s]), g[s], mult[s])
            for s in starts.tolist()
        ]
        # the pieces: runs cut at block edges
        cut = change.copy()
        cut[::_JSONL_CHUNK] = True
        cuts = np.flatnonzero(cut)
        run_of = (np.cumsum(change)[cuts] - 1).tolist()
        out, rows = [], []
        for a, b, r in zip(cuts.tolist(), cuts[1:].tolist() + [n], run_of):
            if a % _JSONL_CHUNK == 0:  # a new block
                out.append("".join(rows))
                rows = []
                block = a
                text, bounds = format17_lines(theta[a:a + _JSONL_CHUNK])
            head = heads[r]
            lines = text[bounds[a - block]:bounds[b - block] - 1]
            rows += (head, lines.replace("\n", "}\n" + head), "}\n")
        out.append("".join(rows))
        return "".join(out)


def _cell_centroid(density: _BranchDensity, cell_g_lo, cell_g_hi) -> float:
    """g of the density-weighted radial centroid."""
    mass = density.ring_mass(cell_g_lo, cell_g_hi)
    gap = density.ring_gap_moment(cell_g_lo, cell_g_hi) / mass
    return -math.log(gap)


def _ring_nodes(density: _BranchDensity, g_lo: float, g_hi: float) -> list[float]:
    """The ring's row of ``ZeroCloud.nodes``."""
    leg = _LEG_NODES[4]
    r_lo, r_hi = -math.expm1(-g_lo), -math.expm1(-g_hi)
    hr = 0.5 * (r_hi - r_lo)
    cr = 0.5 * (r_hi + r_lo)
    rw = [(cr + hr * x, w * density.rho(cr + hr * x)) for x, w in leg]
    total = sum(w for _, w in rw) * sum(w for _, w in leg)
    return [1.0 - rv for rv, _ in rw] + [wr for _, wr in rw] + [total]


def atomize(
    partition: PartitionResult, profile: RadialProfile, split_doubles: bool = False
) -> ZeroCloud:
    cells = partition.cells
    rings = cells.rings
    rows = []  # per ring: the centroid g, then its node values
    for g_lo, g_hi, branch in zip(rings.g_lo.tolist(), rings.g_hi.tolist(), rings.branch.tolist()):
        density = _density_for(profile, rings.generation - 1, branch)
        rows.append([_cell_centroid(density, g_lo, g_hi), *_ring_nodes(density, g_lo, g_hi)])
    per_ring = np.array(rows, dtype=float).reshape(-1, 10).T
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
    ring = cells.ring[atom_cell]
    kind = cells.kind[atom_cell]
    pieces = CellColumns(ring, lo[piece_of], hi[piece_of], mass[piece_of], kind, rings)
    return ZeroCloud(
        g=per_ring[0][ring], theta=theta, mult=mult, kind=_KIND_NAMES[kind], cells=pieces,
        nodes=per_ring[1:],
    )


# -- surrogate potential ------------------------------------------------------

_LEG_X = np.array([x for x, _ in _LEG_NODES[4]])
_LEG_W = np.array([w for _, w in _LEG_NODES[4]])
assert np.array_equal(_LEG_W, _LEG_W[::-1])  # the kernel pairs mirrored nodes


# near field of a sample: the rings within _NEAR_CUT local cell sizes of it
_NEAR_CUT = 64.0
_TWO_PI = 2.0 * math.pi
# (sample, atom) pairs per block of the near-field kernel, so that its
# (4, 4, block) temporaries stay in a 1-2 MB L2 cache
_PAIR_BLOCK = 4096


@dataclass(frozen=True)
class _Sources:
    """The table every surrogate query of a cloud reads: its kernel sources
    in compact form and its atoms grouped by ring.

    Kernel sources: the atoms and the 4 x 4 density-weighted Gauss-Legendre
    nodes of every atom's source cell.  A ring's cells share the node radii,
    so the node gaps 1 - r_i and radial weights w_i rho(r_i) are kept once
    per ring; node (i, j) of an atom sits at angle centre + half_width x_j
    with weight radial_i w_j scale, where scale = mult / (the ring's total
    weight), so a cell's node weights sum to the mass its atom carries.

    Ring index: a ring's atoms are listed by ascending theta mod 2 pi, and
    ``keys`` = 8 ring + theta mod 2 pi in that order, so one binary search
    finds an angular window on every ring (2 pi < 8)."""

    delta: np.ndarray  # per atom: exp(-g)
    theta: np.ndarray
    mult: np.ndarray
    ring: np.ndarray  # per atom: its ring's column in gap and radial
    centre: np.ndarray  # per atom: angular centre of its cell piece
    half_width: np.ndarray
    scale: np.ndarray
    gap: np.ndarray  # (4, rings)
    radial: np.ndarray  # (4, rings)
    order: np.ndarray  # atom indices, ring-major, theta-ascending
    keys: np.ndarray
    r_lo: np.ndarray  # per ring
    r_hi: np.ndarray
    s: np.ndarray  # per ring: max(radial extent, widest cell width x r_lo)


def _sources(cloud: ZeroCloud) -> _Sources:
    """Built once per cloud, from the ring table of its cells and the node
    values ``atomize`` computed per ring.  ``order`` is one stable argsort of
    8 ring + theta mod 2 pi: the identity on an ``atomize`` cloud, whose
    atoms come ring by ring sorted by theta, and a cloud with a ring out of
    theta order gives the same values."""
    if cloud._sources is not None:
        return cloud._sources
    cells = cloud.cells
    rings, ring = cells.rings, cells.ring
    keys = 8.0 * ring + np.mod(cloud.theta, _TWO_PI)
    order = np.argsort(keys, kind="stable")
    width = np.zeros(len(rings.g_lo))  # per ring: its widest cell piece
    np.maximum.at(width, ring, cells.theta_hi - cells.theta_lo)
    r_lo = -np.expm1(-rings.g_lo)
    mult = np.asarray(cloud.mult, dtype=float)
    cloud._sources = _Sources(
        delta=cloud.delta, theta=np.asarray(cloud.theta, dtype=float),
        mult=mult, ring=ring, centre=0.5 * (cells.theta_hi + cells.theta_lo),
        half_width=0.5 * (cells.theta_hi - cells.theta_lo), scale=mult / cloud.nodes[8][ring],
        gap=cloud.nodes[:4], radial=cloud.nodes[4:8], order=order, keys=keys[order],
        r_lo=r_lo, r_hi=-np.expm1(-rings.g_hi),
        s=np.maximum(np.exp(-rings.g_lo) - np.exp(-rings.g_hi), width * r_lo),
    )
    return cloud._sources


def _cell_nodes(cloud: ZeroCloud) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cell nodes laid out one by one as (delta, theta, weight), atom-major,
    r-major, theta-minor, the weights negated as ``kernel_sums`` takes cell
    averages: the direct-sum reference.  The surrogate reads the compact
    ``_sources`` and never builds this 16 N triple."""
    src = _sources(cloud)
    delta = np.repeat(src.gap.T[src.ring], 4, axis=1)
    theta = np.tile(src.centre[:, None] + src.half_width[:, None] * _LEG_X, 4)
    weight = -(src.radial.T[src.ring][:, :, None] * _LEG_W * src.scale[:, None, None])
    return delta.ravel(), theta.ravel(), weight.ravel()


def _near_pairs(src: _Sources, delta: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The near field of each point (delta[k], theta[k]): on each ring within
    _NEAR_CUT s of it, the atoms in the angular window of half-width
    sqrt((_NEAR_CUT s)^2 - dr^2) / r_lo about theta, where dr is the radial
    distance to the ring; the whole ring once that reaches pi.  The windows
    of all points and rings come from one pair of binary searches.  Returns
    the atoms, point-major (a point's atoms ring by ring), and the count of
    each point."""
    r = 1.0 - delta[:, None]
    reach = _NEAR_CUT * src.s
    dr = np.maximum(np.maximum(src.r_lo - r, r - src.r_hi), 0.0)
    span = np.sqrt(np.maximum(reach * reach - dr * dr, 0.0))
    near = dr <= reach
    whole = near & (span >= math.pi * src.r_lo)  # also an innermost ring with r_lo = 0
    part = near & ~whole
    half = span / np.where(part, src.r_lo, 1.0)
    t = np.mod(theta, _TWO_PI)[:, None]
    # per (point, ring), the window clipped to [0, 2 pi] and the piece
    # wrapping round; a far ring gets two empty windows
    lo = np.where(part, t - half, np.where(whole, 0.0, 1.0))
    hi = np.where(part, t + half, np.where(whole, _TWO_PI, 0.0))
    wrap_lo = np.where(lo < 0.0, lo + _TWO_PI, 0.0)
    wrap_hi = np.where(lo < 0.0, _TWO_PI, np.where(hi > _TWO_PI, hi - _TWO_PI, -1.0))
    base = 8.0 * np.arange(len(src.s))
    first = np.searchsorted(src.keys, np.hstack([base + np.maximum(lo, 0.0), base + wrap_lo]), "left")
    last = np.searchsorted(src.keys, np.hstack([base + np.minimum(hi, _TWO_PI), base + wrap_hi]), "right")
    count = np.maximum(last - first, 0)
    flat = count.ravel()
    pos = np.arange(flat.sum()) + np.repeat(first.ravel() - np.cumsum(flat) + flat, flat)
    return src.order[pos], count.sum(axis=1)


def _pair_terms(src: _Sources, dz: np.ndarray, tz: np.ndarray, atom: np.ndarray) -> np.ndarray:
    """Twice the kernel term of each (sample, atom) pair minus its cell
    average: mult L(atom) - scale sum_i radial_i sum_j w_j L(node ij), where
    L = log(num / den) = 2 log|(z - zeta) / (1 - conj(z) zeta)| with
    num = (delta - dz)^2 + cross, den = (dz + delta - dz delta)^2 + cross and
    cross = 4 |z| |zeta| sin^2((theta_z - theta) / 2).  A pair's value does
    not depend on the other pairs of its block."""
    rz4 = 4.0 * (1.0 - dz)
    d = src.delta[atom]
    s = np.sin(0.5 * (tz - src.theta[atom]))
    cross = rz4 * (1.0 - d) * s * s
    dd, om = d - dz, dz + d - dz * d
    atom_l = np.log((dd * dd + cross) / (om * om + cross))
    # the nodes: sines once per angle j, radial terms once per radius i
    ring = src.ring[atom]
    gap = np.take(src.gap, ring, axis=1)
    s = np.sin(0.5 * (tz - (src.centre[atom] + src.half_width[atom] * _LEG_X[:, None])))
    s *= s
    dd, om = gap - dz, dz + gap - dz * gap
    dd *= dd
    om *= om
    cross = (rz4 * (1.0 - gap))[:, None] * s  # (radius i, angle j, pair)
    num = cross + dd[:, None]
    cross += om[:, None]
    # w_j = w_(3-j): one log per radius and pair of mirrored angles
    num[:, :2] *= num[:, :1:-1]
    cross[:, :2] *= cross[:, :1:-1]
    ratio = np.log(num[:, :2] / cross[:, :2])
    node = ratio[:, 0] * _LEG_W[0] + ratio[:, 1] * _LEG_W[1]
    node *= np.take(src.radial, ring, axis=1)
    return src.mult[atom] * atom_l - src.scale[atom] * node.sum(axis=0)


def eval_log_surrogate_many(
    cloud: ZeroCloud, profile: RadialProfile, zs: Sequence[tuple[LogGap, float]]
) -> np.ndarray:
    """phi(|z|) plus the atomization correction
    sum_atoms mult [log|(z-zeta)/(1-conj(z) zeta)| - cell average of the same
    kernel]; -inf at a point that sits exactly on an atom (equal g and
    theta): that atom is always in the point's near field, and its kernel
    term is log 0.

    Each term has zero net mass, so its far field decays fast, and the sum
    runs over the near field only (``_near_pairs``: the rings within
    _NEAR_CUT = 64 local cell sizes of z, and the cell nodes of their atoms).
    That keeps 9% of the sources on the 5.9k-atom generation-1 cloud of the
    small test scaffold and 0.8% on the 127k-atom cloud of the wide one.
    Measured against the direct sum over every source, on uniform random
    samples over the enumerated range (600 and 120 samples), the dropped
    tail is at most 1.4e-4 and 1.6e-4 on these clouds, largest at g < 3
    where the sample sees far rings of fine cells, and at most 5.2e-5 and
    1.1e-4 at g >= 3.  No runtime estimate of the tail is made, because the
    cheap ones do not bound it: on 48 random samples of the wide cloud at
    g >= 3, |S(64) - S(32)| (S(c): the sum at cut c) fell below the true
    error on 11, by up to 51x, and max(|S(64) - S(32)|, |S(32) - S(16)|/2)
    on 2.

    One batched pass per call: the near-field windows of all samples come
    from one binary-search pair, giving a flat sample-major list of
    (sample, atom) pairs; ``_pair_terms`` evaluates them in blocks of
    _PAIR_BLOCK pairs from the compact per-ring and per-atom node
    parameters, and each sample's contiguous run of pair terms is summed in
    order.  The windows and the node parameters come from one table per
    cloud (``_sources``).  No BLAS call is made, so the values do not
    depend on the BLAS thread count, and a sample gets the same value alone
    or in any batch.
    """
    gs = np.array([as_g(g) for g, _ in zs], dtype=float)
    samp_delta = np.exp(-gs)
    samp_theta = np.array([t for _, t in zs], dtype=float)
    if not np.all(np.isfinite(samp_theta)):
        raise NumericsError("eval_log_surrogate_many needs finite sample angles")
    out = profile.phi(gs)
    if len(cloud) == 0:
        return out
    src = _sources(cloud)
    atoms, count = _near_pairs(src, samp_delta, samp_theta)
    sample = np.repeat(np.arange(len(gs)), count)
    terms = np.empty(len(atoms))
    with np.errstate(divide="ignore"):  # log 0 = -inf on an atom
        for start in range(0, len(atoms), _PAIR_BLOCK):
            block = slice(start, start + _PAIR_BLOCK)
            at = sample[block]
            terms[block] = _pair_terms(src, samp_delta[at], samp_theta[at], atoms[block])
    some = count > 0  # np.add.reduceat would give an empty run its next term
    if some.any():
        out[some] += 0.5 * np.add.reduceat(terms, (np.cumsum(count) - count)[some])
    return out


# -- excluded arcs and the approximation report -------------------------------


def excluded_arcs(cloud: ZeroCloud, g_circle: float, eps: float) -> list[tuple[float, float]]:
    """Merged arcs of {theta : dist(r e^(i theta), zeros) <= eps (1-r)} on the
    circle of log-gap g_circle; eps >= 0."""
    if not eps >= 0.0:
        raise NumericsError(f"excluded_arcs needs eps >= 0, got {eps}")
    if eps == 0.0:
        return []
    r = -math.expm1(-g_circle)
    gap = math.exp(-g_circle)
    lim = eps * gap
    # atoms within eps (1 - r) of the circle radially, then their half-arcs;
    # |dr| <= lim as two comparisons, so no second N-sized float temporary
    dr = gap - cloud.delta
    near = (dr <= lim) & (dr >= -lim)
    if not near.any():
        return []
    ga, ta, dr = cloud.g[near], cloud.theta[near], dr[near]
    sin2 = (lim * lim - dr * dr) / (4.0 * r * -np.expm1(-ga))
    half = 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(np.maximum(sin2, 0.0))))
    lo, hi = (ta - half) % (2.0 * math.pi), (ta + half) % (2.0 * math.pi)
    # unwrap: an arc over theta = 0 splits into [lo, 2 pi) and [0, hi)
    wrap = hi < lo
    lo = np.concatenate([lo, np.zeros(np.count_nonzero(wrap))])
    hi = np.concatenate([np.where(wrap, 2.0 * math.pi, hi), hi[wrap]])
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    # an arc opens a new merged arc iff it starts past every end before it
    reach = np.maximum.accumulate(hi)
    start = np.flatnonzero(np.concatenate([[True], lo[1:] > reach[:-1]]))
    end = np.append(start[1:], len(lo)) - 1
    return list(zip(lo[start].tolist(), reach[end].tolist()))


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
    gs = np.array([z[0].g for z in zs])
    vals = eval_log_surrogate_many(cloud, profile, zs)
    errs = np.abs(vals - profile.phi(gs)) / (1.0 + np.log(np.maximum(gs, 1.0)))
    per_circle = [(g, excluded_measure(cloud, g, eps)) for g in circle_gs]
    c4 = max((m / eps for _, m in per_circle), default=0.0) if eps > 0 else 0.0
    return ApproxReport(
        max_scaled_error=float(np.max(errs)),
        per_circle_excluded=per_circle,
        fitted_c4=c4,
        eps=eps,
        samples_used=len(zs),
    )
