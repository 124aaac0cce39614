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
atom, and the node values per ring.

``ZeroCloud.to_jsonl`` gives the text of one dumps17 row per atom as an
iterator of blocks of atoms, so a writer holds one block at a time.  All
atoms of a ring share their cell kind, centroid g and multiplicity, so the
row prefix up to theta is formatted once per run of equal (kind, g, mult),
and the thetas by one exact numpy ``%.17g`` kernel call
(``serialize.format17_lines``) per block; the text is byte-identical to
per-atom dumps17 rows.

Every query of a cloud reads one ring index (``_RingIndex``: the atoms by
gap, in runs of one g, each by angle); the surrogate reads each ring of the
cell table as one of its runs, through one more table per cloud
(``_Sources``, rows per ring only: it reads each atom's cell piece and node
values from the cloud's ``cells`` and ``nodes``).  The zeros of a ring are
equally spaced, so its correction sums in closed form,
prod_k (z - rho e^(i(phi + 2 pi k/M))) = z^M - rho^M e^(i M phi), for each
of the 17 sources of a cell (its atom and 4 x 4 nodes; 18 with split
doubles): the table keeps one row per lattice ring (M, the seam of a split
ring, and per source M log rho, phase and weight), and a sample costs
O(rings).  A full sector ring is exact; a split ring (n - 1 cells of width
w and a remainder cell closing it at 2 pi) sums by the same form with the
non-integer M = 2 pi / w, used only for samples far from its seam.  The
other (sample, ring) pairs, on rings that are no lattice and at split-ring
seams, are summed over the near field only: the atoms within 64 local cell
sizes of the sample and their cell nodes, found by the ring index's window
search and evaluated in one batched pass over (sample, atom) pairs.  No
BLAS call is made, so the values do not depend on the BLAS thread count.
A sample on an atom gets -inf.  ``_cell_nodes`` expands the compact nodes
one by one for the direct sum over all 17 N sources (``_accel.kernel_sums``)
that the tests compare the surrogate against; the library never calls it.

Enumeration happens in plain double arithmetic and is therefore capped at
moderate g (cells per ring grow like e^g); the cap and the cell-count
ceiling are explicit, and hitting them yields a truncation report rather
than a silent failure.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
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
_TWO_PI = 2.0 * math.pi


class PartitionError(NumericsError):
    pass


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
class CellColumns:
    """Polar cells as columns, one row per cell: the index of its ring in
    ``rings``, its angular edges, its mass and its kind as a code into KINDS.
    A slice, mask or index array selects rows as CellColumns over the same
    ring table."""

    ring: np.ndarray
    theta_lo: np.ndarray
    theta_hi: np.ndarray
    mass: np.ndarray
    kind: np.ndarray
    rings: RingTable

    def __len__(self) -> int:
        return len(self.ring)

    def __getitem__(self, index) -> CellColumns:
        return CellColumns(
            self.ring[index], self.theta_lo[index], self.theta_hi[index], self.mass[index],
            self.kind[index], self.rings,
        )


@dataclass
class PartitionResult:
    """The cells of one partition and, per region, whether g_max or the
    ceiling cut it short; the generation is ``cells.rings.generation``."""

    cells: CellColumns
    truncated: dict[str, bool]

    @property
    def total_mass(self) -> float:
        # fsum rounds the exact sum once, so the cells of mass exactly 2 may
        # enter as the one exact term 2 n
        mass = self.cells.mass
        two = mass == 2.0
        return math.fsum([2.0 * np.count_nonzero(two), *mass[~two].tolist()])


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
    sub-annulus; the cell ``ceiling`` must be >= 1."""
    sc = profile.scaffold
    if not 1 <= generation <= len(sc.generations):
        raise PartitionError(f"generation {generation} not constructed")
    if not math.isfinite(g_max):
        raise PartitionError(f"g_max must be finite, got {g_max}")
    if ceiling < 1:
        raise PartitionError(f"ceiling must be >= 1, got {ceiling}")
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
    return PartitionResult(cells=cells, truncated=truncated)


# -- atomization -------------------------------------------------------------


# rows per block of ZeroCloud.to_jsonl (one format17_lines call each): enough
# to spread the call's fixed cost, few enough for the block's arrays and
# text to stay in cache
_JSONL_CHUNK = 1024


@dataclass(frozen=True)
class _RingIndex:
    """The atoms of a cloud by (gap, theta mod 2 pi), in runs of one g: the
    rings of every query.  ``atomize`` gives every atom of a cell ring one g
    and each cell ring its own, so there a run is one ring of the cell
    table; a hand-built cloud needs no cell table.  Runs break wherever the
    bits of g change, so a run's atoms share g and gap, and atoms of one gap
    with different g (or 0.0 and -0.0) split into several runs, each still
    in angle order.  ``keys`` = 8 run + theta mod 2 pi in index order (7 for
    a non-finite theta), so one binary search finds an angular window on
    every run (2 pi < 7 < 8)."""

    order: np.ndarray  # atom indices by ascending gap, each run by ascending theta mod 2 pi
    keys: np.ndarray
    start: np.ndarray  # (runs + 1,) where each run begins in order, then len(order)
    gap: np.ndarray  # per run: exp(-g) of its atoms, ascending (a NaN g last)
    g: np.ndarray  # per run: the g of its atoms
    scale: float  # 8 runs + 8 + the largest finite |theta|: the size of keys and angles

    @classmethod
    def build(cls, g: np.ndarray, theta: np.ndarray, delta: np.ndarray) -> _RingIndex:
        # each N-sized temporary is dropped once used: the index is built
        # inside the first query
        by_gap = np.argsort(delta, kind="stable")
        gs = g[by_gap]
        bits = gs.view(np.int64)
        new = np.ones(len(gs), dtype=bool)
        new[1:] = bits[1:] != bits[:-1]
        start = np.append(np.flatnonzero(new), len(gs))
        run_g = gs[start[:-1]]
        del gs, bits
        theta = theta[by_gap]
        finite = np.isfinite(theta)
        reach = float(np.max(np.abs(theta), where=finite, initial=0.0))
        keys = np.where(finite, _mod_turn(theta), 7.0)
        del theta, finite
        keys += 8.0 * (np.cumsum(new, dtype=float) - 1.0)
        # runs keep their place: only the atoms within a run move
        perm = np.argsort(keys, kind="stable")
        order = by_gap[perm]
        del by_gap
        return cls(order, keys[perm], start, delta[order[start[:-1]]], run_g, 8.0 * len(run_g) + 8.0 + reach)

    def runs(self, lo: float, hi: float) -> tuple[int, int]:
        """The runs a..b-1 with lo <= gap <= hi (a NaN gap is in none)."""
        return int(np.searchsorted(self.gap, lo, "left")), int(np.searchsorted(self.gap, hi, "right"))

    def near(self, gap: float, reach: float) -> np.ndarray:
        """The runs with |gap_run - gap| <= reach, tested on a band 2 reach wide."""
        a, b = self.runs(gap - 2.0 * reach, gap + 2.0 * reach)
        return a + np.flatnonzero(np.abs(self.gap[a:b] - gap) <= reach)

    def atoms(self, runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The atoms of the given runs, run by run, and the count of each."""
        pos, count = _ranges(self.start[runs], self.start[runs + 1])
        return self.order[pos], count

    def window(self, runs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The atoms with theta mod 2 pi in [lo, hi] (points, columns), wrapped
        at 2 pi, on run runs[j] of column j (run -1 has none), from one pair
        of binary searches, unpadded.  A window is [1, 0] (empty), inside
        [0, 2 pi], or shorter than 2 pi within [-2 pi, 4 pi].  Returns the
        atoms point-major (the clipped pieces column by column, then the
        wrapped ones) and the count of each point."""
        # per (point, column), the window clipped to [0, 2 pi] and the piece
        # wrapping round; an empty window gives two empty pieces
        wrap_lo = np.where(lo < 0.0, lo + _TWO_PI, 0.0)
        wrap_hi = np.where(lo < 0.0, _TWO_PI, np.where(hi > _TWO_PI, hi - _TWO_PI, -1.0))
        base = 8.0 * runs
        first = np.searchsorted(self.keys, np.hstack([base + np.maximum(lo, 0.0), base + wrap_lo]), "left")
        last = np.searchsorted(self.keys, np.hstack([base + np.minimum(hi, _TWO_PI), base + wrap_hi]), "right")
        pos, count = _ranges(first, last)
        return self.order[pos], count.sum(axis=1)


def _mod_turn(theta: np.ndarray) -> np.ndarray:
    """np.mod(theta, 2 pi) at the finite angles, computed (slowly) only
    outside [0, 2 pi), where it changes them (-0.0 stays, equal to 0.0);
    theta itself when there are none, as on every ``atomize`` cloud."""
    off = np.flatnonzero(np.isfinite(theta) & ((theta < 0.0) | (theta >= _TWO_PI)))
    if len(off):
        theta = theta.copy()
        theta[off] = np.mod(theta[off], _TWO_PI)
    return theta


def _ranges(first: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions first[k] .. last[k] - 1 of every k, concatenated in
    order (empty where last <= first), and the length of each range, shaped
    as first."""
    count = np.maximum(last - first, 0)
    flat = count.ravel()
    return np.arange(flat.sum()) + np.repeat(first.ravel() - np.cumsum(flat) + flat, flat), count


@dataclass
class ZeroCloud:
    """Surrogate zeros: one double zero per cell at the density-weighted
    radial centroid and angular midpoint (split_doubles turns each into two
    simple zeros straddling the midpoint).  ``cells`` holds, per atom, the
    piece of its cell the atom stands for, and ``nodes`` the node values of
    each ring of their ring table (both from ``atomize``; the surrogate
    reads them, and refuses a hand-built cloud without them).  Every query
    reads the ring index (``_RingIndex``), built on the first of them; the
    surrogate also reads ``sources``, built on its first call."""

    g: np.ndarray
    theta: np.ndarray
    mult: np.ndarray
    kind: Sequence[str]
    cells: CellColumns | None = None
    # (9, rings): 1 - r at the ring's four Gauss-Legendre radii, their radial
    # weights w rho(r) and the total weight of a cell's 4 x 4 nodes
    nodes: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.g)

    @cached_property
    def delta(self) -> np.ndarray:
        """exp(-g) = 1 - |zeta| per atom, computed once per cloud."""
        return np.exp(-np.asarray(self.g, dtype=float))

    @cached_property
    def ring_index(self) -> _RingIndex:
        return _RingIndex.build(np.asarray(self.g, dtype=float), np.asarray(self.theta, dtype=float), self.delta)

    @cached_property
    def sources(self) -> _Sources:
        """The surrogate's kernel sources and closed-form ring rows."""
        return _Sources.build(self)

    def band(self, lo: float, hi: float) -> np.ndarray:
        """The atoms with lo <= exp(-g) <= hi by ascending gap, and atoms of
        one g by ascending theta mod 2 pi: a slice of the ring index found
        by two binary searches over its runs (a NaN gap is in no band)."""
        idx = self.ring_index
        a, b = idx.runs(lo, hi)
        return idx.order[idx.start[a]:idx.start[b]]

    def to_jsonl(self) -> Iterator[str]:
        """The text of one dumps17 record per atom with keys cell_kind, g,
        mult, theta, as one string per block of ``_JSONL_CHUNK`` atoms; a
        non-finite g or theta raises dumps17's ValueError here, before the
        first block.

        The row prefix up to theta depends on (kind, g, mult) alone, so it is
        formatted here once per run of atoms with equal values (a ring of one
        cell kind).  Runs break wherever a value or the bits of g change (0.0
        and -0.0 print differently).  The blocks are formatted as they are
        read: each one's thetas by one ``format17_lines`` call, whose numpy
        path covers 1e-4 <= theta < 8 (any other theta falls back to
        ``%.17g`` for its row alone).  The rows of a run within a block are
        its slice of the block's lines with each newline replaced by the row
        end and the run's prefix, so the text is byte-identical to the
        dumps17 rows for any cloud."""
        g = np.ascontiguousarray(self.g, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        bad = np.flatnonzero(~(np.isfinite(g) & np.isfinite(theta)))
        if len(bad):  # dumps17 raises its ValueError on the first one
            dumps17([float(g[bad[0]]), float(theta[bad[0]])])
        bits, kind, mult = g.view(np.int64), np.asarray(self.kind, dtype=object), np.asarray(self.mult)
        change = np.ones(len(g), dtype=bool)
        change[1:] = (bits[1:] != bits[:-1]) | (kind[1:] != kind[:-1]) | (mult[1:] != mult[:-1])
        heads = [
            '{"cell_kind":%s,"g":%.17g,"mult":%d,"theta":' % (json.dumps(kind[s]), g[s], mult[s])
            for s in np.flatnonzero(change).tolist()
        ]
        # the pieces: runs cut at block edges
        cut = change.copy()
        cut[::_JSONL_CHUNK] = True
        cuts = np.flatnonzero(cut)
        return _jsonl_blocks(theta, heads, cuts.tolist(), (np.cumsum(change)[cuts] - 1).tolist())


def _jsonl_blocks(theta: np.ndarray, heads: list[str], cuts: list[int], run_of: list[int]) -> Iterator[str]:
    """The blocks of ``ZeroCloud.to_jsonl``: piece k holds the atoms
    cuts[k] .. cuts[k + 1] - 1, all of run run_of[k], whose row prefix is
    heads[run_of[k]]; every block starts a piece."""
    rows = []
    for a, b, r in zip(cuts, cuts[1:] + [len(theta)], run_of):
        if a % _JSONL_CHUNK == 0:  # a new block
            if rows:
                yield "".join(rows)
                rows = []
            block = a
            text, bounds = format17_lines(theta[a:a + _JSONL_CHUNK])
        head = heads[r]
        lines = text[bounds[a - block]:bounds[b - block] - 1]
        rows += (head, lines.replace("\n", "}\n" + head), "}\n")
    if rows:
        yield "".join(rows)


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
    # a heavy cell (mass >= 3) becomes two pieces split at its angular
    # midpoint: its row is the first piece and a row inserted after it the
    # second; any other cell is its own one piece.  A piece's mass is
    # mass (piece width) / (cell width), also for a whole cell, where m w / w
    # need not round to m
    heavy = np.flatnonzero(~(cells.mass < 3.0))
    lo, hi, width = cells.theta_lo, cells.theta_hi, cells.theta_hi - cells.theta_lo
    cut = 0.5 * (lo[heavy] + hi[heavy])
    mass = cells.mass * width
    mass /= width
    mass[heavy] = cells.mass[heavy] * (cut - lo[heavy]) / width[heavy]
    mass = np.insert(mass, heavy + 1, cells.mass[heavy] * (hi[heavy] - cut) / width[heavy])
    lo, hi = np.insert(lo, heavy + 1, cut), np.insert(hi, heavy, cut)
    ring, kind = (np.insert(col, heavy + 1, col[heavy]) for col in (cells.ring, cells.kind))
    theta = 0.5 * (lo + hi)
    if split_doubles:
        quarter = 0.25 * (hi - lo)
        theta = np.column_stack([theta - quarter, theta + quarter]).ravel()
        lo, hi, mass, ring, kind = (np.repeat(col, 2) for col in (lo, hi, mass, ring, kind))
    return ZeroCloud(
        g=per_ring[0][ring], theta=theta, mult=np.full(len(theta), 1.0 if split_doubles else 2.0),
        kind=_KIND_NAMES[kind], cells=CellColumns(ring, lo, hi, mass, kind, rings), nodes=per_ring[1:],
    )


# -- surrogate potential ------------------------------------------------------

_LEG_X = np.array([x for x, _ in _LEG_NODES[4]])
_LEG_W = np.array([w for _, w in _LEG_NODES[4]])
assert np.array_equal(_LEG_W, _LEG_W[::-1])  # the kernel pairs mirrored nodes


# near field of a sample: the rings within _NEAR_CUT local cell sizes of it
_NEAR_CUT = 64.0
# (sample, atom) pairs per block of the near-field kernel, so that its
# (4, 4, block) temporaries stay in a 1-2 MB L2 cache
_PAIR_BLOCK = 4096
# a lattice cell k may sit up to (k + 1) _LATTICE_ULPS off [k w, (k + 1) w]:
# the theta_lo of a split ring are a running sum of w, one rounding of at
# most ulp(2 pi) / 2 per cell (4.9e-12 rad over the 127k-atom test cloud)
_LATTICE_ULPS = 2.0 * float(np.spacing(_TWO_PI))


@dataclass(frozen=True)
class _Lattice:
    """The rings of a cloud that are summed in closed form, one row each.

    A ring qualifies when, in theta order, its cells are n equal cells
    [k w, (k + 1) w] (k = 0..n-1, within (k + 1) _LATTICE_ULPS) with one
    mass, one atom gap and multiplicity, and the same atom offsets in every
    cell, and either n w = 2 pi (a full sector ring: M = n) or the atoms left
    after the n cells lie in [n w, 2 pi] with the last cell ending at 2 pi
    (a split ring: M = 2 pi / w, its seam at the start of those atoms).  The
    n cells' atoms and nodes then form, per source of the first cell, a ring
    of equally spaced points phase + k w, and prod_k (z - rho e^(i(phase +
    k w))) = z^M - rho^M e^(i M phase) sums each ring of them in closed form
    (exact for a full ring; on a split ring the seam is far from every
    sample summed this way)."""

    ring: np.ndarray  # (Q,) the qualified rings' rows in the ring table
    m: np.ndarray  # (Q,) M = 2 pi / w
    w: np.ndarray  # (Q,) cell width
    first: np.ndarray  # (Q,) the position in the ring index's order of the ring's first atom
    cells: np.ndarray  # (Q,) its lattice cells n
    per_cell: int  # atoms per cell
    delta: np.ndarray  # (Q,) the atoms' gap, for the on-atom lookup
    b: np.ndarray  # (Q, S) per source: M log |zeta|
    phase: np.ndarray  # (Q, S) angle of the source in the first cell
    weight: np.ndarray  # (Q, S) mult for an atom, its node weight for a node
    full: np.ndarray  # per table ring: a full ring, summed in closed form for every sample
    seam: np.ndarray  # per table ring: a split ring's seam angle, else -1


@dataclass(frozen=True)
class _Sources:
    """The table every surrogate query of a cloud reads: its kernel sources
    in compact form, the run of the ring index that holds each ring of its
    cell table, and the closed-form rows of its lattice rings.

    Kernel sources: the atoms and the 4 x 4 density-weighted Gauss-Legendre
    nodes of every atom's source cell.  A ring's cells share the node radii,
    so their gaps 1 - r_i and radial weights w_i rho(r_i) are the cloud's
    ``nodes``; node (i, j) of an atom on ring k with cell piece [lo, hi] sits
    at angle (hi + lo) / 2 + x_j (hi - lo) / 2 with weight radial_i w_j mult
    / nodes[8][k], so a cell's node weights sum to the mass its atom carries.

    Rings: those of the cell table, in its order; ring k's atoms, by theta
    mod 2 pi, are run ``run[k]`` of the cloud's ring ``index``, and ``build``
    raises PartitionError for a ring with atoms that is not one run."""

    delta: np.ndarray  # per atom: exp(-g)
    theta: np.ndarray  # per atom: theta mod 2 pi
    mult: np.ndarray
    cells: CellColumns  # per atom: its cell piece and ring
    nodes: np.ndarray  # (9, rings): the cloud's node values
    index: _RingIndex
    run: np.ndarray  # per ring: its run in index, -1 for a ring without atoms
    r_lo: np.ndarray  # per ring
    r_hi: np.ndarray
    s: np.ndarray  # per ring: max(radial extent, widest cell width x r_lo)
    lattice: _Lattice

    @classmethod
    def build(cls, cloud: ZeroCloud) -> _Sources:
        """From the ring table of the cloud's cells, the node values
        ``atomize`` computed per ring and the cloud's ring index."""
        if cloud.cells is None or cloud.nodes is None:
            raise PartitionError("the surrogate needs the cloud's cells and nodes from atomize")
        cells, index = cloud.cells, cloud.ring_index
        rings, ring = cells.rings, cells.ring
        n_rings = len(rings.g_lo)
        # each ring with atoms must be exactly one run: no run holds atoms of
        # two rings and no ring spans two runs
        of_run = ring[index.order[index.start[:-1]]]
        mixed = np.flatnonzero(ring[index.order] != np.repeat(of_run, np.diff(index.start)))
        several = np.flatnonzero(np.bincount(of_run, minlength=n_rings) > 1)
        if len(mixed) or len(several):
            k = ring[index.order[mixed[0]]] if len(mixed) else several[0]
            raise PartitionError(f"ring {k} of the cell table is not one run of the ring index: it shares its g "
                                 "with another ring, or its atoms have several g")
        run = np.full(n_rings, -1)
        run[of_run] = np.arange(len(of_run))
        width = np.zeros(n_rings)  # per ring: its widest cell piece
        np.maximum.at(width, ring, cells.theta_hi - cells.theta_lo)
        r_lo = -np.expm1(-rings.g_lo)
        mult = np.asarray(cloud.mult, dtype=float)
        theta = _mod_turn(np.asarray(cloud.theta, dtype=float))
        return cls(
            delta=cloud.delta, theta=theta, mult=mult, cells=cells, nodes=cloud.nodes, index=index, run=run,
            r_lo=r_lo, r_hi=-np.expm1(-rings.g_hi),
            s=np.maximum(np.exp(-rings.g_lo) - np.exp(-rings.g_hi), width * r_lo),
            lattice=_lattice(cloud, theta, mult, index, run),
        )


def _lattice(cloud: ZeroCloud, theta, mult, index: _RingIndex, run: np.ndarray) -> _Lattice:
    """The closed-form rows of the cloud's lattice rings (see ``_Lattice``);
    ring k's atoms are run run[k] of the ring index, by ascending theta.
    Every ring's cells are checked with array arithmetic; one cloud has one
    number of atoms per cell, that of its first ring."""
    cells, nodes = cloud.cells, cloud.nodes
    n_rings = len(run)
    full, seam = np.zeros(n_rings, dtype=bool), np.full(n_rings, -1.0)
    rows, per_cell = [], None
    starts = index.start.tolist()
    for k, j in enumerate(run.tolist()):
        if j < 0:
            continue
        start = starts[j]
        idx = index.order[start:starts[j + 1]]
        lo, hi, th = cells.theta_lo[idx], cells.theta_hi[idx], theta[idx]
        w, mult0, delta0 = hi[0] - lo[0], mult[idx[0]], cloud.delta[idx[0]]
        if per_cell is None:
            per_cell = int(np.count_nonzero((lo == lo[0]) & (hi == hi[0])))
        a = per_cell
        in_cells = len(idx) // a * a  # the atoms of whole cells, as (cells, a) below
        if in_cells == 0 or not w > 0.0:
            continue
        lo2, hi2, th2 = (x[:in_cells].reshape(-1, a) for x in (lo, hi, th))
        cell = np.arange(in_cells // a, dtype=float)[:, None]
        tol = (cell + 1.0) * _LATTICE_ULPS
        same = (mult[idx] == mult0) & (cells.mass[idx] == cells.mass[idx[0]]) & (cloud.delta[idx] == delta0)
        ok = ((np.abs(lo2 - cell * w) <= tol) & (np.abs(hi2 - (cell + 1.0) * w) <= tol)
              & (np.abs(th2 - lo2 - (th2[0] - lo2[0])) <= tol) & same[:in_cells].reshape(-1, a)).all(axis=1)
        n = len(ok) if ok.all() else int(np.argmin(ok))  # the lattice cells
        if n == 0:
            continue
        if n * a == len(idx) and abs(n * w - _TWO_PI) <= (n + 1.0) * _LATTICE_ULPS:
            full[k], m = True, float(n)
        elif (n * a < len(idx) and abs(hi[-1] - _TWO_PI) <= len(idx) * _LATTICE_ULPS
              and lo[n * a:].min() >= n * w - (n + 1.0) * _LATTICE_ULPS):
            seam[k], m = lo[n * a:].min(), _TWO_PI / w
        else:
            continue
        node_phase = 0.5 * (lo[0] + hi[0]) + 0.5 * w * _LEG_X  # angle j of the first cell's nodes
        node_weight = -(nodes[4:8, k][:, None] * _LEG_W) * (a * mult0 / nodes[8, k])
        rows.append((
            k, m, w, start, n, delta0,
            m * np.concatenate([np.full(a, math.log1p(-delta0)), np.repeat(np.log1p(-nodes[:4, k]), 4)]),
            np.concatenate([th[:a], np.tile(node_phase, 4)]),
            np.concatenate([np.full(a, mult0), node_weight.ravel()]),
        ))
    ring, m, w, first, n, delta, b, phase, weight = zip(*rows) if rows else ([],) * 9
    s = 16 + (per_cell or 0)
    return _Lattice(
        np.array(ring, dtype=np.intp), np.array(m, dtype=float), np.array(w, dtype=float),
        np.array(first, dtype=np.intp), np.array(n, dtype=np.intp), per_cell or 1,
        np.array(delta, dtype=float), *(np.array(col, dtype=float).reshape(-1, s) for col in (b, phase, weight)),
        full, seam,
    )


def _piece(src: _Sources, atom) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Of the given atoms: the ring, the node angles (4, atoms) of the cell
    piece and the node scale mult / nodes[8][ring] (see ``_Sources``)."""
    ring, lo, hi = src.cells.ring[atom], src.cells.theta_lo[atom], src.cells.theta_hi[atom]
    return ring, 0.5 * (hi + lo) + 0.5 * (hi - lo) * _LEG_X[:, None], src.mult[atom] / src.nodes[8][ring]


def _cell_nodes(cloud: ZeroCloud) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cell nodes laid out one by one as (delta, theta, weight), atom-major,
    r-major, theta-minor, the weights negated as ``kernel_sums`` takes cell
    averages: the direct-sum reference.  The surrogate reads the compact
    ``sources`` and never builds this 16 N triple."""
    src = cloud.sources
    ring, angle, scale = _piece(src, slice(None))
    delta = np.repeat(src.nodes[:4].T[ring], 4, axis=1)
    theta = np.tile(angle.T, 4)
    weight = -(src.nodes[4:8].T[ring][:, :, None] * _LEG_W * scale[:, None, None])
    return delta.ravel(), theta.ravel(), weight.ravel()


def _near_windows(src: _Sources, delta: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The near-field window [lo, hi] of each point (delta[k], theta[k]) on
    each ring, (points, rings): on a ring within _NEAR_CUT s of the point,
    theta mod 2 pi -+ sqrt((_NEAR_CUT s)^2 - dr^2) / r_lo, where dr is the
    radial distance to the ring, or [0, 2 pi] once that reaches pi; on a
    farther ring the empty window [1, 0]."""
    r = 1.0 - delta[:, None]
    reach = _NEAR_CUT * src.s
    dr = np.maximum(np.maximum(src.r_lo - r, r - src.r_hi), 0.0)
    span = np.sqrt(np.maximum(reach * reach - dr * dr, 0.0))
    near = dr <= reach
    whole = near & (span >= math.pi * src.r_lo)  # also an innermost ring with r_lo = 0
    part = near & ~whole
    half = span / np.where(part, src.r_lo, 1.0)
    t = np.mod(theta, _TWO_PI)[:, None]
    lo = np.where(part, t - half, np.where(whole, 0.0, 1.0))
    hi = np.where(part, t + half, np.where(whole, _TWO_PI, 0.0))
    return lo, hi


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
    ring, angle, scale = _piece(src, atom)
    gap = np.take(src.nodes[:4], ring, axis=1)
    s = np.sin(0.5 * (tz - angle))
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
    node *= np.take(src.nodes[4:8], ring, axis=1)
    return src.mult[atom] * atom_l - scale * node.sum(axis=0)


def _ring_sums(src: _Sources, log_r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Twice the correction of each lattice ring at each sample (log|z|, theta
    mod 2 pi), (samples, rings): sum over its sources of weight L_M with
    L_M = log |z^M - rho^M e^(i M phase)|^2 / |1 - (conj(z) rho)^M e^(i M phase)|^2
      = 2 max(a, b) + log[(expm1(-|a - b|)^2 + 4 e^-|a - b| s^2)
                         / (expm1(a + b)^2 + 4 e^(a + b) s^2)],
    a = M log|z|, b = M log rho and s = sin(pi x), where x is the sample's
    offset from the source's nearest lattice point in cells.  The lattice is
    moved by the drift of the cell under the sample (its first atom's stored
    theta minus the first cell's, minus k w), so the drift of a split ring's
    stored angles from k w cancels near the sample."""
    lat, order = src.lattice, src.index.order
    cell = np.clip(np.floor(t[:, None] / lat.w), 0, lat.cells - 1).astype(np.intp)
    first = src.theta[order[lat.first]]
    drift = src.theta[order[lat.first + cell * lat.per_cell]] - first - cell * lat.w
    a = (log_r[:, None] * lat.m)[:, :, None]
    x = ((t[:, None] - drift)[:, :, None] - lat.phase) / lat.w[:, None]
    x -= np.rint(x)
    s = np.sin(math.pi * x)
    s *= s
    d = -np.abs(a - lat.b)
    ab = a + lat.b
    num = np.expm1(d) ** 2 + 4.0 * np.exp(d) * s
    den = np.expm1(ab) ** 2 + 4.0 * np.exp(ab) * s
    terms = 2.0 * np.maximum(a, lat.b) + np.log(num / den)
    terms *= lat.weight
    return terms.sum(axis=2)


def eval_log_surrogate_many(
    cloud: ZeroCloud, profile: RadialProfile, zs: Sequence[tuple[LogGap, float]]
) -> np.ndarray:
    """phi(|z|) plus the atomization correction
    sum_atoms mult [log|(z-zeta)/(1-conj(z) zeta)| - cell average of the same
    kernel].

    A sample's angle enters only as t = np.mod(theta, 2 pi): the windows,
    the ring sums, the near-field kernel and the on-atom lookup all read t,
    so theta + 2 pi k gives the value at np.mod(theta + 2 pi k, 2 pi) bit
    for bit.  The value is -inf at a sample on an atom: equal g, and t equal
    to the atom's theta mod 2 pi, which the source table keeps (every theta
    of an ``atomize`` cloud lies in [0, 2 pi) already).  theta + 2 pi k is
    itself rounded, so its t can miss the atom's theta by an ulp and the
    value stays finite: atom 5900 of the small test scaffold's
    generation-1 cloud gives -inf at theta and at theta - 2 pi, but -32.26
    at theta + 2 pi.

    The correction is summed ring by ring.  A lattice ring (``_Lattice``)
    takes its closed form (``_ring_sums``), O(rings) per sample whatever the
    ring's size, with the sample's angle reduced mod 2 pi.  On a full sector
    ring it is exact to rounding (within 3.4e-11 of the direct sum over the
    ring on the 5.9k- and 127k-atom test clouds).  A split ring's stored
    angles are a running sum of w and drift up to 5e-12 rad from the lattice
    k w; the closed form anchors the lattice at the stored atom of the cell
    under the sample, so that drift cancels.  The closed form sums a split
    ring as if its lattice ran on through the seam, which costs, against the
    direct sum over the whole ring, about 1e-6 at 16 cells from the seam,
    up to 2e-7 at 64 and 2e-9 past 500 (test clouds).  So a
    split ring takes it only while the sample's near-field window on it
    stays inside [0, seam]: every sample summed that way is at least 64
    cells from the seam.

    Every other (sample, ring) pair is summed explicitly over the near field:
    a ring that is no lattice (a hand-built or partial cloud), and a split
    ring whose window reaches its seam or covers the whole ring.  The near
    field (``_near_windows``) is the rings within _NEAR_CUT = 64 local cell
    sizes of z and, on each, an angular window; ``_pair_terms`` sums its
    atoms and their cell nodes, and the rest of the ring is dropped.  Each
    atom minus its cell average has zero net mass, so that tail is small.
    On uniform random samples over the enumerated range, the values lie
    within 8.0e-5 (600 samples; median 9e-11) and 1.5e-5 (120 samples) of
    the direct sum over every source on the generation-1 clouds of the
    small (5.9k atoms) and wide (127k atoms) test scaffolds, where 10% and
    7% of the (sample, ring) pairs are explicit; a sample whose explicit
    rings all have whole windows is within 6e-8.  No runtime estimate of
    the tail is made: the cheap ones do not bound it (|S(64) - S(32)|, S(c)
    the near-field sum at cut c, fell below the true error on 11 of 48 wide
    samples, by up to 51x).

    A sample exactly on an atom of a ring summed in closed form is found by
    a lookup in the ring index, because the closed form is finite there; an
    explicit pair gives -inf by itself (the kernel's log 0).

    One batched pass per call: the windows of all samples come from one
    binary-search pair, the explicit (sample, atom) pairs are evaluated in
    blocks of _PAIR_BLOCK pairs and each sample's run of them is summed in
    order, and the ring sums are one array expression over (sample, ring,
    source).  No BLAS call is made, so the values do not depend on the BLAS
    thread count, and a sample gets the same value alone or in any batch.
    """
    gs = np.array([as_g(g) for g, _ in zs], dtype=float)
    samp_delta = np.exp(-gs)
    samp_theta = np.array([t for _, t in zs], dtype=float)
    if not np.all(np.isfinite(samp_theta)):
        raise NumericsError("eval_log_surrogate_many needs finite sample angles")
    out = profile.phi(gs)
    if len(cloud) == 0:
        return out
    src = cloud.sources
    lat, index = src.lattice, src.index
    lo, hi = _near_windows(src, samp_delta, samp_theta)
    explicit = (lo <= hi) & ~lat.full & ~((lo >= 0.0) & (hi <= lat.seam))
    closed = ~explicit[:, lat.ring]
    t = np.mod(samp_theta, _TWO_PI)
    with np.errstate(divide="ignore"):  # log 0 = -inf on an atom
        out += 0.5 * np.where(closed, _ring_sums(src, np.log1p(-samp_delta), t), 0.0).sum(axis=1)
        atoms, count = index.window(src.run, np.where(explicit, lo, 1.0), np.where(explicit, hi, 0.0))
        sample = np.repeat(np.arange(len(gs)), count)
        terms = np.empty(len(atoms))
        for start in range(0, len(atoms), _PAIR_BLOCK):
            block = slice(start, start + _PAIR_BLOCK)
            at = sample[block]
            terms[block] = _pair_terms(src, samp_delta[at], t[at], atoms[block])
    some = count > 0  # np.add.reduceat would give an empty run its next term
    if some.any():
        out[some] += 0.5 * np.add.reduceat(terms, (np.cumsum(count) - count)[some])
    # on an atom of a ring summed in closed form: the atom whose key in the
    # ring index the sample's key finds, if its gap and theta are the sample's
    i, q = np.nonzero(closed & (samp_delta[:, None] == lat.delta))
    if len(i):
        key = 8.0 * src.run[lat.ring[q]] + t[i]
        pos = np.minimum(np.searchsorted(index.keys, key), len(index.keys) - 1)
        on = (index.keys[pos] == key) & (src.theta[index.order[pos]] == t[i])
        out[i[on]] = -math.inf
    return out


# -- excluded arcs and the approximation report -------------------------------


def _merged_arcs(cloud: ZeroCloud, g_circle: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The merged arcs of ``excluded_arcs`` as arrays of starts and ends.

    The atoms within eps (1 - r) of the circle radially are whole rings of
    the ring index (|dr| <= lim).  An atom's half-arc depends on its ring
    alone, so it is computed once per ring, and % 2 pi is applied only to
    the arc ends outside (0, 2 pi), where it changes them."""
    if not eps >= 0.0:
        raise NumericsError(f"excluded_arcs needs eps >= 0, got {eps}")
    r = LogGap(g_circle).r
    none = np.empty(0)
    if eps == 0.0:
        return none, none
    gap = math.exp(-g_circle)
    lim = eps * gap
    idx = cloud.ring_index
    runs = idx.near(gap, lim)
    if not len(runs):
        return none, none
    if r == 0.0:  # the circle is the origin, within eps of the atoms kept
        return np.array([0.0]), np.array([_TWO_PI])
    dr = gap - idx.gap[runs]
    sin2 = (lim * lim - dr * dr) / (4.0 * r * -np.expm1(-idx.g[runs]))
    half = 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(np.maximum(sin2, 0.0))))
    atoms, count = idx.atoms(runs)
    ta, half = cloud.theta[atoms], np.repeat(half, count)
    lo, hi = ta - half, ta + half
    for x in (lo, hi):
        np.mod(x, _TWO_PI, out=x, where=~((x > 0.0) & (x < _TWO_PI)))
    # unwrap: an arc over theta = 0 splits into [lo, 2 pi) and [0, hi)
    wrap = hi < lo
    lo = np.concatenate([lo, np.zeros(np.count_nonzero(wrap))])
    hi = np.concatenate([np.where(wrap, _TWO_PI, hi), hi[wrap]])
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    # an arc opens a new merged arc iff it starts past every end before it
    reach = np.maximum.accumulate(hi)
    start = np.flatnonzero(np.concatenate([[True], lo[1:] > reach[:-1]]))
    end = np.append(start[1:], len(lo)) - 1
    return lo[start], reach[end]


def excluded_arcs(cloud: ZeroCloud, g_circle: float, eps: float) -> list[tuple[float, float]]:
    """Merged arcs of {theta : dist(r e^(i theta), zeros) <= eps (1-r)} on the
    circle of log-gap g_circle (finite, >= 0); eps >= 0.  The arcs lie in
    [0, 2 pi] by ascending start; an arc over theta = 0 is two arcs.  The
    rings within eps (1 - r) of the circle come from a binary search over
    the cloud's rings; the cost is then one sort and merge of an arc per
    atom on them."""
    lo, hi = _merged_arcs(cloud, g_circle, eps)
    return list(zip(lo.tolist(), hi.tolist()))


def excluded_measure(cloud: ZeroCloud, g_circle: float, eps: float) -> float:
    """The total length of ``excluded_arcs``, summed from the merged arrays
    with no list of arcs built; 0.0 when there are none."""
    lo, hi = _merged_arcs(cloud, g_circle, eps)
    return float(np.sum(hi - lo))


def angles_off_arcs(rng: np.random.Generator, arcs: list[tuple[float, float]], n: int) -> list[float]:
    """Up to n angles off the closed arcs, from at most 50 n draws of
    rng.uniform(0, 2 pi).  Each round draws as many angles as are still
    missing (within the cap), so the draws, the angles kept and the state
    the generator is left in are those of one draw at a time."""
    out: list[float] = []
    lo, hi = np.array([a for a, _ in arcs], dtype=float), np.array([b for _, b in arcs], dtype=float)
    left = 50 * n
    while len(out) < n and left > 0:
        t = rng.uniform(0.0, 2.0 * math.pi, size=min(n - len(out), left))
        left -= len(t)
        inside = ((lo <= t[:, None]) & (t[:, None] <= hi)).any(axis=1)
        out += t[~inside].tolist()
    return out


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
    zeros, plus the per-circle excluded-arc measure; at least one sample."""
    rng = np.random.default_rng(seed)
    zs, per_circle = [], []
    for g in circle_gs:
        arcs = excluded_arcs(cloud, g, eps)
        zs += [(LogGap(g), t) for t in angles_off_arcs(rng, arcs, thetas_per_circle)]
        per_circle.append((g, sum(hi - lo for lo, hi in arcs)))
    if not zs:
        raise NumericsError(f"no sample was left off the excluded arcs ({len(per_circle)} circles, eps = {eps})")
    gs = np.array([z[0].g for z in zs])
    vals = eval_log_surrogate_many(cloud, profile, zs)
    errs = np.abs(vals - profile.phi(gs)) / (1.0 + np.log(np.maximum(gs, 1.0)))
    c4 = max((m / eps for _, m in per_circle), default=0.0) if eps > 0 else 0.0
    return ApproxReport(
        max_scaled_error=float(np.max(errs)),
        per_circle_excluded=per_circle,
        fitted_c4=c4,
        eps=eps,
        samples_used=len(zs),
    )
