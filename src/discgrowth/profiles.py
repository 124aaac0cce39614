"""Piecewise radial profile built on a scaffold: the subharmonic function
phi, its derivative and radial Laplacian (1/r)(r phi')', branch by branch.

Branch layout of generation n (boundaries are the scaffold radii, membership
right-continuous):

    1  [r_{n-1}'', r_n)   phi = (p2+eps_n) log(C/(1-r))
    2  [r_n, r_n')        + slope R_n in log r, Laplacian 0
    3  [r_n', r_hat_n)    lower exponent p1 with linear compensation
    4  [r_hat_n, r_n*)    + mass term M_n int_{r_hat}^r log(r/t) dt
    5  [r_n*, r_n'')      mass term frozen at r_n*

phi stays a plain float (it grows like a multiple of g); phi' and the
Laplacian grow like powers of 1/(1-r) and are returned as LogValues.  The
slope, compensation and mass terms are the generation's own closed forms
(the methods of scaffold.GenerationSeed, which the closure equation uses
too), so junction residuals reflect construction error only.

phi on an ndarray sorts the g's once, checks its range on the two ends and
evaluates each branch on its slice.  Branch 1 is closed in every generation.
In a "lead" generation, e^-g_n <= 2^-56, every series is its first term and
the other branches are closed too (``_Terms``): within 4e-14 of scalar phi on
the study profiles.  Elsewhere each point goes through the scalar branch
terms, so array phi equals scalar phi bit for bit there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .numerics import (
    _LEAD_X,
    LogGap,
    LogValue,
    NumericsError,
    as_g,
    gap_diff_log,
    log_r_from_g,
    lse_sum,
)
from .scaffold import Generation, IrregularScaffold


class ProfileRangeError(NumericsError):
    """Evaluation point beyond the constructed generations."""


@dataclass(frozen=True)
class ProfileValue:
    phi: float
    phi_prime: LogValue
    laplacian: LogValue
    generation: int
    branch: int


@dataclass(frozen=True)
class JunctionJump:
    g: float
    label: str
    phi_rel_jump: float
    dphi_rel_jump: float


@dataclass(frozen=True)
class _Terms:
    """Constants of one generation's closed branch forms for the array phi."""

    gen: Generation
    base1: float  # p2 + eps_n
    base2: float  # (p2 + eps_n)(g_n + log C)
    base3: float  # p1 (g_n' + log C)
    # e^(-g_n) <= 2^-56: every series of the branches is its first term (1/r
    # and log r round to 1 and -e^(-g)), so in a = e^(-(g - g_hat)),
    # b = e^(-(g - g*)):  R_n log(r/r_n) = R_n e^(-g_n) (1 - e^(-(g - g_n))),
    # M_n int_{r_hat}^r log(r/t) dt = m (1 - a)^2 and
    # M_n int_{r_hat}^{r*} log(r/t) dt = m ((1 - a) - x (1 - b)) ((1 - a) + y (1 - b)),
    # with m = M_n e^(-2 g_hat)/2, x = e^(-span), span the exact width of
    # [r_hat, r*] (GenerationSeed.star_span), and y = e^(-(g* - g_hat))
    lead: bool
    slope: float  # -R_n e^(-g_n)
    mass: float  # m
    x: float
    y: float

    @classmethod
    def of(cls, gen: Generation, p1: float, p2: float, log_c: float) -> "_Terms":
        return cls(
            gen=gen,
            base1=p2 + gen.eps_n,
            base2=(p2 + gen.eps_n) * (gen.r_n.g + log_c),
            base3=p1 * (gen.r_prime.g + log_c),
            lead=math.exp(-gen.r_n.g) <= _LEAD_X,
            slope=-math.exp(gen.log_R - gen.r_n.g),
            mass=0.5 * math.exp(gen.log_M - 2.0 * gen.r_hat.g),
            x=math.exp(-gen.star_span(log_c)),
            y=math.exp(-(gen.r_star.g - gen.r_hat.g)),
        )


class RadialProfile:
    def __init__(self, scaffold: IrregularScaffold):
        self.scaffold = scaffold
        self.params = scaffold.params
        p1, p2, log_c = self.params.p1, self.params.p2, self.params.log_c
        # flat sorted list of (g, generation index, branch starting here)
        self._bounds: list[tuple[float, int, int]] = []
        for i, gen in enumerate(scaffold.generations):
            self._bounds.append((scaffold.generation_start(i), i, 1))
            self._bounds.append((gen.r_n.g, i, 2))
            if gen.r_prime.g < gen.r_hat.g:
                self._bounds.append((gen.r_prime.g, i, 3))
            self._bounds.append((gen.r_hat.g, i, 4))
            self._bounds.append((gen.r_star.g, i, 5))
        self._starts = np.array([b[0] for b in self._bounds])
        self._terms = [_Terms.of(gen, p1, p2, log_c) for gen in scaffold.generations]

    @property
    def g_end(self) -> float:
        return self.scaffold.g_end

    def branch_at(self, g: float) -> tuple[int, int]:
        """(generation index, branch id) containing g; right-continuous."""
        if g < 0.0 or g >= self.g_end:
            raise ProfileRangeError(
                f"g = {g} outside constructed range [0, {self.g_end})"
            )
        _, i, b = self._bounds[np.searchsorted(self._starts, g, side="right") - 1]
        return i, b

    # -- evaluation ---------------------------------------------------------

    def eval(self, g: LogGap | float) -> ProfileValue:
        gv = as_g(g)
        i, b = self.branch_at(gv)
        gen = self.scaffold.generations[i]
        phi = self._phi(gv, gen, b)
        dphi = self._phi_prime(gv, gen, b)
        lap = self._laplacian(gv, gen, b)
        return ProfileValue(phi, dphi, lap, gen.index, b)

    def phi(self, g: LogGap | float | np.ndarray) -> float | np.ndarray:
        """phi at one point, or elementwise over a float ndarray of g's."""
        if isinstance(g, np.ndarray):
            return self._phi_many(g.astype(float, copy=False))
        gv = as_g(g)
        i, b = self.branch_at(gv)
        return self._phi(gv, self.scaffold.generations[i], b)

    def _phi_many(self, g: np.ndarray) -> np.ndarray:
        # one stable sort, then branch j is the slice of sorted g's in
        # [start_j, start_j+1): O(N log N) for any number of branches; NaN
        # sorts last, so the range check reads the two ends
        order = np.argsort(g, axis=None, kind="stable")
        sorted_g = g.ravel()[order]
        if sorted_g.size and not (sorted_g[0] >= 0.0 and sorted_g[-1] < self.g_end):
            flat = g.ravel()
            bad = flat[~((flat >= 0.0) & (flat < self.g_end))][0]
            raise ProfileRangeError(f"g = {bad} outside constructed range [0, {self.g_end})")
        cuts = np.searchsorted(sorted_g, self._starts).tolist() + [len(sorted_g)]
        vals = np.empty_like(sorted_g)
        for (_, i, b), lo, hi in zip(self._bounds, cuts, cuts[1:]):
            if lo == hi:
                continue
            terms = self._terms[i]
            if b == 1 or terms.lead:
                vals[lo:hi] = self._phi_array(sorted_g[lo:hi], terms, b)
            else:
                # one scalar call per run of equal g's (a circle's samples
                # share one); a diff mask, as np.unique imports numpy.ma
                run = sorted_g[lo:hi]
                starts = np.flatnonzero(np.concatenate(([True], run[1:] != run[:-1])))
                once = [self._phi(x, terms.gen, b) for x in run[starts].tolist()]
                vals[lo:hi] = np.repeat(once, np.diff(np.append(starts, len(run))))
        out = np.empty_like(sorted_g)
        out[order] = vals
        return out.reshape(g.shape)

    def _phi(self, g: float, gen: Generation, b: int) -> float:
        p1, p2, log_c = self.params.p1, self.params.p2, self.params.log_c
        eps = gen.eps_n
        if b == 1:
            return (p2 + eps) * (g + log_c)
        if b == 2:
            return (p2 + eps) * (gen.r_n.g + log_c) + gen.slope_term(g)
        if b == 3:
            comp = (g - gen.r_prime.g) - (-math.expm1(-(g - gen.r_prime.g)))
            return p1 * (gen.r_prime.g + log_c) + gen.slope_term(g) + p1 * comp
        upper = g if b == 4 else gen.r_star.g
        return (
            p1 * (g + log_c)
            + gen.slope_term(g)
            - gen.compensation(g, p1)
            + gen.mass_term(g, log_c, upper)
        )

    def _phi_array(self, g: np.ndarray, terms: _Terms, b: int) -> np.ndarray:
        """Closed form of :meth:`_phi` on branch 1, or on any branch of a lead
        generation, whose constants are ``terms``; g lies inside the branch.
        The compensation p1 (1 - e^-(g - g_n')) enters as + p1 expm1(g_n' - g),
        the same bits."""
        log_c = self.params.log_c
        if b == 1:
            return terms.base1 * (g + log_c)
        gen = terms.gen
        q1 = terms.slope * np.expm1(gen.r_n.g - g)
        if b == 2:
            return terms.base2 + q1
        p1 = self.params.p1
        comp = np.expm1(gen.r_prime.g - g)  # -(1 - e^-s), s = g - g_n'
        if b == 3:
            return terms.base3 + q1 + p1 * ((g - gen.r_prime.g) + comp)
        # -(1 - a) and -(1 - b) in the notation of _Terms
        gap_a = np.expm1(gen.r_hat.g - g)
        if b == 4:
            mass = terms.mass * np.square(gap_a)
        else:
            gap_b = np.expm1(gen.r_star.g - g)
            mass = terms.mass * ((gap_a - terms.x * gap_b) * (gap_a + terms.y * gap_b))
        return p1 * (g + log_c) + q1 + p1 * comp + mass

    def _phi_prime(self, g: float, gen: Generation, b: int) -> LogValue:
        p1, p2 = self.params.p1, self.params.p2
        log_r = log_r_from_g(g)
        if b == 1:
            return LogValue.pos(math.log(p2 + gen.eps_n) + g)
        terms = [LogValue.pos(gen.log_R - log_r)]
        if b >= 3:
            # p1 (1/(1-r) - 1/(1-r_n')) = p1 e^g (1 - e^{-(g-g')})
            s = g - gen.r_prime.g
            if s > 0.0:
                terms.append(LogValue.pos(math.log(p1) + g + math.log(-math.expm1(-s))))
        if b >= 4:
            # M_n (min(r, r*) - r_hat)/r
            top = min(g, gen.r_star.g)
            if top > gen.r_hat.g:
                terms.append(
                    LogValue.pos(gen.log_M + gap_diff_log(gen.r_hat.g, top) - log_r)
                )
        return lse_sum(terms)

    def _laplacian(self, g: float, gen: Generation, b: int) -> LogValue:
        p1, p2 = self.params.p1, self.params.p2
        log_r = log_r_from_g(g)
        if b == 1:
            return LogValue.pos(math.log(p2 + gen.eps_n) + 2.0 * g - log_r)
        if b == 2:
            return LogValue.zero()
        # p1/r (1/(1-r)^2 - 1/(1-r_n')) = p1 e^{2g} (1 - e^{g'-2g})/r
        base = LogValue.pos(
            math.log(p1) + 2.0 * g + math.log1p(-math.exp(gen.r_prime.g - 2.0 * g)) - log_r
        )
        if b == 4:
            return lse_sum([base, LogValue.pos(gen.log_M - log_r)])
        return base

    # -- diagnostics --------------------------------------------------------

    def junction_report(self) -> list[JunctionJump]:
        """Relative phi and phi' jumps at every interior junction."""
        out = []
        for i, gen in enumerate(self.scaffold.generations):
            spots = [
                (gen.r_n.g, "r_n"),
                (gen.r_prime.g, "r_prime"),
                (gen.r_hat.g, "r_hat"),
                (gen.r_star.g, "r_star"),
            ]
            if i + 1 < len(self.scaffold.generations):
                spots.append((gen.r_dprime.g, "r_dprime"))
            seen = set()
            for gj, label in spots:
                if gj in seen:
                    continue
                seen.add(gj)
                out.append(self._jump_at(gj, f"gen{gen.index}:{label}"))
        return out

    def _jump_at(self, gj: float, label: str) -> JunctionJump:
        il, bl = self.branch_at(math.nextafter(gj, 0.0))
        ir, br = self.branch_at(gj)
        gen_l = self.scaffold.generations[il]
        gen_r = self.scaffold.generations[ir]
        # evaluate both one-sided formulas exactly at the junction
        phi_l = self._phi(gj, gen_l, bl)
        phi_r = self._phi(gj, gen_r, br)
        phi_jump = abs(phi_r - phi_l) / max(abs(phi_l), abs(phi_r), 1e-300)
        dl = self._phi_prime(gj, gen_l, bl)
        dr = self._phi_prime(gj, gen_r, br)
        if dl.is_zero and dr.is_zero:
            dphi_jump = 0.0
        elif dl.is_zero or dr.is_zero or dl.sign != dr.sign:
            dphi_jump = math.inf
        else:
            dphi_jump = abs(math.expm1(dr.logmag - dl.logmag))
        return JunctionJump(gj, label, phi_jump, dphi_jump)

    def ratio_profile(self, gs: Iterable[LogGap | float]) -> list[tuple[float, float]]:
        """(g, phi(g)/g) samples."""
        out = []
        for g in gs:
            gv = as_g(g)
            out.append((gv, self.phi(gv) / gv))
        return out

    def sample_rows(self, gs: Sequence[float]) -> list[list[str]]:
        """CSV rows, header first; r is blank past g = 36, where it rounds to 1."""
        rows = [["g", "r", "phi", "phi_over_g", "branch_id"]]
        for gv in gs:
            i, b = self.branch_at(gv)
            gen = self.scaffold.generations[i]
            phi = self._phi(gv, gen, b)
            r = f"{LogGap(gv).r:.17g}" if gv <= 36.0 else ""
            rows.append(
                [f"{gv:.17g}", r, f"{phi:.17g}", f"{phi / gv:.17g}" if gv > 0 else "",
                 f"g{gen.index}b{b}"]
            )
        return rows


def branch_samples(profile: RadialProfile, per_branch: int, margin: float = 0.01) -> list[float]:
    """Interior sample points per branch (``per_branch`` >= 1), away from
    junctions by a fraction of the branch width."""
    if per_branch < 1:
        raise NumericsError(f"per_branch must be >= 1, got {per_branch}")
    out = []
    bounds = profile._bounds
    for j, (g_lo, i, b) in enumerate(bounds):
        g_hi = bounds[j + 1][0] if j + 1 < len(bounds) else profile.g_end
        width = g_hi - g_lo
        if width <= 0.0:
            continue
        lo = g_lo + margin * width
        hi = g_hi - margin * width
        if per_branch == 1:
            out.append(0.5 * (lo + hi))
        else:
            step = (hi - lo) / (per_branch - 1)
            out.extend(lo + step * t for t in range(per_branch))
    return out
