"""Construction of the irregular-growth radial scaffold.

Each generation starts from a seed (r_n, eps_n) and derives intermediate
radii r_n < r_n' <= r_hat_n < r_star_n together with slope and mass
parameters R_n, M_n.  The generation is closed by solving a transcendental
equation for r_n'' whose two defining identities must agree at the root; the
mismatch between them is the per-generation construction residual.  The next
seed is r_{n+1} = 1 - (1 - r_n'')/eta_n with a fresh oscillation exponent
eps_{n+1}.

The gaps 1 - r_n shrink doubly exponentially, so every radius lives in the
log-gap coordinate g = log(1/(1-r)) and every quantity growing like a power
of 1/(1-r) is a LogValue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .numerics import (
    NEG_INF,
    LogGap,
    NumericalFailure,
    NumericsError,
    find_root,
    gap_diff_log,
    log_int_log_ratio,
    log_log_ratio_r,
    log_r_from_g,
)


class ConstructionError(NumericsError):
    """Scaffold construction failed (ordering violation or bracket failure)."""

    def __init__(self, msg, blamed_constant=None):
        super().__init__(msg)
        self.blamed_constant = blamed_constant


class RetriesExhaustedError(ConstructionError, NumericalFailure):
    """Every retry of the construction failed: the numerics, not the input."""


@dataclass(frozen=True)
class ScaffoldParams:
    """Growth exponents and construction constants.

    0 < p1 < p2 <= p; C > e^(p2/(p2-p1)) keeps the closure equation monotone,
    a < sqrt(log C) and b < a bound the root bracket.  The per-generation
    thinning factor is eta_n = n + eta_offset, which must exceed 1.
    """

    k: int
    p1: float
    p2: float
    p: float
    log_c: float
    g1: float
    a: float
    b: float
    eta_offset: int = 1

    def __post_init__(self):
        if not all(map(math.isfinite, (self.p1, self.p2, self.p, self.log_c, self.g1))):
            raise ConstructionError(f"need finite p1, p2, p, log C and g1, got {self}")
        if self.eta_offset < 1:
            raise ConstructionError(f"need eta_offset >= 1 so that eta_n > 1, got {self.eta_offset}")
        if self.k < 1:
            raise ConstructionError(f"k must be a positive integer, got {self.k}")
        if not 0.0 < self.p1 < self.p2 <= self.p:
            raise ConstructionError(
                f"need 0 < p1 < p2 <= p, got p1={self.p1}, p2={self.p2}, p={self.p}"
            )
        if self.log_c <= self.p2 / (self.p2 - self.p1):
            raise ConstructionError(
                f"log C = {self.log_c} too small; need > p2/(p2-p1) = "
                f"{self.p2 / (self.p2 - self.p1):.6g}",
                blamed_constant="C",
            )
        if not 0.0 < self.b < self.a < math.sqrt(self.log_c):
            raise ConstructionError(
                f"need 0 < b < a < sqrt(log C), got a={self.a}, b={self.b}, "
                f"sqrt(log C)={math.sqrt(self.log_c):.6g}"
            )
        if self.g1 <= 0.0:
            raise ConstructionError("g1 must be positive")

    def eta(self, n: int) -> float:
        return float(n + self.eta_offset)

    @classmethod
    def with_defaults(
        cls,
        k: int,
        p1: float,
        p2: float,
        p: float | None = None,
        eta_offset: int = 1,
        log_c: float | None = None,
        g1: float | None = None,
    ) -> "ScaffoldParams":
        if p is None:
            p = p2
        if log_c is None:
            log_c = max(10.0, 4.0 * p2 / (p2 - p1)) if p1 < p2 else 10.0  # p1 >= p2 is rejected below
        if g1 is None:
            g1 = 4.0 * log_c
        a = log_c**0.45
        b = min(1.0, (p2 - p1) / 10.0)
        return cls(k=k, p1=p1, p2=p2, p=p, log_c=log_c, g1=g1, a=a, b=b, eta_offset=eta_offset)

    def bumped(self) -> "ScaffoldParams":
        """Retry step: C -> 10 C with a and g1 recomputed from the new C."""
        log_c = self.log_c + math.log(10.0)
        return replace(self, log_c=log_c, a=log_c**0.45, g1=4.0 * log_c)


@dataclass(frozen=True)
class GenerationSeed:
    """State from which one generation's closure is solved, and the closed
    forms of the branch terms that both the closure and the profile use."""

    index: int
    r_n: LogGap
    eps_n: float
    r_prime: LogGap
    r_hat: LogGap
    r_star: LogGap
    log_R: float
    log_M: float

    def star_span(self, log_c: float) -> float:
        """Exact width of [r_hat, r*]: g* - g_hat = -log1p(-1/u_hat)."""
        return -math.log1p(-1.0 / (self.r_hat.g + log_c))

    def slope_term(self, g: float) -> float:
        """R_n log(r/r_n), 0 at or below r_n."""
        if g <= self.r_n.g:
            return 0.0
        return math.exp(self.log_R + log_log_ratio_r(g, self.r_n.g))

    def compensation(self, g: float, p1: float) -> float:
        """p1 (r - r_n')/(1 - r_n')."""
        return p1 * (-math.expm1(-(g - self.r_prime.g)))

    def mass_term(self, g: float, log_c: float, upper_g: float) -> float:
        """M_n int_{r_hat}^{min(r*, r)} log(r/t) dt via the closed form, taking
        the exact width of [r_hat, r*] when upper_g is r*."""
        if upper_g <= self.r_hat.g:
            return 0.0
        span = self.star_span(log_c) if upper_g == self.r_star.g else None
        return math.exp(self.log_M + log_int_log_ratio(g, self.r_hat.g, upper_g, span_ba=span))


@dataclass(frozen=True)
class Generation(GenerationSeed):
    """One closed generation of the scaffold, radii as g-values increasing."""

    r_dprime: LogGap
    eps_next: float
    residual: float  # relative mismatch of the two closure identities at the root
    ratio_diag: float  # (1 - r'') * log(1/(1-r_hat)) / (1 - r_hat)

    def ordered(self) -> bool:
        gs = (self.r_n.g, self.r_prime.g, self.r_hat.g, self.r_star.g, self.r_dprime.g)
        return all(x < y for x, y in zip(gs, gs[1:])) or (
            self.r_prime.g == self.r_hat.g
            and self.r_n.g < self.r_prime.g < self.r_star.g < self.r_dprime.g
        )


# JSON key of each Generation field, in record order; radii are stored by their g
_GENERATION_KEYS = (
    ("n", "index"),
    ("g_rn", "r_n"),
    ("g_rprime", "r_prime"),
    ("g_rhat", "r_hat"),
    ("g_rstar", "r_star"),
    ("g_rdprime", "r_dprime"),
    ("log_R", "log_R"),
    ("log_M", "log_M"),
    ("eps", "eps_n"),
    ("eps_next", "eps_next"),
    ("residual", "residual"),
    ("ratio_diag", "ratio_diag"),
)


def _stored(value):
    return value.g if isinstance(value, LogGap) else value


@dataclass(frozen=True)
class IrregularScaffold:
    params: ScaffoldParams
    generations: tuple[Generation, ...]
    retries: int = 0

    def generation_start(self, i: int) -> float:
        """g of the left end of generation i's range (previous r''); r_0'' = 0
        seeds the first generation."""
        return 0.0 if i == 0 else self.generations[i - 1].r_dprime.g

    def count_radii_below(self, g: float) -> int:
        """Counting function of the seed radii: #{n : r_n <= r(g)}; grows
        like log log(1/(1-r)) by the doubly exponential thinning."""
        return sum(1 for gen in self.generations if gen.r_n.g <= g)

    @property
    def g_end(self) -> float:
        return self.generations[-1].r_dprime.g

    def to_json_dict(self) -> dict:
        p = self.params
        return {
            "params": {
                "k": p.k,
                "p1": p.p1,
                "p2": p.p2,
                "p": p.p,
                "log_c": p.log_c,
                "g1": p.g1,
                "a": p.a,
                "b": p.b,
                "eta": [p.eta(n) for n in range(1, len(self.generations) + 1)],
            },
            "retries": self.retries,
            "generations": [
                {key: _stored(getattr(g, field)) for key, field in _GENERATION_KEYS}
                for g in self.generations
            ],
        }


def derive_intermediates(
    r_n: LogGap, eps_n: float, params: ScaffoldParams
) -> tuple[LogGap, LogGap, LogGap, float, float]:
    """Intermediate radii and parameters of one generation.

    In u = g + log C coordinates: u' = ((p2+eps)/p1) u, g_hat = (p/p2) g',
    r* = r_hat + (1-r_hat)/u(r_hat), log R = log(p2+eps) + log r + g,
    log M = log(p2-p1) + 2 g_hat + 2 log u(r_hat).
    """
    p1, p2, p, log_c = params.p1, params.p2, params.p, params.log_c
    if not abs(eps_n) < (p2 - p1) / 2.0:
        raise ConstructionError(f"|eps_n| = {abs(eps_n)} >= (p2-p1)/2")
    g_n = r_n.g
    u_n = g_n + log_c
    g_prime = (p2 + eps_n) / p1 * u_n - log_c
    g_hat = (p / p2) * g_prime
    u_hat = g_hat + log_c
    if u_hat <= 1.0:
        raise ConstructionError("u(r_hat) <= 1; increase C or g1", blamed_constant="C")
    g_star = g_hat - math.log1p(-1.0 / u_hat)
    if not (g_n < g_prime <= g_hat < g_star):
        raise ConstructionError(
            f"radius ordering violated: g_n={g_n}, g'={g_prime}, "
            f"g_hat={g_hat}, g*={g_star}"
        )
    log_R = math.log(p2 + eps_n) + log_r_from_g(g_n) + g_n
    log_M = math.log(p2 - p1) + 2.0 * g_hat + 2.0 * math.log(u_hat)
    return LogGap(g_prime), LogGap(g_hat), LogGap(g_star), log_R, log_M


def seed_generation(index: int, r_n: LogGap, eps_n: float, params: ScaffoldParams) -> GenerationSeed:
    r_prime, r_hat, r_star, log_R, log_M = derive_intermediates(r_n, eps_n, params)
    return GenerationSeed(index, r_n, eps_n, r_prime, r_hat, r_star, log_R, log_M)


def closure_residuals(r: LogGap, seed: GenerationSeed, params: ScaffoldParams) -> tuple[float, float]:
    """Both sides (gL, gR) of the combined closure equation at the candidate r.

    gL = (R + M (r*-r_hat) - p1 r/(1-r')) (1-r)/r * log(C/(1-r)) is strictly
    decreasing, gR = R log(r/r_n) + M int_{r_hat}^{r*} log(r/t) dt
    - p1 (r-r')/(1-r') strictly increasing; their crossing defines r''.
    """
    return _closure_evaluator(seed, params)(r.g)


def _closure_evaluator(seed: GenerationSeed, params: ScaffoldParams) -> Callable[[float], tuple[float, float]]:
    """(gL, gR) of :func:`closure_residuals` as a function of g.  The seed's
    constants of gL are computed once (log R, log M (r* - r_hat) from the
    stored g's, log p1), and its prefactor is the three-term signed
    log-sum-exp of :func:`numerics.lse_sum` in plain floats, the same
    operations in the same order; gR is the sum of the seed's branch terms."""
    p1, log_c = params.p1, params.log_c
    log_p1 = math.log(p1)
    log_R, g_prime, g_star = seed.log_R, seed.r_prime.g, seed.r_star.g
    log_m_span = seed.log_M + gap_diff_log(seed.r_hat.g, g_star)
    exp, log = math.exp, math.log

    def residuals(g: float) -> tuple[float, float]:
        log_r = log_r_from_g(g)
        w = g + log_c
        # bracketed prefactor of gL: R + M (r* - r_hat) - p1 r/(1 - r')
        log_neg = log_p1 + log_r + g_prime
        m = max(log_R, log_m_span, log_neg)
        g_l = 0.0
        if m != NEG_INF:
            acc = math.fsum((exp(log_R - m), exp(log_m_span - m), -exp(log_neg - m)))
            if acc != 0.0:
                sign = 1 if acc > 0 else -1
                g_l = sign * exp(m + log(abs(acc)) - g - log_r + log(w))
        mass = seed.mass_term(g, log_c, g_star)
        return g_l, seed.slope_term(g) + mass - seed.compensation(g, p1)

    return residuals


def solve_closure(
    seed: GenerationSeed, params: ScaffoldParams
) -> tuple[LogGap, float, float, float]:
    """Solve the closure equation; returns (r'', eps_next, residual, ratio_diag).

    The root is found in s = log((1-r_hat)/(1-r)), where the bracket
    [alpha_n, beta_n] is O(1) wide.  eps_next comes from the integral identity
    (the gR side); the residual is its relative mismatch against the
    derivative identity (the gL side) at the root.
    """
    p1, p2 = params.p1, params.p2
    u_hat = seed.r_hat.g + params.log_c
    s_alpha = 0.5 * math.log(u_hat) - math.log(params.a)
    s_beta = 2.0 * math.log(u_hat) - math.log(params.b)
    if s_alpha <= seed.star_span(params.log_c):
        raise ConstructionError(
            f"bracket start alpha_n not past r*: a = {params.a} too large",
            blamed_constant="a",
        )

    residuals = _closure_evaluator(seed, params)

    def f(s: float) -> float:
        g_l, g_r = residuals(seed.r_hat.g + s)
        return g_l - g_r

    f_alpha, f_beta = f(s_alpha), f(s_beta)
    if f_alpha <= 0.0:
        raise ConstructionError(
            f"gL(alpha_n) <= gR(alpha_n): constant a = {params.a} (or C) too small",
            blamed_constant="a",
        )
    if f_beta >= 0.0:
        raise ConstructionError(
            f"gL(beta_n) >= gR(beta_n): constant b = {params.b} too large",
            blamed_constant="b",
        )
    s_root = find_root(f, s_alpha, s_beta, rel_tol=1e-14)
    r_dp = LogGap(seed.r_hat.g + s_root)
    g_l, g_r = residuals(r_dp.g)
    w = r_dp.g + params.log_c
    eps_next = g_r / w - (p2 - p1)
    eps_from_deriv = g_l / w - (p2 - p1)
    scale = abs(eps_next + p2 - p1)
    residual = abs(eps_next - eps_from_deriv) / scale if scale > 0 else math.inf
    ratio_diag = seed.r_hat.g * math.exp(-s_root)
    return r_dp, eps_next, residual, ratio_diag


def build_scaffold(params: ScaffoldParams, n_generations: int, max_retries: int = 8) -> IrregularScaffold:
    """Build n_generations generations, retrying with C x10 on bracket failure."""
    if n_generations < 1:
        raise ConstructionError("need at least one generation")
    attempt = params
    last_err: Exception | None = None
    for retry in range(max_retries + 1):
        try:
            gens = _build_once(attempt, n_generations)
            return IrregularScaffold(params=attempt, generations=tuple(gens), retries=retry)
        except ConstructionError as err:
            last_err = err
            attempt = attempt.bumped()
    raise RetriesExhaustedError(
        f"scaffold construction failed after {max_retries} retries: {last_err}",
        blamed_constant=getattr(last_err, "blamed_constant", None),
    )


def _build_once(params: ScaffoldParams, n_generations: int) -> list[Generation]:
    gens: list[Generation] = []
    r_n = LogGap(params.g1)
    eps_n = 0.0
    for idx in range(1, n_generations + 1):
        seed = seed_generation(idx, r_n, eps_n, params)
        r_dp, eps_next, residual, ratio_diag = solve_closure(seed, params)
        if not abs(eps_next) < (params.p2 - params.p1) / 2.0:
            raise ConstructionError(
                f"|eps_{idx + 1}| = {abs(eps_next):.4g} >= (p2-p1)/2; C too small",
                blamed_constant="C",
            )
        gen = Generation(
            **vars(seed), r_dprime=r_dp, eps_next=eps_next, residual=residual,
            ratio_diag=ratio_diag,
        )
        if not gen.ordered():
            raise ConstructionError(f"generation {idx} radii not strictly increasing")
        gens.append(gen)
        r_n = LogGap(r_dp.g + math.log(params.eta(idx)))
        eps_n = eps_next
    return gens


def scaffold_from_json_dict(doc: dict) -> IrregularScaffold:
    p = doc["params"]
    etas = list(p["eta"])
    offset = etas[0] - 1.0 if etas else 1.0
    if not float(offset).is_integer() or any(e != n + offset for n, e in enumerate(etas, start=1)):
        raise ConstructionError(f"stored eta {etas} is not of the form n + offset")
    params = ScaffoldParams(
        k=p["k"], p1=p["p1"], p2=p["p2"], p=p["p"], log_c=p["log_c"],
        g1=p["g1"], a=p["a"], b=p["b"], eta_offset=int(offset),
    )
    gens = tuple(
        Generation(**{
            field: LogGap(rec[key]) if key.startswith("g_") else rec[key]
            for key, field in _GENERATION_KEYS
        })
        for rec in doc["generations"]
    )
    return IrregularScaffold(params=params, generations=gens, retries=doc.get("retries", 0))
