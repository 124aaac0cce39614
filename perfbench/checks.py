"""Correctness gate: compare a task's outputs with its golden record.

Every compared output carries a tolerance and the reason for it.  Counts and
flags are exact.  Scaffold outputs are also held to the paper's bounds
(closure residual <= 1e-9, |eps_n| < (p2 - p1)/2, radii increasing), which
is the only check a construction gets when the seed commit recorded no
output for it (the deep-g builds that time out there).
"""

from __future__ import annotations

import math

EXACT = ("exact",)

# scaffold radii come out of a Brent solve at rel_tol 1e-14; 1e-10 leaves room
# for a re-ordered series evaluation while a wrong closure moves them by >1e-3
_SCAFFOLD = {
    "retries": EXACT,
    "n_generations": EXACT,
    "g_rn": ("rel", 1e-10),
    "g_rprime": ("rel", 1e-10),
    "g_rhat": ("rel", 1e-10),
    "g_rstar": ("rel", 1e-10),
    "g_rdprime": ("rel", 1e-10),
    "eps": ("abs", 1e-9),
    "residual": None,  # round-off sized; held to the paper's bound instead
}

# The log-domain Taylor recursion agrees with an O(degree*p) rewrite to 1e-14
# relative in log|f_m|; order tails are ratios of such logs, so 1e-8 is wide
# for a faithful rewrite and far below the >=1e-3 shift of a wrong one.
_ORDERS = {
    "sigma_tail": ("abs", 1e-8),
    "lambda_tail": ("abs", 1e-8),
    "sigma_slope": ("abs", 1e-8),
    "audit_margin": ("abs", 1e-8),
    "audit_passed": EXACT,
}

# The majorant integral is a midpoint rule at step 0.02, accurate to
# O(step^2) = 4e-4 relative; a single-pass rewrite on another grid may move
# it by that much, so tails get 2e-3.
_STUDY = dict(_ORDERS, sigma_tail=("abs", 2e-3), lambda_tail=("abs", 2e-3),
              sigma_slope=("abs", 2e-3), audit_margin=("abs", 2e-3))

TOLERANCES = {
    "ode_pole": _ORDERS,
    "construct": _SCAFFOLD,
    "study": _STUDY,
    # closed-form ladders: only summation order can change the last digits
    "wiman_doubling": {"convex": ("abs", 1e-9), "central_log_n": ("rel", 1e-12),
                       "log_mu": ("rel", 1e-10), "log_k": ("rel", 1e-10)},
    "wiman_power": {"central_log_n": ("rel", 1e-12), "log_k": ("rel", 1e-10)},
    "logderiv_windows": {"intervals": ("rel", 1e-12), "density": ("abs", 1e-12), "flagged": EXACT},
    # a fixed-seed sample maximum of a closed form
    "logderiv_certificate": {"max_statistic": ("rel", 1e-10)},
    "cli": {
        "exit": EXACT,
        "scaffold_g_rn": ("rel", 1e-10),
        "scaffold_g_rdprime": ("rel", 1e-10),
        "scaffold_eps": ("abs", 1e-9),
        "scaffold_residual": None,
        "profile_rows": EXACT,
        "junction_max": None,  # held to the 1e-9 junction bound below
        "series_terms": EXACT,
        "series_log_mu": ("rel", 1e-10),
        "windows_density": ("abs", 1e-12),
        "certificate_max": ("rel", 1e-10),
        "predict": ("rel", 1e-12),
        "exponents": ("rel", 1e-12),
        "solve_tails": ("abs", 1e-8),
        "solve_audit_margin": ("abs", 1e-8),
        "report_rows_match": EXACT,
    },
    # cell and atom counts are exact; the mass total only changes by
    # summation order
    "riesz_cli": {"exit": EXACT, "cells": EXACT, "atoms": EXACT, "total_mass": ("rel", 1e-9),
                  "truncated": EXACT, "cloud_lines": EXACT},
    # 1e-3 is three times the ~3e-4 error of a 32-gap near-field sum and
    # three orders below what a wrong kernel or a dropped cell average gives
    "surrogate": {"samples_in_arcs": EXACT, "values": ("abs", 1e-3)},
    "excluded_measure": {"measure": ("rel", 1e-9)},
    "zero_counts": {"n": EXACT, "N": ("rel", 1e-9)},
    # the trapezoid refinement stops at a 1e-6 relative change
    "counting_integral": {"value": ("rel", 1e-5)},
    "sector_crowding": {"count": EXACT},
}


def _close(got, want, tol) -> bool:
    if tol[0] == "exact" or isinstance(want, (bool, str)):
        return got == want
    got, want = float(got), float(want)
    if not (math.isfinite(got) and math.isfinite(want)):
        return got == want
    scale = abs(want) if tol[0] == "rel" else 1.0
    return abs(got - want) <= tol[1] * scale


def compare(kind: str, params: dict, outputs: dict, golden: dict | None) -> list[str]:
    """Mismatch messages of ``outputs`` against the paper's bounds and the
    golden record (empty when every compared output is within tolerance)."""
    problems = bounds(kind, params, outputs)
    if golden is None or golden.get("status") != "ok":
        return problems
    want_all = golden["outputs"]
    for name, tol in TOLERANCES[kind].items():
        if tol is None or name not in want_all:
            continue
        if name not in outputs:
            problems.append(f"{name}: missing")
            continue
        got, want = outputs[name], want_all[name]
        if isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                problems.append(f"{name}: length {len(got) if isinstance(got, list) else '-'} != {len(want)}")
                continue
            bad = [i for i, (a, b) in enumerate(zip(got, want)) if not _close(a, b, tol)]
            if bad:
                i = bad[0]
                problems.append(f"{name}[{i}]: {got[i]!r} vs {want[i]!r} ({tol})")
        elif not _close(got, want, tol):
            problems.append(f"{name}: {got!r} vs {want!r} ({tol})")
    return problems


def bounds(kind: str, params: dict, outputs: dict) -> list[str]:
    """The paper's bounds on scaffold outputs, checked with or without a golden."""
    if kind == "construct":
        return scaffold_bounds(outputs, "", params["p2"] - params["p1"])
    if kind == "cli":
        # the chain builds the README scaffold, p1 = 2 and p2 = 3
        out = scaffold_bounds(outputs, "scaffold_", 1.0)
        if outputs.get("junction_max", 0.0) > 1e-9:
            out.append(f"junction jump {outputs['junction_max']:.3g} > 1e-9")
        return out
    return []


def scaffold_bounds(outputs: dict, prefix: str, p_gap: float) -> list[str]:
    out = []
    for i, res in enumerate(outputs.get(prefix + "residual", [])):
        if not res <= 1e-9:
            out.append(f"generation {i + 1}: closure residual {res:.3g} > 1e-9")
    for i, eps in enumerate(outputs.get(prefix + "eps", [])):
        if not abs(eps) < p_gap / 2.0:
            out.append(f"generation {i + 1}: |eps_n| = {abs(eps):.3g} >= (p2-p1)/2")
    names = [prefix + n for n in ("g_rn", "g_rprime", "g_rhat", "g_rstar", "g_rdprime")]
    cols = [outputs[n] for n in names if n in outputs]
    seq = [x for row in zip(*cols) for x in row]
    if any(b < a for a, b in zip(seq, seq[1:])):
        out.append("scaffold radii not increasing")
    return out
