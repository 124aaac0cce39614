"""Task catalogues, seeded task lists and task executors for the three workloads.

A task is one request a researcher makes of the library or the CLI.  Every
workload owns a finite catalogue of fully specified tasks, grouped into
strata of similar cost; ``task_list(seed, pass_index)`` picks a fixed number
of entries from every stratum with a seeded generator.  The seed therefore
changes the inputs but not the mix of costs, which keeps run-to-run spread
small, and every task the benchmark can generate has a recorded golden
output (``goldens.json``, written by ``record_goldens.py``).

Executors call only public names of ``discgrowth`` and return a flat dict of
key outputs, read through stable surfaces: documented result fields and the
records the CLI writes.  Keys starting with ``info_`` (byte digests) are
recorded for information and never compared.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("growth_orders", "riesz_build", "riesz_query")

# fresh set-up processes behind setup_s; riesz_query builds a 127k-atom cloud
# in each, so it gets fewer
SETUPS = {"growth_orders": 5, "riesz_build": 5, "riesz_query": 3}

# Scaffold triples (p1, p2, p) of the construction grid, each built at 1 to 6
# generations.  The first three include the depths that hang at the seed
# commit: (2,3,3) at 6 generations, (2,4,4) at 4 and (1.5,3,3) at 5
# (log_r_from_g loops once e^-g underflows).  They stay in the grid; their
# builds count as failed while they time out.
CONSTRUCT_TRIPLES = (
    (2.0, 3.0, 3.0), (2.0, 4.0, 4.0), (1.5, 3.0, 3.0), (3.0, 4.0, 4.0),
    (2.5, 3.0, 3.0), (3.5, 4.0, 4.0), (4.0, 5.0, 5.0), (2.0, 2.5, 2.5),
)

# Riesz instances: the small_scaffold and wide_scaffold of the test suite
# (generation 1 holds 5.9k and 127k cells) and a 16.6k-cell one.
RIESZ_SCAFFOLDS = {
    "small": dict(p1=2.0, p2=3.0, p=3.0, log_c=3.2, g1=3.0),
    "wide": dict(p1=2.0, p2=3.0, p=4.0, log_c=4.0, g1=3.0),
    "mid": dict(p1=2.0, p2=3.0, p=3.0, log_c=3.5, g1=3.5),
}

# Log-gap range [g_lo, g_hi] of the surrogate circles on each query cloud
# (generation-1 atoms reach g = 8.36 and 11.41).
QUERY_CLOUDS = {"small": (3.0, 8.36), "wide": (3.0, 11.41)}


@dataclass(frozen=True)
class Task:
    kind: str
    key: str
    params: dict = field(hash=False)
    limit_s: float = 30.0


# ---------------------------------------------------------------------------
# catalogues


def _growth_catalogue() -> list[tuple[str, int, list[Task]]]:
    """(stratum, picks per pass, entries) for growth_orders."""
    strata = []

    def ode(p, d, scale=-1.0):
        g_lo, g_hi = (1.0, 2.6) if p == 2 else (0.8, 1.95)
        return Task("ode_pole", f"ode/p{p}/d{d}/s{scale:g}",
                    dict(p=p, degree=d, scale=scale, g_lo=g_lo, g_hi=g_hi), 60.0)

    # one degree per stratum keeps the cost of a pass fixed; the seed picks
    # the pole order and the coefficient scale
    for degree in (2400, 3600, 5500, 7500):
        strata.append((f"ode_{degree}", 1, [ode(p, degree, sc) for p in (2, 3) for sc in (-1.0, -0.5, -2.0)]))
    # the C5 pair: both are in every pass
    strata.append(("ode_c5_12000", 1, [ode(2, 12000)]))
    strata.append(("ode_c5_18000", 1, [ode(3, 18000)]))

    # builds take <= 3 ms at the seed; 0.25 s is over fifty times that
    for p1, p2, p in CONSTRUCT_TRIPLES:
        for gens in range(1, 7):
            entries = [
                Task(
                    "construct",
                    f"construct/{p1 + 0.01 * v:g}-{p2:g}-{p:g}/n{gens}",
                    dict(p1=round(p1 + 0.01 * v, 2), p2=p2, p=p, generations=gens),
                    0.25,
                )
                for v in range(3)
            ]
            strata.append((f"construct_{p1:g}_{p2:g}_{p:g}_{gens}", 1, entries))

    # scaffold-majorant studies in the C8 shape (step 0.02; 40 samples where
    # C8 takes 160, so that two passes fit in one run)
    strata.append((
        "study_ref", 1,
        [Task("study", f"study/2-3-3/n4/s{s:g}", dict(p1=2.0, p2=3.0, p=3.0, generations=4, shift=s), 60.0)
         for s in (0.0, 0.25, 0.5)],
    ))
    strata.append((
        "study_alt", 1,
        [Task("study", f"study/3-4-4/n5/s{s:g}", dict(p1=3.0, p2=4.0, p=4.0, generations=5, shift=s), 60.0)
         for s in (0.0, 0.25, 0.5)],
    ))

    strata.append((
        "wiman_doubling", 2,
        [Task("wiman_doubling", f"wiman/doubling/{lam:g}-{sig:g}/{klo}-{khi}",
              dict(lam=lam, sigma=sig, k_lo=klo, k_hi=khi), 10.0)
         for lam, sig, klo, khi in ((1.0, 2.0, 5, 14), (1.0, 3.0, 4, 13), (2.0, 3.0, 6, 15), (1.5, 2.5, 5, 14))],
    ))
    strata.append((
        "wiman_power", 1,
        [Task("wiman_power", f"wiman/power/{sig:g}", dict(sigma=sig, g_lo=0.5, g_hi=3.0, points=8), 10.0)
         for sig in (1.0, 1.5, 2.0)],
    ))
    strata.append((
        "logderiv_windows", 1,
        [Task("logderiv_windows", f"logderiv/windows/{lam:g}-{eta:g}-{n}",
              dict(lam=lam, eta=eta, g_n=[2.0 ** i for i in range(1, n + 1)]), 10.0)
         for lam, eta, n in ((1.0, 0.5, 24), (0.5, 0.25, 30), (2.0, 0.5, 20))],
    ))
    strata.append((
        "logderiv_certificate", 2,
        [Task("logderiv_certificate", f"logderiv/certificate/{pw:g}-{eps:g}",
              dict(power=pw, eta=0.4, eps=eps, g_n=[6.0, 9.0, 12.0, 15.0]), 10.0)
         for pw in (1.5, 2.0, 2.5) for eps in (0.05, 0.1)],
    ))
    # one chain variant per pass; its steps stay in order
    strata.append(("cli", 1, [_cli_chain(i, v) for i, v in enumerate(_CLI_VARIANTS)]))
    return strata


# The README's non-riesz subcommands, run as one chain so profile and report
# read what scaffold and solve wrote.
_CLI_VARIANTS = (
    dict(gens=4, spb=16, lam=1.0, sigma=2.0, w_lam=1.0, power=2.0, eps=0.1, pred=(2, 4, 4), exp_k=2, exp=(5, 6, 0.0), pole=2, degree=2400),
    dict(gens=4, spb=16, lam=1.0, sigma=3.0, w_lam=0.5, power=1.5, eps=0.05, pred=(3, 4, 5), exp_k=1, exp=(2, 3, 0.5), pole=2, degree=2400),
    dict(gens=4, spb=16, lam=2.0, sigma=3.0, w_lam=2.0, power=2.5, eps=0.1, pred=(2, 5, 6), exp_k=1, exp=(3, 4, 0.2), pole=3, degree=2400),
    dict(gens=4, spb=16, lam=1.5, sigma=2.5, w_lam=1.0, power=2.0, eps=0.2, pred=(1, 3, 3), exp_k=2, exp=(5, 7, 0.1), pole=3, degree=2400),
)


def _cli_chain(i: int, v: dict) -> tuple[Task, ...]:
    return tuple(Task("cli", f"cli/{i}/{step}", dict(v, step=step), 30.0) for step in CLI_STEPS)


def _riesz_build_catalogue() -> list[tuple[str, int, list[Task]]]:
    """Three cost bands: the full 127k-cell instance, ceiling-truncated wide
    partitions (11k cells) and small ones (6k cells); the seed varies
    ceilings and g_max within a band, which changes inputs but not cost."""
    def rb(sc, gen, g_max, ceiling, split=False):
        key = f"riesz/{sc}/gen{gen}/gmax{g_max:g}/c{ceiling}" + ("/split" if split else "")
        return Task("riesz_cli", key, dict(scaffold=sc, generation=gen, g_max=g_max, ceiling=ceiling, split=split), 60.0)

    return [
        # the 127k-cell instance and memory peak, in every pass
        ("wide_full", 1, [rb("wide", 1, gm, 200_000) for gm in (15.0, 20.0, 25.0)]),
        # these ceilings all stop the partition at 11471 cells; twelve of them
        # put the tail (ten tasks beyond it) inside this band
        ("wide_trunc", 12, [rb("wide", 1, gm, c) for gm in (20.0, 25.0) for c in (14_000, 17_000, 20_000, 23_000)]),
        ("mid", 1, [rb("mid", 1, gm, 200_000) for gm in (15.0, 20.0, 25.0)]),
        ("small_split", 4, [rb("small", 1, gm, 200_000, split=True) for gm in (12.0, 15.0, 20.0, 25.0)]),
        ("small_full", 14, [rb("small", 1, gm, c) for gm in (12.0, 15.0, 20.0, 25.0) for c in (100_000, 200_000)]),
        ("small_gen2", 6, [rb("small", 2, 25.0, c) for c in (8_000, 9_000, 10_000, 11_000, 12_000)]),
    ]


def _riesz_query_catalogue() -> list[tuple[str, int, list[Task]]]:
    """Query points that depend on where the atoms sit (ring radii, atom
    positions, angles off the excluded arcs) are drawn once, when the goldens
    are recorded, and stored with them as the task's ``inputs``."""
    strata = []
    for cloud, n_samples, picks in (("small", 16, 14), ("wide", 2, 12)):
        lo, hi = QUERY_CLOUDS[cloud]
        circles = [round(lo + 0.2 + (hi - lo - 0.4) * (i + 0.5) / 24, 6) for i in range(24)]
        strata.append((
            f"surrogate_{cloud}", picks,
            [Task("surrogate", f"rq/surrogate/{cloud}/{i}", dict(cloud=cloud, g=g, eps=0.1, samples=n_samples), 30.0)
             for i, g in enumerate(circles)],
        ))
    for cloud in QUERY_CLOUDS:
        for kind, tag, picks, extra in (
            ("excluded_measure", "excluded", 2, lambda i: dict(eps=(0.01, 0.05, 0.1)[i % 3])),
            ("zero_counts", "zero_counts", 2, lambda i: dict(h_frac=(0.25, 0.5)[i % 2])),
            ("counting_integral", "cci", 1, lambda i: {}),
            ("sector_crowding", "sector", 1, lambda i: {}),
        ):
            strata.append((
                f"{tag}_{cloud}", picks,
                [Task(kind, f"rq/{tag}/{cloud}/{i}", dict(cloud=cloud, **extra(i)), 30.0) for i in range(8)],
            ))
    return strata


CATALOGUES = {
    "growth_orders": _growth_catalogue,
    "riesz_build": _riesz_build_catalogue,
    "riesz_query": _riesz_query_catalogue,
}


def catalogue(workload: str) -> list[tuple[str, int, list[Task]]]:
    return CATALOGUES[workload]()


def _flat(entries) -> list[Task]:
    """Entries are tasks or tuples of tasks that run in order (a CLI chain)."""
    return [t for e in entries for t in (e if isinstance(e, tuple) else (e,))]


def all_tasks(workload: str) -> list[Task]:
    return [t for _, _, entries in catalogue(workload) for t in _flat(entries)]


def task_list(workload: str, seed: int, pass_index: int = 0) -> list[Task]:
    """The seeded task list of one pass: ``picks`` entries from every stratum
    (drawn with replacement where a stratum has fewer), in seeded order so
    every kind of task is spread over the whole pass; a CLI chain stays in
    one piece."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    units = []
    for _, picks, entries in catalogue(workload):
        units.extend(rng.sample(entries, picks) if picks <= len(entries) else rng.choices(entries, k=picks))
    rng.shuffle(units)
    return _flat(units)


# ---------------------------------------------------------------------------
# execution context


class Context:
    """State a workload builds in set-up and its tasks share."""

    def __init__(self, workload: str, workdir: str, goldens: dict):
        self.workload = workload
        self.workdir = workdir
        self.goldens = goldens
        self.scaffold_files: dict[str, str] = {}
        self.clouds: dict[str, tuple] = {}


def setup(ctx: Context) -> None:
    """Workload set-up and warm-up; runs once per process before timing."""
    from discgrowth import riesz as R
    from discgrowth.numerics import LogGap
    from discgrowth.profiles import RadialProfile
    from discgrowth.scaffold import ScaffoldParams, build_scaffold

    if ctx.workload == "growth_orders":
        # first calls into each layer (lazy imports, argparse set-up)
        run_task(ctx, Task("ode_pole", "warm", dict(p=2, degree=200, scale=-1.0, g_lo=1.0, g_hi=2.6)))
        run_task(ctx, Task("construct", "warm", dict(p1=2.0, p2=3.0, p=3.0, generations=2)))
        run_task(ctx, Task("logderiv_certificate", "warm", dict(power=2.0, eta=0.4, eps=0.1, g_n=[6.0, 9.0])))
        _cli(["ode", "predict", "--k", "1", "--p1", "2", "--p2", "4", "--p", "4",
                   "--out", os.path.join(ctx.workdir, "warm.json")])
    elif ctx.workload == "riesz_build":
        for name, kw in RIESZ_SCAFFOLDS.items():
            path = os.path.join(ctx.workdir, f"scaffold-{name}.json")
            args = ["scaffold", "--generations", "2", "--out", path]
            for flag, key in (("--p1", "p1"), ("--p2", "p2"), ("--p", "p"), ("--log-c", "log_c"), ("--g1", "g1")):
                args += [flag, repr(kw[key])]
            rc = _cli(args)
            if rc != 0:
                raise RuntimeError(f"scaffold set-up for {name} exited {rc}")
            ctx.scaffold_files[name] = path
        run_task(ctx, Task("riesz_cli", "warm", dict(scaffold="small", generation=1, g_max=25.0, ceiling=2000, split=False)))
    elif ctx.workload == "riesz_query":
        for name in QUERY_CLOUDS:
            kw = RIESZ_SCAFFOLDS[name]
            sc = build_scaffold(ScaffoldParams.with_defaults(k=1, **kw), 2)
            prof = RadialProfile(sc)
            part = R.partition_region(prof, 1, g_max=25.0, ceiling=200_000)
            cloud = R.atomize(part, prof)
            # the first surrogate call builds the lazy cell-node cache
            R.eval_log_surrogate_many(cloud, prof, [(LogGap(QUERY_CLOUDS[name][0] + 0.1), 0.0)])
            ctx.clouds[name] = (cloud, prof)
    else:
        raise ValueError(f"unknown workload {ctx.workload!r}")


def _cli(argv: list[str]) -> int:
    from discgrowth import cli

    return int(cli.main(argv))


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _records(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# executors


def run_task(ctx: Context, task: Task) -> dict:
    inputs = ctx.goldens.get(task.key, {}).get("inputs", {})
    return _EXECUTORS[task.kind](ctx, **task.params, **inputs)


def _ode_pole(ctx, p, degree, scale, g_lo, g_hi):
    import numpy as np
    from discgrowth import ode as O
    from discgrowth.numerics import LogValue

    sol = O.taylor_solve(O.pole_coeffs(p, degree, scale=scale), 1, [LogValue.from_float(1.0)], degree)
    gs = np.linspace(g_lo, g_hi, 48)
    samples = [(float(g), math.log(sol.log_abs_sum(float(g)))) for g in gs]
    ind = O.estimate_orders(samples, window=0.4, min_span=1.0)
    rows = O.audit_inequalities(ind, p1=float(p + 1), p2=float(p + 1), k=1)
    return _indicator_outputs(ind, rows)


def _indicator_outputs(ind, rows) -> dict:
    return {
        "sigma_tail": ind.sigma_M.tail,
        "lambda_tail": ind.lambda_M.tail,
        "sigma_slope": ind.sigma_M.slope,
        "audit_margin": [r.margin for r in rows],
        "audit_passed": [bool(r.passed) for r in rows],
    }


def _scaffold_params(p1, p2, p):
    from discgrowth.scaffold import ScaffoldParams

    return ScaffoldParams.with_defaults(k=1, p1=p1, p2=p2, p=p)


def _construct(ctx, p1, p2, p, generations):
    from discgrowth.scaffold import build_scaffold

    doc = build_scaffold(_scaffold_params(p1, p2, p), generations).to_json_dict()
    gens = doc["generations"]
    out = {"retries": doc["retries"], "n_generations": len(gens)}
    for name in ("g_rn", "g_rprime", "g_rhat", "g_rstar", "g_rdprime", "eps", "residual"):
        out[name] = [g[name] for g in gens]
    return out


def _study(ctx, p1, p2, p, generations, shift):
    import numpy as np
    from discgrowth import ode as O
    from discgrowth.profiles import RadialProfile
    from discgrowth.scaffold import build_scaffold

    sc = build_scaffold(_scaffold_params(p1, p2, p), generations)
    prof = RadialProfile(sc)
    gs = np.linspace(sc.generations[1].r_n.g + shift, prof.g_end - 1.0, 40)
    samples = [(float(g), O.coefficient_integral_log_bound(prof.phi, 1, float(g), step=0.02)) for g in gs]
    ind = O.estimate_orders(samples, window=0.9)
    rows = O.audit_inequalities(ind, p1=prof.params.p1, p2=prof.params.p2, k=1)
    return _indicator_outputs(ind, rows)


def _wiman_doubling(ctx, lam, sigma, k_lo, k_hi):
    from discgrowth import wiman as W

    s = W.build_reference_series("doubling", sigma=sigma, lam=lam)
    ci = W.convex_indicators(W.doubling_convex_samples(s, k_lo, k_hi))
    gs = [s.r_k(k).g for k in range(k_lo, k_hi + 1)]
    return {
        "convex": [ci.alpha, ci.beta, ci.alpha_prime, ci.beta_prime],
        "central_log_n": [W.central_index(s, g).log_n for g in gs],
        "log_mu": [W.log_max_term(s, g).logmag for g in gs],
        "log_k": [W.k_indicator(s, g).logmag for g in gs],
    }


def _wiman_power(ctx, sigma, g_lo, g_hi, points):
    import numpy as np
    from discgrowth import wiman as W

    s = W.build_reference_series("power-law", sigma=sigma)
    gs = [float(g) for g in np.linspace(g_lo, g_hi, points)]
    return {
        "central_log_n": [W.central_index(s, g).log_n for g in gs],
        "log_k": [W.k_indicator(s, g).logmag for g in gs],
    }


def _logderiv_windows(ctx, lam, eta, g_n):
    from discgrowth import logderiv as L

    ws = L.loworder_windows(lam, eta, g_n)
    dens = L.upper_density(ws)
    return {"intervals": [x for iv in ws.intervals for x in iv], "density": dens.value, "flagged": dens.flagged}


def _logderiv_certificate(ctx, power, eta, eps, g_n):
    from discgrowth import logderiv as L

    spec = L.exp_inverse_power_spec(power)
    ws = L.loworder_windows(spec.lam, eta, g_n)
    rpt = L.logderiv_certificate(spec, 1, 0, eps, ws)
    return {"max_statistic": rpt.max_statistic}


def _cli_step(ctx, step, gens, spb, lam, sigma, w_lam, power, eps, pred, exp_k, exp, pole, degree):
    """One README subcommand of a CLI chain variant; later steps read the
    files earlier steps of the same pass wrote."""
    d = os.path.join(ctx.workdir, "cli")
    os.makedirs(d, exist_ok=True)
    f = lambda name: os.path.join(d, name)
    argv = {
        "scaffold": ["scaffold", "--p1", "2", "--p2", "3", "--p", "3", "--k", "1", "--generations", str(gens),
                     "--out", f("s.json"), "--csv-out", f("s.csv")],
        "profile": ["profile", "--scaffold", f("s.json"), "--samples-per-branch", str(spb), "--out", f("prof.csv"),
                    "--junctions-out", f("j.json")],
        "series": ["series", "reference", "--variant", "doubling", "--lambda", repr(lam), "--sigma", repr(sigma),
                   "--out", f("series.json"), "--trace", f("trace.csv")],
        "windows": ["logderiv", "windows", "--lambda", repr(w_lam), "--eta", "0.5", "--g-n", "2,4,8,16",
                    "--out", f("w.json")],
        "certificate": ["logderiv", "certificate", "--power", repr(power), "--k", "1", "--j", "0", "--eps", repr(eps),
                        "--g-n", "6,9,12", "--out", f("cert.json")],
        "predict": ["ode", "predict", "--k", "1", "--p1", str(pred[0]), "--p2", str(pred[1]), "--p", str(pred[2]),
                    "--out", f("pred.json")],
        "exponents": ["ode", "exponents", "--k", str(exp_k), "--p1", str(exp[0]), "--p2", str(exp[1]),
                      "--eps", repr(exp[2]), "--out", f("xi.json")],
        "solve": ["ode", "solve", "--k", "1", "--pole-order", str(pole), "--degree", str(degree),
                  "--estimate", "1.0:2.6:48" if pole == 2 else "0.8:1.95:48",
                  "--audit-p1", str(pole + 1), "--audit-p2", str(pole + 1), "--out", f("orders.json")],
        "report": ["report", "--inputs", *(f(n) for n in _REPORT_INPUTS),
                   "--out", f("report.md"), "--csv-out", f("report.csv")],
    }[step]
    out = {"exit": _cli(argv)}
    if out["exit"] != 0:
        return out
    if step == "scaffold":
        gen_recs = [r for r in _records(f("s.json")) if r["kind"] == "generation"]
        for key in ("g_rn", "g_rdprime", "eps", "residual"):
            out[f"scaffold_{key}"] = [r[key] for r in gen_recs]
        out["info_digest"] = _digest(f("s.json"))
    elif step == "profile":
        with open(f("prof.csv")) as fh:
            out["profile_rows"] = sum(1 for _ in fh) - 1
        out["junction_max"] = max(r["value"] for r in _records(f("j.json")))
        out["info_digest"] = _digest(f("prof.csv"))
    elif step == "series":
        out["series_terms"] = sum(1 for r in _records(f("series.json")) if r["kind"] == "term")
        with open(f("trace.csv")) as fh:
            out["series_log_mu"] = [float(row.split(",")[1]) for row in list(fh)[1:]]
        out["info_digest"] = _digest(f("series.json"))
    elif step == "windows":
        out["windows_density"] = _records(f("w.json"))[0]["upper_density"]
    elif step == "certificate":
        out["certificate_max"] = _records(f("cert.json"))[0]["max_statistic"]
    elif step == "predict":
        p = _records(f("pred.json"))[0]
        out["predict"] = [p["sigma"], p["lambda"], p["alpha"]]
    elif step == "exponents":
        x = _records(f("xi.json"))[0]
        out["exponents"] = [x["xi"], x["beta"]]
    elif step == "solve":
        recs = _records(f("orders.json"))
        out["solve_tails"] = [recs[0]["sigma_hat_tail"], recs[0]["lambda_hat_tail"], recs[0]["slope"]]
        out["solve_audit_margin"] = [r["value"] for r in recs[1:] if r["kind"] == "check"]
        out["info_digest"] = _digest(f("orders.json"))
    elif step == "report":
        # one row per check record of the inputs (the table names input
        # paths, so its bytes are not digested)
        n_checks = sum(1 for n in _REPORT_INPUTS for r in _records(f(n)) if r.get("kind") == "check")
        with open(f("report.csv")) as fh:
            out["report_rows_match"] = (sum(1 for _ in fh) - 1) == n_checks
    return out


CLI_STEPS = ("scaffold", "profile", "series", "windows", "certificate", "predict", "exponents", "solve", "report")
_REPORT_INPUTS = ("s.json", "j.json", "cert.json", "xi.json", "orders.json")


def _riesz_cli(ctx, scaffold, generation, g_max, ceiling, split):
    cloud_path = os.path.join(ctx.workdir, "cloud.jsonl")
    summary_path = os.path.join(ctx.workdir, "rsum.json")
    argv = ["riesz", "--scaffold", ctx.scaffold_files[scaffold], "--generation", str(generation),
            "--g-max", repr(g_max), "--ceiling", str(ceiling), "--out", cloud_path, "--summary-out", summary_path]
    if split:
        argv.append("--split-doubles")
    try:
        rc = _cli(argv)
        out = {"exit": rc}
        if rc != 0:
            return out
        summary = _records(summary_path)[0]
        out.update(cells=summary["cells"], atoms=summary["atoms"], total_mass=summary["total_mass"],
                   truncated=sorted(k for k, v in summary["truncated"].items() if v))
        with open(cloud_path, "rb") as fh:
            data = fh.read()
        out["cloud_lines"] = data.count(b"\n")
        out["info_digest_cloud"] = hashlib.sha256(data).hexdigest()[:16]
        return out
    finally:
        for path in (cloud_path, summary_path):
            if os.path.exists(path):
                os.remove(path)


def _surrogate(ctx, cloud, g, eps, samples, thetas):
    """Surrogate batch on one circle; the sample angles were drawn off the
    excluded arcs when the goldens were recorded, and must still be off them."""
    from discgrowth import riesz as R
    from discgrowth.numerics import LogGap

    cl, prof = ctx.clouds[cloud]
    arcs = R.excluded_arcs(cl, g, eps)
    inside = sum(1 for t in thetas if any(lo <= t <= hi for lo, hi in arcs))
    vals = R.eval_log_surrogate_many(cl, prof, [(LogGap(g), t) for t in thetas[:samples]])
    return {"samples_in_arcs": inside, "values": [float(v) for v in vals]}


def _excluded_measure(ctx, cloud, eps, g):
    from discgrowth import riesz as R

    return {"measure": R.excluded_measure(ctx.clouds[cloud][0], g, eps)}


def _zero_counts(ctx, cloud, h_frac, g, theta):
    from discgrowth import logderiv as L
    from discgrowth.numerics import LogGap

    n, big_n = L.zero_counts(ctx.clouds[cloud][0], (LogGap(g), theta), h_frac * math.exp(-g))
    return {"n": n, "N": big_n}


def _counting_integral(ctx, cloud, g_z, theta, g_r):
    from discgrowth import logderiv as L
    from discgrowth.numerics import LogGap

    return {"value": L.circle_counting_integral(ctx.clouds[cloud][0], (LogGap(g_z), theta), LogGap(g_r))}


def _sector_crowding(ctx, cloud, g):
    from discgrowth import logderiv as L

    return {"count": int(L.sector_crowding(ctx.clouds[cloud][0], g))}


_EXECUTORS = {
    "ode_pole": _ode_pole,
    "construct": _construct,
    "study": _study,
    "wiman_doubling": _wiman_doubling,
    "wiman_power": _wiman_power,
    "logderiv_windows": _logderiv_windows,
    "logderiv_certificate": _logderiv_certificate,
    "cli": _cli_step,
    "riesz_cli": _riesz_cli,
    "surrogate": _surrogate,
    "excluded_measure": _excluded_measure,
    "zero_counts": _zero_counts,
    "counting_integral": _counting_integral,
    "sector_crowding": _sector_crowding,
}
