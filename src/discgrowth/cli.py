"""Command-line front end: every pipeline as a subcommand with deterministic
line-delimited JSON (and CSV trace) outputs.

A subcommand computes its results before it returns its outputs, and one
writer then puts them on disk (the Riesz cloud's text is formatted block by
block as it is written); a run that exits non-zero leaves behind no file it
created.

Each action (``scaffold``, ``ode predict``, ...) has its own parser that
accepts only the flags the action reads; a float flag must be finite.  Exit
codes: 0 success, 2 validation error, 3 numerical failure.  Errors go to
stderr as one JSON object (a malformed flag: argparse's usage error).  An INI
config file supplies defaults per section (section name = subcommand) to the
action being run; explicit flags override it, and a key that is not a flag of
that action is rejected.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import functools
import io
import math
import os
import sys
from collections.abc import Iterator

import numpy as np

from . import logderiv as L
from . import ode as O
from . import riesz as R
from . import wiman as W
from .numerics import LogValue, NumericalFailure, NumericsError
from .profiles import RadialProfile, branch_samples
from .scaffold import ScaffoldParams, build_scaffold, scaffold_from_json_dict
from .serialize import dumps17, read_records, write_records


class CliValidationError(ValueError):
    pass


def _check(name: str, value, threshold: float, passed: bool) -> dict:
    """One ``check`` record, the row ``report`` collates."""
    return {"kind": "check", "name": name, "value": value, "threshold": threshold, "passed": passed}


# ---------------------------------------------------------------------------
# scaffold plumbing


def _scaffold_records(scaffold) -> list[dict]:
    doc = scaffold.to_json_dict()
    head = {"kind": "scaffold-params", **doc["params"], "retries": doc["retries"]}
    recs = [head]
    eps_bound = (scaffold.params.p2 - scaffold.params.p1) / 2.0  # the paper's |eps_n| bound
    checks = []
    for g in doc["generations"]:
        recs.append({"kind": "generation", **g})
        checks.append(_check(f"closure-residual-gen-{g['n']}", g["residual"], 1e-9, g["residual"] <= 1e-9))
        checks.append(
            _check(f"oscillation-bound-gen-{g['n']}", abs(g["eps"]), eps_bound, abs(g["eps"]) < eps_bound)
        )
    return recs + checks


def _read_input(flag: str, path: str) -> list[dict]:
    """The records of the file ``path`` given to ``flag``; not JSONL is bad input."""
    try:
        recs = read_records(path)
    except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
        raise CliValidationError(f"{flag} {path} is not a JSONL file: {err}") from None
    return [r for r in recs if isinstance(r, dict)]


def _load_scaffold(path: str):
    recs = _read_input("--scaffold", path)
    params = next((r for r in recs if r.get("kind") == "scaffold-params"), None)
    if params is None:
        raise CliValidationError(f"--scaffold {path} has no scaffold-params record")
    gens = [r for r in recs if r.get("kind") == "generation"]
    doc = {
        "params": {k: v for k, v in params.items() if k not in ("kind", "retries")},
        "retries": params.get("retries", 0),
        "generations": gens,
    }
    try:
        return scaffold_from_json_dict(doc)
    except (KeyError, TypeError) as err:  # a missing or mistyped field
        raise CliValidationError(f"--scaffold {path} has a malformed record: {err!r}") from None


# ---------------------------------------------------------------------------
# subcommand implementations: each returns its outputs as (path, payload)
# pairs, a payload being a list of records, finished text or an iterator of
# text blocks; "-" is stdout and a path of None an output that was not
# requested

Output = tuple[str | None, list[dict] | str | Iterator[str]]


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _require(args, command: str, *dests: str) -> None:
    """Bad input unless every flag named in ``dests`` has a value."""
    missing = [f"--{d.replace('_', '-')}" for d in dests if getattr(args, d) is None]
    if missing:
        raise CliValidationError(f"{command} needs {', '.join(missing)} (flags or config)")


def _cmd_scaffold(args) -> list[Output]:
    _require(args, "scaffold", "p1", "p2")
    params = ScaffoldParams.with_defaults(
        k=args.k, p1=args.p1, p2=args.p2, p=args.p,
        eta_offset=args.eta_offset,
        log_c=args.log_c, g1=args.g1,
    )
    sc = build_scaffold(params, args.generations)
    header = ["n", "g_rn", "g_rprime", "g_rhat", "g_rstar", "g_rdprime", "eps", "residual"]
    rows = [
        [g.index] + [f"{x:.17g}" for x in (
            g.r_n.g, g.r_prime.g, g.r_hat.g, g.r_star.g, g.r_dprime.g,
            g.eps_n, g.residual,
        )]
        for g in sc.generations
    ]
    return [(args.out, _scaffold_records(sc)), (args.csv_out, _csv_text([header, *rows]))]


def _cmd_profile(args) -> list[Output]:
    sc = _load_scaffold(args.scaffold)
    prof = RadialProfile(sc)
    gs = branch_samples(prof, args.samples_per_branch)
    outputs = [(args.out, _csv_text(prof.sample_rows(gs)))]
    if args.junctions_out:
        recs = []
        for j in prof.junction_report():
            jump = max(j.phi_rel_jump, j.dphi_rel_jump)
            recs.append(_check(f"junction-{j.label}", jump, 1e-9, jump <= 1e-9))
        outputs.append((args.junctions_out, recs))
    return outputs


def _cmd_riesz(args) -> list[Output]:
    sc = _load_scaffold(args.scaffold)
    prof = RadialProfile(sc)
    part = R.partition_region(prof, args.generation, g_max=args.g_max, ceiling=args.ceiling)
    cloud = R.atomize(part, prof, split_doubles=args.split_doubles)
    summary = {
        "kind": "riesz-summary",
        "cells": len(part.cells),
        "atoms": len(cloud),
        "total_mass": part.total_mass,
        "truncated": {k: bool(v) for k, v in sorted(part.truncated.items())},
    }
    # the writer formats the text one block at a time; the cell columns of
    # the partition and of the cloud are not needed for it
    del part
    cloud.cells = None
    return [(args.out, cloud.to_jsonl()), (args.summary_out, [summary])]


def _cmd_series(args) -> list[Output]:
    series = W.build_reference_series(args.variant, sigma=args.sigma, lam=args.lam, delta=args.delta)
    if args.trace and args.variant == "doubling":
        if args.trace_k_hi < args.trace_k_lo:
            raise CliValidationError(
                f"--trace-k-hi {args.trace_k_hi} is below --trace-k-lo {args.trace_k_lo}"
            )
        k_inside = series.first_inside_k()
        if args.trace_k_lo < k_inside:
            raise CliValidationError(
                f"--trace-k-lo {args.trace_k_lo} is below k = {k_inside}, the first k with r_k > 0"
            )
    params = {"kind": "series-params", "variant": args.variant, "sigma": args.sigma}
    if args.variant == "doubling":
        params.update({"lambda": args.lam, "delta": series.delta})
        mat = series.materialize(min(args.terms, 4))
    else:
        mat = series.materialize(args.terms)
    outputs = [(args.out, [params] + [{"kind": "term", **t} for t in mat.to_json_terms()])]
    if not args.trace:
        return outputs
    if args.variant == "doubling":
        gs = [series.r_k(k).g for k in range(args.trace_k_lo, args.trace_k_hi + 1)]
        log_mu = lambda g: series.log_max_term(g).logmag
    else:
        gs = [float(g) for g in np.linspace(0.5, 3.5, 25)]
        log_mu = lambda g: W.log_max_term(mat, g).to_float()
    rows = [
        [f"{x:.17g}" for x in (g, log_mu(g), series.central_index(g).log_n, series.k_indicator(g).logmag)]
        for g in gs
    ]
    outputs.append((args.trace, _csv_text([["g", "log_mu", "nu_log", "K_log"], *rows])))
    return outputs


def _windows(args, lam: float, lam_flag: str) -> L.RadialWindowSet:
    """The action's low-order windows; a rejection names the flags that
    set them (``lam_flag``: the one that set lam, with its value)."""
    try:
        return L.loworder_windows(lam, args.eta, args.g_n)
    except NumericsError as err:
        g_n = ",".join(f"{g:g}" for g in args.g_n)
        raise CliValidationError(f"{lam_flag} --eta {args.eta:g} --g-n {g_n}: {err}") from err


def _cmd_windows(args) -> list[Output]:
    ws = _windows(args, args.lam, f"--lambda {args.lam:g}")
    dens = L.upper_density(ws)
    rec = {"kind": "windows", "intervals": [[a, b] for a, b in ws.intervals],
           "upper_density": dens.value, "flagged": dens.flagged}
    return [(args.out, [rec, _check("window-density", dens.value, 1.0, dens.value >= 0.0)])]


def _cmd_certificate(args) -> list[Output]:
    spec = L.exp_inverse_power_spec(args.power)
    ws = _windows(args, spec.lam, f"--power {args.power:g}")
    rpt = L.logderiv_certificate(spec, args.k, args.j, args.eps, ws)
    rec = {"kind": "certificate", "k": rpt.k, "j": rpt.j, "eps": rpt.eps, "max_statistic": rpt.max_statistic}
    chk = _check("certificate-statistic-bounded", rpt.max_statistic, args.power, rpt.max_statistic <= args.power)
    return [(args.out, [rec, chk])]


def _cmd_predict(args) -> list[Output]:
    _require(args, "ode predict", "p1", "p2", "p")
    sigma, lam, alpha = O.predict_orders(args.p1, args.p2, args.k, args.p)
    rec = {"kind": "prediction", "sigma": sigma, "lambda": lam, "alpha": alpha,
           "k": args.k, "p1": args.p1, "p2": args.p2, "p": args.p}
    return [(args.out, [rec])]


def _cmd_exponents(args) -> list[Output]:
    _require(args, "ode exponents", "p1", "p2")
    xi, beta, res = O.quadratic_growth_exponents(args.k, args.p1, args.p2, args.eps)
    rec = {"kind": "xi-beta", "xi": xi, "beta": beta, "identity_residual": res}
    chk = _check("growth-exponent-identity-residual", res, 1e-12, res <= 1e-12)
    return [(args.out, [rec, chk])] if args.out else [("-", [rec])]


def _cmd_solve(args) -> list[Output]:
    _require(args, "ode solve", "out")
    if args.audit_p1 is not None or args.audit_p2 is not None:
        _require(args, "ode solve", "audit_p1", "audit_p2")
    g_lo, g_hi, n = args.estimate
    grid = f"--estimate {g_lo:.17g}:{g_hi:.17g}:{n}"
    if n < O.MIN_SAMPLES:
        raise CliValidationError(f"{grid}: need N >= {O.MIN_SAMPLES} samples")
    if g_hi - g_lo < args.min_span:
        raise CliValidationError(f"{grid} spans {g_hi - g_lo:.17g} in g, less than --min-span {args.min_span:.17g}")
    coeffs = O.pole_coeffs(args.pole_order, args.degree, scale=args.scale)
    init = [LogValue.from_float(1.0)] + [LogValue.zero()] * (args.k - 1)
    sol = O.taylor_solve(coeffs, args.k, init, args.degree)
    log_m = [(float(g), sol.log_abs_sum(float(g))) for g in np.linspace(*args.estimate)]
    for g, v in log_m:
        if v <= 0.0:  # log log M needs log M > 0
            raise CliValidationError(f"--estimate: log M(r, f) = {v:.17g} <= 0 at g = {g:.17g}; raise G_LO")
    samples = [(g, math.log(v)) for g, v in log_m]
    ind = O.estimate_orders(samples, window=0.4, min_span=args.min_span)
    recs = [{"kind": "ode-orders", "k": args.k, "pole_order": args.pole_order, "degree": args.degree,
             "sigma_hat_tail": ind.sigma_M.tail, "lambda_hat_tail": ind.lambda_M.tail,
             "slope": ind.sigma_M.slope, "window": list(ind.window)}]
    if args.audit_p1 is not None:
        for row in O.audit_inequalities(ind, args.audit_p1, args.audit_p2, args.k):
            recs.append({**_check(row.name, row.margin, 0.0, row.passed), "detail": row.detail})
    sample_rows = [[f"{g:.17g}", f"{v:.17g}", f"{v / g:.17g}"] for g, v in samples]
    return [(args.out, recs), (args.samples_csv, _csv_text([["g", "log_logM", "ratio"], *sample_rows]))]


def _cmd_report(args) -> list[Output]:
    rows = []
    for path in args.inputs:
        checks = [r for r in _read_input("--inputs", path) if r.get("kind") == "check"]
        if any("name" not in r or not isinstance(r.get("value"), (int, float)) for r in checks):
            raise CliValidationError(f"--inputs {path} has a check record without a name or a numeric value")
        if any(not isinstance(r.get("threshold", 0.0), (int, float)) for r in checks):
            raise CliValidationError(f"--inputs {path} has a check record with a non-numeric threshold")
        rows += [(path, r) for r in checks]
    lines = ["| check | source | value | threshold | status |",
             "|---|---|---|---|---|"]
    for path, rec in rows:
        status = "pass" if rec.get("passed") else "FAIL"
        lines.append(
            f"| {rec['name']} | {path} | {rec['value']:.6g} | "
            f"{rec.get('threshold', float('nan')):.3g} | {status} |"
        )
    csv_rows = [["check", "source", "value", "threshold", "passed"]] + [
        [rec["name"], path, f"{rec['value']:.17g}",
         f"{rec.get('threshold', float('nan')):.17g}", rec.get("passed")]
        for path, rec in rows
    ]
    return [(args.out, "\n".join(lines) + "\n"), (args.csv_out, _csv_text(csv_rows))]


def _write_outputs(outputs: list[Output]) -> None:
    """Write each requested (path, payload) pair: records as JSONL through
    write_records, text verbatim, and text blocks one at a time as the
    iterator gives them (to ``-`` joined first, so a failing block prints
    nothing).  If a write fails, the files this run created are removed
    before the error propagates."""
    created = []
    try:
        for path, payload in outputs:
            if path is None:
                continue
            if path == "-":
                if isinstance(payload, list):
                    payload = [dumps17(r) + "\n" for r in payload]
                sys.stdout.write(payload if isinstance(payload, str) else "".join(payload))
                continue
            if not os.path.lexists(path):
                created.append(path)
            if isinstance(payload, list):
                write_records(path, payload)
            else:
                with open(path, "w", newline="") as fh:
                    fh.writelines([payload] if isinstance(payload, str) else payload)
    except BaseException:
        for path in created:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise


# ---------------------------------------------------------------------------
# argument wiring


def _finite(text: str) -> float:
    """The value of a float flag: a finite float."""
    with contextlib.suppress(ValueError):
        if math.isfinite(x := float(text)):
            return x
    raise argparse.ArgumentTypeError(f"expected a finite float, got {text!r}")


def _estimate_grid(text: str) -> tuple[float, float, int]:
    """``g_lo:g_hi:n`` of ``ode solve --estimate``: finite 0 < g_lo < g_hi and
    a positive integer count of samples."""
    try:
        lo, hi, count = text.split(":")
        n = int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected g_lo:g_hi:n (two floats and an integer), got {text!r}")
    g_lo, g_hi = _finite(lo), _finite(hi)
    if not (0.0 < g_lo < g_hi and n >= 1):
        raise argparse.ArgumentTypeError(f"need 0 < g_lo < g_hi and n >= 1, got {text!r}")
    return g_lo, g_hi, n


def _g_sequence(text: str) -> list[float]:
    """``g_1,g_2,...`` of ``logderiv --g-n``: comma-separated finite floats."""
    return [_finite(x) for x in text.split(",")]


@contextlib.contextmanager
def _config_defaults(parser: argparse.ArgumentParser, section: str, config_path: str):
    """Install INI-section values as defaults of the action parser ``parser``
    (flags still win) for the duration of the block; a key that is not one of
    its flags is bad input.  The parser is shared by every ``main`` call of
    the process, so the old defaults come back on exit, also when a value
    fails to parse."""
    cp = configparser.ConfigParser()
    if not cp.read(config_path):
        raise CliValidationError(f"config file {config_path} not readable")
    saved = []
    try:
        by_dest = {a.dest: a for a in parser._actions}
        for key, raw in cp.items(section) if cp.has_section(section) else ():
            action = by_dest.get(key.replace("-", "_"))
            if action is None:
                raise CliValidationError(f"config key [{section}] {key} is not a flag of {parser.prog}")
            saved.append((action, action.default))
            if isinstance(action, argparse._StoreTrueAction):
                action.default = raw.strip().lower() in ("1", "true", "yes", "on")
            elif action.type is not None:
                try:
                    action.default = action.type(raw)
                except (ValueError, argparse.ArgumentTypeError) as err:
                    raise CliValidationError(f"config key [{section}] {key}: {err}") from None
            else:
                action.default = raw
        yield
    finally:
        for action, default in reversed(saved):
            action.default = default


class _Parser(argparse.ArgumentParser):
    """No abbreviated flags: ``ode solve --p 3`` must not pass for ``--pole-order``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """One parser per action (subparsers take the class of their parent),
    each with only the flags its ``_cmd_*`` reads."""
    top = _Parser(prog="discgrowth", description=__doc__)
    top.add_argument("--config", default=None, help="INI file with per-subcommand sections")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scaffold", help="build the thinning-radii construction")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--p1", type=_finite, default=None)
    p.add_argument("--p2", type=_finite, default=None)
    p.add_argument("--p", type=_finite, default=None)
    p.add_argument("--generations", type=int, default=4)
    p.add_argument("--g1", type=_finite, default=None)
    p.add_argument("--log-c", dest="log_c", type=_finite, default=None)
    p.add_argument("--eta-offset", dest="eta_offset", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--csv-out", dest="csv_out", default=None)
    p.set_defaults(func=_cmd_scaffold)

    p = sub.add_parser("profile", help="sample the piecewise radial profile")
    p.add_argument("--scaffold", required=True)
    p.add_argument("--samples-per-branch", dest="samples_per_branch", type=int, default=16)
    p.add_argument("--out", required=True)
    p.add_argument("--junctions-out", dest="junctions_out", default=None)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("riesz", help="equal-mass cells and surrogate zeros")
    p.add_argument("--scaffold", required=True)
    p.add_argument("--generation", type=int, default=1)
    p.add_argument("--g-max", dest="g_max", type=_finite, default=25.0)
    p.add_argument("--ceiling", type=int, default=200_000)
    p.add_argument("--split-doubles", dest="split_doubles", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--summary-out", dest="summary_out", default=None)
    p.set_defaults(func=_cmd_riesz)

    actions = sub.add_parser("series", help="reference sparse-series constructions").add_subparsers(
        dest="action", required=True)
    p = actions.add_parser("reference")
    p.add_argument("--variant", choices=["power-law", "doubling"], required=True)
    p.add_argument("--sigma", type=_finite, required=True)
    p.add_argument("--lambda", dest="lam", type=_finite, default=None)
    p.add_argument("--delta", type=_finite, default=None)
    p.add_argument("--terms", type=int, default=12)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--trace-k-lo", dest="trace_k_lo", type=int, default=5)
    p.add_argument("--trace-k-hi", dest="trace_k_hi", type=int, default=14)
    p.set_defaults(func=_cmd_series)

    actions = sub.add_parser("logderiv", help="windows, densities and certificates").add_subparsers(
        dest="action", required=True)
    windows, cert = actions.add_parser("windows"), actions.add_parser("certificate")
    windows.add_argument("--lambda", dest="lam", type=_finite, default=1.0)
    cert.add_argument("--power", type=_finite, default=2.0)
    cert.add_argument("--k", type=int, default=1)
    cert.add_argument("--j", type=int, default=0)
    cert.add_argument("--eps", type=_finite, default=0.1)
    for p, func in ((windows, _cmd_windows), (cert, _cmd_certificate)):
        p.add_argument("--eta", type=_finite, default=0.5)
        p.add_argument("--g-n", dest="g_n", type=_g_sequence, default="2,4,8,16,32")
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)

    actions = sub.add_parser("ode", help="solve, predict and audit").add_subparsers(dest="action", required=True)
    predict, exponents, solve = (actions.add_parser(a) for a in ("predict", "exponents", "solve"))
    for p in (predict, exponents, solve):
        p.add_argument("--k", type=int, default=1)
    for p in (predict, exponents):
        p.add_argument("--p1", type=_finite, default=None)
        p.add_argument("--p2", type=_finite, default=None)
    predict.add_argument("--p", type=_finite, default=None)
    predict.add_argument("--out", default="-")
    predict.set_defaults(func=_cmd_predict)
    exponents.add_argument("--eps", type=_finite, default=0.0)
    exponents.add_argument("--out", default=None)
    exponents.set_defaults(func=_cmd_exponents)
    solve.add_argument("--pole-order", dest="pole_order", type=int, default=2)
    solve.add_argument("--scale", type=_finite, default=-1.0)
    solve.add_argument("--degree", type=int, default=2000)
    solve.add_argument("--estimate", type=_estimate_grid, default="0.8:2.2:48", metavar="G_LO:G_HI:N")
    solve.add_argument("--min-span", dest="min_span", type=_finite, default=1.0)
    solve.add_argument("--audit-p1", dest="audit_p1", type=_finite, default=None)
    solve.add_argument("--audit-p2", dest="audit_p2", type=_finite, default=None)
    solve.add_argument("--samples-csv", dest="samples_csv", default=None)
    solve.add_argument("--out", default=None)
    solve.set_defaults(func=_cmd_solve)

    p = sub.add_parser("report", help="collate check rows from prior outputs")
    p.add_argument("--inputs", nargs="*", default=[])
    p.add_argument("--out", required=True)
    p.add_argument("--csv-out", dest="csv_out", default=None)
    p.set_defaults(func=_cmd_report)

    return top


def _action_parser(parser: argparse.ArgumentParser, args) -> argparse.ArgumentParser:
    """The parser of the action ``args`` were parsed for."""
    for name in (args.command, getattr(args, "action", None)):
        if name is not None:
            parser = parser._subparsers._group_actions[0].choices[name]
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of the process, built on the first ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser()
    try:
        try:
            args = parser.parse_args(argv)
            if args.config:
                # again with the config section installed on the action's parser
                with _config_defaults(_action_parser(parser, args), args.command, args.config):
                    args = parser.parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0)
        _write_outputs(args.func(args))
        return 0
    except Exception as err:
        sys.stderr.write(dumps17({"error": type(err).__name__, "message": str(err)}) + "\n")
        return 2 if _is_validation(err) else 3


def _is_validation(err: Exception) -> bool:
    """Bad input (exit 2) as opposed to a numerical or unforeseen failure (3)."""
    if isinstance(err, NumericalFailure):
        return False
    return isinstance(err, (CliValidationError, NumericsError, OSError))


if __name__ == "__main__":
    sys.exit(main())
