"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see every line; the whole
suite targets well under five minutes on a laptop.
"""

import math

import numpy as np
import pytest

from discgrowth import logderiv as L
from discgrowth import ode as O
from discgrowth import riesz as R
from discgrowth import wiman as W
from discgrowth.numerics import LogGap, LogValue, integrate
from discgrowth.profiles import RadialProfile, branch_samples
from discgrowth.scaffold import ScaffoldParams, build_scaffold
from oracles import laplacian_fd, power_majorant_bound


def _line(criterion: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail})")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def reference(ref_scaffold):
    return ref_scaffold, RadialProfile(ref_scaffold)


@pytest.fixture(scope="module")
def small(small_scaffold):
    prof = RadialProfile(small_scaffold)
    part = R.partition_region(prof, 1, g_max=25.0, ceiling=100_000)
    cloud = R.atomize(part, prof)
    return prof, part, cloud


def test_criterion_1_scaffold_consistency(reference):
    sc, _ = reference
    assert len(sc.generations) == 4
    eps_bound = (sc.params.p2 - sc.params.p1) / 2.0  # the paper's |eps_n| < (p2 - p1)/2
    eps_ok = all(abs(g.eps_n) < eps_bound for g in sc.generations)
    res = max(g.residual for g in sc.generations)
    order_ok = all(g.ordered() for g in sc.generations)
    increasing = all(
        a.r_dprime.g < b.r_n.g for a, b in zip(sc.generations, sc.generations[1:])
    )
    _line(
        "C1 scaffold-consistency",
        eps_ok and res <= 1e-9 and order_ok and increasing,
        f"max|eps|={max(abs(g.eps_n) for g in sc.generations):.4f}, "
        f"max residual={res:.2e}",
    )


def test_criterion_2_profile_regularity(reference):
    _, prof = reference
    rpt = prof.junction_report()
    worst_jump = max(max(j.phi_rel_jump, j.dphi_rel_jump) for j in rpt)

    n_branches = len(prof._bounds)
    pts = branch_samples(prof, 1000 // n_branches + 1)
    assert len(pts) >= 1000
    worst_fd = 0.0
    for g in pts:
        v = prof.eval(g)
        fd, inner = laplacian_fd(prof, g)
        if v.laplacian.is_zero:
            worst_fd = max(worst_fd, abs(inner))
        else:
            worst_fd = max(worst_fd, abs(math.expm1(fd.logmag - v.laplacian.logmag)))

    p = prof.params
    ratio_ok = True
    for gen in prof.scaffold.generations[2:]:
        r_n = prof.phi(gen.r_n.g) / gen.r_n.g
        r_p = prof.phi(gen.r_prime.g) / gen.r_prime.g
        ratio_ok &= abs(r_n - p.p2) <= 0.1 * p.p2 and abs(r_p - p.p1) <= 0.1 * p.p1
    _line(
        "C2 profile-regularity",
        worst_jump <= 1e-9 and worst_fd <= 1e-5 and ratio_ok,
        f"jumps<={worst_jump:.2e}, fd<={worst_fd:.2e}, ratios in 10% bands: {ratio_ok}",
    )


def test_criterion_3_riesz_cell_mass(small):
    prof, part, cloud = small
    rng = np.random.default_rng(2024)
    cells = part.cells
    idx = rng.choice(len(cells), size=50, replace=False)
    worst = 0.0
    for i in idx:
        k = cells.ring[i]
        inner = integrate(
            lambda r: prof.eval(-math.log1p(-r)).laplacian.to_float() * r,
            -math.expm1(-cells.rings.g_lo[k]),
            -math.expm1(-cells.rings.g_hi[k]),
            rel_tol=1e-9,
        )
        mass = inner * (cells.theta_hi[i] - cells.theta_lo[i]) / (2.0 * math.pi)
        worst = max(worst, abs(mass - float(cells.mass[i])))

    ring_gs = sorted(set(float(g) for g in cloud.g))
    circles = [ring_gs[1], ring_gs[len(ring_gs) // 3], ring_gs[2 * len(ring_gs) // 3]]
    eps_grid = (0.01, 0.05, 0.1)
    coefs = {
        eps: max(R.excluded_measure(cloud, g, eps) for g in circles) / eps
        for eps in eps_grid
    }
    c4 = max(coefs.values())
    arc_ok = all(
        R.excluded_measure(cloud, g, eps) <= c4 * eps * (1.0 + 1e-12)
        for g in circles
        for eps in eps_grid
    )
    stable = max(coefs.values()) <= 1.5 * min(coefs.values())
    _line(
        "C3 riesz-cell-mass",
        worst <= 1e-6 and arc_ok and stable,
        f"worst mass dev={worst:.2e}, fitted C4={c4:.3f}",
    )


def test_criterion_4_wiman_exactness():
    # central index: closed form vs argmax on 10^3 random radii, exact
    ladder = W.build_ladder_series(
        [k * k for k in range(8)], [(k + 1) * math.log(2.0) for k in range(7)]
    )
    bare = W.SparseSeries(ladder.n_seq, ladder.log_a)
    rng = np.random.default_rng(7)
    exact = all(
        bare.central_term_index(float(g)) == ladder.central_term_index(float(g))
        for g in rng.uniform(0.05, 12.0, size=1000)
    )

    resid = max(
        W.max_term_integral_residual(ladder, *sorted(rng.uniform(0.05, 14.0, size=2)))
        for _ in range(100)
    )

    s_a = W.build_reference_series("power-law", sigma=1.5)
    nu = W.central_index(s_a, 8.0)
    band = nu.as_float() * math.exp(-2.5 * 8.0) / 1.5

    s_b = W.build_reference_series("doubling", sigma=2.0, lam=1.0)
    k_ratios = []
    for k in range(8, 15):
        rk = s_b.r_k(k)
        k_ratios.append(s_b.k_indicator(rk.g).logmag / rk.g)
    k_bound = all(
        s_b.k_indicator(s_b.r_k(k).g).logmag <= s_b.term(k).log_n + 1e-12
        for k in range(5, 15)
    )
    _line(
        "C4 wiman-exactness",
        exact
        and resid <= 1e-10
        and 0.95 <= band <= 1.05
        and all(1.35 <= x <= 1.65 for x in k_ratios)
        and k_bound,
        f"central-index exact={exact}, integral-identity<={resid:.1e}, nu-band={band:.4f}, "
        f"K-ratios in [{min(k_ratios):.3f},{max(k_ratios):.3f}], K<=n_k: {k_bound}",
    )


@pytest.fixture(scope="module")
def solved_instances():
    out = {}
    for p, degree, g_lo, g_hi in ((2, 12000, 1.0, 2.6), (3, 18000, 0.8, 1.95)):
        sol = O.taylor_solve(
            O.pole_coeffs(p, degree, scale=-1.0), 1, [LogValue.from_float(1.0)], degree
        )
        gs = np.linspace(g_lo, g_hi, 48)
        samples = [(float(g), math.log(sol.log_abs_sum(float(g)))) for g in gs]
        ind = O.estimate_orders(samples, window=0.4, min_span=1.0)
        out[p] = (sol, ind)
    return out


def test_criterion_5_ode_ground_truth(solved_instances):
    sol1 = O.taylor_solve(
        O.pole_coeffs(1, 220, scale=-1.0), 1, [LogValue.from_float(1.0)], 220
    )
    f = [1.0]
    for m in range(0, 219):
        prev = f[m - 1] if m >= 1 else 0.0
        f.append(((2 * m + 1) * f[m] - (m - 1) * prev) / (m + 1))
    worst = max(
        abs(sol1.coeff(m).to_float() - f[m]) / abs(f[m]) for m in range(201)
    )

    sigma_ok = all(
        abs(solved_instances[p][1].sigma_M.tail - p) <= 0.05 * p for p in (2, 3)
    )

    majorant_ok = True
    for p in (2, 3):
        sol, _ = solved_instances[p]
        for g in np.linspace(0.3, 6.0, 24):
            bound = power_majorant_bound(p, p + 1.0, 1, float(g))
            majorant_ok &= sol.log_abs_sum(float(g)) <= bound * (1 + 1e-12) + 1e-9
    _line(
        "C5 ode-ground-truth",
        worst <= 1e-10 and sigma_ok and majorant_ok,
        f"taylor err<={worst:.1e}, sigma within 5%: {sigma_ok}, "
        f"log M <= majorant: {majorant_ok}",
    )


def test_criterion_6_formula_identities():
    rng = np.random.default_rng(31)
    worst = 0.0
    inside = True
    for _ in range(100):
        k = int(rng.integers(1, 4))
        p2 = float(rng.uniform(2 * k + 0.1, 6 * k))
        p1 = float(rng.uniform(0.2, p2))
        cap = (p2 - p1) * (p2 - k) / p1 if p1 < p2 else 1.0
        eps = float(rng.uniform(0.0, 0.9 * cap)) if p1 < p2 else 0.0
        xi, beta, res = O.quadratic_growth_exponents(k, p1, p2, eps)
        worst = max(worst, res)
        inside &= (p1 < xi < p2) or (p1 == p2 and xi == p2)
    xi_eq, _, _ = O.quadratic_growth_exponents(1, 3.0, 3.0, 0.0)
    branches_ok = (
        O.two_scale_orders(2.0, 0.2, 0.5) == (1.8, 1.5)
        and abs(O.two_scale_orders(0.8, 0.2, 0.5)[1] - 0.24 / 0.7) < 1e-13
        and O.two_scale_orders(0.1, 0.2, 0.5) == (0.0, 0.0)
    )
    _line(
        "C6 formula-identities",
        worst <= 1e-12 and inside and xi_eq == 3.0 and branches_ok,
        f"identity residual<={worst:.1e}, xi in (p1,p2): {inside}, "
        f"xi exact at p1=p2: {xi_eq == 3.0}, branch formulas: {branches_ok}",
    )


def test_criterion_7_logderiv_machinery():
    model = L.power_model(1.0)
    got = L.growth_integral(model, 0.5, LogGap.from_r(0.9), LogGap.from_r(0.0)).to_float()
    want = (0.9 - 0.1 * math.log(10.0) + 1.0) / 0.01
    i_ok = abs(got - want) <= 1e-6 * want

    iv = tuple((2 * n * math.log(2.0), (2 * n + 1) * math.log(2.0)) for n in range(1, 40))
    dyadic = L.upper_density(L.RadialWindowSet(iv)).value
    dyadic_ok = abs(dyadic - 2.0 / 3.0) <= 1e-9

    ws = L.loworder_windows(1.0, 0.5, [2.0**n for n in range(1, 31)])
    dens = L.upper_density(ws).value
    dens_ok = abs(dens - 1.0) <= 1e-3

    spec = L.exp_inverse_power_spec(2.0)
    cert_ws = L.loworder_windows(2.0, 0.4, [6.0, 9.0, 12.0, 15.0])
    rpt = L.logderiv_certificate(spec, 1, 0, eps=0.1, windows=cert_ws)
    cert_ok = rpt.max_statistic <= 2.0
    _line(
        "C7 logderiv-machinery",
        i_ok and dyadic_ok and dens_ok and cert_ok,
        f"growth-integral rel={(got - want) / want:.1e}, dyadic={dyadic:.12f}, "
        f"window density={dens:.6f}, certificate max={rpt.max_statistic:.4f}<=2",
    )


def test_criterion_8_inequality_audit(solved_instances, reference):
    sc, prof = reference
    rows_all = []
    for p in (2, 3):
        _, ind = solved_instances[p]
        rows = O.audit_inequalities(ind, p1=float(p + 1), p2=float(p + 1), k=1)
        rows_all.extend((f"pole-{p}", r) for r in rows)

    # coefficient built on the irregular profile: majorant log M(t,A) = phi(t)
    k = 1
    gs = np.concatenate(
        [
            np.linspace(sc.generations[1].r_n.g, prof.g_end - 1.0, 160),
        ]
    )
    # coefficient_integral_log_bound returns log of the bound on log M, i.e. a log^+log^+M sample
    samples = [
        (float(g), O.coefficient_integral_log_bound(prof.phi, k, float(g), step=0.02)) for g in gs
    ]
    ind_sc = O.estimate_orders(samples, window=0.9)
    rows = O.audit_inequalities(ind_sc, p1=prof.params.p1, p2=prof.params.p2, k=k)
    rows_all.extend(("scaffold-majorant", r) for r in rows)

    ok = all(r.passed for _, r in rows_all)
    detail = "; ".join(f"{tag} {r.name} margin={r.margin:+.3f}" for tag, r in rows_all)
    _line("C8 inequality-audit", ok, detail)
