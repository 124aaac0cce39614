#!/usr/bin/env python3
"""Compare the numba and numpy backends on the two hot kernels.

Runs each kernel through both implementations (regardless of the active
DISCGROWTH_BACKEND), reports wall times and the worst absolute disagreement
with the numpy kernel.  The Taylor row also times the O(degree p) pole path
of ``ode.taylor_solve`` on the same coefficient.  Numba warm-up (JIT
compile) is excluded from the timings.
"""

import math
import time

import numpy as np

from discgrowth import _accel, ode
from discgrowth.numerics import LogValue


def _timer(fn, *args, repeats=3):
    best = math.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_kernel_sums(n_samples=400, n_src=250_000):
    rng = np.random.default_rng(0)
    samp_delta = rng.uniform(1e-6, 0.2, n_samples)
    samp_theta = rng.uniform(0.0, 2 * math.pi, n_samples)
    src_delta = rng.uniform(1e-8, 0.3, n_src)
    src_theta = rng.uniform(0.0, 2 * math.pi, n_src)
    src_weight = rng.uniform(-2.0, 2.0, n_src)
    args = (samp_delta, samp_theta, src_delta, src_theta, src_weight)
    rows = []
    if _accel.HAVE_NUMBA:
        _accel._kernel_sums_numba(*args)  # warm-up
        t, out_nb = _timer(_accel._kernel_sums_numba, *args)
        rows.append(("numba", t, out_nb))
    t, out_np = _timer(_accel._kernel_sums_numpy, *args)
    rows.append(("numpy", t, out_np))
    return "kernel_sums", rows


def bench_taylor(degree=6000):
    # the coefficient of the reference pole instance
    logs = np.empty(degree + 1)
    acc = math.log(2.0)
    for j in range(degree + 1):
        if j > 0:
            acc += math.log(j + 2) - math.log(j)
        logs[j] = acc
    signs = np.full(degree + 1, -1.0)
    init_s = np.array([1.0])
    init_l = np.array([0.0])
    args = (signs, logs, 1, degree, init_s, init_l)
    rows = []
    if _accel.HAVE_NUMBA:
        _accel._taylor_recursion_numba(*args)  # warm-up
        t, out_nb = _timer(_accel._taylor_recursion_numba, *args)
        rows.append(("numba", t, out_nb[1]))
    t, out_np = _timer(_accel._taylor_recursion_numpy, *args)
    rows.append(("numpy", t, out_np[1]))
    coeffs = ode.pole_coeffs(2, degree, scale=-1.0)
    t, sol = _timer(ode.taylor_solve, coeffs, 1, [LogValue.from_float(1.0)], degree)
    rows.append(("pole", t, sol.logmag))
    return f"taylor_recursion(degree={degree})", rows


def main():
    print(f"active backend: {_accel.BACKEND}")
    for name, rows in (bench_kernel_sums(), bench_taylor()):
        print(f"\n{name}")
        t_ref, ref = next((t, out) for label, t, out in rows if label == "numpy")
        for label, t, out in rows:
            finite = np.isfinite(ref) & np.isfinite(out)
            dev = float(np.max(np.abs(out[finite] - ref[finite]))) if np.any(finite) else 0.0
            print(f"  {label:6s} {t * 1e3:9.2f} ms   max |dev vs numpy| = {dev:.3e}"
                  f"   speedup vs numpy: {t_ref / t:.1f}x")


if __name__ == "__main__":
    main()
