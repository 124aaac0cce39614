"""Two numeric kernels, one numpy implementation each.

``taylor_recursion`` is the dense O(degree^2) log-domain Taylor convolution
for f^(k) = -A f, the general path of ``ode.taylor_solve`` and the oracle its
pole recursion is tested against.  ``kernel_sums`` is the direct disc-kernel
sum the tests compare the surrogate's closed-form ring sums
(``riesz._ring_sums``) and batched near-field kernel (``riesz._pair_terms``)
against, over the 17 N sources of a cloud (its atoms and
``riesz._cell_nodes``); the library never calls it.  Both add their
terms with numpy, not BLAS dot products, so they do not depend on the BLAS
thread count.

Kernels operate on radii in gap form: a point near the unit circle is passed
as (delta, theta) with delta = 1 - |z|.  Callers guarantee delta > 0 is
representable (enumerated clouds live at g <= ~30).
"""

from __future__ import annotations

import math

import numpy as np


def kernel_sums(samp_delta, samp_theta, src_delta, src_theta, src_weight):
    """Weighted disc-kernel sums sum_j w_j (log|z-zeta_j| - log|1 - conj(z) zeta_j|).

    Evaluated per sample z.  Signs of the Blaschke kernel come out through the
    weights, so atoms carry +multiplicity and cell-average nodes carry
    -(node weight).
    """
    out = np.empty(samp_delta.shape[0])
    r_src = 1.0 - src_delta
    for i in range(samp_delta.shape[0]):
        dz, tz = samp_delta[i], samp_theta[i]
        rz = 1.0 - dz
        s2 = np.sin(0.5 * (tz - src_theta))
        cross = 4.0 * rz * r_src * s2 * s2
        dd = src_delta - dz
        num = dd * dd + cross
        one_minus = dz + src_delta - dz * src_delta
        den = one_minus * one_minus + cross
        with np.errstate(divide="ignore"):
            out[i] = 0.5 * float(np.sum(src_weight * (np.log(num) - np.log(den))))
    return out


def taylor_recursion(a_sign, a_log, k, degree, init_sign, init_log):
    """Log-domain Taylor recursion for f^{(k)} = -A f.

    Returns (sign, log|f_m|) arrays of length degree+1.  f_{m+k} is
    -(m!/(m+k)!) sum_j A_j f_{m-j}, accumulated by max-extraction.
    """
    sign = np.zeros(degree + 1)
    logmag = np.full(degree + 1, -np.inf)
    sign[:k] = init_sign
    logmag[:k] = init_log
    for m in range(0, degree + 1 - k):
        n_terms = min(m, len(a_sign) - 1)
        s_a = a_sign[: n_terms + 1]
        l_a = a_log[: n_terms + 1]
        s_f = sign[m - n_terms : m + 1][::-1]
        l_f = logmag[m - n_terms : m + 1][::-1]
        t_log = l_a + l_f
        t_sign = s_a * s_f
        live = t_sign != 0.0
        if not np.any(live):
            continue
        mx = np.max(t_log[live])
        if mx == -np.inf:
            continue
        acc = float(np.sum(t_sign[live] * np.exp(t_log[live] - mx)))
        if acc == 0.0:
            continue
        # falling-factorial scale plus the minus sign of the equation
        fact = 0.0
        for i in range(1, k + 1):
            fact += math.log(m + i)
        sign[m + k] = -math.copysign(1.0, acc)
        logmag[m + k] = mx + math.log(abs(acc)) - fact
    return sign, logmag
