"""Outputs that must not depend on the BLAS thread count: the surrogate, the
direct kernel sum and the power-law K(r) and derivative ratio, each
computed in a fresh interpreter with OpenBLAS on one thread and on two."""

import os
import subprocess
import sys

import discgrowth

_PROBE = """
import numpy as np
from discgrowth import riesz as R
from discgrowth._accel import kernel_sums
from discgrowth.numerics import LogGap
from discgrowth.profiles import RadialProfile
from discgrowth.scaffold import ScaffoldParams, build_scaffold
from discgrowth.wiman import PowerLawSeries

params = ScaffoldParams.with_defaults(k=1, p1=2.0, p2=3.0, p=3.0, log_c=3.2, g1=3.0)
prof = RadialProfile(build_scaffold(params, 2))
cloud = R.atomize(R.partition_region(prof, 1, g_max=25.0, ceiling=100_000), prof)
zs = [(LogGap(g), t) for g, t in ((1.0, 0.3), (3.5, 2.0), (6.15, 1.0))]
out = R.eval_log_surrogate_many(cloud, prof, zs).tolist()
atoms = (cloud.delta, cloud.theta, cloud.mult)
sources = [np.concatenate(cols) for cols in zip(atoms, R._cell_nodes(cloud))]
out += kernel_sums(np.exp(-np.array([1.0, 3.5])), np.array([0.3, 2.0]), *sources).tolist()
series = PowerLawSeries(2.0)
for g in (5.0, 6.0):
    out += [series.k_indicator(g).logmag, series.derivative_ratio(2, g)]
print(" ".join(v.hex() for v in out))
"""


def test_values_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(discgrowth.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _PROBE], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
        )
        for threads in ("1", "2")
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
    one, two = (out.split() for out, _ in outs)
    assert len(one) == 3 + 2 + 4
    assert one == two
