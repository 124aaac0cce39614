#!/usr/bin/env python3
"""Record the golden outputs of every catalogue task.

    python3 perfbench/record_goldens.py [workload ...]

Run once at the commit whose outputs define correctness; the benchmark
compares later commits against ``goldens.json`` within the tolerances of
``checks.py``.  Query points of riesz_query tasks are stored here too (see
``draw_inputs``), so the benchmark's inputs do not depend on later versions
of the program.  A task that times out or raises is stored with that
status and no outputs.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")

# keep sample angles this far (radians) from every excluded arc
ARC_MARGIN = 1e-6


def draw_inputs(ctx, task) -> dict:
    """Query points of a riesz_query task, drawn with a generator fixed by
    the catalogue key: angles off the excluded arcs, atom ring radii, points
    next to an atom.  Counting-integral circles pass 0.01 outside an atom
    ring of the outer approach, 1.5 <= g <= 3, where rings hold at most 20
    atoms (the trapezoid rule loops over them in Python); crowding annuli
    start on a ring with g <= 7."""
    from discgrowth import riesz as R

    cloud = ctx.clouds[task.params["cloud"]][0]
    rng = random.Random(task.key)
    rings = sorted(set(float(g) for g in cloud.g))
    inner = [g for g in rings if 1.5 <= g <= 3.0]
    if task.kind == "surrogate":
        arcs = R.excluded_arcs(cloud, task.params["g"], task.params["eps"])
        thetas = []
        while len(thetas) < task.params["samples"]:
            t = rng.uniform(0.0, 2.0 * math.pi)
            if not any(lo - ARC_MARGIN <= t <= hi + ARC_MARGIN for lo, hi in arcs):
                thetas.append(t)
        return {"thetas": thetas}
    if task.kind == "excluded_measure":
        return {"g": rng.choice(rings)}
    if task.kind == "zero_counts":
        j = rng.randrange(len(cloud.g))
        return {"g": float(cloud.g[j]) + 0.01, "theta": float(cloud.theta[j])}
    if task.kind == "counting_integral":
        g_r = rng.choice(inner) + 0.01
        return {"g_z": g_r - 0.5, "theta": rng.uniform(0.0, 2.0 * math.pi), "g_r": g_r}
    if task.kind == "sector_crowding":
        return {"g": rng.choice([g for g in rings if 1.5 <= g <= 7.0])}
    return {}


def record(workload: str, goldens: dict) -> None:
    from checks import compare
    from worker import run_limited
    from workloads import Context, all_tasks, run_task, setup

    workdir = os.path.join(ROOT, ".perfbench_out", f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx = Context(workload, workdir, goldens)
        setup(ctx)
        for task in all_tasks(workload):
            entry = {}
            inputs = draw_inputs(ctx, task) if workload == "riesz_query" else {}
            if inputs:
                entry["inputs"] = inputs
            goldens[task.key] = entry
            status, out = run_limited(lambda: run_task(ctx, task), task.limit_s)
            entry["status"] = status
            if status == "ok":
                entry["outputs"] = out
                problems = compare(task.kind, task.params, out, None)
                if problems:
                    print(f"  {task.key}: outside the paper's bounds: {problems}", file=sys.stderr)
            elif status == "error":
                entry["detail"] = out
            goldens[task.key] = entry
            print(f"{workload} {task.key} {status}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from worker import _on_alarm
    from workloads import WORKLOADS

    signal.signal(signal.SIGALRM, _on_alarm)
    goldens = {}
    if os.path.exists(GOLDENS):
        with open(GOLDENS) as fh:
            goldens = json.load(fh)
    for wl in argv or WORKLOADS:
        record(wl, goldens)
    with open(GOLDENS, "w") as fh:
        json.dump(dict(sorted(goldens.items())), fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
