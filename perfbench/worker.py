"""One workload process: fresh interpreter, set-up, then timed passes.

Started by ``run.py``; prints ``READY`` once set-up is done, then (in
``measure`` mode) runs passes of the seeded task list in a closed loop and
prints one ``RESULT {json}`` line.  Each task runs under its own time limit,
enforced in this process by an interval timer; no thread or process is
started.  With ``--trace 1`` the process runs one untraced and one traced
pass of the same list and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class TaskTimeout(BaseException):
    """Raised by the interval timer inside a task that exceeds its limit.

    A BaseException, so the program's own ``except`` clauses let it through."""


class _Alarm:
    armed = False


def _on_alarm(signum, frame):
    if _Alarm.armed:
        raise TaskTimeout()


def run_limited(fn, limit_s: float):
    """(status, result) of ``fn()`` under a wall-time limit: status is ``ok``,
    ``timeout`` or ``error``; an error's result is its one-line summary."""
    try:
        try:
            _Alarm.armed = True
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            return "ok", fn()
        finally:
            _Alarm.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except TaskTimeout:
        return "timeout", None
    except Exception as exc:  # a failing task is counted, the run goes on
        tb = traceback.extract_tb(exc.__traceback__)
        where = f"{tb[-1].filename.rsplit('/', 1)[-1]}:{tb[-1].lineno}" if tb else "?"
        return "error", f"{type(exc).__name__}: {exc} ({where})"


def run_pass(ctx, tasks, goldens, tracer=None) -> tuple[float, list[dict]]:
    """Run one pass; returns (wall seconds of the task list, one record per
    task).  Each task starts from a collected heap, so garbage one task leaves
    is not collected inside the next one's timing; the wall time is the sum
    of the task latencies and leaves out that collection and the checks."""
    from workloads import run_task
    from checks import compare

    records = []
    for i, task in enumerate(tasks):
        call = (lambda task=task: run_task(ctx, task))
        gc.collect()
        t0 = time.perf_counter()
        if tracer is None:
            status, result = run_limited(call, task.limit_s)
        else:
            with tracer.root(f"task.{task.kind}", f"{i}:{task.key}"):
                status, result = run_limited(call, task.limit_s)
        latency = time.perf_counter() - t0
        rec = {"kind": task.kind, "key": task.key, "latency_s": latency, "status": status}
        if status == "ok":
            golden = goldens.get(task.key)
            problems = compare(task.kind, task.params, result, golden)
            if problems:
                rec["status"] = "mismatch"
                rec["detail"] = problems[:3]
            if golden is not None and golden.get("status") == "ok":
                rec["info_changed"] = sorted(
                    k for k, v in result.items()
                    if k.startswith("info_") and golden["outputs"].get(k) not in (None, v)
                )
        elif status == "error":
            rec["detail"] = result
        records.append(rec)
    return sum(r["latency_s"] for r in records), records


def _load_goldens() -> dict:
    with open(os.path.join(HERE, "goldens.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(args.workdir, exist_ok=True)
    try:
        return _main(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def _main(args) -> int:
    import discgrowth

    if not os.path.abspath(discgrowth.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"discgrowth imported from {discgrowth.__file__}, not from this checkout")
    from workloads import Context, setup, task_list

    tracer = None
    setup_self_s = 0.0
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(TaskTimeout)
        tracer.install()

    goldens = _load_goldens()
    ctx = Context(args.workload, args.workdir, goldens)
    tasks = task_list(args.workload, args.seed, 0)
    if tracer is None:
        setup(ctx)
    else:
        with tracer.root("setup", "setup"):
            setup(ctx)
        tracer.remove()
        setup_self_s = sum(tracer.self_s.values())
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    # set-up objects (clouds, goldens) are never garbage; keep them out of
    # every collection that follows
    gc.collect()
    gc.freeze()
    if args.trace:
        result = _traced(ctx, tasks, goldens, tracer, setup_self_s, args)
    else:
        result = _measured(ctx, tasks, goldens, args)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["provenance"] = _provenance(discgrowth)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _blas_threads():
    """Thread count of numpy's OpenBLAS, or None where it cannot be queried."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _provenance(discgrowth) -> dict:
    import platform

    import numpy

    accel = sys.modules.get("discgrowth._accel")
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "discgrowth": getattr(discgrowth, "__version__", None),
        "backend": getattr(accel, "BACKEND", getattr(discgrowth, "BACKEND", None)),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernel_bytes": "computed from array sizes; cache misses are not seen",
    }


def _measured(ctx, tasks, goldens, args) -> dict:
    """Closed loop over passes until another pass would overrun the budget;
    pass k runs the task list drawn for (seed, k)."""
    from workloads import task_list

    walls, spans, records = [], [], []
    t_start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        wall, recs = run_pass(ctx, tasks, goldens)
        spans.append(time.perf_counter() - t0)
        walls.append(wall)
        records.extend(dict(r, pass_index=k) for r in recs)
        k += 1
        if time.perf_counter() - t_start + statistics.median(spans) > args.seconds:
            break
        tasks = task_list(args.workload, args.seed, k)
    return {"pass_walls": walls, "records": records}


def _traced(ctx, tasks, goldens, tracer, setup_self_s, args) -> dict:
    """One untraced and one traced pass of the same list; the difference of
    their wall times is the tracing overhead."""
    wall_u, _ = run_pass(ctx, tasks, goldens)
    tracer.install()
    try:
        wall_t, records = run_pass(ctx, tasks, goldens, tracer)
    finally:
        tracer.remove()
    if args.spans_out:
        tracer.write_spans(args.spans_out)
    roots = [s for s in tracer.spans if s[3] is None and s[0].startswith("task.")]
    return {
        "pass_walls": [wall_t],
        "untraced_wall_s": wall_u,
        "records": [dict(r, pass_index=0) for r in records],
        "layer_metrics": tracer.metrics(wall_t - wall_u),
        "missing_targets": tracer.missing,
        # self times of the traced pass alone (set-up was traced first)
        "self_time_sum_s": sum(tracer.self_s.values()) - setup_self_s,
        "root_time_sum_s": sum(s[2] - s[1] for s in roots),
        "spans": len(tracer.spans),
    }


if __name__ == "__main__":
    sys.exit(main())
