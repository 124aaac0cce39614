#!/usr/bin/env python3
"""Benchmark of discgrowth: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload growth_orders --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 -m pytest -q perfbench/tests                         # self-tests

Load model: one process, one client, closed loop.  A workload is a seeded
list of tasks (see ``workloads.py``); the program only receives the
generated inputs.  Nothing runs in parallel (BLAS is pinned to one thread),
so no wait time exists to report.

Workloads:

* ``growth_orders`` -- ODE Taylor solves up to the degree-12000/18000 pair,
  order estimates and audits, the scaffold construction grid (including the
  depths that hang at the seed commit, counted as failed), scaffold-majorant
  studies in the C8 shape, wiman ladders, logderiv windows and certificates,
  and the README's non-riesz CLI subcommands.  Never touches the Riesz cloud.
* ``riesz_build`` -- the ``riesz`` CLI subcommand on seeded scaffolds,
  generations and ceilings, up to the 127k-cell generation-1 instance:
  partition, atomize, serialization, memory peak.
* ``riesz_query`` -- surrogate batches, excluded arcs and zero-counting
  queries against a 5.9k-atom and a 127k-atom cloud built in set-up.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
``setup_s`` (fresh interpreter to ready: import, input generation, warm-up
and, for riesz_query, the clouds; median over several fresh processes),
``wall_s`` (wall time of one pass of the task list: the sum of its task
latencies) and ``peak_rss_mb``.  It also prints ``task_p50_s`` and
``task_tail_s`` (task latency at p = 0.5 and at p = 1 - 10/N over the N tasks
of a pass) and ``failed_frac``.  Pass figures are medians over the passes
that fit in ``--seconds``.  A task fails when it raises, exceeds its time
limit, or gives an output outside its golden tolerance.  With ``--trace 1``
the run executes one untraced and one traced pass of the same list and
reports the per-layer metrics plus ``trace_overhead_s``; spans go to
``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when any completed task gave an output outside its golden tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

from workloads import SETUPS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DEADLINE_S = 175.0

# End-to-end metrics of BENCHMARK.json.  The latency percentiles are printed
# with them but not gated: across seeds on a shared 2-CPU host their spread
# (task_p50_s 0.2-0.4 of the median, task_tail_s up to 0.24) reaches the
# largest bound a gate may use.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
LATENCY = (("task_p50_s", "s"), ("task_tail_s", "s"))


class BenchError(RuntimeError):
    pass


class Worker:
    """One workload process; its set-up time runs from spawn to READY."""

    def __init__(self, args: list[str], deadline: float):
        self.deadline = deadline
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            stdout=subprocess.PIPE, cwd=ROOT, env=env,
        )
        self._buf = b""

    def readline(self) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = self.deadline - time.monotonic()
            if left <= 0:
                raise BenchError("worker exceeded the run deadline")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise BenchError(f"worker exited early with code {self.proc.wait()}")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def expect(self, prefix: str) -> str:
        while True:
            line = self.readline()
            if line.startswith(prefix):
                return line[len(prefix):]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, p, N): latency at the highest percentile p = 1 - 10/N that
    leaves ten tasks beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        raise BenchError(f"need >= 20 tasks for the tail, got {n}")
    p = 1.0 - 10.0 / n
    return xs[math.ceil(p * n) - 1], p, n


def run_workload(workload: str, seed: int, seconds: float, trace: int, setups: int, deadline: float) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed)]

    def workdir(tag):
        return ["--workdir", os.path.join(OUT_DIR, f"work-{os.getpid()}-{tag}")]

    setup_samples = []
    if not trace:
        for i in range(setups - 1):
            w = Worker(base + ["--mode", "setup"] + workdir(f"s{i}"), deadline)
            try:
                w.expect("READY")
                setup_samples.append(time.perf_counter() - w.t0)
                if w.proc.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
                    raise BenchError(f"set-up worker exited {w.proc.returncode}")
            finally:
                w.close()
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    w = Worker(base + ["--mode", "measure", "--seconds", str(seconds), "--trace", str(trace)]
               + workdir("m") + (["--spans-out", spans] if trace else []), deadline)
    try:
        w.expect("READY")
        setup_samples.append(time.perf_counter() - w.t0)
        result = json.loads(w.expect("RESULT "))
        if w.proc.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
            raise BenchError(f"measuring worker exited {w.proc.returncode}")
    finally:
        w.close()
    result["setup_samples"] = setup_samples
    result["spans_file"] = spans if trace else None
    return result


def summarize(workload: str, seed: int, trace: int, res: dict) -> dict:
    recs = res["records"]
    attempted = len(recs)
    failed = [r for r in recs if r["status"] != "ok"]
    mismatched = [r for r in recs if r["status"] == "mismatch"]
    # latency figures are taken per pass (N = tasks in one pass list) and
    # their median over the passes is reported
    passes: dict[int, list[float]] = {}
    for r in recs:
        passes.setdefault(r["pass_index"], []).append(r["latency_s"])
    tails = [tail_latency(lat) for lat in passes.values()]
    p, n = tails[0][1], tails[0][2]
    e2e = {
        "setup_s": statistics.median(res["setup_samples"]),
        "wall_s": statistics.median(res["pass_walls"]),
        "task_p50_s": statistics.median(statistics.median(lat) for lat in passes.values()),
        "task_tail_s": statistics.median(t[0] for t in tails),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    prov = dict(res["provenance"], commit=_git_commit(), seed=seed, workload=workload)
    print("provenance " + json.dumps(prov, sort_keys=True))
    if trace:
        from tracing import metric_names

        units = dict(metric_names())
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["layer_metrics"].items()}
        print(f"{workload} traced_wall_s {res['pass_walls'][0]:.4f} s  untraced_wall_s {res['untraced_wall_s']:.4f} s  "
              f"trace_overhead_s {res['layer_metrics']['trace_overhead_s']:.4f} s")
        print(f"{workload} self_time_sum_s {res['self_time_sum_s']:.4f} s  root_span_sum_s {res['root_time_sum_s']:.4f} s  "
              f"harness_gap_s {res['pass_walls'][0] - res['root_time_sum_s']:.4f} s  spans {res['spans']}  "
              f"spans_file {os.path.relpath(res['spans_file'], ROOT)}")
        if res["missing_targets"]:
            print(f"{workload} missing wrap targets (reported as 0): {', '.join(res['missing_targets'])}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END + LATENCY:
            print(f"{workload} {name} {e2e[name]:.6g} {unit}")
    print(f"{workload} failed_frac {len(failed) / attempted:.6g} (failed {len(failed)} / attempted {attempted})")
    print(f"{workload} tasks {attempted} over {len(res['pass_walls'])} pass(es); tail at p={p:.4f}, N={n}; "
          f"setup samples {len(res['setup_samples'])}")
    by_kind: dict[str, list] = {}
    for r in failed:
        by_kind.setdefault((r["kind"], r["status"]), []).append(r)
    for (kind, status), rs in sorted(by_kind.items()):
        print(f"{workload}   failed {kind} {status}: {len(rs)} e.g. {rs[0]['key']} {rs[0].get('detail', '')}")
    changed = sorted({k for r in recs for k in r.get("info_changed", [])})
    if changed:
        print(f"{workload}   byte digests changed (information only): {', '.join(changed)}")
    return {"correct": not mismatched, "attempted": attempted, "failed": len(failed), "metrics": metrics}


def _checkout_ok() -> str | None:
    for rel in ("src/discgrowth/__init__.py", "perfbench/goldens.json"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            return f"{rel} not found under {ROOT}; run from a checkout of the repository"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    problem = _checkout_ok()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(workloads)
    results = {}
    try:
        for wl in workloads:
            res = run_workload(wl, args.seed, args.seconds, args.trace, SETUPS[wl], deadline)
            results[wl] = summarize(wl, args.seed, args.trace, res)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as err:
        print(f"perfbench: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl}.{k}": v for wl, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
