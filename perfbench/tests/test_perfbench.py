"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench/tests"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Context, Task, all_tasks, task_list  # noqa: E402


@pytest.fixture(scope="module")
def goldens():
    with open(os.path.join(BENCH, "goldens.json")) as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def alarm_handler():
    import signal

    old = signal.signal(signal.SIGALRM, worker._on_alarm)
    yield
    signal.signal(signal.SIGALRM, old)


def _listing(tasks):
    return [(t.kind, t.key, json.dumps(t.params, sort_keys=True), t.limit_s) for t in tasks]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_tasks_other_seed_other_tasks(workload):
    assert _listing(task_list(workload, 7)) == _listing(task_list(workload, 7))
    assert _listing(task_list(workload, 7, 1)) == _listing(task_list(workload, 7, 1))
    assert _listing(task_list(workload, 7)) != _listing(task_list(workload, 8))
    assert _listing(task_list(workload, 7, 0)) != _listing(task_list(workload, 7, 1))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_task_has_a_golden_record(workload, goldens):
    keys = [t.key for t in all_tasks(workload)]
    assert len(keys) == len(set(keys))
    for task in all_tasks(workload):
        assert task.key in goldens, task.key
        assert goldens[task.key]["status"] in ("ok", "timeout"), task.key
        if task.kind == "surrogate":
            assert len(goldens[task.key]["inputs"]["thetas"]) == task.params["samples"]
    assert len(task_list(workload, 1)) >= 20


def test_deep_constructions_stay_in_the_grid():
    keys = {t.key for t in task_list("growth_orders", 3)}
    for p1, rest, gens in (("2", "3-3", 6), ("2", "4-4", 4), ("1.5", "3-3", 5)):
        assert any(k.startswith(f"construct/{p1}") and k.endswith(f"-{rest}/n{gens}") for k in keys)


def _snapshot():
    """Every discgrowth module attribute and class attribute, by identity."""
    snap = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "discgrowth" or name.startswith("discgrowth."):
            for key, val in vars(mod).items():
                snap[(name, key)] = val
                if isinstance(val, type) and val.__module__ == name:
                    for ckey, cval in vars(val).items():
                        snap[(name, key, ckey)] = cval
    return snap


def _small_tasks():
    return [
        Task("construct", "t/construct", dict(p1=2.0, p2=3.0, p=3.0, generations=2), 5.0),
        Task("ode_pole", "t/ode", dict(p=2, degree=300, scale=-1.0, g_lo=1.0, g_hi=2.6), 5.0),
        Task("study", "t/study", dict(p1=3.0, p2=4.0, p=4.0, generations=2, shift=0.0), 20.0),
        Task("wiman_doubling", "t/wiman", dict(lam=1.0, sigma=2.0, k_lo=5, k_hi=14), 5.0),
        Task("cli", "t/cli", dict(workloads._CLI_VARIANTS[0], step="predict"), 5.0),
    ]


def test_wrappers_are_removed_after_a_traced_pass(tmp_path):
    ctx = Context("growth_orders", str(tmp_path), {})
    import discgrowth.cli  # noqa: F401  (every module the targets live in)

    before = _snapshot()
    tracer = tracing.Tracer(worker.TaskTimeout)
    tracer.install()
    assert tracer.missing == []
    assert _snapshot() != before
    try:
        wall, records = worker.run_pass(ctx, _small_tasks(), {}, tracer)
    finally:
        tracer.remove()
    after = _snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    assert all(r["status"] == "ok" for r in records), records
    m = tracer.metrics(0.0)
    assert m["scaffold.build_scaffold.calls"] >= 2
    assert m["profiles.RadialProfile.phi.calls"] > 1000
    assert m["accel.taylor_recursion.terms"] > 0
    assert m["cli.main.calls"] == 1
    # top-level self times add up to the task spans' total
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] is None)
    assert abs(sum(tracer.self_s.values()) - roots) <= 1e-6 * max(roots, 1.0)
    assert roots <= wall


def test_no_wrapper_survives_in_a_fresh_interpreter():
    # only the package is imported before install, as in a workload process
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import discgrowth, tracing\n"
        "t = tracing.Tracer(); t.install(); t.remove()\n"
        "import discgrowth.cli\n"
        "left = [f'{n}.{k}' for n, m in list(sys.modules.items()) if n.startswith('discgrowth')\n"
        "        for k, v in vars(m).items() if hasattr(v, 'perfbench_layer')]\n"
        "left += [f'{c.__name__}.{k}' for m in list(sys.modules.values()) if m and m.__name__.startswith('discgrowth')\n"
        "         for c in vars(m).values() if isinstance(c, type) for k, v in vars(c).items()\n"
        "         if hasattr(v, 'perfbench_layer')]\n"
        "print(left)\n"
    ) % (os.path.join(ROOT, "src"), BENCH)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_untraced_pass_installs_nothing(tmp_path):
    import discgrowth.cli  # noqa: F401

    before = _snapshot()
    worker.run_pass(Context("growth_orders", str(tmp_path), {}), _small_tasks()[:1], {})
    after = _snapshot()
    assert [k for k in before if after.get(k) is not before[k]] == []


def test_over_limit_task_counts_as_failed(tmp_path, monkeypatch):
    def spin(ctx, seconds):
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            pass
        return {}

    monkeypatch.setitem(workloads._EXECUTORS, "spin", spin)
    tasks = [Task("spin", "t/slow", dict(seconds=5.0), 0.2), Task("spin", "t/fast", dict(seconds=0.0), 1.0)]
    t0 = time.perf_counter()
    wall, records = worker.run_pass(Context("growth_orders", str(tmp_path), {}), tasks, {})
    assert time.perf_counter() - t0 < 2.0
    assert [r["status"] for r in records] == ["timeout", "ok"]
    res = {"records": [dict(r, pass_index=0) for r in records * 10], "pass_walls": [wall], "setup_samples": [0.1], "peak_rss_mb": 1.0,
           "provenance": {}}
    out = run.summarize("growth_orders", 0, 0, res)
    assert out["attempted"] == 20 and out["failed"] == 10 and out["correct"] is True


def test_timeout_inside_build_scaffold_is_counted(tmp_path):
    tracer = tracing.Tracer(worker.TaskTimeout)
    tracer.install()
    try:
        # (2,4,4) at 4 generations does not finish at the seed commit
        task = Task("construct", "t/deep", dict(p1=2.0, p2=4.0, p=4.0, generations=4), 0.3)
        _, records = worker.run_pass(Context("growth_orders", str(tmp_path), {}), [task], {}, tracer)
    finally:
        tracer.remove()
    if records[0]["status"] == "timeout":
        assert tracer.metrics(0.0)["scaffold.build_scaffold.timeouts"] == 1
    else:
        assert records[0]["status"] == "ok"


def test_wrong_output_is_a_mismatch():
    golden = {"status": "ok", "outputs": {"values": [1.0, 2.0], "samples_in_arcs": 0}}
    assert checks.compare("surrogate", {}, {"values": [1.0004, 2.0], "samples_in_arcs": 0}, golden) == []
    assert checks.compare("surrogate", {}, {"values": [1.01, 2.0], "samples_in_arcs": 0}, golden)
    assert checks.compare("construct", dict(p1=2.0, p2=3.0), {"residual": [1e-8], "eps": [0.1]}, None)
    assert checks.compare("construct", dict(p1=2.0, p2=3.0), {"residual": [1e-12], "eps": [0.6]}, None)


REQUIRED_LAYER_METRICS = """
accel.taylor_recursion.self_s accel.taylor_recursion.terms ode.coefficient_integral_log_bound.self_s
profiles.RadialProfile.phi.calls profiles.RadialProfile.phi.self_s ode.taylor_solve.self_s
ode.SolutionSeries.log_abs_sum.self_s ode.estimate_orders.self_s scaffold.build_scaffold.self_s
scaffold.build_scaffold.retries scaffold.build_scaffold.timeouts scaffold.closure_residuals.calls
numerics.log_r_from_g.calls numerics.log_r_from_g.self_s numerics.find_root.calls
wiman.DoublingSeries.k_indicator.self_s wiman.DoublingSeries.weights.terms wiman.log_max_term.self_s
logderiv.logderiv_certificate.self_s riesz.partition_region.self_s riesz.partition_region.cells
riesz.partition_region.truncated_regions riesz.atomize.self_s riesz.atomize.atoms
riesz.ZeroCloud.to_jsonl.self_s serialize.write_records.self_s serialize.write_records.bytes cli.main.self_s
riesz._cell_nodes.self_s riesz._cell_nodes.nodes accel.kernel_sums.self_s accel.kernel_sums.pairs
accel.kernel_sums.bytes_computed riesz.eval_log_surrogate_many.self_s riesz.eval_log_surrogate_many.samples
riesz.excluded_arcs.self_s logderiv.zero_counts.self_s logderiv.circle_counting_integral.self_s
logderiv.sector_crowding.self_s trace_overhead_s
""".split()


def test_every_layer_metric_is_reported():
    names = [n for n, _ in tracing.metric_names()]
    assert len(names) == len(set(names))
    assert set(REQUIRED_LAYER_METRICS) <= set(names)
    assert set(tracing.Tracer().metrics(0.0)) == set(names)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == names
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == dict(tracing.metric_names())
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    metrics = bench["end_to_end"] + bench["per_layer"]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]) for m in metrics + bench["workloads"])
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_missing_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("riesz", "no_such_layer", tracing.SPAN, None),
                                                               ("no_such_module", "f", tracing.SPAN, None)))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.remove()
    assert tracer.missing == ["riesz.no_such_layer", "no_such_module.f"]


def test_unreadable_work_count_is_reported_not_fatal(monkeypatch):
    def bad_work(tracer, args, kwargs, result):
        return {"cells": len(result.no_such_field)}

    targets = tuple(t if t[1] != "partition_region" else t[:3] + (bad_work,) for t in tracing.TARGETS)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    from discgrowth import riesz as R
    from discgrowth.profiles import RadialProfile
    from discgrowth.scaffold import ScaffoldParams, build_scaffold

    prof = RadialProfile(build_scaffold(ScaffoldParams.with_defaults(k=1, p1=2.0, p2=3.0, p=3.0, log_c=3.2, g1=3.0), 1))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        part = R.partition_region(prof, 1, ceiling=500)
    finally:
        tracer.remove()
    assert len(part.cells) > 0
    assert tracer.missing == ["riesz.partition_region.work"]
    assert tracer.calls["riesz.partition_region"] == 1


def test_tail_percentile_leaves_ten_tasks_beyond():
    lat = [float(i) for i in range(40)]
    value, p, n = run.tail_latency(lat)
    assert n == 40 and p == 0.75 and sum(1 for x in lat if x > value) == 10


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "growth_orders", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
