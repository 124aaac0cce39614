"""Per-layer tracing installed from outside the program.

``Tracer.install`` replaces each target with a timing wrapper everywhere the
name is bound: in its defining module, in every ``discgrowth`` module that
copied it with ``from ... import``, or on its class for methods.  ``remove``
puts the originals back.  Untraced runs never construct a tracer.

Every wrapped call pushes a frame, so self time (span duration minus the time
its child calls cover) is exact for nested layers.  Targets called more than
~1e4 times per run are counters: they aggregate calls and self time but keep
no span.  All other calls keep a span (name, start, end, parent span, task
id) in memory until ``write_spans``.

A target a later version of the program removes or renames is reported in
``missing`` and its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

SPAN, COUNTER = "span", "counter"


def _taylor_terms(tracer, args, kwargs, result):
    # products computed: sum over m = 0..degree-k of min(m + 1, len A)
    a_sign, _a_log, k, degree = args[:4]
    n_a = len(a_sign)
    top = degree - k + 1
    if top <= n_a:
        return {"terms": top * (top + 1) // 2}
    return {"terms": n_a * (n_a + 1) // 2 + (top - n_a) * n_a}


def _kernel_work(tracer, args, kwargs, result):
    # computed, not measured: every sample streams the three source arrays
    n, m = len(args[0]), len(args[2])
    return {"pairs": n * m, "bytes_computed": 8 * n * (3 * m + 3)}


def _cell_nodes_work(tracer, args, kwargs, result):
    # nodes built: a cloud caches its node set, later calls return it again
    if id(result[0]) in tracer.seen:
        return {}
    tracer.seen.add(id(result[0]))
    return {"nodes": len(result[0])}


def _partition_work(tracer, args, kwargs, result):
    return {"cells": len(result.cells), "truncated_regions": sum(bool(v) for v in result.truncated.values())}


def _write_records_work(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, qualified name, mode, work counter); metric names follow
# <module>.<function>
TARGETS = (
    ("numerics", "log_r_from_g", COUNTER, None),
    ("numerics", "find_root", SPAN, None),
    ("scaffold", "closure_residuals", COUNTER, None),
    ("scaffold", "build_scaffold", SPAN, lambda t, a, k, r: {"retries": r.retries}),
    ("profiles", "RadialProfile.phi", COUNTER, None),
    ("ode", "taylor_solve", SPAN, None),
    ("ode", "SolutionSeries.log_abs_sum", SPAN, None),
    ("ode", "estimate_orders", SPAN, None),
    ("ode", "audit_inequalities", SPAN, None),
    ("ode", "coefficient_integral_log_bound", SPAN, None),
    ("_accel", "taylor_recursion", SPAN, _taylor_terms),
    ("_accel", "kernel_sums", SPAN, _kernel_work),
    ("wiman", "DoublingSeries.k_indicator", SPAN, None),
    ("wiman", "DoublingSeries.weights", SPAN, lambda t, a, k, r: {"terms": len(r[1])}),
    ("wiman", "log_max_term", SPAN, None),
    ("logderiv", "logderiv_certificate", SPAN, None),
    ("riesz", "partition_region", SPAN, _partition_work),
    ("riesz", "atomize", SPAN, lambda t, a, k, r: {"atoms": len(r)}),
    ("riesz", "ZeroCloud.to_jsonl", SPAN, None),
    ("serialize", "write_records", SPAN, _write_records_work),
    ("cli", "main", SPAN, None),
    ("riesz", "_cell_nodes", SPAN, _cell_nodes_work),
    ("riesz", "eval_log_surrogate_many", SPAN, lambda t, a, k, r: {"samples": len(r)}),
    ("riesz", "excluded_arcs", SPAN, None),
    ("logderiv", "zero_counts", SPAN, None),
    ("logderiv", "circle_counting_integral", SPAN, None),
    ("logderiv", "sector_crowding", SPAN, None),
)

# work counts reported next to calls and self time, with their units
WORK_METRICS = (
    ("accel.taylor_recursion.terms", "count"),
    ("accel.kernel_sums.pairs", "count"),
    ("accel.kernel_sums.bytes_computed", "B"),
    ("scaffold.build_scaffold.retries", "count"),
    ("scaffold.build_scaffold.timeouts", "count"),
    ("wiman.DoublingSeries.weights.terms", "count"),
    ("riesz.partition_region.cells", "count"),
    ("riesz.partition_region.truncated_regions", "count"),
    ("riesz.atomize.atoms", "count"),
    ("serialize.write_records.bytes", "B"),
    ("riesz._cell_nodes.nodes", "count"),
    ("riesz.eval_log_surrogate_many.samples", "count"),
)


def layer_name(module: str, qualname: str) -> str:
    # metric names must start with a letter or digit: _accel reads accel
    return f"{module.lstrip('_')}.{qualname}"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric (name, unit) a traced run reports."""
    out = []
    for module, qualname, _, _ in TARGETS:
        name = layer_name(module, qualname)
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += list(WORK_METRICS)
    out.append(("trace_overhead_s", "s"))
    return out


class Tracer:
    def __init__(self, timeout_exc: type[BaseException] | None = None):
        self.timeout_exc = timeout_exc
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.seen: set[int] = set()
        self.task_id: str | None = None
        # frames: [child time, span id]
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, mode: str, work):
        tracer = self
        keep_span = mode == SPAN
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if keep_span:
                tracer._next_id += 1
                span_id = tracer._next_id
            else:
                span_id = parent[1] if parent is not None else None
            frame = [0.0, span_id]
            depth = len(stack)
            t0 = clock()
            try:
                stack.append(frame)
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if tracer.timeout_exc is not None and isinstance(exc, tracer.timeout_exc):
                    tracer.work[name + ".timeouts"] += 1
                raise
            finally:
                t1 = clock()
                # a timeout can strike anywhere; drop this frame and any above it
                del stack[depth:]
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[0]
                if keep_span:
                    tracer.spans.append((name, t0, t1, parent[1] if parent is not None else None,
                                         tracer.task_id, span_id))
            if work is not None:
                try:
                    counts = work(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    # a result whose shape a later version changed: the call
                    # stands, its work count is reported missing
                    counts = {}
                    if name + ".work" not in tracer.missing:
                        tracer.missing.append(name + ".work")
                for key, val in counts.items():
                    tracer.work[f"{name}.{key}"] += val
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_layer = name
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        # import every target module first: a module imported while patches
        # are in place would copy a wrapper that remove() cannot see
        modules = {}
        for module in dict.fromkeys(m for m, _, _, _ in TARGETS):
            try:
                modules[module] = importlib.import_module(f"discgrowth.{module}")
            except ImportError:
                pass
        for module, qualname, mode, work in TARGETS:
            name = layer_name(module, qualname)
            try:
                owner = modules[module]
                parts = qualname.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                attr = parts[-1]
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, mode, work)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            # every discgrowth module that bound the same function object
            for mod_name, other in sorted(sys.modules.items()):
                if mod_name == "discgrowth" or mod_name.startswith("discgrowth."):
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- task roots ---------------------------------------------------------

    def root(self, name: str, task_id: str):
        """Context manager for one task: a root span named ``name``."""
        return _Root(self, name, task_id)

    # -- results ------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        out = {}
        for name, unit in metric_names():
            if name == "trace_overhead_s":
                out[name] = overhead_s
            elif name.endswith(".calls"):
                out[name] = self.calls.get(name[: -len(".calls")], 0)
            elif name.endswith(".self_s"):
                out[name] = self.self_s.get(name[: -len(".self_s")], 0.0)
            else:
                out[name] = self.work.get(name, 0)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, task, span_id in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "task": task}) + "\n")


class _Root:
    def __init__(self, tracer: Tracer, name: str, task_id: str):
        self.tracer, self.name, self.task_id = tracer, name, task_id

    def __enter__(self):
        tr = self.tracer
        if tr._stack:
            raise RuntimeError("task roots do not nest")
        tr.task_id = self.task_id
        tr._next_id += 1
        self.frame = [0.0, tr._next_id]
        tr._stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        t1 = time.perf_counter()
        tr._stack.clear()
        tr.calls[self.name] += 1
        tr.self_s[self.name] += (t1 - self.t0) - self.frame[0]
        tr.spans.append((self.name, self.t0, t1, None, self.task_id, self.frame[1]))
        tr.task_id = None
        return False
