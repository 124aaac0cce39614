"""Every per-layer target of the benchmark's tracer resolves to a name in the
package, so a rename or deletion in ``src/`` shows here rather than as a
layer that silently reads 0.  ``perfbench/tracing.py`` is loaded read-only
from its path; the benchmark directory is not imported as a package."""

import importlib.util
import os
import sys

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ beside it
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    import discgrowth.numerics as N

    original = N.log_r_from_g
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert N.log_r_from_g is not original
    finally:
        tracer.remove()
    assert N.log_r_from_g is original
