"""Report the functions and lines of ``src/discgrowth`` that neither the
README command-line chain nor any benchmark task runs.

Every line executed under ``src/discgrowth`` is recorded with
``sys.settrace`` while this script runs, in process:

- the README chain (the first code block under "## Command line" in
  README.md), each ``discgrowth ...`` command through ``cli.main`` in an
  empty temporary directory;
- for each benchmark workload, its set-up and then every task of its
  catalogue (``all_tasks``), with the inputs ``perfbench/goldens.json``
  records for them.  ``perfbench/workloads.py`` is loaded read-only from its
  path, without writing bytecode beside it.

A function counts as unreached when its code is never entered, a line when
it never runs; a function's lines are those of its code object, without the
``def`` line.  The report lists the unreached functions and the unreached
lines of the reached ones per module, then the counts per module and in
total.  It is information only: the exit status is always 0.

Usage, from the repository root:
    python .github/scripts/reachability.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import shlex
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src", "discgrowth")
PERFBENCH = os.path.join(ROOT, "perfbench")


def _function_codes(code):
    """The code objects nested in ``code`` (functions, methods, lambdas and
    comprehensions), depth first; class bodies are walked but not listed."""
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if not _is_class_body(const):
                yield const
            yield from _function_codes(const)


def _is_class_body(code) -> bool:
    # a class body stores __qualname__ and __module__ first thing
    return code.co_names[:2] == ("__name__", "__module__")


def _key(code) -> tuple:
    """A code object's identity across compilations of its file."""
    return code.co_filename, code.co_firstlineno, code.co_name


def _lines(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None and line != code.co_firstlineno}


def _span(code) -> range:
    """The source lines of a function, from its first line (``def`` or
    decorator) to its last line of code, docstring and nested code included."""
    last = max(line for c in (code, *_function_codes(code)) for line in (c.co_firstlineno, *_lines(c)))
    return range(code.co_firstlineno, last + 1)


def _readme_chain() -> list[list[str]]:
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = fh.read().split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    return [argv[1:] for argv in commands if argv and argv[0] == "discgrowth"]


def _load_workloads():
    sys.dont_write_bytecode = True  # no __pycache__ beside the benchmark
    spec = importlib.util.spec_from_file_location("perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class _Recorder:
    """A ``sys.settrace`` hook that records the code entered and the lines
    run under ``src/discgrowth``; frames of other files are not traced."""

    def __init__(self):
        self.entered: set = set()
        self.ran: dict[str, set[int]] = {}
        self._prefix = SRC + os.sep

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self._prefix):
            return None
        self.entered.add(_key(code))
        ran = self.ran.setdefault(code.co_filename, set())

        def line(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return line

        return line


def _run(recorder: _Recorder, label: str, fn, failures: list[str]) -> None:
    sys.settrace(recorder)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            fn()
    except Exception:
        failures.append(f"{label}: {traceback.format_exc(limit=1).strip().splitlines()[-1]}")
    finally:
        sys.settrace(None)


def _ranges(lines: list[int]) -> str:
    out, start = [], None
    for i, n in enumerate(lines):
        if start is None:
            start = n
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            out.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return ",".join(out)


def main() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    recorder, failures, t0 = _Recorder(), [], time.perf_counter()
    from discgrowth import cli

    chain = _readme_chain()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in chain:
                _run(recorder, "README " + " ".join(argv[:2]), lambda: cli.main(argv), failures)
        finally:
            os.chdir(cwd)
        workloads = _load_workloads()
        with open(os.path.join(PERFBENCH, "goldens.json")) as fh:
            goldens = json.load(fh)
        n_tasks = 0
        for name in workloads.WORKLOADS:
            workdir = os.path.join(tmp, name)
            os.makedirs(workdir)
            ctx = workloads.Context(name, workdir, goldens)
            _run(recorder, f"{name} set-up", lambda: workloads.setup(ctx), failures)
            for task in workloads.all_tasks(name):
                _run(recorder, task.key, lambda: workloads.run_task(ctx, task), failures)
                n_tasks += 1

    print(f"reachability of src/discgrowth over the README chain ({len(chain)} commands) and "
          f"{n_tasks} benchmark tasks, {time.perf_counter() - t0:.1f} s")
    for failure in failures:
        print(f"  failed: {failure}")
    totals = []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(SRC, fname)
        with open(path) as fh:
            module = compile(fh.read(), path, "exec")
        ran = recorder.ran.get(path, set())
        missed_functions, missed_span, missed_lines, partial = 0, set(), set(), []
        for code in _function_codes(module):
            todo = _lines(code) - ran
            missed_lines |= todo
            name = getattr(code, "co_qualname", code.co_name)
            entered = _key(code) in recorder.entered
            if not entered and not code.co_name.startswith("<"):
                missed_functions += 1
                missed_span.update(_span(code))
                print(f"  {fname}:{code.co_firstlineno} {name} (never entered, {len(_span(code))} lines)")
            elif todo and entered:
                partial.append(f"{name} {_ranges(sorted(todo))}")
        for item in partial:
            print(f"  {fname} lines not run in {item}")
        totals.append((fname[:-3], missed_functions, len(missed_span), len(missed_lines)))
    # "their lines": the source lines of the functions never entered; "lines
    # not run": every line of code that never ran, in them or elsewhere
    print(f"{'module':<10} {'functions never entered':>23} {'their lines':>11} {'lines not run':>13}")
    for row in totals + [("total", *(sum(t[i] for t in totals) for i in (1, 2, 3)))]:
        print(f"{row[0]:<10} {row[1]:>23} {row[2]:>11} {row[3]:>13}")


if __name__ == "__main__":
    try:
        main()
    except Exception:
        traceback.print_exc()
    sys.exit(0)
