"""Command-line surface: subcommands, exit codes, config-file overrides,
determinism of emitted bytes, 17-digit serialization."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from discgrowth.cli import main
from discgrowth.serialize import dumps17, read_records


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def small_scaffold_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "s.json"
    code = run(
        "scaffold", "--p1", "2", "--p2", "3", "--p", "3", "--k", "1",
        "--generations", "2", "--g1", "3", "--log-c", "3.2", "--out", str(path),
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def wide_scaffold_file(tmp_path_factory):
    """The scaffold whose generation 1 is the 127k-cell partition."""
    path = tmp_path_factory.mktemp("cli") / "wide.json"
    assert run(
        "scaffold", "--p1", "2", "--p2", "3", "--p", "4", "--k", "1",
        "--generations", "2", "--g1", "3", "--log-c", "4", "--out", str(path),
    ) == 0
    return path


class TestSerialize:
    def test_17_digits_and_sorted_keys(self):
        txt = dumps17({"b": 1.0 / 3.0, "a": 2})
        assert txt == '{"a":2,"b":0.33333333333333331}'

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps17({"x": math.inf})

    def test_round_trip(self):
        val = 0.1 + 0.2
        back = json.loads(dumps17({"x": val}))
        assert back["x"] == val


class TestScaffoldCmd:
    def test_four_generations(self, tmp_path):
        out = tmp_path / "s.json"
        code = run("scaffold", "--p1", "2", "--p2", "3", "--k", "1",
                   "--generations", "4", "--out", str(out))
        assert code == 0
        recs = read_records(str(out))
        gens = [r for r in recs if r["kind"] == "generation"]
        assert len(gens) == 4
        checks = [r for r in recs if r["kind"] == "check"]
        assert all(c["passed"] for c in checks)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["scaffold", "--p1", "2", "--p2", "3", "--generations", "3"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_root_exhaustion_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        from discgrowth import numerics, scaffold

        monkeypatch.setattr(
            scaffold, "find_root", lambda *a, **k: numerics.find_root(*a, **k, max_iter=1)
        )
        code = run("scaffold", "--p1", "2", "--p2", "3", "--generations", "1",
                   "--out", str(tmp_path / "s.json"))
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert json.loads(lines[-1])["error"] == "RootConvergenceError"

    def test_exhausted_retries_are_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        from discgrowth import scaffold

        def fail(params, n_generations):
            raise scaffold.ConstructionError("forced bracket failure", blamed_constant="b")

        monkeypatch.setattr(scaffold, "_build_once", fail)
        code = run("scaffold", "--p1", "2", "--p2", "3", "--generations", "1",
                   "--out", str(tmp_path / "s.json"))
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "RetriesExhaustedError"

    def test_validation_exit_code(self, tmp_path):
        code = run("scaffold", "--p1", "3", "--p2", "2", "--out", str(tmp_path / "x.json"))
        assert code == 2

    def test_series_cap_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        from discgrowth import numerics

        # the small scaffold starts at g = 3, where log_r_from_g still sums
        # its series; the default one (g >= 48) takes only leading terms
        monkeypatch.setattr(numerics, "SERIES_CAP", 1)
        code = run("scaffold", "--p1", "2", "--p2", "3", "--generations", "1",
                   "--g1", "3", "--log-c", "3.2", "--out", str(tmp_path / "s.json"))
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert json.loads(lines[-1])["error"] == "SeriesCapError"

    def test_unforeseen_error_is_one_json_line_and_exit_3(self, tmp_path, capsys, monkeypatch):
        from discgrowth import cli

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "build_scaffold", boom)
        code = run("scaffold", "--p1", "2", "--p2", "3", "--out", str(tmp_path / "s.json"))
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(x) for x in lines] == [{"error": "RuntimeError", "message": "boom"}]

    @pytest.mark.parametrize("generations", [7, 10])
    def test_past_the_underflow_depth(self, tmp_path, generations):
        # e^(-g) underflows past g ~ 745, which generation 6 crosses
        out = tmp_path / "s.json"
        assert run("scaffold", "--p1", "2", "--p2", "3", "--generations", str(generations),
                   "--out", str(out)) == 0
        recs = read_records(str(out))
        gens = [r for r in recs if r["kind"] == "generation"]
        assert len(gens) == generations and gens[-1]["g_rn"] > 745.0
        checks = [r for r in recs if r["kind"] == "check"]
        assert len(checks) == 2 * generations and all(c["passed"] for c in checks)

    @pytest.mark.parametrize("p1, p2, bound", [("2", "3", 0.5), ("2", "4", 1.0), ("2", "2.5", 0.25)])
    def test_oscillation_threshold_is_the_paper_bound(self, tmp_path, p1, p2, bound):
        # |eps_n| < (p2 - p1)/2, read from the scaffold's own parameters
        out = tmp_path / "s.json"
        assert run("scaffold", "--p1", p1, "--p2", p2, "--generations", "2", "--out", str(out)) == 0
        recs = read_records(str(out))
        eps = [abs(r["eps"]) for r in recs if r["kind"] == "generation"]
        checks = [r for r in recs if r["kind"] == "check" and r["name"].startswith("oscillation-bound")]
        assert [c["threshold"] for c in checks] == [bound, bound]
        assert [c["passed"] for c in checks] == [e < bound for e in eps]


class TestPredict:
    def test_reference_values(self, capsys):
        assert run("ode", "predict", "--k", "1", "--p1", "2", "--p2", "4", "--p", "4") == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["sigma"], doc["alpha"], doc["lambda"]) == (3.0, 0.5, 1.5)

    def test_validation(self, capsys):
        assert run("ode", "predict", "--k", "1", "--p1", "2", "--p2", "4", "--p", "3") == 2
        err = json.loads(capsys.readouterr().err)
        assert "message" in err


class TestOdeSolveCmd:
    @pytest.mark.parametrize("flag,value", [("--pole-order", "0"), ("--scale", "0")])
    def test_bad_pole_input_is_a_validation_error(self, tmp_path, capsys, flag, value):
        code = run("ode", "solve", "--degree", "50", flag, value, "--out", str(tmp_path / "o.json"))
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "OdeError"

    def test_ode_errors_split_into_bad_input_and_numerical_failure(self):
        from discgrowth import ode as O
        from discgrowth.cli import _is_validation

        assert _is_validation(O.OdeError("degree must be at least k"))
        assert not _is_validation(O.OdeOverflowError("overflow in the recursion"))

    def test_recursion_overflow_exits_3(self, tmp_path, capsys, monkeypatch):
        from discgrowth import ode as O

        def overflow(*args, **kwargs):
            raise O.OdeOverflowError("overflow in the recursion")

        monkeypatch.setattr(O, "taylor_solve", overflow)
        out = tmp_path / "o.json"
        assert run("ode", "solve", "--degree", "50", "--out", str(out)) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "OdeOverflowError"
        assert not out.exists()

    @pytest.mark.parametrize("value", [
        "1:2", "1:2:x", "1:2:3:4",  # not three fields, or not numbers
        "2:1:48", "1:1:48",  # g_lo >= g_hi
        "1:2:48.5", "1:2:0",  # count not a positive integer
        "nan:2:48", "1:inf:48",  # non-finite g
        "0:2:48", "-1:2:48",  # g_lo <= 0: r = 0 has no log log M
    ])
    def test_bad_estimate_is_a_validation_error(self, tmp_path, capsys, value):
        out = tmp_path / "o.json"
        assert run("ode", "solve", "--degree", "50", "--estimate", value, "--out", str(out)) == 2
        assert "argument --estimate" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_estimate_in_a_config_is_a_validation_error(self, tmp_path, capsys):
        cfg, out = tmp_path / "run.ini", tmp_path / "o.json"
        cfg.write_text("[ode]\nestimate = 2:1:48\n")
        assert run("--config", str(cfg), "ode", "solve", "--degree", "50", "--out", str(out)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CliValidationError" and "[ode] estimate" in err["message"]
        assert not out.exists()

    def test_estimate_grid(self, tmp_path):
        out, samples = tmp_path / "o.json", tmp_path / "s.csv"
        assert run("ode", "solve", "--degree", "400", "--estimate", "0.5:1.5:40",
                   "--out", str(out), "--samples-csv", str(samples)) == 0
        gs = [float(row.split(",")[0]) for row in samples.read_text().splitlines()[1:]]
        assert gs == np.linspace(0.5, 1.5, 40).tolist()

    @pytest.mark.parametrize("extra,names", [
        (("--estimate", "0.5:1.5:20"), ("--estimate 0.5:1.5:20", "N >= 32")),  # too few samples
        (("--estimate", "0.5:1.2:48"), ("--estimate 0.5:1.2:48", "--min-span 1")),  # span below the default
        (("--estimate", "1:3:48", "--min-span", "2.5"), ("--estimate 1:3:48", "--min-span 2.5")),
    ])
    def test_estimate_below_the_estimator_floor(self, tmp_path, capsys, extra, names):
        # the order estimate needs 32 samples spanning --min-span in g; the
        # error names the flags and no file is written
        out, samples = tmp_path / "o.json", tmp_path / "s.csv"
        assert run("ode", "solve", "--degree", "400", *extra, "--out", str(out), "--samples-csv", str(samples)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CliValidationError" and all(n in err["message"] for n in names)
        assert not out.exists() and not samples.exists()

    def test_estimate_at_the_estimator_floor(self, tmp_path):
        out = tmp_path / "o.json"
        assert run("ode", "solve", "--degree", "400", "--estimate", "0.5:1.5:32", "--out", str(out)) == 0
        assert run("ode", "solve", "--degree", "400", "--estimate", "1:2.5:48", "--min-span", "1.5",
                   "--out", str(out)) == 0

    def test_non_positive_log_m_is_a_validation_error(self, tmp_path, capsys):
        # log M(r, f) = log(1 + r^2 + ...) rounds to 0 at g = 1e-9, where
        # log log M is undefined
        out, samples = tmp_path / "o.json", tmp_path / "s.csv"
        assert run("ode", "solve", "--k", "2", "--pole-order", "2", "--degree", "400",
                   "--estimate", "1e-9:2:48", "--out", str(out), "--samples-csv", str(samples)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CliValidationError"
        assert err["message"].startswith("--estimate:") and "at g = 1.0000000000000001e-09" in err["message"]
        assert not out.exists() and not samples.exists()

    def test_dense_path_samples(self, tmp_path):
        # scale > 0 takes the dense log-domain recursion
        from discgrowth import ode as O
        from discgrowth.numerics import LogValue

        out, samples = tmp_path / "o.json", tmp_path / "s.csv"
        assert run("ode", "solve", "--scale", "0.5", "--degree", "400", "--estimate", "1.0:2.6:48",
                   "--out", str(out), "--samples-csv", str(samples)) == 0
        c = O.pole_coeffs(2, 400, scale=0.5)
        sol = O.taylor_solve(O.DenseCoeffs(c.sign, c.logmag), 1, [LogValue.from_float(1.0)], 400)
        rows = [row.split(",") for row in samples.read_text().splitlines()[1:]]
        assert [float(g) for g, _, _ in rows] == np.linspace(1.0, 2.6, 48).tolist()
        assert [float(v) for _, v, _ in rows] == [math.log(sol.log_abs_sum(float(g))) for g, _, _ in rows]


class TestSeriesCmd:
    def test_reference_doubling_with_trace(self, tmp_path):
        out, trace = tmp_path / "ser.json", tmp_path / "tr.csv"
        code = run("series", "reference", "--variant", "doubling", "--lambda", "1", "--sigma", "2",
                   "--out", str(out), "--trace", str(trace))
        assert code == 0
        recs = read_records(str(out))
        assert recs[0]["kind"] == "series-params"
        header = trace.read_text().splitlines()[0]
        assert header == "g,log_mu,nu_log,K_log"

    def test_doubling_trace_below_first_break_has_no_nan(self, tmp_path):
        out, trace = tmp_path / "ser.json", tmp_path / "tr.csv"
        code = run("series", "reference", "--variant", "doubling", "--lambda", "1", "--sigma", "2",
                   "--out", str(out), "--trace", str(trace), "--trace-k-lo", "0")
        assert code == 0
        rows = trace.read_text().splitlines()[1:]
        k_logs = [float(row.split(",")[3]) for row in rows]
        assert len(k_logs) == 15
        assert all(math.isfinite(k) for k in k_logs)

    def test_trace_k_lo_below_the_first_inside_radius(self, tmp_path, capsys):
        # sigma 3: r_0 = 2 c_0 - 1 < 0 lies outside the disc; k = 1 is the first inside
        out, trace = tmp_path / "ser.json", tmp_path / "tr.csv"
        args = ["series", "reference", "--variant", "doubling", "--lambda", "1", "--sigma", "3",
                "--out", str(out), "--trace", str(trace)]
        assert run(*args, "--trace-k-lo", "0") == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "CliValidationError" and "k = 1" in err["message"]
        assert not out.exists() and not trace.exists()
        assert run(*args, "--trace-k-lo", "1") == 0
        assert len(trace.read_text().splitlines()) == 15

    def test_rejects_bad_delta(self, tmp_path):
        code = run("series", "reference", "--variant", "doubling", "--lambda", "1", "--sigma", "2",
                   "--delta", "0.9", "--out", str(tmp_path / "x.json"))
        assert code == 2


class TestRieszCmd:
    def test_cloud_and_summary(self, small_scaffold_file, tmp_path):
        cloud = tmp_path / "cloud.jsonl"
        summary = tmp_path / "sum.json"
        code = run("riesz", "--scaffold", str(small_scaffold_file), "--generation", "1",
                   "--out", str(cloud), "--summary-out", str(summary))
        assert code == 0
        first = json.loads(cloud.read_text().splitlines()[0])
        assert set(first) == {"g", "theta", "mult", "cell_kind"}
        s = read_records(str(summary))[0]
        assert s["atoms"] >= s["cells"]

    def test_text_written_in_blocks(self, small_scaffold_file, tmp_path, monkeypatch):
        # the writer puts the cloud on disk one block at a time; an odd block
        # size cuts runs anywhere and the bytes stay those pinned below
        from discgrowth import riesz as R

        monkeypatch.setattr(R, "_JSONL_CHUNK", 37)
        cloud = tmp_path / "cloud.jsonl"
        assert run("riesz", "--scaffold", str(small_scaffold_file), "--generation", "1",
                   "--split-doubles", "--out", str(cloud)) == 0
        assert hashlib.sha256(cloud.read_bytes()).hexdigest() == (
            "03689a36ae0c978687a41125c28e79630a68e163ab06e41e3522dbe619685174")

    def test_stdout_prints_the_file_bytes(self, small_scaffold_file, tmp_path, capsysbinary):
        cloud = tmp_path / "cloud.jsonl"
        args = ("riesz", "--scaffold", str(small_scaffold_file), "--generation", "1", "--split-doubles")
        assert run(*args, "--out", str(cloud)) == 0
        capsysbinary.readouterr()
        assert run(*args, "--out", "-") == 0
        assert capsysbinary.readouterr().out == cloud.read_bytes()

    @pytest.mark.parametrize("error,code", [(RuntimeError("block failed"), 3), (OSError(28, "No space left"), 2)])
    def test_failing_block_leaves_no_file(self, small_scaffold_file, tmp_path, monkeypatch, capsys, error, code):
        # the third block's formatting raises once the first two are on disk:
        # the exit code is that of the error, as when the text was built
        # before the write, and neither output is left behind
        from discgrowth import riesz as R

        calls, format17_lines = [], R.format17_lines

        def failing(x):
            calls.append(len(x))
            if len(calls) == 3:
                raise error
            return format17_lines(x)

        monkeypatch.setattr(R, "format17_lines", failing)
        cloud, summary = tmp_path / "cloud.jsonl", tmp_path / "sum.json"
        assert run("riesz", "--scaffold", str(small_scaffold_file), "--generation", "1",
                   "--out", str(cloud), "--summary-out", str(summary)) == code
        assert len(calls) == 3
        assert json.loads(capsys.readouterr().err)["error"] == type(error).__name__
        assert not cloud.exists() and not summary.exists()

    def test_wide_write_peak_is_the_build_peak(self, wide_scaffold_file, tmp_path):
        # the 127k-atom cloud's text (10.5 MB) is formatted one block at a
        # time as it is written, so the command's traced peak is that of the
        # partition and atomization it runs, plus at most one block of 1024
        # rows (~85 kB) as its pieces, its join and its encoded bytes, the
        # file buffer and the summary
        from discgrowth import cli
        from discgrowth import riesz as R
        from discgrowth.profiles import RadialProfile

        slack = 1 << 19
        prof = RadialProfile(cli._load_scaffold(str(wide_scaffold_file)))
        tracemalloc.start()
        try:
            part = R.partition_region(prof, 1, g_max=25.0, ceiling=200_000)
            cloud = R.atomize(part, prof)
            build = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del part, cloud
        out, summary = tmp_path / "cloud.jsonl", tmp_path / "sum.json"
        tracemalloc.start()
        try:
            code = run("riesz", "--scaffold", str(wide_scaffold_file), "--generation", "1",
                       "--out", str(out), "--summary-out", str(summary))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out.stat().st_size == 10_527_289
        assert peak <= build + slack

    # sha256 of the cloud and summary bytes, recorded at commit dc95d27; plain
    # and split runs take the merge-back of a thin leftover ring, the ceiling
    # of 2000 stops inside the A-dprime region
    @pytest.mark.parametrize("extra,cloud_sha,summary_sha", [
        ((), "3e29869b0a6aea0ba31931ac2dacc21e3fb28d908334c155099d2ab740c861b2",
         "2b6e52399c7b2022d7adc08473ae2b36ba5835b312a89fd8e46782b7776c7504"),
        (("--split-doubles",), "03689a36ae0c978687a41125c28e79630a68e163ab06e41e3522dbe619685174",
         "c948327b9a64d347c61c14c6615e2c34691f81100df960da91baa2f9bd700d47"),
        (("--ceiling", "2000"), "317c173f6ca2ddd463817cdaa5fbe8918f62c7c6c82c39901b150acba425d546",
         "f332d2678d2e173d187a971abc8c837bb32e403499025d70ccf0fa2c83c2c598"),
    ])
    def test_bytes_pinned(self, small_scaffold_file, tmp_path, extra, cloud_sha, summary_sha):
        import hashlib

        cloud, summary = tmp_path / "cloud.jsonl", tmp_path / "sum.json"
        code = run("riesz", "--scaffold", str(small_scaffold_file), "--generation", "1",
                   "--out", str(cloud), "--summary-out", str(summary), *extra)
        assert code == 0
        assert hashlib.sha256(cloud.read_bytes()).hexdigest() == cloud_sha
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == summary_sha

    @pytest.mark.parametrize("g_max", ["nan", "inf"])
    def test_non_finite_g_max_is_bad_input(self, small_scaffold_file, tmp_path, capsys, g_max):
        cloud, summary = tmp_path / "cloud.jsonl", tmp_path / "sum.json"
        code = run("riesz", "--scaffold", str(small_scaffold_file), "--g-max", g_max,
                   "--out", str(cloud), "--summary-out", str(summary))
        assert code == 2
        # a usage error, before any work
        err = capsys.readouterr().err.splitlines()[-1]
        assert f"error: argument --g-max: expected a finite float, got '{g_max}'" in err
        assert not cloud.exists() and not summary.exists()

    def test_failed_serialisation_leaves_no_files(self, small_scaffold_file, tmp_path, capsys,
                                                  monkeypatch):
        import numpy as np

        from discgrowth import riesz

        def nan_cloud(part, prof, split_doubles=False):
            return riesz.ZeroCloud(np.array([1.0, math.nan]), np.array([0.5, 0.5]),
                                   np.array([2.0, 2.0]), ["A", "A"])

        monkeypatch.setattr(riesz, "atomize", nan_cloud)
        cloud, summary = tmp_path / "cloud.jsonl", tmp_path / "sum.json"
        code = run("riesz", "--scaffold", str(small_scaffold_file), "--generation", "1",
                   "--ceiling", "2000", "--out", str(cloud), "--summary-out", str(summary))
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ValueError"
        assert not cloud.exists() and not summary.exists()


class TestLogderivCmd:
    def test_windows_density(self, tmp_path):
        out = tmp_path / "w.json"
        gs = ",".join(str(2.0**n) for n in range(1, 20))
        assert run("logderiv", "windows", "--lambda", "1", "--eta", "0.5",
                   "--g-n", gs, "--out", str(out)) == 0
        doc = read_records(str(out))[0]
        assert doc["upper_density"] == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("argv,flags", [
        # lam = 0 halves every g, so 2, 4, 8, 16 give windows that touch
        ("windows --lambda 0 --g-n 2,4,8,16", "--lambda 0 --eta 0.5 --g-n 2,4,8,16"),
        ("certificate --power 0.01 --g-n 2,2.5", "--power 0.01 --eta 0.5 --g-n 2,2.5"),
    ])
    def test_overlapping_windows_name_their_flags(self, tmp_path, capsys, argv, flags):
        out = tmp_path / "w.json"
        assert run("logderiv", *argv.split(), "--out", str(out)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CliValidationError"
        assert flags in err["message"] and "overlaps" in err["message"]
        assert not out.exists()

    def test_certificate_bounded(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("logderiv", "certificate", "--power", "2", "--k", "1", "--j", "0",
                   "--eps", "0.1", "--g-n", "6,9,12", "--out", str(out)) == 0
        check = [r for r in read_records(str(out)) if r["kind"] == "check"][0]
        assert check["passed"]


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[scaffold]\np1 = 2\np2 = 3\ngenerations = 2\n")
        out1 = tmp_path / "one.json"
        assert run("--config", str(cfg), "scaffold", "--out", str(out1)) == 0
        assert len([r for r in read_records(str(out1)) if r["kind"] == "generation"]) == 2
        out2 = tmp_path / "two.json"
        assert run("--config", str(cfg), "scaffold", "--generations", "3",
                   "--out", str(out2)) == 0
        assert len([r for r in read_records(str(out2)) if r["kind"] == "generation"]) == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[scaffold]\np1 = 2\np2 = 3\nbogus = 1\n")
        assert run("--config", str(cfg), "scaffold", "--out", str(tmp_path / "x.json")) == 2

    def test_config_does_not_leak_into_later_calls(self, tmp_path):
        # main reuses one parser: a config default lasts for its own call,
        # also when the config is rejected halfway through
        good, bad = tmp_path / "good.ini", tmp_path / "bad.ini"
        good.write_text("[ode]\nk = 2\n")
        bad.write_text("[ode]\nk = 3\nbogus = 1\n")
        predict = ("ode", "predict", "--p1", "4", "--p2", "7", "--p", "7", "--out")
        outs = [tmp_path / f"{i}.json" for i in range(4)]
        assert run("--config", str(good), *predict, str(outs[0])) == 0
        assert run(*predict, str(outs[1])) == 0
        assert run("--config", str(bad), *predict, str(outs[2])) == 2
        assert run(*predict, str(outs[3])) == 0
        ks = [read_records(str(outs[i]))[0]["k"] for i in (0, 1, 3)]
        assert ks == [2, 1, 1] and not outs[2].exists()


class TestPerActionFlags:
    """Each action accepts only the flags it reads, from the command line and
    from its config section alike."""

    @pytest.mark.parametrize("argv,extra", [
        ("ode predict --p1 2 --p2 4 --p 4", "--eps 0.1"),
        ("ode exponents --k 2 --p1 5 --p2 6", "--p 6"),
        ("ode solve --degree 50 --out o.json", "--p1 2"),
        ("ode solve --degree 50 --out o.json", "--p 3"),  # not an abbreviation of --pole-order
        ("logderiv windows --out w.json", "--power 2"),
        ("logderiv certificate --out c.json", "--lambda 1"),
    ])
    def test_a_flag_of_another_action_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, extra):
        monkeypatch.chdir(tmp_path)
        assert run(*argv.split(), *extra.split()) == 2
        assert f"error: unrecognized arguments: {extra}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_section_applies_to_the_action_being_run(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "run.ini").write_text("[ode]\neps = 0.1\n")
        monkeypatch.chdir(tmp_path)
        assert run("--config", "run.ini", "ode", "exponents", "--k", "2", "--p1", "5", "--p2", "6",
                   "--out", "a.json") == 0
        assert run("ode", "exponents", "--k", "2", "--p1", "5", "--p2", "6", "--eps", "0.1",
                   "--out", "b.json") == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        # ode predict has no --eps
        assert run("--config", "run.ini", "ode", "predict", "--p1", "2", "--p2", "4", "--p", "4",
                   "--out", "c.json") == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "CliValidationError",
                       "message": "config key [ode] eps is not a flag of discgrowth ode predict"}
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
    def test_non_finite_float_in_a_config(self, small_scaffold_file, tmp_path, monkeypatch, capsys, value):
        (tmp_path / "run.ini").write_text(f"[riesz]\ng-max = {value}\n")
        monkeypatch.chdir(tmp_path)
        assert run("--config", "run.ini", "riesz", "--scaffold", str(small_scaffold_file),
                   "--out", "c.jsonl") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == f"config key [riesz] g-max: expected a finite float, got '{value}'"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    from discgrowth import cli

    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for i in range(3):
            assert run("ode", "predict", "--p1", "2", "--p2", "3", "--p", "3",
                       "--out", str(tmp_path / f"{i}.json")) == 0
        assert run("ode", "predict", "--bogus") == 2
    finally:
        cli._parser.cache_clear()
    assert built == [1]


class TestReportCmd:
    def test_empty_inputs(self, tmp_path):
        out = tmp_path / "r.md"
        assert run("report", "--out", str(out)) == 0
        assert "| check |" in out.read_text()

    def test_collates_checks(self, small_scaffold_file, tmp_path):
        out = tmp_path / "r.md"
        csv_out = tmp_path / "r.csv"
        code = run("report", "--inputs", str(small_scaffold_file),
                   "--out", str(out), "--csv-out", str(csv_out))
        assert code == 0
        text = out.read_text()
        assert "closure-residual-gen-1" in text
        assert "pass" in text
        assert csv_out.read_text().startswith("check,source,")

    def test_missing_input(self, tmp_path):
        assert run("report", "--inputs", "nope.json", "--out", str(tmp_path / "r.md")) == 2

    @pytest.mark.parametrize("content", [
        "# report\n\nnot JSON\n",
        '{"kind":"check","value":1.0}\n',  # no name
        '{"kind":"check","name":"x"}\n',  # no value
        '{"kind":"check","name":"x","value":"high"}\n',  # not a number
        '{"kind":"check","name":"x","value":1.0,"threshold":"high","passed":true}\n',  # threshold not a number
    ])
    def test_bad_input_file_is_a_validation_error(self, tmp_path, monkeypatch, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        monkeypatch.chdir(out_dir)
        assert run("report", "--inputs", str(bad), "--out", "r.md") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CliValidationError" and f"--inputs {bad}" in err["message"]
        assert list(out_dir.iterdir()) == []

    def test_collates_across_sources(self, small_scaffold_file, tmp_path):
        xi = tmp_path / "xi.json"
        cert = tmp_path / "cert.json"
        assert run("ode", "exponents", "--k", "2", "--p1", "5", "--p2", "6",
                   "--out", str(xi)) == 0
        assert run("logderiv", "certificate", "--power", "2", "--g-n", "6,9,12",
                   "--out", str(cert)) == 0
        out = tmp_path / "full.md"
        assert run("report", "--inputs", str(small_scaffold_file), str(xi), str(cert),
                   "--out", str(out)) == 0
        text = out.read_text()
        for key in ("closure-residual-gen-1", "growth-exponent-identity-residual",
                    "certificate-statistic-bounded"):
            assert key in text
        assert "FAIL" not in text


class TestProfileCmd:
    def test_csv_and_junction_checks(self, small_scaffold_file, tmp_path):
        out = tmp_path / "p.csv"
        jout = tmp_path / "j.json"
        assert run("profile", "--scaffold", str(small_scaffold_file),
                   "--out", str(out), "--junctions-out", str(jout)) == 0
        assert out.read_text().splitlines()[0] == "g,r,phi,phi_over_g,branch_id"
        assert all(r["passed"] for r in read_records(str(jout)))


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestConstructionBytes:
    # sha256 of the scaffold and profile outputs, recorded at commit f5748b9;
    # ten generations of (2,3,3) reach g ~ 4e3, past the e^-g underflow
    def test_ten_generation_scaffold_and_profile(self, tmp_path):
        s, s_csv = tmp_path / "s10.json", tmp_path / "s10.csv"
        prof, junctions = tmp_path / "prof10.csv", tmp_path / "j10.json"
        assert run("scaffold", "--p1", "2", "--p2", "3", "--p", "3", "--k", "1",
                   "--generations", "10", "--out", str(s), "--csv-out", str(s_csv)) == 0
        assert run("profile", "--scaffold", str(s), "--out", str(prof),
                   "--junctions-out", str(junctions)) == 0
        assert _sha256(s) == "55b3631e521069f3e3b033936841f2c5b2143a7ac9f9a0f6117278855ba0dc65"
        assert _sha256(s_csv) == "43d7f7e6a8279385e0b1fd721ad211f98ed4991dbfba753ebd048ac20ccb9c57"
        assert _sha256(prof) == "6c6a182e9744530d7ef23d2064b2a0a83a843cc0280e0ab8e7e4b97b6e07bdc9"
        assert _sha256(junctions) == "0f034f5d9da19d395df36c3e59fb3605b23a705be6deb3e2c76b346d3939d588"

    def test_readme_profile(self, tmp_path):
        s, prof = tmp_path / "s.json", tmp_path / "prof.csv"
        assert run("scaffold", "--p1", "2", "--p2", "3", "--p", "3", "--k", "1",
                   "--generations", "4", "--out", str(s)) == 0
        assert run("profile", "--scaffold", str(s), "--out", str(prof)) == 0
        assert _sha256(prof) == "3cc92bd2fb5a79c5d64445113d4d42c70fcf5c362255633be5a9c6bcd092b284"


class TestOutputBytes:
    # sha256 of each output and of stdout, recorded at commit 7125026, before
    # the subcommands handed their outputs to one writer; "-" is stdout, and
    # "--out -" prints the bytes that commit wrote to the file.  The ode solve
    # pins were re-recorded when the pole path moved to plain floats and
    # pole_coeffs to a cumulative sum (log log M samples moved <= 4.3e-16 relative)
    @pytest.mark.parametrize("argv,shas", [
        ("series reference --variant doubling --lambda 1 --sigma 2 --out ser.json --trace tr.csv",
         {"ser.json": "29af34d153dcd09e44653cdacd837eeccce372583dfb03d9aaba06597e96ca9d",
          "tr.csv": "a318303d1a90d335eb6b0508f8cabc25ce54b977e83d0a25fc72507cf952bd5a"}),
        ("series reference --variant power-law --sigma 2 --out ser.json --trace tr.csv",
         {"ser.json": "39fe1571dc68eaf243f0ae9568fb656cd07b45f8437ee190bfbb3954fb512330",
          "tr.csv": "c4060ab6b84add787c50e461a82d3cbc639ec485714c7b5ac77aa11850b57539"}),
        ("logderiv windows --lambda 1 --eta 0.5 --g-n 2,4,8,16 --out w.json",
         {"w.json": "c0c1e22a95400a8c0aa92f6044931e229effa86cc24bb81a4fae88694e7560b8"}),
        ("logderiv windows --lambda 1 --eta 0.5 --g-n 2,4,8,16 --out -",
         {"-": "c0c1e22a95400a8c0aa92f6044931e229effa86cc24bb81a4fae88694e7560b8"}),
        ("report --out -",
         {"-": "164a662e21e57c7061b3fe0b7167ab95f07cee3049c375d8bb5f07eddd89c640"}),
        ("logderiv certificate --power 2 --k 1 --j 0 --eps 0.1 --g-n 6,9,12 --out cert.json",
         {"cert.json": "b7d4580e443fe20b6c89a553a3cc81a251d93a30518c76e0f077448694fcd4fb"}),
        ("ode predict --k 1 --p1 2 --p2 4 --p 4",
         {"-": "390de79a63779e1a4415931c09e2536b86fda1c5ca4323d011b21f967f90a32f"}),
        ("ode predict --k 1 --p1 2 --p2 4 --p 4 --out pred.json",
         {"pred.json": "390de79a63779e1a4415931c09e2536b86fda1c5ca4323d011b21f967f90a32f"}),
        ("ode exponents --k 2 --p1 5 --p2 6 --eps 0",
         {"-": "82c7718c5a0938a02e8085f0024da7fc832ad2a2980d922c0f5a125b3731627a"}),
        ("ode exponents --k 2 --p1 5 --p2 6 --eps 0 --out xi.json",
         {"xi.json": "afdd94c832b5616eca15c7f5435cf9086771e50467e559ec1c19f4ca5a47f737"}),
        ("ode solve --degree 2000 --audit-p1 3 --audit-p2 3 --out orders.json --samples-csv samples.csv",
         {"orders.json": "aba5b4cbc3812abb16e8a590a22776dfb9cf57ddfda0ea8121d0edb0f9ef9824",
          "samples.csv": "ca2e891a791953cf5b632cf090940f15e9283b751da988defeb97806cfa7a5bf"}),
    ])
    def test_bytes_pinned(self, tmp_path, monkeypatch, capsys, argv, shas):
        monkeypatch.chdir(tmp_path)
        assert run(*argv.split()) == 0
        stdout = capsys.readouterr().out.encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(n for n in shas if n != "-")
        got = {n: hashlib.sha256(stdout).hexdigest() if n == "-" else _sha256(tmp_path / n) for n in shas}
        assert got == shas
        assert stdout == b"" or "-" in shas

    def test_report_bytes_pinned(self, tmp_path, monkeypatch):
        # relative inputs: the table names the path of each source; r.csv
        # holds the ode solve check values (re-recorded with that pin)
        monkeypatch.chdir(tmp_path)
        for argv in ("scaffold --p1 2 --p2 3 --generations 2 --out s.json",
                     "ode exponents --k 2 --p1 5 --p2 6 --out xi.json",
                     "logderiv certificate --power 2 --g-n 6,9,12 --out cert.json",
                     "ode solve --degree 2000 --audit-p1 3 --audit-p2 3 --out orders.json",
                     "report --inputs s.json xi.json cert.json orders.json --out r.md --csv-out r.csv"):
            assert run(*argv.split()) == 0
        assert _sha256(tmp_path / "r.md") == "7f7989b2f48d2cdb1670b37652d155a38ef0f567ce370e0962fd01d501839d7f"
        assert _sha256(tmp_path / "r.csv") == "b7aa0932a3fa970e5937acf2e19d8f9f426979d065fb3fef4e48b074a46f5791"


class TestFailedRunLeavesNoFiles:
    @pytest.mark.parametrize("argv", [
        "scaffold --p1 2 --p2 3 --p 3 --out s.json --csv-out missing/s.csv",
        "riesz --scaffold {scaffold} --ceiling 2000 --out cloud.jsonl --summary-out missing/sum.json",
        "series reference --variant doubling --lambda 1 --sigma 2 --out ser.json --trace missing/tr.csv",
    ])
    def test_unwritable_output(self, small_scaffold_file, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run(*argv.format(scaffold=small_scaffold_file).split()) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"
        assert list(tmp_path.iterdir()) == []

    def test_existing_file_is_kept(self, tmp_path, capsys):
        # a path the run did not create is not removed
        out = tmp_path / "s.json"
        out.write_text("old\n")
        assert run("scaffold", "--p1", "2", "--p2", "3", "--generations", "1", "--out", str(out),
                   "--csv-out", str(tmp_path / "missing" / "s.csv")) == 2
        assert out.exists()

    @pytest.mark.parametrize("content", [
        '{"kind":"logderiv-window","g":2.0}\n',  # JSONL without a scaffold-params record
        '{"kind":"scaffold-params","p1":2.0}\n',  # a scaffold-params record missing fields
        '[1, 2]\n3\n',  # JSON lines that are not records
        "# report\n\nnot JSON\n",
    ])
    @pytest.mark.parametrize("argv", [
        "profile --scaffold {scaffold} --out prof.csv --junctions-out j.json",
        "riesz --scaffold {scaffold} --generation 1 --out cloud.jsonl --summary-out sum.json",
    ])
    def test_bad_scaffold_file_is_a_validation_error(self, tmp_path, monkeypatch, capsys,
                                                     content, argv):
        bad = tmp_path / "in" / "bad.json"
        bad.parent.mkdir()
        bad.write_text(content)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        monkeypatch.chdir(out_dir)
        assert run(*argv.format(scaffold=bad).split()) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "CliValidationError"
        assert str(bad) in err["message"]
        assert list(out_dir.iterdir()) == []

    def test_ode_solve_needs_out(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        assert run("ode", "solve", "--degree", "50", "--samples-csv", str(samples)) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "CliValidationError"
        assert not samples.exists()


class TestBadValuesExit2:
    """Malformed or out-of-range values are bad input: exit 2, one error on
    stderr, and no output file."""

    @pytest.mark.parametrize("argv,error,message", [
        ("ode solve --degree -5 --out o.json --samples-csv o.csv", "OdeError", "degree must be >= 0"),
        ("ode predict --k 1 --out o.json", "CliValidationError", "needs --p1, --p2, --p "),
        ("ode predict --k 1 --p1 2 --p2 4 --out o.json", "CliValidationError", "needs --p "),
        ("ode exponents --k 1 --p1 2 --out o.json", "CliValidationError", "needs --p2 "),
        ("profile --scaffold {scaffold} --samples-per-branch 0 --out p.csv", "NumericsError", "per_branch"),
        ("profile --scaffold {scaffold} --samples-per-branch -2 --out p.csv", "NumericsError", "per_branch"),
        ("riesz --scaffold {scaffold} --ceiling 0 --out c.jsonl --summary-out s.json",
         "PartitionError", "ceiling must be >= 1"),
        ("riesz --scaffold {scaffold} --ceiling -3 --out c.jsonl --summary-out s.json",
         "PartitionError", "ceiling must be >= 1"),
        ("ode predict --k 0 --p1 2 --p2 3 --p 3 --out o.json", "OdeError", "need k >= 1, got k=0"),
        ("ode predict --k -1 --p1 2 --p2 3 --p 3 --out o.json", "OdeError", "need k >= 1, got k=-1"),
        ("logderiv certificate --eps -5 --out cert.json", "NumericsError", "need eps > 0, got -5"),
        ("logderiv certificate --eps 0 --out cert.json", "NumericsError", "need eps > 0, got 0"),
        ("series reference --variant doubling --lambda 1 --sigma 2 --out ser.json --trace tr.csv "
         "--trace-k-hi 5 --trace-k-lo 9", "CliValidationError", "--trace-k-hi 5 is below --trace-k-lo 9"),
        ("series reference --variant power-law --sigma 2 --terms 0 --out ser.json",
         "SeriesError", "terms must be >= 1, got 0"),
        ("series reference --variant power-law --sigma 2 --terms -3 --out ser.json",
         "SeriesError", "terms must be >= 1, got -3"),
        ("series reference --variant doubling --lambda 1 --sigma 2 --terms 0 --out ser.json",
         "SeriesError", "terms must be >= 1, got 0"),
        ("series reference --variant power-law --sigma 2 --delta 0.1 --out ser.json",
         "SeriesError", "the power-law ladder takes no delta"),
        ("ode solve --degree 50 --audit-p1 3 --out o.json", "CliValidationError", "ode solve needs --audit-p2 "),
        ("ode solve --degree 50 --audit-p2 3 --out o.json", "CliValidationError", "ode solve needs --audit-p1 "),
        ("ode solve --degree 50 --audit-p1 3 --audit-p2 0 --out o.json", "OdeError", "need 0 < p1 <= p2"),
        ("scaffold --p1 2 --p2 3 --eta-offset 0 --out s.json", "ConstructionError", "need eta_offset >= 1"),
        ("scaffold --p1 3 --p2 3 --out s.json", "ConstructionError", "need 0 < p1 < p2 <= p"),
        ("logderiv certificate --power -1 --out c.json", "NumericsError", "need a finite power p > 0, got power -1.0"),
        ("logderiv certificate --power 0 --out c.json", "NumericsError", "need a finite power p > 0, got power 0.0"),
    ])
    def test_one_json_error(self, small_scaffold_file, tmp_path, monkeypatch, capsys, argv, error, message):
        monkeypatch.chdir(tmp_path)
        assert run(*argv.format(scaffold=small_scaffold_file).split()) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == error
        assert message in err["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("action", ["windows", "certificate"])
    @pytest.mark.parametrize("value", ["2,x", ",", "", "2,,4"])
    def test_bad_g_n(self, tmp_path, monkeypatch, capsys, action, value):
        monkeypatch.chdir(tmp_path)
        assert run("logderiv", action, "--g-n", value, "--out", "w.json") == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "argument --g-n" in errors[0]
        assert list(tmp_path.iterdir()) == []

    def test_bad_g_n_in_a_config(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "run.ini").write_text("[logderiv]\ng-n = 2,x\n")
        monkeypatch.chdir(tmp_path)
        assert run("--config", "run.ini", "logderiv", "windows", "--out", "w.json") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CliValidationError" and "g-n" in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]

    def test_g_n_from_a_config(self, tmp_path, monkeypatch):
        (tmp_path / "run.ini").write_text("[logderiv]\ng-n = 6,9,12\n")
        monkeypatch.chdir(tmp_path)
        assert run("--config", "run.ini", "logderiv", "certificate", "--out", "c.json") == 0
        assert run("logderiv", "certificate", "--g-n", "6,9,12", "--out", "d.json") == 0
        assert (tmp_path / "c.json").read_bytes() == (tmp_path / "d.json").read_bytes()


def test_numerical_failures_share_one_base():
    from discgrowth import ode as O
    from discgrowth import numerics as N
    from discgrowth import scaffold as S
    from discgrowth.cli import _is_validation

    for cls in (N.BracketError, N.RootConvergenceError, N.QuadratureError, N.SeriesCapError,
                O.OdeOverflowError, S.RetriesExhaustedError):
        assert issubclass(cls, N.NumericalFailure)
    assert not _is_validation(N.SeriesCapError("log_r_from_g"))
    assert not _is_validation(S.RetriesExhaustedError("radius ordering violated"))
    assert _is_validation(S.ConstructionError("|eps_n| >= (p2-p1)/2"))
    assert _is_validation(N.NumericsError("g < 0"))
