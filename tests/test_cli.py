"""Command-line interface: subcommands, config handling, error surfacing."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtest import Dataset, generate_dataset, save_csv
from covtest.cli import main


@pytest.fixture
def null_csv(tmp_path):
    path = tmp_path / "null.csv"
    save_csv(generate_dataset(60, 0.25, 0, seed=(11, 0)), path)
    return path


@pytest.fixture
def curved_csv(tmp_path):
    path = tmp_path / "curved.csv"
    save_csv(generate_dataset(80, 0.25, 4, seed=(12, 0)), path)
    return path


def run(args):
    return main([str(a) for a in args])


class TestTestCommand:
    def test_score_on_null_data(self, null_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["test", "--input", null_csv, "--method", "score", "--out", out]) == 0
        record = json.loads((out / "result_score.json").read_text())
        assert record["p_value"] > 0.05
        assert record["method"] == "score"
        assert any("method = score" in line for line in record["effective_config"])
        assert "statistic" in capsys.readouterr().out

    def test_score_detects_departure(self, curved_csv, tmp_path):
        out = tmp_path / "out"
        assert run(["test", "--input", curved_csv, "--method", "score", "--out", out]) == 0
        record = json.loads((out / "result_score.json").read_text())
        assert record["p_value"] < 0.01
        assert record["reject_at_level"] is True

    @pytest.mark.parametrize("args", [
        ["--method", "rlrt"], ["--method", "lrt", "--degree", 2, "--h", 1],
        ["--method", "score"], ["--method", "score", "--kernel", "penalized"],
        ["--method", "cusum"], ["--method", "score", "--cluster-col", "cluster"],
        ["--method", "cusum", "--cluster-col", "cluster"],
    ])
    def test_design_is_factored_once(self, tmp_path, monkeypatch, args):
        """build_design's checked QR of X serves every later step of a call:
        the spectral decomposition, the observed statistic and the null fits."""
        import importlib
        import pkgutil

        import covtest
        from covtest import spline_basis

        factored = []
        real = spline_basis.stacked_qr

        def counted(X):
            factored.append(X.shape)
            return real(X)

        for info in pkgutil.iter_modules(covtest.__path__):
            module = importlib.import_module(f"covtest.{info.name}")
            if getattr(module, "stacked_qr", None) is real:
                monkeypatch.setattr(module, "stacked_qr", counted)
        ds = generate_dataset(40, 0.25, 2, seed=(16, 0))
        save_csv(Dataset(y=ds.y, S=ds.S, t=ds.t, cluster=np.arange(40) % 8), tmp_path / "in.csv")
        assert run(["test", "--input", tmp_path / "in.csv", "--knots", 8, "--nsims", 200,
                    "--resamples", 50, "--out", tmp_path / "o", *args]) == 0
        assert len(factored) == 1

    def test_rlrt_outputs_byte_identical(self, null_csv, tmp_path):
        out = tmp_path / "a"
        args = ["test", "--input", null_csv, "--method", "rlrt", "--degree", 1,
                "--h", 0, "--nsims", 1000, "--seed", 7, "--out", out]
        assert run(args) == 0
        first = (out / "result_rlrt.json").read_bytes()
        assert run(args) == 0
        assert (out / "result_rlrt.json").read_bytes() == first

    def test_lrt_with_dropped_coefficient(self, curved_csv, tmp_path):
        out = tmp_path / "out"
        code = run(["test", "--input", curved_csv, "--method", "lrt", "--degree", 2,
                    "--h", 1, "--nsims", 1500, "--seed", 3, "--knots", 12, "--out", out])
        assert code == 0
        record = json.loads((out / "result_lrt.json").read_text())
        assert record["p_value"] < 0.05

    def test_cusum_with_process_csv(self, null_csv, tmp_path):
        out = tmp_path / "out"
        code = run(["test", "--input", null_csv, "--method", "cusum", "--resamples", 200,
                    "--seed", 5, "--emit-processes", 3, "--out", out])
        assert code == 0
        lines = (out / "cusum_process_t.csv").read_text().strip().splitlines()
        assert lines[0] == "point,observed,resample_1,resample_2,resample_3"
        assert len(lines) == 1 + 60
        table = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
        assert table.shape == (60, 5)

    def test_truncated_cache_entry_is_rebuilt(self, null_csv, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["test", "--input", null_csv, "--method", "rlrt", "--nsims", 500,
                "--seed", 4, "--out", out]
        assert run(args) == 0
        first = (out / "result_rlrt.json").read_bytes()
        (entry,) = (out / "null_cache").glob("null_*.npz")
        entry.write_bytes(entry.read_bytes()[:100])
        with pytest.warns(UserWarning, match="unreadable null cache entry"):
            assert run(args) == 0
        assert (out / "result_rlrt.json").read_bytes() == first
        assert "Traceback" not in capsys.readouterr().err

    def test_grid_override_changes_provenance(self, null_csv, tmp_path):
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        base = ["test", "--input", null_csv, "--method", "rlrt", "--nsims", 400, "--seed", 2]
        assert run(base + ["--out", out1]) == 0
        assert run(base + ["--grid-points", 50, "--grid-span", "1e-4,1e6", "--out", out2]) == 0
        rec1 = json.loads((out1 / "result_rlrt.json").read_text())
        rec2 = json.loads((out2 / "result_rlrt.json").read_text())
        assert rec1["null_provenance"]["n_grid"] == 201
        assert rec2["null_provenance"]["n_grid"] == 51
        assert rec1["null_provenance"]["grid_sha"] != rec2["null_provenance"]["grid_sha"]

    def test_rescale_t_flag(self, tmp_path):
        ds = generate_dataset(40, 0.25, 0, seed=(13, 0))
        from covtest import Dataset
        wide = Dataset(y=ds.y, S=ds.S, t=10.0 + 5.0 * ds.t)
        path = tmp_path / "wide.csv"
        save_csv(wide, path)
        out = tmp_path / "out"
        assert run(["test", "--input", path, "--method", "score", "--rescale-t", "--out", out]) == 0


class TestErrorSurfacing:
    def test_missing_column_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("resp,t\n1.0,0.5\n2.0,0.7\n")
        assert run(["test", "--input", path, "--method", "score", "--out", tmp_path]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_bad_cell_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,t\n1.0,0.5\nfish,0.7\n")
        assert run(["test", "--input", path, "--method", "score", "--out", tmp_path]) == 1
        assert "data error:" in capsys.readouterr().err

    def test_missing_input_flag(self, tmp_path, capsys):
        assert run(["test", "--method", "score", "--out", tmp_path]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_degenerate_design_is_model_error(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rows = "\n".join(f"{v},2.0" for v in (1.0, 2.0, 3.0, 4.0))
        path.write_text(f"y,t\n{rows}\n")
        assert run(["test", "--input", path, "--method", "rlrt", "--knots", 1,
                    "--out", tmp_path]) == 1
        assert "error:" in capsys.readouterr().err


class TestFileSystemFaults:
    """A file that cannot be read, or a directory that cannot be made, ends
    in one '<category> error:' line and exit code 1, not a traceback."""

    @pytest.mark.parametrize("fault", ["directory", "not UTF-8"])
    def test_unreadable_input_is_data_error(self, tmp_path, fault):
        path = tmp_path / "in.csv"
        if fault == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"y,t\n\xff\xfe,0.5\n")
        code, err = outcome(["test", "--input", path, "--method", "score", "--out", tmp_path / "out"])
        assert code == 1
        assert err.startswith(f"data error: cannot read {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["test", "--method", "score"],
        ["simulate", "--m", 20, "--c", 0, "--runs", 1, "--tests", "score", "--knots", 5],
        ["null-sim", "--method", "rlrt", "--knots", 5, "--nsims", 50],
    ], ids=lambda argv: argv[0])
    def test_out_naming_a_file_is_config_error(self, null_csv, tmp_path, monkeypatch, command):
        monkeypatch.delenv("COVTEST_CACHE_DIR", raising=False)
        taken = tmp_path / "taken"
        taken.write_text("")
        inputs = [] if command[0] == "simulate" else ["--input", null_csv]
        code, err = outcome(command + inputs + ["--out", taken])
        assert code == 1
        assert err.startswith("config error: cannot write to the output or null-cache directory: ")
        assert str(taken) in err and err.count("\n") == 1

    def test_cache_dir_below_a_file_is_config_error(self, null_csv, tmp_path, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("")
        monkeypatch.setenv("COVTEST_CACHE_DIR", str(taken / "cache"))
        code, err = outcome(["test", "--input", null_csv, "--method", "rlrt", "--knots", 5,
                             "--nsims", 50, "--out", tmp_path / "out"])
        assert code == 1
        assert err.startswith("config error: cannot write to the output or null-cache directory: ")
        assert str(taken / "cache") in err and err.count("\n") == 1

    def test_negative_emit_processes_names_the_flag(self, null_csv, tmp_path):
        code, err = outcome(["test", "--input", null_csv, "--method", "cusum", "--resamples", 20,
                             "--emit-processes", -1, "--out", tmp_path])
        assert (code, err) == (1, "config error: --emit-processes must be >= 0 (0 writes none), got -1\n")


class TestRejectedInputs:
    @pytest.mark.parametrize("command", ["test", "null-sim"])
    @pytest.mark.parametrize("method", ["lrt", "rlrt"])
    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_zero_knots_is_config_error(self, tmp_path, capsys, command, method, rank_deficient):
        """Zero knots is one config error, also where X = [S | 1, t] is rank
        deficient (a covariate equal to 2t) and the design check would fail."""
        ds = generate_dataset(30, 0.25, 0, seed=(15, 0))
        S = np.column_stack([ds.S[:, 0], 2.0 * ds.t]) if rank_deficient else ds.S
        save_csv(Dataset(y=ds.y, S=S, t=ds.t), tmp_path / "in.csv")
        code = run([command, "--input", tmp_path / "in.csv", "--method", method, "--knots", 0,
                    "--nsims", 200, "--out", tmp_path / "o"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "config error: spectral decomposition needs at least one knot\n"

    @pytest.fixture
    def clustered_csv(self, tmp_path):
        ds = generate_dataset(40, 0.25, 0, seed=(14, 0))
        from covtest import Dataset

        path = tmp_path / "clustered.csv"
        save_csv(Dataset(y=ds.y, S=ds.S, t=ds.t, cluster=np.arange(40) % 8), path)
        return path

    @pytest.mark.parametrize("method", ["lrt", "rlrt"])
    def test_lrt_refuses_clusters(self, clustered_csv, tmp_path, capsys, method):
        code = run(["test", "--input", clustered_csv, "--method", method,
                    "--cluster-col", "cluster", "--nsims", 200, "--out", tmp_path / "o"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "independent data only" in err and "score or cusum" in err
        assert not (tmp_path / "o" / f"result_{method}.json").exists()

    def test_null_sim_refuses_clusters(self, clustered_csv, tmp_path, capsys):
        code = run(["null-sim", "--input", clustered_csv, "--method", "rlrt",
                    "--cluster-col", "cluster", "--nsims", 200, "--out", tmp_path / "o"])
        assert code == 1
        assert "independent data only" in capsys.readouterr().err

    def test_score_and_cusum_accept_clusters(self, clustered_csv, tmp_path):
        for method in ("score", "cusum"):
            assert run(["test", "--input", clustered_csv, "--method", method, "--resamples", 100,
                        "--cluster-col", "cluster", "--out", tmp_path / "o"]) == 0

    @pytest.mark.parametrize("points", [0, -3])
    def test_grid_without_points(self, null_csv, tmp_path, capsys, points):
        code = run(["test", "--input", null_csv, "--method", "rlrt", "--nsims", 200,
                    "--grid-points", points, "--out", tmp_path])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: the lambda grid needs")

    @pytest.mark.parametrize("span", ["5", "a,b", "1e8,1e-6", "1,2,3", "0,1e3", "1e-6,inf"])
    def test_malformed_grid_span(self, null_csv, tmp_path, capsys, span):
        code = run(["test", "--input", null_csv, "--method", "rlrt", "--nsims", 200,
                    "--grid-span", span, "--out", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: --grid-span")
        assert "Traceback" not in err


class TestConfigFile:
    def test_flags_override_config(self, null_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = score\nseed = 3\n# comment line\nknots = 10\n")
        out = tmp_path / "out"
        code = run(["test", "--input", null_csv, "--config", cfg, "--method", "rlrt",
                    "--nsims", 500, "--out", out])
        assert code == 0
        record = json.loads((out / "result_rlrt.json").read_text())
        assert record["method"] == "rlrt"
        assert any("seed = 3" in line for line in record["effective_config"])
        assert any("knots = 10" in line for line in record["effective_config"])

    def test_unknown_key_rejected(self, null_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wavelets = yes\n")
        assert run(["test", "--input", null_csv, "--config", cfg, "--out", tmp_path]) == 1
        assert "config error:" in capsys.readouterr().err


class TestSimulateCommand:
    def test_minimal_study(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run(["simulate", "--m", 30, "--sigma", "0.25", "--c", "0,3", "--runs", 2,
                    "--tests", "score,rlrt", "--levels", "0.05,0.1", "--nsims", 400,
                    "--knots", 8, "--seed", 2, "--out", out])
        assert code == 0
        csv_lines = (out / "report.csv").read_text().strip().splitlines()
        assert csv_lines[0].startswith("test,m,sigma")
        for line in csv_lines[1:]:
            frac = float(line.split(",")[8])
            assert 0.0 <= frac <= 1.0
        assert (out / "report.txt").exists()
        assert "n_runs = 2" in (out / "effective_config.txt").read_text()

    def test_fractional_departure_levels(self, tmp_path):
        out = tmp_path / "sim"
        code = run(["simulate", "--m", 30, "--sigma", "0.25", "--c", "0,0.5", "--runs", 2,
                    "--tests", "score", "--levels", "0.05", "--seed", 2, "--out", out])
        assert code == 0
        rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()[1:]]
        assert [row[3] for row in rows] == ["0", "0.5"]
        assert "c=0.5" in (out / "report.txt").read_text()
        rendered = tmp_path / "rendered"
        assert run(["report", "--input", out / "report.csv", "--out", rendered]) == 0
        assert (rendered / "report.txt").read_text() == (out / "report.txt").read_text()

    def test_warm_cache_identical_and_faster(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        cache = tmp_path / "cache"
        args = ["simulate", "--m", 40, "--sigma", "0.25", "--c", "0", "--runs", 2,
                "--tests", "rlrt", "--nsims", 60000, "--knots", 10, "--seed", 4]
        import os
        os.environ["COVTEST_CACHE_DIR"] = str(cache)
        try:
            t0 = time.perf_counter()
            assert run(args + ["--out", out1]) == 0
            cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            assert run(args + ["--out", out2]) == 0
            warm = time.perf_counter() - t0
        finally:
            del os.environ["COVTEST_CACHE_DIR"]
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert warm < cold
        assert list(cache.glob("null_*.npz"))


    @pytest.mark.parametrize("flags", [
        ["--tests", "cusum", "--resamples", "0"],
        ["--sigma", "nan"],
        ["--sigma", "inf"],
        ["--c", "nan"],
    ], ids=["no-resamples", "sigma-nan", "sigma-inf", "c-nan"])
    def test_invalid_study_value_is_config_error(self, tmp_path, capsys, flags):
        args = ["simulate", "--m", 30, "--sigma", "0.25", "--c", "0", "--runs", 3,
                "--tests", "score", "--out", tmp_path / "sim"]
        assert run(args + flags) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("flags, axis", [
        (["--m", "30,30"], "m_values"),
        (["--sigma", "0.25,0.5,0.25"], "sigma_values"),
        (["--c", "0,0.0"], "c_values"),
        (["--levels", "0.05,0.05"], "levels"),
        (["--tests", "score,score"], "tests"),
    ], ids=["m", "sigma", "c", "levels", "tests"])
    def test_repeated_axis_value_is_config_error(self, tmp_path, capsys, flags, axis):
        """A repeated value would run its slice twice and write duplicate
        report rows, which ``covtest report`` renders as another table."""
        args = ["simulate", "--m", 30, "--sigma", "0.25", "--c", "0", "--runs", 3,
                "--tests", "score", "--out", tmp_path / "sim"]
        assert run(args + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {axis} lists a value more than once")
        assert err.count("\n") == 1
        assert not (tmp_path / "sim").exists()


class TestNullSimCommand:
    def test_writes_cache_and_summary(self, null_csv, tmp_path, monkeypatch):
        cache = tmp_path / "cachedir"
        monkeypatch.setenv("COVTEST_CACHE_DIR", str(cache))
        out = tmp_path / "out"
        code = run(["null-sim", "--input", null_csv, "--method", "rlrt", "--degree", 1,
                    "--knots", 10, "--nsims", 800, "--seed", 3, "--out", out])
        assert code == 0
        summary = json.loads((out / "null_summary_rlrt.json").read_text())
        assert summary["n_sims"] == 800
        assert 0.4 < summary["zero_mass_fraction"] < 0.9
        assert summary["quantiles"]["q95"] >= summary["quantiles"]["q90"]
        assert list(cache.glob("null_*.npz"))


class TestReportCommand:
    def test_round_trip_render(self, tmp_path, capsys):
        out = tmp_path / "sim"
        run(["simulate", "--m", 30, "--sigma", "0.25", "--c", "0", "--runs", 2,
             "--tests", "score", "--nsims", 300, "--knots", 8, "--seed", 2, "--out", out])
        capsys.readouterr()
        rep_out = tmp_path / "rendered"
        assert run(["report", "--input", out / "report.csv", "--out", rep_out]) == 0
        text = (rep_out / "report.txt").read_text()
        assert "m = 30" in text and "score" in text
        assert text == (out / "report.txt").read_text()

    @pytest.mark.parametrize(
        "body", ["", "score,30,0.25,0,0.05,2,0\n", "score,x,0.25,0,0.05,2,0,1,0.5,0.3\n"]
    )
    def test_rejects_malformed_rows(self, tmp_path, capsys, body):
        bad = tmp_path / "r.csv"
        bad.write_text("test,m,sigma,c,level,n_runs,failures,rejections,fraction,se\n" + body)
        assert run(["report", "--input", bad, "--out", tmp_path]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_rejects_foreign_csv(self, tmp_path, capsys):
        bad = tmp_path / "x.csv"
        bad.write_text("a,b\n1,2\n")
        assert run(["report", "--input", bad, "--out", tmp_path]) == 1
        assert "config error" in capsys.readouterr().err


def src_env():
    """The environment with this package's ``src`` first on the child's PYTHONPATH."""
    import covtest

    src = str(Path(covtest.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "covtest.cli", "--version"],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 0
        assert "covtest" in proc.stdout


class TestExampleDataScript:
    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_example_data.py"

    def make(self, out, *flags):
        return subprocess.run([sys.executable, str(self.SCRIPT), "--m", "30", "--seed", "3",
                               "--out", str(out), *flags], capture_output=True, text=True,
                              env=src_env(), timeout=120)

    def test_integer_departures_keep_their_bytes(self, tmp_path):
        """The files the script wrote before --c was parsed by argparse, pinned by sha256."""
        proc = self.make(tmp_path, "--c", "0,2")
        assert proc.returncode == 0, proc.stderr
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.glob("*.csv")}
        assert digests == {
            "pl_m30_sigma0.25_c0.csv": "0b8eb28aedd2159562cf2e9fff5cc45ebd205f9a7cc9553d27b2e9d5155ff442",
            "pl_m30_sigma0.25_c2.csv": "3b94a8f8b763bf8190987713762618dd7282cffac6aa2818404f01e3086f4f56",
        }

    def test_fractional_departure_is_a_usage_error(self, tmp_path):
        proc = self.make(tmp_path / "out", "--c", "0,0.5")
        assert proc.returncode == 2
        assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
        assert "expected comma-separated integers, got '0,0.5'" in proc.stderr
        assert not (tmp_path / "out").exists()


def outcome(argv):
    """(exit code, stderr) of one in-process CLI call; SystemExit counts as an exit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestParseErrors:
    @pytest.mark.parametrize("line", [
        "method = bogus", "kernel = bogus", "ordering = bogus", "degree = abc",
        "threads = 2", "rescale_t = maybe", "no equals sign",
    ])
    def test_bad_config_line(self, null_csv, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, err = outcome(["test", "--input", null_csv, "--config", cfg, "--out", tmp_path / "o"])
        assert code == 1
        assert err.startswith(f"config error: {cfg}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["test", "--config", "missing.cfg"],
        ["simulate", "--c", "a"],
        ["simulate", "--m", "50,1.5"],
        ["test", "--threads", "2"],
        ["test", "--method", "bogus"],
        ["frobnicate"],
        [],
        ["report", "--input", "missing.csv"],
        ["test", "--method", "score", "--level", "7"],
        ["test", "--method", "rlrt", "--level", "0"],
        ["test", "--level", "nan"],
        ["simulate", "--levels", "2"],
        ["simulate", "--levels", "0.05,1"],
    ])
    def test_bad_argv(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, err = outcome(argv)
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["test", "--help"], ["--version"]])
    def test_help_and_version_exit_zero(self, argv):
        assert outcome(argv)[0] == 0

    def test_console_script_reports_config_error(self, null_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "covtest.cli", "test", "--input", str(null_csv),
             "--threads", "2"],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error:") and "Traceback" not in proc.stderr

    def test_inapplicable_key_named(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("runs = 2\ninput = data.csv\n")
        code, err = outcome(["simulate", "--config", cfg, "--out", tmp_path])
        assert code == 1
        assert "unknown config key 'input'" in err and ":2:" in err


class TestConfigParity:
    def test_config_equals_flags(self, null_csv, tmp_path):
        out = tmp_path / "out"
        flags = ["--method", "rlrt", "--degree", "1", "--knots", "12", "--nsims", "600",
                 "--seed", "9", "--grid-points", "80", "--grid-span", "1e-5,1e7", "--rescale-t"]
        assert run(["test", "--input", null_csv, "--out", out] + flags) == 0
        by_flags = (out / "result_rlrt.json").read_bytes()
        (out / "result_rlrt.json").unlink()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "method = rlrt\ndegree = 1\nknots=12\nnsims = 600\nseed = 9  # trailing comment\n"
            "grid_points = 80\ngrid-span = 1e-5,1e7\nrescale_t = yes\n"
        )
        assert run(["test", "--input", null_csv, "--out", out, "--config", cfg]) == 0
        assert (out / "result_rlrt.json").read_bytes() == by_flags

    def test_list_options_from_config(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("m = 30\nsigma = 0.25\nc = 0,0.5\nlevels = 0.05\ntests = score\nruns = 2\n")
        assert run(["simulate", "--config", cfg, "--c", "0", "--out", tmp_path / "s"]) == 0
        rows = (tmp_path / "s" / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["0"]


class TestLazyScipy:
    def test_cli_import_leaves_scipy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import covtest.cli, sys; assert 'scipy' not in sys.modules"],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr

    def test_score_run_loads_no_scipy(self, null_csv, tmp_path):
        code = (
            "import sys; from covtest.cli import main; "
            f"assert main(['test', '--input', {str(null_csv)!r}, '--method', 'score', "
            f"'--out', {str(tmp_path)!r}]) == 0; "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "assert not loaded, loaded"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "result_score.json").exists()


def loaded_modules(code):
    """covtest modules, and concurrent.futures if present, after ``code`` runs
    in a fresh interpreter."""
    probe = (
        f"{code}\nimport sys\n"
        "print(' '.join(m for m in sys.modules"
        " if m.split('.')[0] == 'covtest' or m == 'concurrent.futures'))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split("\n")[-2].split())


class TestModulesPerCommand:
    """A command imports only the covtest modules it runs, and no thread pool."""

    def test_cli_import(self):
        assert loaded_modules("import covtest.cli") == {"covtest", "covtest.cli", "covtest.errors"}

    @pytest.mark.parametrize("method, modules", [
        ("score", "data_io errors null_fit score_test spline_basis"),
        ("rlrt", "data_io errors exact_lrt rng spline_basis"),
        ("cusum", "cusum_test data_io errors null_fit rng spline_basis"),
    ])
    def test_test_command(self, null_csv, tmp_path, method, modules):
        code = (
            "from covtest.cli import main\n"
            f"assert main(['test', '--input', {str(null_csv)!r}, '--method', {method!r}, "
            f"'--nsims', '200', '--resamples', '50', '--out', {str(tmp_path)!r}]) == 0"
        )
        expected = {"covtest", "covtest.cli"} | {f"covtest.{m}" for m in modules.split()}
        assert loaded_modules(code) == expected
        assert (tmp_path / f"result_{method}.json").exists()


class TestCusumDraws:
    """The multiplier draws are part of the result: a rewrite of the resampler
    must keep every p-value. These counts come from the earlier resampler,
    which mapped each draw in unsorted row order."""

    @pytest.mark.parametrize(
        "clustered, seed, ordering, count",
        [(False, 5, "t", 775), (True, 6, "fitted", 1009)],
    )
    def test_p_value_pinned(self, tmp_path, clustered, seed, ordering, count):
        ds = generate_dataset(120, 0.5, 1, seed=(22 if clustered else 21, 0))
        extra = []
        if clustered:
            label = np.arange(120) % 15
            y = ds.y + np.random.default_rng(22).normal(0, 0.5, 15)[label]
            ds = Dataset(y=y, S=ds.S, t=ds.t, cluster=label)
            extra = ["--cluster-col", "cluster"]
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        out = tmp_path / "out"
        assert run(["test", "--input", path, "--method", "cusum", "--resamples", 2000,
                    "--seed", seed, "--ordering", ordering, "--out", out, *extra]) == 0
        record = json.loads((out / "result_cusum.json").read_text())
        assert record["p_value"] == (1 + count) / 2001


class TestCusumKnots:
    def test_few_distinct_t(self, tmp_path):
        """Cusum places no knots, so 8 distinct t values (fewer than the default
        20 knots need) are enough."""
        rng = np.random.default_rng(3)
        t = np.repeat(np.linspace(0.0, 1.0, 8), 5)
        S = rng.normal(size=(40, 1))
        path = tmp_path / "few.csv"
        save_csv(Dataset(y=S[:, 0] + t + 0.2 * rng.normal(size=40), S=S, t=t), path)
        out = tmp_path / "out"
        assert run(["test", "--input", path, "--method", "cusum", "--resamples", 200,
                    "--out", out]) == 0
        record = json.loads((out / "result_cusum.json").read_text())
        assert 0.0 < record["p_value"] <= 1.0
        assert not any(line.startswith("knots") for line in record["effective_config"])

    def test_echo_lists_only_options_the_method_reads(self, null_csv, tmp_path):
        def echoed(method):
            out = tmp_path / method
            assert run(["test", "--input", null_csv, "--method", method, "--nsims", 300,
                        "--resamples", 100, "--out", out]) == 0
            record = json.loads((out / f"result_{method}.json").read_text())
            return {line.split(" = ")[0] for line in record["effective_config"]}

        cusum = echoed("cusum")
        assert not cusum & {"kernel", "nsims", "h", "knots"}
        assert {"resamples", "seed", "ordering"} <= cusum
        rlrt = echoed("rlrt")
        assert {"nsims", "knots", "seed", "grid-points", "grid-span"} <= rlrt
        assert not rlrt & {"kernel", "resamples", "ordering", "config"}

    @pytest.mark.parametrize("kernel,echoed", [("natural", False), ("penalized", True)])
    def test_score_echoes_knots_only_when_placed(self, null_csv, tmp_path, kernel, echoed):
        out = tmp_path / "out"
        assert run(["test", "--input", null_csv, "--method", "score", "--kernel", kernel,
                    "--knots", 12, "--out", out]) == 0
        record = json.loads((out / "result_score.json").read_text())
        knots = [line for line in record["effective_config"] if line.startswith("knots")]
        assert knots == (["knots = 12"] if echoed else [])


# Every option each subcommand takes, written out independently of cli.py.
TAKES = {
    "test": {"input", "method", "degree", "h", "knots", "kernel", "nsims", "resamples", "seed",
             "level", "out", "config", "rescale-t", "y-col", "t-col", "s-cols", "cluster-col",
             "ordering", "emit-processes", "grid-points", "grid-span"},
    "simulate": {"m", "sigma", "c", "levels", "tests", "runs", "knots", "nsims", "resamples",
                 "seed", "out", "threads", "config"},
    "null-sim": {"input", "method", "degree", "h", "knots", "nsims", "seed", "out", "config",
                 "rescale-t", "y-col", "t-col", "s-cols", "cluster-col", "grid-points",
                 "grid-span"},
    "report": {"input", "out", "config"},
}
ALL_OPTIONS = set().union(*TAKES.values())
NUMBERS = {"degree", "h", "knots", "nsims", "resamples", "seed", "level", "threads",
           "emit-processes", "grid-points", "runs"}
CHOICES = {"method": ("lrt", "rlrt", "score", "cusum"), "kernel": ("natural", "penalized"),
           "ordering": ("t", "fitted")}
LISTS = {"m": ["1", "20"], "sigma": ["0.5", "1"], "c": ["0", "0.5"], "levels": ["0.05"]}
SWITCH_WORDS = {"true", "yes", "on", "1", "false", "no", "off", "0"}
# No digits and none of the letters of "inf" or "nan": never parses as a number.
NOT_A_NUMBER = st.text(alphabet="bcdeghjkmopqrsuvwxz.,_+- ", min_size=1, max_size=6)
WORD = st.from_regex(r"[a-z][a-z_-]{1,10}", fullmatch=True)


def is_prefix_of_any(word, options):
    """argparse expands an unambiguous prefix of a long flag, so such words are not unknown."""
    return any(option.startswith(word) for option in options)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_csv(generate_dataset(30, 0.25, 0, seed=(15, 0)), root / "d.csv")
    (root / "report.csv").write_text(
        "test,m,sigma,c,level,n_runs,failures,rejections,fraction,se\n"
        "score,30,0.25,0,0.05,2,0,1,0.500000,0.353553\n"
    )
    return root


def base_argv(command, root):
    """A complete, valid and cheap call of each subcommand."""
    return {
        "test": ["test", "--input", root / "d.csv", "--method", "score"],
        "simulate": ["simulate", "--m", "20", "--sigma", "0.25", "--c", "0", "--runs", "1",
                     "--tests", "score", "--levels", "0.05", "--knots", "5"],
        "null-sim": ["null-sim", "--input", root / "d.csv", "--nsims", "50", "--knots", "5"],
        "report": ["report", "--input", root / "report.csv"],
    }[command] + ["--out", root / "out"]


@st.composite
def bad_value(draw, command):
    """(option, value): an option the subcommand takes, with a value it must reject."""
    name = draw(st.sampled_from(sorted(TAKES[command] & (NUMBERS | set(CHOICES) | set(LISTS)))))
    if name in CHOICES:
        return name, draw(WORD.filter(lambda w: w not in CHOICES[name]))
    if name in LISTS:
        good = draw(st.lists(st.sampled_from(LISTS[name]), max_size=2))
        bad = draw(st.one_of(NOT_A_NUMBER, st.just(""), st.just("2.5" if name == "m" else "")))
        return name, ",".join(good + [bad])
    return name, draw(NOT_A_NUMBER)


def abbreviations(command):
    """Proper prefixes of the subcommand's options that name no option of it."""
    return sorted({o[:k] for o in TAKES[command] for k in range(1, len(o))} - TAKES[command])


def config_line(kind, command):
    """A config-file line of the given kind of fault."""
    if kind == "unknown key":
        unknown = WORD.filter(lambda w: w.replace("_", "-") not in ALL_OPTIONS)
        return st.builds("{} = 1".format, unknown)
    if kind == "abbreviated key":
        return st.builds("{} = 1".format, st.sampled_from(abbreviations(command)))
    if kind == "foreign key":
        return st.builds("{} = 1".format, st.sampled_from(sorted(ALL_OPTIONS - TAKES[command])))
    if kind == "no equals sign":
        return st.just("a line without an equals sign")
    if kind == "bad config value":
        return bad_value(command).map(lambda pair: f"{pair[0].replace('-', '_')} = {pair[1]}")
    assert kind == "bad switch word"
    return st.builds("rescale_t = {}".format, WORD.filter(lambda w: w not in SWITCH_WORDS))


def bad_fragment(kind, command, root):
    """Argv tokens that must make an otherwise valid call fail with a config error."""
    if kind == "unknown flag":
        flags = {f"--{o}" for o in ALL_OPTIONS | {"help", "version"}}
        words = WORD.filter(lambda w: not is_prefix_of_any(f"--{w}", flags))
        return words.map(lambda w: [f"--{w}", "1"])
    if kind == "foreign flag":
        own = {f"--{o}" for o in TAKES[command] | {"help"}}
        foreign = [f"--{o}" for o in sorted(ALL_OPTIONS - TAKES[command])]
        foreign = [f for f in foreign if not is_prefix_of_any(f, own)]
        return st.sampled_from(foreign).map(lambda f: [f, "1"])
    if kind == "bad value":
        return bad_value(command).map(lambda pair: [f"--{pair[0]}", pair[1]])
    if kind == "missing config":
        return WORD.map(lambda w: ["--config", root / f"missing-{w}.cfg"])

    def written(line):
        cfg = root / "fuzz.cfg"
        cfg.write_text(line + "\n")
        return ["--config", cfg]

    return config_line(kind, command).map(written)


FAULTS = [
    (command, kind)
    for command in sorted(TAKES)
    for kind in ("unknown flag", "foreign flag", "bad value", "missing config", "unknown key",
                 "abbreviated key", "foreign key", "no equals sign", "bad config value",
                 "bad switch word")
    if not (command == "report" and kind in ("bad value", "bad config value"))
    and not (kind == "bad switch word" and "rescale-t" not in TAKES[command])
]


class TestCliFuzz:
    @pytest.mark.parametrize("command", sorted(TAKES))
    def test_base_calls_succeed(self, fuzz_dir, command):
        """So each fuzz failure below comes from the fragment it adds."""
        assert outcome(base_argv(command, fuzz_dir))[0] == 0

    @pytest.mark.parametrize("command,kind", FAULTS)
    @settings(max_examples=20)
    @given(data=st.data())
    def test_bad_input_is_one_config_error_line(self, fuzz_dir, command, kind, data):
        argv = base_argv(command, fuzz_dir)
        fragment = data.draw(bad_fragment(kind, command, fuzz_dir))
        # Insert after the subcommand name or before any flag, never between a flag and its value.
        at = data.draw(st.sampled_from(
            [i for i in range(1, len(argv) + 1) if i == len(argv) or str(argv[i]).startswith("--")]
        ))
        code, err = outcome(argv[:at] + fragment + argv[at:])
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err
