"""Command-line interface: subcommands, config handling, error surfacing."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from covtest import generate_dataset, save_csv
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


class TestRejectedInputs:
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

    def test_rejects_foreign_csv(self, tmp_path, capsys):
        bad = tmp_path / "x.csv"
        bad.write_text("a,b\n1,2\n")
        assert run(["report", "--input", bad, "--out", tmp_path]) == 1
        assert "config error" in capsys.readouterr().err


class TestEntryPoint:
    def test_console_script_runs(self):
        import covtest

        src = str(Path(covtest.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "covtest.cli", "--version"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "covtest" in proc.stdout
