"""Command-line interface: subcommands, config handling, error surfacing."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covtest import Dataset, generate_dataset, save_csv
from covtest.cli import main

import npz_faults


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


def counted_calls(monkeypatch, name, record):
    """Wrap spline_basis's function ``name`` in every covtest module that holds
    it, so that each call passes its first argument to ``record`` first."""
    import importlib
    import pkgutil

    import covtest
    from covtest import spline_basis

    real = getattr(spline_basis, name)

    def counted(first, *rest):
        record(first)
        return real(first, *rest)

    for info in pkgutil.iter_modules(covtest.__path__):
        module = importlib.import_module(f"covtest.{info.name}")
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)


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
        the spectral decomposition, the observed statistic, the null fits and,
        at rho-hat = 0, the projection, whose V^-1/2 X is X. Score and
        cusum on clustered data, where rho-hat > 0, take one more checked QR,
        of V^-1/2 X for the projection."""
        factored = []
        counted_calls(monkeypatch, "stacked_qr", lambda X: factored.append(X.copy()))
        ds = self.run_on_clustered(tmp_path, args)
        degree = args[args.index("--degree") + 1] if "--degree" in args else 1
        A = np.vander(ds.t, degree + 1, increasing=True)  # X = [S | A]; V^-1/2 X scales A
        assert [np.array_equal(stack[0, :, -A.shape[1]:], A) for stack in factored] == (
            [True, False] if "--cluster-col" in args else [True])

    @pytest.mark.parametrize("method", ["score", "cusum"])
    def test_cluster_labels_sorted_once(self, tmp_path, monkeypatch, method):
        """A clustered score or cusum call (rho-hat > 0) takes one stable
        argsort of its cluster labels: the REML fit's cluster sums, the
        projection's V^-1/2 X and every later V^-1/2 and Z'a read it."""
        labels = np.arange(40) % 8  # the file's labels, already in first-appearance order
        sorts = []
        real = np.argsort

        def counted(a, *rest, **kwargs):
            if np.shape(a) == labels.shape and np.array_equal(a, labels):
                sorts.append(kwargs.get("kind"))
            return real(a, *rest, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        self.run_on_clustered(tmp_path, ["--method", method, "--cluster-col", "cluster"])
        assert sorts == ["stable"]

    @pytest.mark.parametrize("args", [["--method", "rlrt"], ["--method", "lrt", "--degree", 2, "--h", 1]])
    def test_one_spectrum_per_lrt_call(self, tmp_path, monkeypatch, args):
        """An LRT or RLRT call computes the design's spectrum once, for the
        null sampler and the observed statistic alike: one projected spectrum,
        whose gram B'P0B takes one eigh, and one eigvalsh of B'B."""
        spectra, solvers = [], []
        counted_calls(monkeypatch, "stacked_spectrum", spectra.append)

        def counted(name, real):
            def call(a):
                solvers.append(name)
                return real(a)
            return call

        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        self.run_on_clustered(tmp_path, args)
        assert len(spectra) == 1
        assert sorted(solvers) == ["eigh", "eigvalsh"]

    @staticmethod
    def run_on_clustered(tmp_path, args):
        """Run ``covtest test`` with ``args`` on a 40-row file with a cluster
        column (a covariate unless --cluster-col names it); return its data."""
        ds = generate_dataset(40, 0.25, 2, seed=(16, 0))
        save_csv(Dataset(y=ds.y, S=ds.S, t=ds.t, cluster=np.arange(40) % 8), tmp_path / "in.csv")
        assert run(["test", "--input", tmp_path / "in.csv", "--knots", 8, "--nsims", 200,
                    "--resamples", 50, "--out", tmp_path / "o", *args]) == 0
        return ds

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

    def test_warning_is_one_line(self, null_csv, tmp_path):
        """A warning reaches stderr as one ``warning:`` line, with no source
        location, naming the entry's path once: for a truncated entry, then
        for a .npy file in its place."""
        out = tmp_path / "out"
        args = ["test", "--input", null_csv, "--method", "rlrt", "--nsims", 500, "--out", out]
        assert run(args) == 0
        (path,) = (out / "null_cache").glob("null_*.npz")
        for entry, reason in [("truncated", "File is not a zip file"),
                              (".npy", "not a recognised null-distribution cache file")]:
            if entry == "truncated":
                path.write_bytes(path.read_bytes()[:100])
            else:
                with open(path, "wb") as fh:
                    np.save(fh, np.zeros(500))
            proc = subprocess.run([sys.executable, "-m", "covtest.cli", *map(str, args)],
                                  capture_output=True, text=True, env=src_env())
            assert proc.returncode == 0
            assert proc.stderr == f"warning: {path}: unreadable null cache entry ({reason}); simulating again\n"

    def test_foreign_cache_entry_is_replaced(self, null_csv, tmp_path, capsys):
        """An entry holding another seed's null under this request's name is not served."""
        out = tmp_path / "out"

        def entries_after(seed):
            before = set((out / "null_cache").glob("null_*.npz"))
            assert run(["test", "--input", null_csv, "--method", "rlrt", "--nsims", 500,
                        "--seed", seed, "--out", out]) == 0
            (entry,) = set((out / "null_cache").glob("null_*.npz")) - before
            return entry, capsys.readouterr().out

        seed1, _ = entries_after(1)
        seed2, printed = entries_after(2)
        seed2.write_bytes(seed1.read_bytes())
        with pytest.warns(UserWarning, match="unreadable null cache entry"):
            assert run(["test", "--input", null_csv, "--method", "rlrt", "--nsims", 500,
                        "--seed", 2, "--out", out]) == 0
        assert capsys.readouterr().out == printed
        assert seed2.read_bytes() != seed1.read_bytes()


    @pytest.mark.parametrize("entry", ["[1, 2]", "5", '"text"', "truncated", "foreign npz",
                                       "compression 99", "oversized header"])
    def test_unusable_cache_entry_is_one_warning(self, null_csv, tmp_path, entry):
        """An entry whose provenance is valid JSON but not an object, a
        truncated entry, another program's .npz, an entry whose compression
        method zipfile does not support and one whose samples header asks for
        10**15 values are each simulated again: exit 0, one warning line, and
        the cold run's result byte for byte."""
        out = tmp_path / "out"
        args = ["test", "--input", null_csv, "--method", "rlrt", "--nsims", 500, "--seed", 4, "--out", out]
        assert run(args) == 0
        cold = (out / "result_rlrt.json").read_bytes()
        (path,) = (out / "null_cache").glob("null_*.npz")
        if entry == "truncated":
            path.write_bytes(path.read_bytes()[:100])
        elif entry == "foreign npz":
            np.savez(path, weights=np.arange(3.0))
        elif entry == "compression 99":
            path.write_bytes(npz_faults.unsupported_compression(path.read_bytes()))
        elif entry == "oversized header":
            path.write_bytes(npz_faults.oversized_header(path.read_bytes(), 10**15))
        else:
            np.savez(path, samples=np.zeros(500), provenance=np.array(entry))
        proc = subprocess.run([sys.executable, "-m", "covtest.cli", *map(str, args)],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0
        assert proc.stderr.startswith(f"warning: {path}: unreadable null cache entry (")
        assert proc.stderr.count("\n") == 1
        assert (out / "result_rlrt.json").read_bytes() == cold

    def test_unusable_study_entries_are_one_warning_each(self, tmp_path):
        """A study reads its nulls through the same lookup: with one entry's
        compression method unsupported and another's samples header oversized,
        the rerun warns once for each and writes the cold run's report."""
        out = tmp_path / "study"
        args = ["simulate", "--m", 30, "--sigma", 0.5, "--c", "0,2", "--tests", "lrt1,rlrt", "--runs", 8,
                "--nsims", 200, "--seed", 2, "--out", out]
        assert run(args) == 0
        cold = (out / "report.csv").read_bytes()
        first, second = sorted((out / "null_cache").glob("null_*.npz"))
        first.write_bytes(npz_faults.unsupported_compression(first.read_bytes()))
        second.write_bytes(npz_faults.oversized_header(second.read_bytes(), 10**15))
        proc = subprocess.run([sys.executable, "-m", "covtest.cli", *map(str, args)],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0
        warned = sorted(line for line in proc.stderr.splitlines() if not line.startswith("runtime: "))
        assert len(warned) == 2
        assert warned[0].startswith(f"warning: {first}: unreadable null cache entry (That compression method")
        assert warned[1].startswith(f"warning: {second}: unreadable null cache entry (Unable to allocate")
        assert (out / "report.csv").read_bytes() == cold


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

    @pytest.mark.parametrize("argv,line", [
        (["simulate", "--runs", 0], "config error: n_runs must be >= 1, got 0"),
        (["simulate", "--threads", 0], "config error: threads must be >= 1, got 0"),
        (["null-sim", "--method", "score", "--input", "{null}"], "config error: null-sim applies to --method lrt or rlrt"),
        (["report"], "config error: --input is required"),
        (["test", "--method", "rlrt", "--knots", -1, "--input", "{null}"],
         "config error: number of knots must be >= 0, got -1"),
        (["test", "--method", "score", "--input", "{empty}"], "data error: {empty}: file is empty"),
        (["simulate", "--knots", 0, "--tests", "rlrt"], "config error: spectral decomposition needs at least one knot"),
        (["simulate", "--knots", 0, "--tests", "lrt2,score"],
         "config error: spectral decomposition needs at least one knot"),
    ], ids=["simulate-runs-0", "simulate-threads-0", "null-sim-score", "report-no-input", "test-knots-minus-1",
            "test-empty-input", "simulate-knots-0-rlrt", "simulate-knots-0-lrt2-score"])
    def test_refusal_is_one_line_and_no_output(self, null_csv, tmp_path, argv, line):
        """Each refusal exits 1 with its one error line and makes no --out path."""
        empty = tmp_path / "empty.csv"
        empty.write_bytes(b"")

        def fill(arg):
            return str(arg).format(null=null_csv, empty=empty)

        code, err = outcome([*map(fill, argv), "--out", tmp_path / "out"])
        assert (code, err) == (1, fill(line) + "\n")
        assert not (tmp_path / "out").exists()

    def test_empty_cluster_label_is_data_error(self, tmp_path):
        """An empty cluster cell is a missing value: the call refuses it
        rather than read it as a seventh cluster of its own."""
        ds = generate_dataset(60, 0.25, 0, seed=(14, 0))
        path = tmp_path / "clustered.csv"
        save_csv(Dataset(y=ds.y, S=ds.S, t=ds.t, cluster=np.arange(60) % 6), path)
        lines = path.read_text().splitlines()
        lines[8] = lines[8].rsplit(",", 1)[0] + ","  # data row 8 loses its label
        path.write_text("\n".join(lines) + "\n")
        code, err = outcome(["test", "--input", path, "--method", "score", "--cluster-col", "cluster",
                             "--out", tmp_path / "o"])
        assert (code, err) == (1, f"data error: {path}: empty value in column 'cluster' at data row 8\n")

    def test_cluster_label_holding_a_nul_is_data_error(self, tmp_path):
        """Labels alternating 'a' and 'a<NUL>' are refused, not read as one cluster."""
        path = tmp_path / "nul.csv"
        rows = "".join(f"{k},{k / 10},{'a' if k % 2 else 'a' + chr(0)}\n" for k in range(1, 11))
        path.write_text(f"y,t,cluster\n{rows}")
        code, err = outcome(["test", "--input", path, "--method", "score", "--cluster-col", "cluster",
                             "--out", tmp_path / "o"])
        assert (code, err) == (
            1, f"data error: {path}: unusable value 'a\\x00' in column 'cluster' at data row 2\n")
        assert not (tmp_path / "o").exists()

    def test_fault_row_counts_blank_lines(self, tmp_path):
        """Data row r is line r + 1 of the file, blank lines included, so the
        row named is the one a reader finds at that line."""
        path = tmp_path / "gaps.csv"
        path.write_text("y,t,s1\n1,0.1,2\n\n\n1,abc,2\n")
        code, err = outcome(["test", "--input", path, "--method", "score", "--out", tmp_path / "o"])
        assert (code, err) == (
            1, f"data error: {path}: non-numeric value 'abc' in column 't' at data row 4\n")

    def test_repeated_header_name_is_config_error(self, tmp_path):
        """A header that names y twice is refused, not resolved to its first
        column with the second read as a covariate."""
        path = tmp_path / "twice.csv"
        rows = "\n".join(f"{v},{v / 10},{v * v}" for v in range(1, 13))
        path.write_text(f"y,t,y\n{rows}\n")
        code, err = outcome(["test", "--input", path, "--method", "score", "--out", tmp_path / "o"])
        assert (code, err) == (1, f"config error: {path}: column 'y' appears more than once in the header\n")

    def test_degenerate_design_is_model_error(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rows = "\n".join(f"{v},2.0" for v in (1.0, 2.0, 3.0, 4.0))
        path.write_text(f"y,t\n{rows}\n")
        assert run(["test", "--input", path, "--method", "rlrt", "--knots", 1,
                    "--out", tmp_path]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["rlrt", "score", "cusum"])
    def test_overflowing_sum_of_squares_is_one_numerical_error(self, tmp_path, method):
        """y of order 1e160 overflows y'y: the call ends in one numerical error
        line naming the overflow, not a perfect-fit model error, and no
        RuntimeWarning is printed before it."""
        ds = generate_dataset(60, 0.25, 2, seed=(13, 0))
        path = tmp_path / "huge.csv"
        save_csv(Dataset(y=1e160 * ds.y, S=ds.S, t=ds.t), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = outcome(["test", "--input", path, "--method", method, "--nsims", 200,
                                 "--resamples", 50, "--out", tmp_path / "out"])
        assert code == 1 and not caught
        assert err == OVERFLOW_LINE

    @pytest.mark.parametrize("clustered", [False, True])
    @pytest.mark.parametrize("factor", [1e-160, 1e-100, 1e100])
    def test_score_out_of_range_scale_is_one_numerical_error(self, tmp_path, factor, clustered):
        """y scaled so far that the score's moments leave double range (the
        null variance scales as y^-4) ends in one numerical error line saying
        so, with no RuntimeWarning before it and no traceback."""
        ds = generate_dataset(60, 0.25, 2, seed=(13, 0))
        cluster = np.arange(60) % 6 if clustered else None
        path = tmp_path / "scaled.csv"
        save_csv(Dataset(y=factor * ds.y, S=ds.S, t=ds.t, cluster=cluster), path)
        args = ["--cluster-col", "cluster"] if clustered else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = outcome(["test", "--input", path, "--method", "score", "--out", tmp_path / "out", *args])
        assert code == 1 and not caught
        assert err == SCALE_LINE


OVERFLOW_LINE = "numerical error: sum of squares of the response overflows double precision; rescale y\n"
SCALE_LINE = ("numerical error: scale of the response is out of double-precision range for the "
              "score statistic; rescale y\n")


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

    @pytest.mark.parametrize("command", [
        ["test", "--method", "rlrt", "--knots", 5, "--nsims", 50],
        ["null-sim", "--method", "rlrt", "--knots", 5, "--nsims", 50],
        ["simulate", "--m", 30, "--c", 0, "--runs", 1, "--tests", "rlrt", "--knots", 5, "--nsims", 50],
    ], ids=lambda argv: argv[0])
    def test_out_naming_a_file_is_refused_before_sampling(self, null_csv, tmp_path, monkeypatch, command):
        """The output and null-cache directories are checked before the handler
        runs: an --out that is a file costs no null draw."""
        import covtest.exact_lrt as exact_lrt

        monkeypatch.delenv("COVTEST_CACHE_DIR", raising=False)
        sampled, real = [], exact_lrt._sample
        monkeypatch.setattr(exact_lrt, "_sample", lambda *args: sampled.append(args) or real(*args))
        taken = tmp_path / "taken"
        taken.write_text("")
        inputs = [] if command[0] == "simulate" else ["--input", null_csv]
        code, err = outcome(command + inputs + ["--out", taken])
        assert code == 1 and err.count("\n") == 1
        assert err.startswith(f"config error: cannot write to the output or null-cache directory: {taken}")
        assert sampled == []

    def test_failed_write_leaves_no_file(self, null_csv, tmp_path, monkeypatch):
        """A file is renamed into place whole: where the rename fails, neither
        the result nor its temporary file is left, and the call ends in one
        config error line."""
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", str(dst))

        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.setattr(os, "replace", refuse)
        code, err = outcome(["test", "--input", null_csv, "--method", "score", "--out", out])
        assert code == 1 and err.count("\n") == 1
        assert err.startswith("config error: cannot write to the output or null-cache directory: ")
        assert str(out / "result_score.json") in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["test", "--method", "lrt", "--knots", 0, "--out", "knots_out"],
        ["null-sim", "--method", "lrt", "--knots", 0, "--out", "nullsim_out"],
        ["test", "--method", "rlrt", "--nsims", 10**14, "--out", "big_out"],
        ["simulate", "--m", 4, "--tests", "score,cusum", "--knots", 1, "--runs", 3, "--out", "small_study"],
        ["simulate", "--m", 30, "--tests", "rlrt", "--runs", 3, "--nsims", 10**14, "--out", "bigstudy"],
    ], ids=lambda argv: argv[-1])
    def test_refused_command_leaves_no_path(self, null_csv, tmp_path, monkeypatch, argv):
        """A command refused after its flags parse, by the knots, a count past
        memory or a design too small, makes neither its --out directory nor
        the null cache below it: a directory appears only with its first file."""
        monkeypatch.delenv("COVTEST_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        inputs = [] if argv[0] == "simulate" else ["--input", null_csv]
        code, err = outcome(argv + inputs)
        assert code == 1 and err.count("\n") == 1 and " error: " in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_negative_emit_processes_names_the_flag(self, null_csv, tmp_path):
        code, err = outcome(["test", "--input", null_csv, "--method", "cusum", "--resamples", 20,
                             "--emit-processes", -1, "--out", tmp_path])
        assert (code, err) == (1, "config error: --emit-processes must be >= 0 (0 writes none), got -1\n")

    @pytest.mark.parametrize("method, flag, count", [
        ("cusum", "resamples", 10**15), ("rlrt", "nsims", 10**15),
        ("cusum", "emit-processes", 10**15), ("cusum", "emit-processes", 10**17),
    ])
    def test_count_past_memory_names_the_flag(self, null_csv, tmp_path, method, flag, count):
        """A count whose arrays no address space holds (10^15 doubles are 7 PiB;
        10^17 paths of 60 points overflow numpy's size type) is refused at once:
        one config error naming the flag, not numpy's traceback."""
        code, err = outcome(["test", "--input", null_csv, "--method", method, "--knots", 5,
                             "--resamples", 20, "--nsims", 50, f"--{flag}", count, "--out", tmp_path])
        assert code == 1 and err.count("\n") == 1
        assert err.startswith(f"config error: --{flag} {count} needs more memory than can be allocated (")

    @pytest.mark.parametrize("tests, flag", [((), "nsims"), (("--tests", "cusum"), "resamples")],
                             ids=["default-nsims", "cusum-resamples"])
    def test_study_count_past_memory_names_the_flag(self, tmp_path, tests, flag):
        """A study refuses each count at its own allocation, the fixtures' null
        simulation and a block's multiplier resampling: the same one config error."""
        count = 10**15
        code, err = outcome(["simulate", "--m", 30, "--runs", 2, *tests, f"--{flag}", count, "--out", tmp_path])
        assert code == 1 and err.count("\n") == 1
        assert err.startswith(f"config error: --{flag} {count} needs more memory than can be allocated (")


class TestRejectedInputs:
    @pytest.mark.parametrize("command", [
        ["test", "--method", "rlrt"],
        ["test", "--method", "cusum", "--resamples", 20],
        ["test", "--method", "score"],
        ["null-sim", "--method", "rlrt"],
        ["simulate", "--m", 30, "--runs", 2, "--tests", "rlrt,cusum", "--resamples", 20],
    ], ids=lambda argv: "-".join(map(str, argv[:3:2])))
    @pytest.mark.parametrize("seed", [-1, 0, 2**32 - 1, 2**32])
    def test_seed_outside_32_bits_is_one_config_error(self, null_csv, tmp_path, command, seed):
        """Every seed in [0, 2**32) runs. A seed outside is one config error, also
        where no stream reads it (score), and made no output path: numpy refuses a
        negative one, and would read 2**32 as two words, so that its streams were
        those of smaller seeds (stream((2**32, 1), 0) was stream((0, 1), 1))."""
        inputs = [] if command[0] == "simulate" else ["--input", null_csv]
        out = tmp_path / "out"
        code, err = outcome(command + inputs + ["--knots", 5, "--nsims", 50, "--seed", seed, "--out", out])
        if 0 <= seed < 2**32:
            assert code == 0
            if command[0] == "simulate":  # its one stderr line is the study's runtime
                assert err.startswith("runtime: ") and err.count("\n") == 1
            else:
                assert err == ""
        else:
            assert (code, err) == (1, f"config error: seed must lie in [0, 2**32), got {seed}\n")
            assert not out.exists()

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
        assert not (tmp_path / "o").exists()

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


BOM = "\ufeff"  # the UTF-8 byte-order mark that Excel's "CSV UTF-8" writes


class TestDegenerateClusters:
    """One cluster, or clusters of one row each, carry no intercept variance:
    score and cusum treat the rows as independent units, as without the column."""

    @pytest.mark.parametrize("method", ["score", "cusum"])
    @pytest.mark.parametrize("labels", ["one label", "one row each"])
    def test_same_numbers_as_the_plain_file(self, tmp_path, method, labels):
        ds = generate_dataset(200, 0.25, 4, seed=(1, 0))
        cluster = np.zeros(200, dtype=int) if labels == "one label" else np.arange(200)[::-1]
        save_csv(ds, tmp_path / "plain.csv")
        save_csv(Dataset(y=ds.y, S=ds.S, t=ds.t, cluster=cluster), tmp_path / "clustered.csv")
        results = []
        for name, flags in [("plain", []), ("clustered", ["--cluster-col", "cluster"])]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, err = outcome(["test", "--input", tmp_path / f"{name}.csv", "--method", method,
                                     "--resamples", 300, "--s-cols", "s1,s2", *flags,
                                     "--out", tmp_path / name])
            assert (code, err) == (0, "")
            result = json.loads((tmp_path / name / f"result_{method}.json").read_text())
            results.append((result["statistic"], result["p_value"]))
        assert results[0] == results[1]


class TestByteOrderMark:
    def test_data_file_gives_the_same_result(self, null_csv, tmp_path):
        """A BOM-prefixed copy of a data file, at the same path, gives the
        same result_score.json bytes."""
        out = tmp_path / "o"
        args = ["test", "--input", null_csv, "--method", "score", "--out", out]
        assert run(args) == 0
        plain = (out / "result_score.json").read_bytes()
        null_csv.write_text(BOM + null_csv.read_text(encoding="utf-8"), encoding="utf-8")
        assert run(args) == 0
        assert (out / "result_score.json").read_bytes() == plain

    def test_config_file(self, null_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BOM + "method = score\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run(["test", "--input", null_csv, "--config", cfg, "--out", out]) == 0
        assert json.loads((out / "result_score.json").read_text())["method"] == "score"

    def test_report_file(self, tmp_path, capsys):
        report = tmp_path / "r.csv"
        report.write_text(BOM + "test,m,sigma,c,level,n_runs,failures,rejections,fraction,se\n"
                          "score,50,0.25,0,0.05,4,0,1,0.250000,0.216506\n", encoding="utf-8")
        assert run(["report", "--input", report, "--out", tmp_path / "o"]) == 0
        assert "m = 50" in capsys.readouterr().out


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

    def test_failures_file_is_always_rewritten(self, tmp_path, monkeypatch):
        """failures.txt belongs to the last study written to --out: a clean
        rerun into a directory whose previous study failed a cell empties it."""
        import covtest.sim_study as sim_study
        from test_sim_study import broken_draw

        argv = ["simulate", "--m", 30, "--sigma", 0.25, "--c", "0,2", "--levels", 0.05, "--tests", "score",
                "--runs", 150, "--seed", 5, "--out", tmp_path]
        with monkeypatch.context() as patch:
            patch.setattr(sim_study, "_draw", broken_draw(sim_study._draw, collinear=1))
            assert outcome(argv)[0] == 0
        rank = "fixed-effects design is rank deficient (4 columns, rank 3)"
        assert (tmp_path / "failures.txt").read_text() == "".join(
            f"score m=30 sigma=0.25 c={c} rep=1: {rank}\n" for c in (0, 2))
        assert outcome(argv)[0] == 0
        assert (tmp_path / "failures.txt").read_text() == ""

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
        report rows, which ``covtest report`` refuses."""
        args = ["simulate", "--m", 30, "--sigma", "0.25", "--c", "0", "--runs", 3,
                "--tests", "score", "--out", tmp_path / "sim"]
        assert run(args + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {axis} lists a value more than once")
        assert err.count("\n") == 1
        assert not (tmp_path / "sim").exists()

    def test_overflowing_departure_fails_its_cells_with_the_overflow(self, tmp_path):
        """At c = 1e308 every y'y overflows: those cells fail with the overflow,
        not as perfect fits, the study ends in one numerical error line, and no
        RuntimeWarning is printed."""
        args = ["simulate", "--m", 30, "--sigma", "0.25", "--c", "0,1e308", "--runs", 4,
                "--tests", "lrt2,rlrt,score", "--nsims", 200, "--knots", 8, "--out", tmp_path]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = outcome(args)
        overflow = OVERFLOW_LINE.removeprefix("numerical error: ").strip()
        cells = [f"{name} m=30 sigma=0.25 c=1e+308 rep={rep}: {overflow}"
                 for rep in (0, 1) for name in ("lrt2", "rlrt", "score")]
        assert code == 1 and not caught
        assert err == ("numerical error: 12 of 24 test applications failed (> 1%): "
                       + "; ".join(cells[:5]) + "\n")

    def test_overflowing_noise_is_one_data_error_line(self, tmp_path):
        """At sigma = 1e308 sigma z overflows: the study ends in the dataset
        check's data error line, with no RuntimeWarning before it."""
        args = ["simulate", "--m", 30, "--sigma", "0.25,1e308", "--c", "0,2", "--runs", 3,
                "--tests", "score", "--out", tmp_path / "sim"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = outcome(args)
        assert (code, err, caught) == (1, "data error: non-finite value in y at row 10\n", [])

    def test_too_few_rows_is_one_model_error(self, tmp_path, monkeypatch):
        """At m = 4 the degree-1 design [S | 1, t] has as many rows as
        coefficients: the study ends in that one model error while it builds
        its fixtures, before any block of replicates runs."""
        import covtest.sim_study as sim_study

        blocks, real = [], sim_study._run_block
        monkeypatch.setattr(sim_study, "_run_block", lambda *args: blocks.append(args) or real(*args))
        code, err = outcome(["simulate", "--m", 4, "--tests", "score,cusum", "--knots", 1, "--runs", 3,
                             "--out", tmp_path / "sim"])
        assert (code, err) == (1, "model error: need n > 4 rows to fit 4 coefficients, got n = 4\n")
        assert blocks == [] and not (tmp_path / "sim" / "report.csv").exists()

    def test_score_and_cusum_place_no_knots(self, tmp_path):
        """Score and cusum read X = [S | 1, t] alone, so their study places no
        knots: it runs at m = 15, where 20 knots do not fit, and its report
        does not depend on --knots."""
        assert outcome(["simulate", "--m", 15, "--tests", "score,cusum", "--runs", 4,
                        "--out", tmp_path / "m15"])[0] == 0
        reports = []
        for knots in (8, 20):
            out = tmp_path / f"knots{knots}"
            assert outcome(["simulate", "--m", 30, "--tests", "score,cusum", "--runs", 5,
                            "--resamples", 50, "--knots", knots, "--out", out])[0] == 0
            reports.append((out / "report.csv").read_bytes())
        assert reports[0] == reports[1]


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

    @pytest.mark.parametrize("body", [
        "",
        "score,30,0.25,0,0.05,2,0\n",
        "score,x,0.25,0,0.05,2,0,1,0.5,0.3\n",
        "score,30,0.25,0,0.05,2,0,1,0.5,0.3,1\n",  # one field too many
        "score,30,0.25,0,0.05,2,0,1,half,0.3\n",  # a fraction that is no number
        "score,30,0.25,inf,0.05,2,0,1,0.5,0.3\n",  # a departure that is not finite
        "score,30,0.25,0,0.05,0,0,0,nan,nan\n",  # no runs
        "score,30,0.25,0,0.05,2,-1,1,0.5,0.3\n",  # a negative count
        "score,30,0.25,0,0.05,2,1,2,2.0,nan\n",  # more failures and rejections than runs
    ])
    def test_rejects_malformed_rows(self, tmp_path, capsys, body):
        bad = tmp_path / "r.csv"
        bad.write_text("test,m,sigma,c,level,n_runs,failures,rejections,fraction,se\n" + body)
        assert run(["report", "--input", bad, "--out", tmp_path]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_partial_report_marks_missing_cells(self, tmp_path, capsys):
        partial = tmp_path / "r.csv"
        partial.write_text("test,m,sigma,c,level,n_runs,failures,rejections,fraction,se\n"
                           "score,50,0.25,0,0.05,4,0,1,0.250000,0.216506\n"
                           "score,100,0.25,2,0.05,4,0,3,0.750000,0.216506\n")
        assert run(["report", "--input", partial, "--out", tmp_path / "o"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.startswith("  0.05")]
        assert rows == [["0.05", "0.25", "score", "0.250", "n/a"],
                        ["0.05", "0.25", "score", "n/a", "0.750"]]

    def test_rejects_foreign_csv(self, tmp_path, capsys):
        bad = tmp_path / "x.csv"
        bad.write_text("a,b\n1,2\n")
        assert run(["report", "--input", bad, "--out", tmp_path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_repeated_cell_is_one_config_error(self, tmp_path):
        """Two rows of one cell are refused, not rendered with the last row's count."""
        repeated = tmp_path / "r.csv"
        repeated.write_text("test,m,sigma,c,level,n_runs,failures,rejections,fraction,se\n"
                            "score,50,0.25,0,0.05,100,0,5,0.050000,0.021794\n"
                            "score,50,0.25,1,0.05,100,0,9,0.090000,0.028618\n"
                            "score,50,0.25,0,5e-2,100,0,7,0.070000,0.025515\n")
        code, err = outcome(["report", "--input", repeated, "--out", tmp_path / "o"])
        assert (code, err) == (1, f"config error: {repeated}:4: repeats the cell of row 2\n")
        assert not (tmp_path / "o").exists()


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


def tree_bytes(root):
    """The bytes of every file below ``root``, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def without_runtime(text):
    """A study's stderr without its one line that is a wall time."""
    return re.sub(r"^runtime: [0-9.]+s\n", "", text, flags=re.M)


@pytest.fixture(scope="module")
def exit_path_inputs(tmp_path_factory):
    """The input files of TestExitPath's calls: data, clustered data and a study report."""
    root = tmp_path_factory.mktemp("inputs")
    ds = generate_dataset(60, 0.25, 1, seed=(15, 0))
    save_csv(ds, root / "data.csv")
    label = np.arange(60) % 6
    y = ds.y + np.random.default_rng(15).normal(0, 0.5, 6)[label]
    save_csv(Dataset(y=y, S=ds.S, t=ds.t, cluster=label), root / "clustered.csv")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["simulate", "--m", "30", "--sigma", "0.25", "--c", "0,2", "--tests", "score,rlrt",
                     "--runs", "4", "--nsims", "200", "--knots", "8", "--out", str(root / "study")]) == 0
    (root / "study" / "report.csv").rename(root / "report.csv")
    return root


STUDY = ["simulate", "--m", "30", "--sigma", "0.25", "--c", "0,2", "--tests", "score,cusum,rlrt",
         "--runs", "4", "--nsims", "200", "--resamples", "20", "--knots", "8", "--out", "out"]
EXIT_PATH_CALLS = {
    "lrt": ["test", "--input", "data.csv", "--method", "lrt", "--nsims", "300", "--out", "out"],
    "rlrt": ["test", "--input", "data.csv", "--method", "rlrt", "--nsims", "300", "--out", "out"],
    "score": ["test", "--input", "data.csv", "--method", "score", "--out", "out"],
    "cusum": ["test", "--input", "data.csv", "--method", "cusum", "--resamples", "100",
              "--emit-processes", "3", "--out", "out"],
    "score-clustered": ["test", "--input", "clustered.csv", "--method", "score",
                        "--cluster-col", "cluster", "--out", "out"],
    "cusum-clustered": ["test", "--input", "clustered.csv", "--method", "cusum", "--resamples", "100",
                        "--cluster-col", "cluster", "--emit-processes", "3", "--out", "out"],
    "null-sim": ["null-sim", "--input", "data.csv", "--method", "rlrt", "--nsims", "300", "--out", "out"],
    "simulate-1": [*STUDY, "--threads", "1"],
    "simulate-3": [*STUDY, "--threads", "3"],
    "report": ["report", "--input", "report.csv", "--out", "out"],
    "config-error": ["test", "--input", "data.csv", "--method", "rlrt", "--cluster-col", "x",
                     "--out", "out"],
}


class TestExitPath:
    """``run``, the process entry point, ends the process with ``os._exit``
    once ``main`` has returned; ``main`` never does."""

    @pytest.mark.parametrize("argv, code, line", [
        (["test", "--input", "data.csv", "--method", "score", "--out", "out"], 0, ""),
        (["test", "--input", "missing.csv", "--out", "out"], 1, "config error: input file not found"),
        (["test", "--input", "bad.csv", "--method", "score", "--out", "out"], 1, "data error: bad.csv"),
        (["simulate", "--m", "4", "--tests", "score", "--knots", "1", "--runs", "3", "--out", "out"],
         1, "model error: need n > 4 rows"),
        (["test", "--input", "huge.csv", "--method", "score", "--out", "out"], 1, OVERFLOW_LINE[:-1]),
        (["--version"], 0, ""),
    ], ids=["success", "config", "data", "model", "numerical", "version"])
    def test_main_never_exits_hard(self, tmp_path, monkeypatch, argv, code, line):
        def refuse(status):
            raise AssertionError(f"main called os._exit({status})")

        monkeypatch.setattr(os, "_exit", refuse)
        monkeypatch.chdir(tmp_path)
        ds = generate_dataset(60, 0.25, 2, seed=(13, 0))
        save_csv(ds, "data.csv")
        save_csv(Dataset(y=1e160 * ds.y, S=ds.S, t=ds.t), "huge.csv")
        Path("bad.csv").write_text("y,t\n1.0,0.5\nfish,0.7\n")
        got, err = outcome(argv)
        assert got == code
        assert err.startswith(line) and err.count("\n") == (1 if line else 0)

    @pytest.mark.parametrize("hooked", [False, True])
    def test_run_exits_with_mains_code(self, monkeypatch, hooked):
        """``run`` hands main's code to ``os._exit``, or with a trace or profile
        hook set to a normal ``sys.exit``."""
        from covtest import cli

        def hard_exit(status):
            raise RuntimeError(status)

        monkeypatch.setattr(os, "_exit", hard_exit)
        monkeypatch.setattr(cli, "main", lambda: 3)
        monkeypatch.setattr(cli, "_hooked", lambda: hooked)
        with pytest.raises(SystemExit if hooked else RuntimeError) as info:
            cli.run()
        assert info.value.args == (3,)

    @pytest.mark.parametrize("tool_id", [0, 1, 2, 5, None])
    def test_a_monitoring_tool_is_a_hook(self, monkeypatch, tool_id):
        """From Python 3.12 a profiler or coverage tool can attach through
        ``sys.monitoring`` alone, with no trace or profile hook: with a tool
        registered under any of the six ids ``run`` ends through ``sys.exit``,
        and with none through ``os._exit``. The fake module stands in for the
        real one on any version."""
        from covtest import cli

        class Monitoring:
            @staticmethod
            def get_tool(i):
                return "a tool" if i == tool_id else None

        def hard_exit(status):
            raise RuntimeError(status)

        monkeypatch.setattr(sys, "monitoring", Monitoring, raising=False)
        monkeypatch.setattr(sys, "gettrace", lambda: None)
        monkeypatch.setattr(sys, "getprofile", lambda: None)
        monkeypatch.setattr(os, "_exit", hard_exit)
        monkeypatch.setattr(cli, "main", lambda: 3)
        with pytest.raises(RuntimeError if tool_id is None else SystemExit) as info:
            cli.run()
        assert info.value.args == (3,)

    @pytest.mark.parametrize("name", list(EXIT_PATH_CALLS))
    def test_process_and_in_process_calls_agree(self, exit_path_inputs, tmp_path, monkeypatch, name):
        """The same call as a ``python -m covtest.cli`` process and as an
        in-process ``main``, each in a fresh directory holding the same inputs,
        writes the same files, stdout, stderr and exit code."""
        argv = EXIT_PATH_CALLS[name]
        monkeypatch.delenv("COVTEST_CACHE_DIR", raising=False)
        runs = {}
        for how in ("process", "in-process"):
            here = tmp_path / how
            here.mkdir()
            for source in exit_path_inputs.glob("*.csv"):
                (here / source.name).write_bytes(source.read_bytes())
            if how == "process":
                proc = subprocess.run([sys.executable, "-m", "covtest.cli", *argv], cwd=here, env=src_env(),
                                      capture_output=True, text=True, timeout=300)
                code, out, err = proc.returncode, proc.stdout, proc.stderr
            else:
                monkeypatch.chdir(here)
                out_io, err_io = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out_io), contextlib.redirect_stderr(err_io):
                    code = main(argv)
                out, err = out_io.getvalue(), err_io.getvalue()
            runs[how] = (code, out, without_runtime(err), tree_bytes(here))
        assert runs["process"] == runs["in-process"]
        assert runs["process"][0] == (1 if name == "config-error" else 0)

    @pytest.mark.parametrize("hook", ["", "sys.settrace(lambda *a: None)", "sys.setprofile(lambda *a: None)"])
    def test_teardown_runs_only_under_a_hook(self, exit_path_inputs, tmp_path, hook):
        """An exit handler, which the interpreter's teardown would run, runs
        after ``run`` only when a trace or profile hook is set."""
        data = exit_path_inputs / "data.csv"
        code = (f"import atexit, sys\nfrom covtest import cli\n{hook}\n"
                "atexit.register(print, 'teardown', file=sys.stderr)\n"
                f"sys.argv = ['covtest', 'test', '--input', {str(data)!r}, '--method', 'score', "
                f"'--out', {str(tmp_path / 'out')!r}]\ncli.run()\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(),
                              timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ("teardown\n" if hook else "")
        assert (tmp_path / "out" / "result_score.json").exists()

    def test_profiled_call_writes_its_profile(self, exit_path_inputs, tmp_path):
        import pstats

        profile = tmp_path / "call.prof"
        proc = subprocess.run(
            [sys.executable, "-m", "cProfile", "-o", str(profile), "-m", "covtest.cli", "test",
             "--input", str(exit_path_inputs / "data.csv"), "--method", "score", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert profile.stat().st_size > 0
        assert pstats.Stats(str(profile)).total_calls > 0
        assert (tmp_path / "out" / "result_score.json").exists()

    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize("command", ["report", "test"])
    def test_closed_stdout_is_the_reader_gone(self, exit_path_inputs, tmp_path, unbuffered, command):
        """stdout a pipe whose reader has gone, as under ``| head -1``: the
        files are written, and the call ends with code 1, no error line and no
        traceback, whether each print meets the closed pipe or the last flush does."""
        argv = {"report": ["report", "--input", str(exit_path_inputs / "report.csv")],
                "test": ["test", "--input", str(exit_path_inputs / "data.csv"), "--method", "score"]}[command]
        env = {k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "covtest.cli", *argv, "--out", str(tmp_path)],
                                  stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert (tmp_path / ("report.txt" if command == "report" else "result_score.json")).exists()


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
        "rescale_t = true", "grid_points = 80", "grid_span = 1e-5,1e7",
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
        *([command, *removed] for command in ("test", "null-sim") for removed in (
            ["--rescale-t"], ["--grid-points", "80"], ["--grid-span", "1e-5,1e7"])),
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

    def test_penalized_kernel_without_knots(self, null_csv, tmp_path):
        code, err = outcome(["test", "--input", null_csv, "--method", "score", "--kernel", "penalized",
                             "--knots", 0, "--out", tmp_path / "o"])
        assert (code, err) == (1, "config error: penalized-gram kernel needs at least one knot\n")

    def test_column_with_two_roles(self, null_csv, tmp_path):
        code, err = outcome(["test", "--input", null_csv, "--method", "cusum", "--cluster-col", "y",
                             "--out", tmp_path / "o"])
        assert (code, err) == (1, f"config error: {null_csv}: column 'y' is given more than one "
                                  "of the roles y, t, s and cluster\n")

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
                 "--seed", "9", "--s-cols", "s1", "--t-col", "t"]
        assert run(["test", "--input", null_csv, "--out", out] + flags) == 0
        by_flags = (out / "result_rlrt.json").read_bytes()
        (out / "result_rlrt.json").unlink()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "method = rlrt\ndegree = 1\nknots=12\nnsims = 600\nseed = 9  # trailing comment\n"
            "s_cols = s1\nt-col = t\n"
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
    """covtest modules, and concurrent.futures and numpy.ma if present, after
    ``code`` runs in a fresh interpreter."""
    probe = (
        f"{code}\nimport sys\n"
        "print(' '.join(m for m in sys.modules"
        " if m.split('.')[0] == 'covtest' or m in ('concurrent.futures', 'numpy.ma')))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split("\n")[-2].split())


class TestModulesPerCommand:
    """A command imports only the covtest modules it runs, no thread pool and
    not numpy.ma (whose import takes longer than an rlrt call's own work)."""

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

    def test_text_cluster_labels(self, tmp_path):
        """A ``1_0`` cell, which numpy's parser rejects, sends the file to the csv
        module's read, whose text cluster labels are coded without numpy.ma."""
        ds = generate_dataset(60, 0.25, 0, seed=(11, 0))
        columns = zip(ds.y.tolist(), ds.t.tolist(), ds.S[:, 0].tolist())
        rows = [f"{y!r},{t!r},{s!r},g{i % 6}" for i, (y, t, s) in enumerate(columns)]
        rows[0] = "1_0" + rows[0][rows[0].index(","):]  # y = 10, written as only Python's float reads it
        path = tmp_path / "text.csv"
        path.write_text("\n".join(["y,t,s1,cluster", *rows]) + "\n")
        code = (
            "from covtest.cli import main\n"
            f"assert main(['test', '--input', {str(path)!r}, '--method', 'score', '--cluster-col', 'cluster', "
            f"'--out', {str(tmp_path)!r}]) == 0"
        )
        modules = "data_io errors null_fit score_test spline_basis"
        assert loaded_modules(code) == {"covtest", "covtest.cli"} | {f"covtest.{m}" for m in modules.split()}
        assert (tmp_path / "result_score.json").exists()

    def test_simulate_command(self, tmp_path):
        """The default tests (lrt1, lrt2, rlrt, score) on one thread: no cusum module."""
        code = (
            "from covtest.cli import main\n"
            "assert main(['simulate', '--m', '30', '--sigma', '0.25', '--c', '0,2', '--runs', '2', "
            f"'--nsims', '200', '--knots', '8', '--out', {str(tmp_path)!r}]) == 0"
        )
        modules = "data_io errors exact_lrt null_fit rng score_test sim_study spline_basis"
        assert loaded_modules(code) == {"covtest", "covtest.cli"} | {f"covtest.{m}" for m in modules.split()}
        assert (tmp_path / "report.csv").exists()


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
        assert {"nsims", "knots", "seed"} <= rlrt
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
             "level", "out", "config", "y-col", "t-col", "s-cols", "cluster-col", "ordering",
             "emit-processes"},
    "simulate": {"m", "sigma", "c", "levels", "tests", "runs", "knots", "nsims", "resamples",
                 "seed", "out", "threads", "config"},
    "null-sim": {"input", "method", "degree", "h", "knots", "nsims", "seed", "out", "config",
                 "y-col", "t-col", "s-cols", "cluster-col"},
    "report": {"input", "out", "config"},
}
ALL_OPTIONS = set().union(*TAKES.values())
NUMBERS = {"degree", "h", "knots", "nsims", "resamples", "seed", "level", "threads",
           "emit-processes", "runs"}
CHOICES = {"method": ("lrt", "rlrt", "score", "cusum"), "kernel": ("natural", "penalized"),
           "ordering": ("t", "fitted")}
LISTS = {"m": ["1", "20"], "sigma": ["0.5", "1"], "c": ["0", "0.5"], "levels": ["0.05"]}
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
    assert kind == "bad config value"
    return bad_value(command).map(lambda pair: f"{pair[0].replace('-', '_')} = {pair[1]}")


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
                 "abbreviated key", "foreign key", "no equals sign", "bad config value")
    if not (command == "report" and kind in ("bad value", "bad config value"))
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


REPORT_HEADER = "test,m,sigma,c,level,n_runs,failures,rejections,fraction,se"
REPORT_FAULTS = ("missing cell", "extra cell", "non-numeric count", "repeated cell")


@st.composite
def report_texts(draw):
    """(text, faulty): valid report rows of distinct cells in a drawn order,
    then up to two faults, each put on a drawn row."""
    keys = draw(st.lists(st.tuples(
        st.sampled_from(["score", "rlrt", "lrt1", "wavelet"]), st.sampled_from(["20", "50"]),
        st.sampled_from(["0.25", "0.5"]), st.sampled_from(["0", "1", "2.5"]),
        st.sampled_from(["0.05", "0.1"])), min_size=1, max_size=8, unique=True))
    rows = []
    for key in keys:
        n_runs = draw(st.integers(1, 40))
        failures = draw(st.integers(0, n_runs))
        rejections = draw(st.integers(0, n_runs - failures))
        rows.append([*key, str(n_runs), str(failures), str(rejections), "0.5", "0.1"])
    faults = draw(st.lists(st.sampled_from(REPORT_FAULTS), max_size=2))
    for fault in faults:
        i = draw(st.integers(0, len(rows) - 1))
        if fault == "missing cell":
            del rows[i][draw(st.integers(0, len(rows[i]) - 1))]
        elif fault == "extra cell":
            rows[i].append(draw(st.sampled_from(["", "1", "x"])))
        elif fault == "non-numeric count":
            rows[i][draw(st.integers(5, 7))] = draw(NOT_A_NUMBER)
        else:
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
    return "\n".join([REPORT_HEADER] + [",".join(row) for row in rows]) + "\n", bool(faults)


class TestReportFuzz:
    @given(case=report_texts())
    def test_table_or_one_config_error_line(self, tmp_path_factory, case):
        text, faulty = case
        root = tmp_path_factory.mktemp("report")
        (root / "r.csv").write_text(text)
        code, err = outcome(["report", "--input", root / "r.csv", "--out", root / "out"])
        assert "Traceback" not in err
        if faulty:
            assert code == 1 and err.startswith("config error: ") and err.count("\n") == 1
            assert not (root / "out").exists()
        else:
            assert (code, err) == (0, "")
            assert (root / "out" / "report.txt").read_text().startswith("empirical rejection rates, m = ")


@st.composite
def cluster_files(draw):
    """(CSV text, kind) of 12-60 rows y,t,s1,cluster, whose cluster column is one
    cluster, all singletons, integer labels with gaps, text labels, or either
    kind of label with the rows in any order."""
    n = draw(st.integers(12, 60))
    kind = draw(st.sampled_from(["one", "singletons", "gaps", "text", "any order"]))
    m = {"one": 1, "singletons": n}.get(kind) or draw(st.integers(2, n // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = np.sort(np.arange(n) % m) if kind != "any order" else rng.permutation(np.arange(n) % m)
    text = kind == "text" or (kind == "any order" and draw(st.booleans()))
    names = draw(st.lists(st.text("abc_xyz", min_size=1, max_size=4) if text else st.integers(-10**4, 10**4),
                          min_size=m, max_size=m, unique=True))
    ds = generate_dataset(n, 0.25, draw(st.sampled_from([0, 4])), seed=(draw(st.integers(0, 99)), 0))
    y = ds.y + draw(st.sampled_from([0.0, 0.5])) * rng.standard_normal(m)[unit]
    rows = ["y,t,s1,cluster"] + [",".join([*(repr(float(v)) for v in (y[i], ds.t[i], ds.S[i, 0])),
                                           str(names[unit[i]])]) for i in range(n)]
    return "\n".join(rows) + "\n", kind


class TestClusterColumnFuzz:
    @settings(max_examples=40)
    @given(case=cluster_files())
    def test_p_value_or_one_error_line(self, tmp_path_factory, case):
        """score and cusum on any cluster column: a result with a p-value in
        (0, 1], or exit 1 with one ``<category> error:`` line and no --out path."""
        text, _ = case
        root = tmp_path_factory.mktemp("clusters")
        (root / "in.csv").write_text(text)
        for method, extra in [("score", []), ("cusum", ["--resamples", 50])]:
            out = root / method
            code, err = outcome(["test", "--input", root / "in.csv", "--method", method, "--s-cols", "s1",
                                 "--cluster-col", "cluster", *extra, "--out", out])
            if code == 0:
                assert 0.0 < json.loads((out / f"result_{method}.json").read_text())["p_value"] <= 1.0
            else:
                assert code == 1 and re.fullmatch(r"[a-z]+ error: [^\n]*\n", err)
                assert not out.exists()


UNUSABLE = ("nan", "inf", "-inf", "", "x1")  # cells no role reads as a finite number


def data_columns(n, t_kind, clusters, scale, seed):
    """The cells, by column, of a fault-free data file y,t,s1,s2[,cluster] of n
    rows: t spread, tied (four values) or constant; no cluster column, one
    cluster, three or all singletons; y scaled by 10^scale."""
    rng = np.random.default_rng(seed)
    t = {"spread": rng.permutation(n) / max(n - 1, 1), "tied": rng.integers(0, 4, n) / 3,
         "constant": np.full(n, 0.5)}[t_kind]
    s1, s2 = rng.standard_normal((2, n))
    y = (s1 - 0.5 * s2 + 2.0 * (t - 0.5) ** 2 + 0.3 * rng.standard_normal(n)) * 10.0**scale
    columns = {name: [repr(v) for v in values.tolist()] for name, values in zip("y t s1 s2".split(), (y, t, s1, s2))}
    if clusters is not None:
        labels = {"one": np.zeros(n, int), "three": np.arange(n) % 3, "singletons": np.arange(n)}[clusters]
        columns["cluster"] = [str(k) for k in labels]
    return columns


def data_text(header, columns):
    return "\n".join([",".join(header)] + [",".join(cells) for cells in zip(*columns.values())]) + "\n"


@st.composite
def data_files(draw):
    """(CSV text, cluster column or None, expected outcome) of a data file from
    :func:`data_columns` of 14, 30 or 1-3 rows, perhaps with a fault: a role's
    column missing, s2 renamed to another column's name, or one or two drawn
    cells replaced. The expected outcome is "config" for a header fault,
    "data" for an unusable cell in y, t or s or an empty cluster label, "ok"
    for a fault-free file of 14 or more rows, t not constant and y at unit
    scale, and None where either exit may come."""
    n = draw(st.one_of(st.sampled_from([14, 30]), st.integers(1, 3)))
    t_kind = draw(st.sampled_from(["spread", "tied", "constant"]))
    scale = draw(st.one_of(st.just(0), st.sampled_from([160, -160])))
    clusters = draw(st.one_of(st.none(), st.sampled_from(["one", "three", "singletons"])))
    columns = data_columns(n, t_kind, clusters, scale, draw(st.integers(0, 2**16)))
    header = list(columns)
    expected = "ok" if n >= 14 and t_kind != "constant" and scale == 0 else None
    fault = draw(st.one_of(st.none(), st.sampled_from(["missing", "duplicate", "cells"])))
    if fault == "missing":
        del columns[draw(st.sampled_from([name for name in header if name not in ("s1", "s2")]))]
        header, expected = list(columns), "config"
    elif fault == "duplicate":
        header[3], expected = draw(st.sampled_from(header[:3])), "config"
    elif fault == "cells":
        expected = None
        for _ in range(draw(st.integers(1, 2))):
            name = draw(st.sampled_from(header))
            row, cell = draw(st.integers(0, n - 1)), draw(st.sampled_from(UNUSABLE))
            columns[name][row] = cell
            if name != "cluster" or cell == "":  # any other label is text, a cluster of its own
                expected = "data"
    return data_text(header, columns), None if clusters is None else "cluster", expected


def _one_cluster():
    return data_text(["y", "t", "s1", "s2", "cluster"], data_columns(14, "spread", "one", 0, 1))


def _empty_label():
    columns = data_columns(14, "spread", "three", 0, 2)
    columns["cluster"][5] = ""
    return data_text(list(columns), columns)


class TestDataFileFuzz:
    @settings(max_examples=100)
    @given(case=data_files())
    # one file each mutant of the rules below would misjudge, whatever hypothesis draws
    @example(case=(_one_cluster(), "cluster", "ok"))
    @example(case=(_empty_label(), "cluster", "data"))
    def test_result_or_one_error_line(self, tmp_path_factory, case):
        """Every method on any data file: exit 0 with a result whose p-value lies
        in (0, 1], or exit 1 with one ``<category> error:`` line, at most one
        warning and no --out path. A header fault is a config error, an unusable
        cell a data error, and a well-posed file a result; the LRTs refuse a
        cluster column as a config error."""
        text, cluster, expected = case
        root = tmp_path_factory.mktemp("data")
        (root / "in.csv").write_text(text)
        for method in ("lrt", "rlrt", "score", "cusum"):
            out = root / method
            argv = ["test", "--input", root / "in.csv", "--method", method, "--knots", 3, "--nsims", 50,
                    "--resamples", 50, "--out", out, *(["--cluster-col", cluster] if cluster else [])]
            with warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("default")
                code, err = outcome(argv)
            assert len(warned) <= 1, [str(w.message) for w in warned]
            want = "config" if cluster and method in ("lrt", "rlrt") else expected
            if code == 0:
                assert want in ("ok", None), err
                assert 0.0 < json.loads((out / f"result_{method}.json").read_text())["p_value"] <= 1.0
            else:
                assert want != "ok", err
                assert code == 1 and re.fullmatch(rf"{want or '[a-z]+'} error: [^\n]*\n", err), err
                assert not out.exists()
