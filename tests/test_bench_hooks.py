"""The benchmark's tracer still finds every covtest call it wraps, and the
benchmark's checks still rebuild the program's lambda grid.

``bench/run.py --trace 1`` and ``bench/selftest.py`` replace covtest's public
functions and ``ProfileSolver``'s methods by name; a rename in ``src/`` would
break them without this test. ``bench/checks.py`` rebuilds the grid from its
own clipped ``eigvalsh`` of B'B and compares its sha with every LRT/RLRT
result, so one moved bit of ``DesignMatrices.raw_eigs`` fails every such call
of the benchmark.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from covtest import (
    Dataset, SimConfig, build_design, default_lambda_grid, generate_dataset, observed_statistic,
    place_knots, run_study, save_csv, spectral_decompose,
)
from covtest import cli, exact_lrt, score_test, sim_study

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    originals = (exact_lrt.observed_statistic, dict(vars(exact_lrt.ProfileSolver)))
    spans = tracer.Tracer()
    spans.install()
    try:
        ds = generate_dataset(40, 0.25, 2, seed=(1, 0))
        design = build_design(ds, place_knots(ds.t, 8, 1))
        exact_lrt.observed_statistic(ds, design, "rlrt")
    finally:
        spans.restore()
    names = {span.name for span in spans.spans}
    assert {
        "exact_lrt.observed_statistic",
        "exact_lrt.ProfileSolver.__init__",
        "exact_lrt.ProfileSolver.statistics",
    } <= names
    assert (exact_lrt.observed_statistic, dict(vars(exact_lrt.ProfileSolver))) == originals
    assert observed_statistic is exact_lrt.observed_statistic


def test_study_makes_one_solver_call_per_block_and_degree(monkeypatch):
    """Each block of replicates serves every noise level and departure level
    with one ProfileSolver call per LRT degree, the replicates are drawn
    inside the block, so generate_dataset runs once per m for the fixtures'
    design, and the layers the benchmark reports still appear."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    monkeypatch.setattr(sim_study, "_BLOCK", 2)  # three runs make two blocks
    config = SimConfig(
        m_values=(30, 40), sigma_values=(0.25, 0.5), c_values=(0, 2, 4), levels=(0.05,),
        tests=("lrt1", "lrt2", "rlrt", "score"), n_runs=3, n_knots=8, n_sims_null=200, seed=4,
    )
    spans = tracer.Tracer()
    spans.install()
    try:
        run_study(config)
    finally:
        spans.restore()
    names = [span.name for span in spans.spans]
    blocks = len(config.m_values) * math.ceil(config.n_runs / sim_study._BLOCK)
    assert names.count("exact_lrt.ProfileSolver.statistics") == blocks * 2  # degrees 1 and 2
    assert "spline_basis.build_design" in names
    draws = [span.info["replicate"] for span in spans.spans if span.name == "sim_study.generate_dataset"]
    assert draws == [[m, config.sigma_values[0], [config.seed, 0]] for m in config.m_values]


def test_null_fit_layers_recorded_for_score_and_cusum(monkeypatch, tmp_path):
    """Clustered score and cusum calls record the random-intercept fit and the
    projection, an independent one the OLS fit: the benchmark's null_fit.*
    layer metrics are read from these spans."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    ds = generate_dataset(40, 0.25, 0, seed=(14, 0))
    cluster = np.arange(40) % 8
    effects = np.random.default_rng(3).normal(0.0, 0.5, 8)
    clustered = Dataset(y=ds.y + effects[cluster], S=ds.S, t=ds.t, cluster=cluster)
    save_csv(clustered, tmp_path / "clustered.csv")
    cusum_argv = ["test", "--input", str(tmp_path / "clustered.csv"), "--method", "cusum",
                  "--cluster-col", "cluster", "--resamples", "100", "--out", str(tmp_path / "o")]
    calls = {
        "score": lambda: score_test.run_score_test(clustered),
        "cusum": lambda: cli.main(cusum_argv),
        "independent": lambda: score_test.run_score_test(ds),
    }
    names = {}
    for call, run in calls.items():
        spans = tracer.Tracer()
        spans.install()
        try:
            run()
        finally:
            spans.restore()
        names[call] = {span.name for span in spans.spans}
    for call in ("score", "cusum"):
        assert {"null_fit.fit_reml_random_intercept", "null_fit.reml_projection"} <= names[call]
        assert "null_fit.fit_ols" not in names[call]
    assert {"null_fit.fit_ols", "null_fit.reml_projection"} <= names["independent"]
    assert "null_fit.fit_reml_random_intercept" not in names["independent"]


@pytest.mark.parametrize("m", [100, 2000])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_lambda_grid_is_the_benchmarks(monkeypatch, m, degree):
    """The grid recipe: the program's lambda grid has the sha of the grid the
    benchmark's checks rebuild from B alone."""
    monkeypatch.syspath_prepend(str(BENCH))
    import checks

    ds = generate_dataset(m, 0.25, 0, seed=(7, 0))
    design = build_design(ds, place_knots(ds.t, 20, degree))
    grid = default_lambda_grid(spectral_decompose(design))
    assert grid.sha == checks.grid_sha(checks.lambda_grid(design.B))
