"""The benchmark's tracer still finds every covtest call it wraps.

``bench/run.py --trace 1`` and ``bench/selftest.py`` replace covtest's public
functions and ``ProfileSolver``'s methods by name; a rename in ``src/`` would
break them without this test.
"""

from pathlib import Path

from covtest import (
    SimConfig, build_design, generate_dataset, observed_statistic, place_knots, run_study,
)
from covtest import exact_lrt

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


def test_study_makes_one_solver_call_per_replicate_and_degree(monkeypatch):
    """Each replicate evaluates all departure levels of an LRT degree in one
    ProfileSolver call, and the layers the benchmark reports still appear."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    config = SimConfig(
        m_values=(30,), sigma_values=(0.25, 0.5), c_values=(0, 2, 4), levels=(0.05,),
        tests=("lrt1", "lrt2", "rlrt", "score"), n_runs=3, n_knots=8, n_sims_null=200, seed=4,
    )
    spans = tracer.Tracer()
    spans.install()
    try:
        run_study(config)
    finally:
        spans.restore()
    names = [span.name for span in spans.spans]
    replicates = len(config.m_values) * len(config.sigma_values) * config.n_runs
    assert names.count("exact_lrt.ProfileSolver.statistics") == replicates * 2  # degrees 1 and 2
    assert names.count("sim_study.generate_dataset") >= replicates * len(config.c_values)
    assert "spline_basis.build_design" in names
