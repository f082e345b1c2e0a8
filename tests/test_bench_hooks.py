"""The benchmark's tracer still finds every covtest call it wraps.

``bench/run.py --trace 1`` and ``bench/selftest.py`` replace covtest's public
functions and ``ProfileSolver``'s methods by name; a rename in ``src/`` would
break them without this test.
"""

from pathlib import Path

from covtest import build_design, generate_dataset, observed_statistic, place_knots
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
