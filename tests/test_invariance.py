"""Transformations of the data that leave a test's result unchanged.

Each property maps a dataset to one the test must treat alike and compares
the two results: row permutation and cluster relabelling (the random-intercept
score test), y -> a y + X b with a != 0 (the score test with and without
clusters, the LRT and the RLRT) and row permutation (the LRT and the RLRT).
The score statistics and p-values agree to 1e-9 relative; the LRT and RLRT
statistics to 1e-9 relative, with identical p-values. The cusum p-value under
a row permutation is ROADMAP item 4's open fault, marked as an expected failure.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covtest import (
    Dataset,
    build_design,
    default_lambda_grid,
    observed_statistic,
    p_value,
    place_knots,
    run_score_test,
    simulate_null,
    spectral_decompose,
)
from covtest.cusum_test import cumulative_process, multiplier_null, sup_test
from covtest.null_fit import fit_null
from covtest.spline_basis import KnotSet

N, CLUSTERS, KNOTS, NSIMS = 300, 30, 10, 400
REL = 1e-9

seeds = st.integers(0, 2**32 - 1)
departures = st.sampled_from([0.0, 0.2])
scales = st.sampled_from([-1e3, -2.5, -1e-3, 1e-3, 0.5, 7.0, 1e3])


def dataset(seed: int, departure: float, clustered: bool) -> Dataset:
    """y = s1 - 0.5 s2 + 0.3 t + departure sin(6t) + noise on uniform t,
    with a random intercept per cluster (row mod 30) when ``clustered``."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, N)
    S = rng.standard_normal((N, 2))
    cluster = np.arange(N) % CLUSTERS
    y = S @ [1.0, -0.5] + 0.3 * t + departure * np.sin(6.0 * t) + 0.4 * rng.standard_normal(N)
    if clustered:
        y = y + 0.5 * rng.standard_normal(CLUSTERS)[cluster]
    return Dataset(y=y, S=S, t=t, cluster=cluster if clustered else None)


def permuted(ds: Dataset, seed: int) -> Dataset:
    perm = np.random.default_rng(seed).permutation(ds.n)
    return Dataset(y=ds.y[perm], S=ds.S[perm], t=ds.t[perm],
                   cluster=None if ds.cluster is None else ds.cluster[perm])


def affine(ds: Dataset, a: float, seed: int) -> Dataset:
    """y -> a y + X b for the degree-1 null design X = [S | 1, t] and a random b."""
    X = build_design(ds, KnotSet(np.empty(0), 1)).X
    b = np.random.default_rng(seed).standard_normal(X.shape[1])
    return Dataset(y=a * ds.y + X @ b, S=ds.S, t=ds.t, cluster=ds.cluster)


def assert_score_alike(got, want, *fields):
    for field in fields:
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=REL, abs=0.0), field


def lrt_result(ds: Dataset, kind: str):
    """(statistic, p-value) of an LRT/RLRT call as the CLI makes it: degree 1,
    10 knots, a 400-draw null of this design."""
    design = build_design(ds, place_knots(ds.t, KNOTS, 1))
    cache = spectral_decompose(design)
    grid = default_lambda_grid(cache)
    stat = observed_statistic(ds, design, kind, 0, grid).statistic
    return stat, p_value(stat, simulate_null(cache, kind, 0, grid, NSIMS, seed=11))


class TestScore:
    @given(seeds, departures, seeds)
    def test_row_permutation(self, seed, departure, perm_seed):
        ds = dataset(seed, departure, clustered=True)
        assert_score_alike(run_score_test(permuted(ds, perm_seed)), run_score_test(ds), "u_quad", "p_value")

    @given(seeds, departures, seeds)
    def test_cluster_relabelling(self, seed, departure, label_seed):
        ds = dataset(seed, departure, clustered=True)
        labels = 3 + 7 * np.random.default_rng(label_seed).permutation(CLUSTERS)
        relabelled = Dataset(y=ds.y, S=ds.S, t=ds.t, cluster=labels[ds.cluster])
        assert_score_alike(run_score_test(relabelled), run_score_test(ds), "u_quad", "p_value")

    @pytest.mark.parametrize("clustered", [False, True])
    @given(seed=seeds, departure=departures, a=scales, b_seed=seeds)
    def test_affine_response(self, clustered, seed, departure, a, b_seed):
        ds = dataset(seed, departure, clustered)
        assert_score_alike(run_score_test(affine(ds, a, b_seed)), run_score_test(ds), "p_value")


@pytest.mark.parametrize("kind", ["lrt", "rlrt"])
class TestLikelihoodRatio:
    @given(seed=seeds, departure=departures, a=scales, b_seed=seeds)
    def test_affine_response(self, kind, seed, departure, a, b_seed):
        ds = dataset(seed, departure, clustered=False)
        (stat, p), (want_stat, want_p) = lrt_result(affine(ds, a, b_seed), kind), lrt_result(ds, kind)
        assert stat == pytest.approx(want_stat, rel=REL, abs=1e-12) and p == want_p

    @given(seed=seeds, departure=departures, perm_seed=seeds)
    def test_row_permutation(self, kind, seed, departure, perm_seed):
        ds = dataset(seed, departure, clustered=False)
        (stat, p), (want_stat, want_p) = lrt_result(permuted(ds, perm_seed), kind), lrt_result(ds, kind)
        assert stat == pytest.approx(want_stat, rel=REL, abs=1e-12) and p == want_p


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: cusum multipliers follow the file's row order")
def test_cusum_p_value_under_row_permutation():
    """The cusum p-value of a dataset and of its rows permuted: today each
    row's multiplier depends on its position in the file, so they differ."""
    ds = dataset(3, 0.0, clustered=False)

    def p(data):
        fit, proj = fit_null(data, build_design(data, KnotSet(np.empty(0), 1)))
        return sup_test(cumulative_process(fit, data.t), multiplier_null(fit, proj, data.t, 500, seed=5)).p_value

    assert p(permuted(ds, 4)) == p(ds)
