"""Factored null covariance against the dense n x n formulas in ``oracles``.

The null fit, REML projection, score moments and cusum resampling never build
V, P or ZZ'. Here each is checked against its dense textbook form, for OLS,
for random-intercept data with unequal cluster sizes and singleton clusters,
and for a clustered fit on the boundary ratio = 0. Random-intercept oracles
are evaluated at the fit's own variance ratio; that ratio is itself checked
against the root of an extended-precision dense REML slope.
"""

from dataclasses import replace

import numpy as np
import pytest

from covtest import (
    Clusters,
    Dataset,
    build_design,
    cumulative_process,
    fit_ols,
    fit_reml_random_intercept,
    multiplier_null,
    multiplier_processes,
    reml_projection,
    score_statistic,
    smoother_kernel,
)
from covtest.rng import chunked_streams
from covtest.spline_basis import KnotSet
from oracles import (
    dense_fit,
    dense_multiplier_processes,
    dense_projection,
    dense_score,
    intercept_covariance,
    reml_root,
    restricted_loglik,
)
from test_null_fit import clustered_dataset

RTOL = 1e-9

# Unequal sizes, three singletons; labels shuffled so clusters are not contiguous.
_SIZES = [1, 2, 3, 5, 8, 1, 4, 6, 1, 7, 2, 5]


def _dataset(kind, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "ols":
        n, cluster, shift = 37, None, 0.0
    else:
        cluster = rng.permutation(np.repeat(np.arange(len(_SIZES)), _SIZES))
        n = cluster.size
        shift = 1.2 if kind == "clustered" else 0.0
    t = rng.uniform(0, 1, n)
    S = rng.standard_normal((n, 2))
    y = S @ [1.0, -0.5] + t + 0.4 * np.sin(5 * t) + 0.5 * rng.standard_normal(n)
    if shift:
        y = y + rng.normal(0, shift, len(_SIZES))[cluster]
    return Dataset(y=y, S=S, t=t, cluster=cluster)


def _boundary_seed():
    """First seed whose cluster-free data gives the boundary fit ratio = 0."""
    for seed in range(50):
        ds = _dataset("boundary", seed)
        if fit_reml_random_intercept(ds, _design(ds)).ratio == 0.0:
            return seed
    raise AssertionError("no boundary fit in 50 seeds")


def _design(ds):
    return build_design(ds, KnotSet(np.empty(0), 1))


def _pieces(kind):
    ds = _dataset(kind, _boundary_seed() if kind == "boundary" else 0)
    design = _design(ds)
    fit = fit_ols(ds, design) if kind == "ols" else fit_reml_random_intercept(ds, design)
    return ds, design, fit, reml_projection(fit, design.X)


CASES = ["ols", "clustered", "boundary"]


def _rel(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    return float(np.abs(got - want).max() / np.abs(want).max())


def test_cases_cover_both_sides_of_the_boundary():
    assert _pieces("clustered")[2].ratio > 0.1
    assert _pieces("boundary")[2].ratio == 0.0


@pytest.mark.parametrize("kind", CASES)
def test_fit_matches_dense_gls_at_its_ratio(kind):
    ds, design, fit, _ = _pieces(kind)
    labels = ds.cluster if ds.cluster is not None else np.arange(ds.n)
    beta, sigma2, resid = dense_fit(ds.y, design.X, labels, fit.ratio)
    assert _rel(fit.beta, beta) <= RTOL
    assert fit.sigma2_eps == pytest.approx(sigma2, rel=RTOL)
    assert _rel(fit.residuals, resid) <= RTOL
    assert _rel(fit.V, intercept_covariance(labels, sigma2, fit.ratio)) <= RTOL


def test_boundary_fit_is_ols():
    ds, design, fit, _ = _pieces("boundary")
    ols = fit_ols(ds, design)
    assert fit.sigma2_b == 0.0
    np.testing.assert_allclose(fit.beta, ols.beta, rtol=1e-12, atol=1e-12)
    assert fit.sigma2_eps == pytest.approx(ols.sigma2_eps, rel=1e-12)


def test_ratio_maximises_dense_likelihood():
    """The fitted ratio beats its neighbours and the boundary under the dense
    restricted log-likelihood, sigma2 and beta profiled."""
    ds, design, fit, _ = _pieces("clustered")

    def loglik(ratio):
        _, sigma2, _ = dense_fit(ds.y, design.X, ds.cluster, ratio)
        return restricted_loglik(ds.y, design.X, intercept_covariance(ds.cluster, sigma2, ratio))

    best = loglik(fit.ratio)
    for ratio in (0.0, fit.ratio * (1 - 1e-3), fit.ratio * (1 + 1e-3)):
        assert best >= loglik(ratio)


def _root_case(case):
    if case.startswith("seed"):
        return clustered_dataset(n_clusters=12, size=5, seed=int(case[4:]))
    return _pieces(case)[0]


@pytest.mark.parametrize("case", ["clustered", "boundary", "seed0", "seed1", "seed2"])
def test_ratio_is_the_extended_precision_reml_root(case):
    """The fitted ratio is the root of the dense REML slope, solved in
    extended precision, to 1e-10; on the boundary it is exactly 0 and the fit
    is the OLS fit."""
    ds = _root_case(case)
    design = _design(ds)
    fit = fit_reml_random_intercept(ds, design)
    root = reml_root(ds.y, design.X, ds.cluster)
    assert fit.ratio == pytest.approx(root, rel=1e-10, abs=0.0)
    if root == 0.0:
        np.testing.assert_array_equal(fit.beta, fit_ols(ds, design).beta)
    else:
        assert root > 0.1


@pytest.mark.parametrize("kind", CASES)
def test_projection_matches_dense(kind):
    ds, design, fit, proj = _pieces(kind)
    P = dense_projection(fit.V, design.X)
    assert _rel(proj.P, P) <= RTOL
    root = proj.whiten(np.eye(ds.n))
    assert _rel(root @ root, fit.sigma2_eps * np.linalg.inv(fit.V)) <= RTOL  # V^-1/2 at unit variance


@pytest.mark.parametrize("kind", CASES)
def test_score_moments_match_dense(kind):
    ds, design, fit, proj = _pieces(kind)
    kern = smoother_kernel(ds.t, 1)
    got = score_statistic(fit, proj, kern)
    u_quad, mean, variance = dense_score(fit.V, dense_projection(fit.V, design.X), kern.M, fit.residuals)
    assert got.u_quad == pytest.approx(u_quad, rel=RTOL)
    assert got.moments.mean == pytest.approx(mean, rel=RTOL)
    assert got.moments.variance == pytest.approx(variance, rel=RTOL)


@pytest.mark.parametrize("kind", CASES)
def test_cusum_sups_match_dense_residual_map(kind):
    ds, design, fit, proj = _pieces(kind)
    _, dense = dense_multiplier_processes(fit, design.X, ds.t, 300, seed=4)
    got = multiplier_null(fit, proj, ds.t, 300, seed=4)
    np.testing.assert_allclose(got, np.abs(dense).max(axis=1), rtol=RTOL)


@pytest.mark.parametrize(
    "kind, ordering", [("ols", "t"), ("clustered", "t"), ("clustered", "rounded t")]
)
def test_cusum_paths_match_dense_residual_map(kind, ordering):
    """Every resampled path, at every jump, to 1e-12 of the paths' scale; the
    rounded ordering ties rows, so a jump sums several of them."""
    ds, design, fit, proj = _pieces(kind)
    order_by = np.round(ds.t, 1) if ordering == "rounded t" else ds.t
    points, paths = multiplier_processes(fit, proj, order_by, 300, seed=6)
    want_points, want = dense_multiplier_processes(fit, design.X, order_by, 300, seed=6)
    np.testing.assert_array_equal(points, want_points)
    assert (points.size < ds.n) == (ordering == "rounded t")
    assert np.abs(paths - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind", CASES)
def test_residual_map_fixes_residuals_and_kills_design(kind):
    """With every row in one unit, all rows share one multiplier, so each
    resampled path is that multiplier times the partial sums of the mapped
    contributions: the observed process for the residuals (a fixed point of
    the map) and zero for a column of the design (which the map annihilates)."""
    ds, design, fit, proj = _pieces(kind)
    one_unit = replace(fit, clusters=Clusters(np.zeros(ds.n, dtype=np.int64)))
    _, _, rng = next(chunked_streams(1, 5, 256))
    multipliers = rng.standard_normal((5, 1))
    _, paths = multiplier_processes(one_unit, proj, ds.t, 5, seed=1)
    observed = cumulative_process(one_unit, ds.t).values
    np.testing.assert_allclose(paths, multipliers * observed, atol=1e-10 * np.abs(paths).max())
    for column in design.X.T:
        _, paths = multiplier_processes(replace(one_unit, residuals=column), proj, ds.t, 5, seed=1)
        assert np.abs(paths).max() <= 1e-10 * ds.n * np.abs(column).max()
