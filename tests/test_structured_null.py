"""Factored null covariance against the dense n x n formulas in ``oracles``.

The null fit, REML projection, score moments and cusum resampling never build
V, P or ZZ'. Here each is checked against its dense textbook form, for OLS,
for random-intercept data with unequal cluster sizes and singleton clusters,
and for a clustered fit on the boundary ratio = 0. Random-intercept oracles
are evaluated at the fit's own variance ratio, which the golden-section
search fixes only to its tolerance.
"""

import numpy as np
import pytest

from covtest import (
    Dataset,
    build_design,
    fit_ols,
    fit_reml_random_intercept,
    multiplier_null,
    reml_projection,
    score_statistic,
    smoother_kernel,
)
from covtest.spline_basis import KnotSet
from oracles import (
    DenseResidualMap,
    dense_fit,
    dense_projection,
    dense_score,
    intercept_covariance,
    marginal_loglik,
    restricted_loglik,
)

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
@pytest.mark.parametrize("variance", ["reml", "ml"])
def test_fit_matches_dense_gls_at_its_ratio(kind, variance):
    ds, design, _, _ = _pieces(kind)
    if kind == "ols":
        fit = fit_ols(ds, design, variance=variance)
    else:
        fit = fit_reml_random_intercept(ds, design, variance=variance)
    labels = ds.cluster if ds.cluster is not None else np.arange(ds.n)
    beta, sigma2, resid = dense_fit(ds.y, design.X, labels, fit.ratio, variance)
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


@pytest.mark.parametrize("variance", ["reml", "ml"])
def test_ratio_maximises_dense_likelihood(variance):
    """The fitted ratio beats its neighbours and the boundary under the dense
    restricted (REML) or marginal (ML) log-likelihood, sigma2 and beta profiled."""
    ds, design, _, _ = _pieces("clustered")
    fit = fit_reml_random_intercept(ds, design, variance=variance)

    def loglik(ratio):
        beta, sigma2, _ = dense_fit(ds.y, design.X, ds.cluster, ratio, variance)
        V = intercept_covariance(ds.cluster, sigma2, ratio)
        if variance == "reml":
            return restricted_loglik(ds.y, design.X, V)
        return marginal_loglik(ds.y, design.X, V, beta)

    best = loglik(fit.ratio)
    for ratio in (0.0, fit.ratio * (1 - 1e-3), fit.ratio * (1 + 1e-3)):
        assert best >= loglik(ratio)


@pytest.mark.parametrize("kind", CASES)
def test_projection_matches_dense(kind):
    ds, design, fit, proj = _pieces(kind)
    P = dense_projection(fit.V, design.X)
    assert _rel(proj.P, P) <= RTOL
    root = proj.whiten(np.eye(ds.n))
    assert _rel(root @ root, np.linalg.inv(fit.V)) <= RTOL


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
    dense = DenseResidualMap(fit.V, dense_projection(fit.V, design.X))
    got = multiplier_null(fit, proj, ds.t, 300, seed=4)
    want = multiplier_null(fit, dense, ds.t, 300, seed=4)
    np.testing.assert_allclose(got, want, rtol=RTOL)


@pytest.mark.parametrize("kind", CASES)
def test_residual_map_fixes_residuals_and_kills_design(kind):
    ds, design, fit, proj = _pieces(kind)
    mapped = proj.residual_map(np.vstack([fit.residuals, design.X.T]))
    scale = np.abs(fit.residuals).max()
    np.testing.assert_allclose(mapped[0], fit.residuals, atol=1e-10 * scale)
    assert np.abs(mapped[1:]).max() <= 1e-10 * np.abs(design.X).max()
