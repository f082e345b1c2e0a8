"""Null-model fitting: OLS, random-intercept REML, and the REML projection."""

from dataclasses import replace

import numpy as np
import pytest

from covtest import (
    ConfigError,
    Dataset,
    DegenerateFitError,
    NumericalError,
    build_design,
    fit_ols,
    fit_reml_random_intercept,
    place_knots,
    reml_projection,
)
from covtest.null_fit import NullFit
from covtest.spline_basis import KnotSet
from oracles import restricted_loglik


def design_for(ds, degree=1, n_knots=0):
    knots = place_knots(ds.t, n_knots, degree) if n_knots else KnotSet(np.empty(0), degree)
    return build_design(ds, knots)


class TestFitOls:
    def test_perfect_fit_rejected(self):
        t = np.linspace(0, 1, 10)
        ds = Dataset(y=2.0 + 3.0 * t, S=np.empty((10, 0)), t=t)
        with pytest.raises(DegenerateFitError):
            fit_ols(ds, design_for(ds))

    def test_intercept_only(self):
        ds = Dataset(y=[1.0, 2.0, 3.0], S=np.empty((3, 0)), t=[0.0, 0.5, 1.0])
        fit = fit_ols(ds, design_for(ds, degree=0))
        np.testing.assert_allclose(fit.beta, [2.0])
        np.testing.assert_allclose(fit.residuals, [-1.0, 0.0, 1.0])
        assert fit.sigma2_eps == pytest.approx(1.0)
        assert fit.sigma2_b == 0.0

    def test_matches_normal_equations_oracle(self, rng):
        n = 20
        t = np.sort(rng.uniform(0, 1, n))
        S = rng.standard_normal((n, 2))
        y = rng.standard_normal(n) + S @ [1.0, -0.5] + t
        ds = Dataset(y=y, S=S, t=t)
        fit = fit_ols(ds, design_for(ds))
        X = design_for(ds).X
        beta_oracle = np.linalg.inv(X.T @ X) @ X.T @ y
        np.testing.assert_allclose(fit.beta, beta_oracle, rtol=1e-10)

    def test_residuals_orthogonal_to_design(self, small_dataset):
        design = design_for(small_dataset)
        fit = fit_ols(small_dataset, design)
        np.testing.assert_allclose(
            design.X.T @ fit.residuals, 0.0, atol=1e-10 * np.abs(small_dataset.y).max()
        )

    def test_ml_variance_divisor(self, small_dataset):
        design = design_for(small_dataset)
        reml = fit_ols(small_dataset, design, variance="reml")
        ml = fit_ols(small_dataset, design, variance="ml")
        n, p = design.X.shape
        assert ml.sigma2_eps == pytest.approx(reml.sigma2_eps * (n - p) / n, rel=1e-12)
        with pytest.raises(ConfigError):
            fit_ols(small_dataset, design, variance="bogus")

    def test_too_few_rows(self):
        ds = Dataset(y=[1.0, 2.0], S=np.empty((2, 0)), t=[0.0, 1.0])
        with pytest.raises(Exception, match="n >"):
            fit_ols(ds, design_for(ds, degree=1))


def clustered_dataset(n_clusters=6, size=5, shift=2.0, noise=0.5, seed=0, p=1):
    rng = np.random.default_rng(seed)
    cluster = np.repeat(np.arange(n_clusters), size)
    n = cluster.size
    t = rng.uniform(0, 1, n)
    S = rng.standard_normal((n, p))
    effects = rng.normal(0, shift, n_clusters)
    y = 1.0 + 0.5 * t + S @ np.full(p, 0.8) + effects[cluster] + rng.normal(0, noise, n)
    return Dataset(y=y, S=S, t=t, cluster=cluster)


class TestRemlRandomIntercept:
    def test_requires_clusters(self, small_dataset):
        with pytest.raises(ConfigError, match="cluster"):
            fit_reml_random_intercept(small_dataset, design_for(small_dataset))

    def test_singleton_clusters_warn_and_reduce_to_ols(self, rng):
        n = 24
        t = np.sort(rng.uniform(0, 1, n))
        y = rng.standard_normal(n) + t
        ds = Dataset(y=y, S=np.empty((n, 0)), t=t, cluster=np.arange(n))
        design = design_for(ds)
        with pytest.warns(UserWarning, match="unidentifiable"):
            fit = fit_reml_random_intercept(ds, design)
        assert fit.sigma2_b == 0.0
        ols = fit_ols(ds, design)
        np.testing.assert_allclose(fit.beta, ols.beta, atol=1e-8)

    def test_between_cluster_shift_detected(self):
        """Oracle: grid search of the restricted likelihood at 1e-3 resolution."""
        ds = clustered_dataset(n_clusters=8, size=6, shift=1.5, noise=0.4, seed=3)
        design = design_for(ds)
        fit = fit_reml_random_intercept(ds, design)
        assert fit.sigma2_b > 0.0

        X = design.X
        Z = np.zeros((ds.n, ds.n_units))
        Z[np.arange(ds.n), ds.cluster] = 1.0
        best = (-np.inf, None)
        for s_eps in np.arange(0.05, 0.5, 1e-3):
            for s_b in np.arange(max(fit.sigma2_b - 0.5, 0.0), fit.sigma2_b + 0.5, 2.5e-2):
                V = s_eps * np.eye(ds.n) + s_b * (Z @ Z.T)
                val = restricted_loglik(ds.y, X, V)
                if val > best[0]:
                    best = (val, (s_eps, s_b))
        assert restricted_loglik(ds.y, X, fit.V) >= best[0] - 1e-6
        assert fit.sigma2_eps == pytest.approx(best[1][0], abs=5e-3)
        assert fit.sigma2_b == pytest.approx(best[1][1], abs=5e-2)

    def test_never_loses_to_ols_corner(self):
        for seed in range(4):
            ds = clustered_dataset(n_clusters=5, size=4, shift=0.0, noise=1.0, seed=seed)
            design = design_for(ds)
            fit = fit_reml_random_intercept(ds, design)
            ols = fit_ols(ds, design)
            corner = restricted_loglik(ds.y, design.X, ols.sigma2_eps * np.eye(ds.n))
            assert restricted_loglik(ds.y, design.X, fit.V) >= corner - 1e-8

    def test_boundary_zero_is_valid(self):
        ds = clustered_dataset(n_clusters=6, size=5, shift=0.0, noise=1.0, seed=11)
        fit = fit_reml_random_intercept(ds, design_for(ds))
        assert fit.sigma2_b >= 0.0

    def test_normal_equations_invariant(self):
        ds = clustered_dataset(seed=5)
        design = design_for(ds)
        fit = fit_reml_random_intercept(ds, design)
        X = design.X
        lhs = X.T @ np.linalg.solve(fit.V, ds.y - X @ fit.beta)
        np.testing.assert_allclose(lhs, 0.0, atol=1e-8 * np.abs(ds.y).max())


class TestAgainstStatsmodels:
    def test_random_intercept_matches_mixedlm(self):
        """Independent reference implementation, when available."""
        sm = pytest.importorskip("statsmodels.api")
        for seed in range(3):
            r = np.random.default_rng(seed)
            cluster = np.repeat(np.arange(10), 5)
            n = cluster.size
            t = r.uniform(0, 1, n)
            S = r.standard_normal((n, 1))
            y = (
                1.0 + 0.4 * t + 0.8 * S[:, 0]
                + np.repeat(r.normal(0, 0.9, 10), 5)
                + r.normal(0, 0.6, n)
            )
            ds = Dataset(y=y, S=S, t=t, cluster=cluster)
            design = design_for(ds)
            fit = fit_reml_random_intercept(ds, design)
            res = sm.MixedLM(y, design.X, groups=cluster).fit(reml=True)
            np.testing.assert_allclose(fit.beta, np.asarray(res.fe_params), atol=2e-4)
            assert fit.sigma2_eps == pytest.approx(res.scale, abs=2e-3)
            assert fit.sigma2_b == pytest.approx(float(np.asarray(res.cov_re)[0, 0]), abs=5e-3)


class TestRemlProjection:
    def test_centering_matrix_case(self):
        fit = NullFit(
            beta=np.array([0.0]),
            sigma2_eps=1.0,
            ratio=0.0,
            fitted=np.zeros(2),
            residuals=np.zeros(2),
            cluster=None,
            method="ols",
        )
        X = np.ones((2, 1))
        proj = reml_projection(fit, X)
        np.testing.assert_allclose(proj.P, np.eye(2) - 0.5, atol=1e-14)

    def test_annihilates_design(self, small_dataset):
        design = design_for(small_dataset)
        fit = fit_ols(small_dataset, design)
        proj = reml_projection(fit, design.X)
        assert np.abs(proj.P @ design.X).max() <= 1e-10 * np.abs(design.X).max()

    def test_trace_identity(self, rng):
        """Oracle: dense trace of P V equals n minus the fixed-effect count."""
        n = 15
        t = np.sort(rng.uniform(0, 1, n))
        S = rng.standard_normal((n, 1))
        ds = Dataset(y=rng.standard_normal(n) + t, S=S, t=t)
        design = design_for(ds)
        fit = fit_ols(ds, design)
        proj = reml_projection(fit, design.X)
        assert np.trace(proj.P @ fit.V) == pytest.approx(n - design.X.shape[1], rel=1e-9)

    def test_projection_identities_random(self):
        for seed in range(5):
            ds = clustered_dataset(n_clusters=5, size=4, shift=1.0, noise=0.7, seed=seed)
            design = design_for(ds)
            fit = fit_reml_random_intercept(ds, design)
            P = reml_projection(fit, design.X).P
            np.testing.assert_array_equal(P, P.T)
            scale = np.abs(P).max()
            np.testing.assert_allclose(P @ fit.V @ P, P, atol=1e-8 * scale)

    def test_ill_conditioned_covariance(self):
        """cond(V) = 1 + ratio * (largest cluster size): 1 + 1.5e12 fails, 1 + 9e11 passes."""
        fit = NullFit(
            beta=np.array([0.0]),
            sigma2_eps=1.0,
            ratio=5e11,
            fitted=np.zeros(4),
            residuals=np.zeros(4),
            cluster=np.array([0, 0, 0, 1]),
            method="reml-random-intercept",
        )
        with pytest.raises(NumericalError, match="ill-conditioned"):
            reml_projection(fit, np.ones((4, 1)))
        assert reml_projection(replace(fit, ratio=3e11), np.ones((4, 1))).Q.shape == (4, 1)
