"""Variance-component score test and its scaled chi-square calibration."""

import numpy as np
import pytest
from scipy.special import gammaincc

from covtest import (
    ConfigError,
    Dataset,
    SmootherKernel,
    DegenerateTestError,
    build_design,
    fit_ols,
    fit_reml_random_intercept,
    generate_dataset,
    reml_projection,
    run_score_test,
    satterthwaite_pvalue,
    score_statistic,
    smoother_kernel,
)
from covtest.null_fit import NullFit
from covtest.score_test import ScoreMoments, ScoreResult
from covtest.spline_basis import KnotSet, PENALIZED_GRAM
from oracles import restricted_loglik


def ols_pieces(dataset, degree=1):
    design = build_design(dataset, KnotSet(np.empty(0), degree))
    fit = fit_ols(dataset, design)
    proj = reml_projection(fit, design.X)
    kern = smoother_kernel(dataset.t, degree)
    return design, fit, proj, kern


class TestScoreStatistic:
    def test_zero_residuals(self, small_dataset):
        design, fit, proj, kern = ols_pieces(small_dataset)
        silent = NullFit(
            beta=fit.beta,
            sigma2_eps=fit.sigma2_eps,
            ratio=0.0,
            fitted=fit.fitted,
            residuals=np.zeros(fit.n),
            cluster=None,
            method="ols",
        )
        result = score_statistic(silent, proj, kern)
        assert result.u_quad == 0.0
        assert result.u_score == -result.null_mean < 0.0

    def test_zero_kernel_degenerate(self, small_dataset):
        design, fit, proj, _ = ols_pieces(small_dataset)
        with pytest.raises(DegenerateTestError):
            score_statistic(fit, proj, SmootherKernel(M=np.zeros((fit.n, fit.n)), kind="zero"))

    def test_kernel_inside_design_span_degenerate(self, small_dataset):
        design, fit, proj, _ = ols_pieces(small_dataset)
        x0 = design.X[:, -1]
        M = np.outer(x0, x0)  # PSD but annihilated by the projection
        with pytest.raises(DegenerateTestError):
            score_statistic(fit, proj, SmootherKernel(M=M, kind="span"))

    def test_shape_mismatch(self, small_dataset):
        design, fit, proj, _ = ols_pieces(small_dataset)
        with pytest.raises(ConfigError):
            score_statistic(fit, proj, SmootherKernel(M=np.eye(3), kind="bad"))

    @pytest.mark.parametrize("clustered", [False, True])
    def test_score_is_likelihood_derivative(self, clustered):
        """Oracle: central finite difference of the restricted log-likelihood
        of V + tau*M at tau = 0."""
        rng = np.random.default_rng(42 if clustered else 24)
        m = 14
        t = np.sort(rng.uniform(0, 1, m))
        S = rng.standard_normal((m, 1))
        cluster = np.repeat(np.arange(7), 2) if clustered else None
        y = S[:, 0] + t + rng.standard_normal(m) * 0.6
        if clustered:
            y = y + np.repeat(rng.normal(0, 0.8, 7), 2)
        ds = Dataset(y=y, S=S, t=t, cluster=cluster)
        design = build_design(ds, KnotSet(np.empty(0), 1))
        fit = fit_reml_random_intercept(ds, design) if clustered else fit_ols(ds, design)
        proj = reml_projection(fit, design.X)
        kern = smoother_kernel(ds.t, 1)
        result = score_statistic(fit, proj, kern)
        step = 1e-6 * fit.sigma2_eps
        up = restricted_loglik(ds.y, design.X, fit.V + step * kern.M)
        down = restricted_loglik(ds.y, design.X, fit.V - step * kern.M)
        derivative = (up - down) / (2 * step)
        assert result.u_score == pytest.approx(derivative, rel=1e-4)

    def test_moment_identities_by_simulation(self, rng):
        """E[u_quad] = mean and Var[u_quad] = variance under the null law."""
        m = 40
        ds = generate_dataset(m, 0.5, 0, seed=(7, 0))
        design, fit, proj, kern = ols_pieces(ds)
        result = score_statistic(fit, proj, kern)
        C = 0.5 * proj.P @ kern.M @ proj.P
        L = np.linalg.cholesky(fit.V)
        draws = (design.X @ fit.beta)[None, :] + rng.standard_normal((4000, m)) @ L.T
        u = np.einsum("ij,jk,ik->i", draws, C, draws)
        se_mean = u.std() / np.sqrt(u.size)
        assert abs(u.mean() - result.moments.mean) <= 3 * se_mean
        assert abs(u.var() - result.moments.variance) <= 0.15 * result.moments.variance

    def test_moment_dataclass_identities(self, small_dataset):
        _, fit, proj, kern = ols_pieces(small_dataset)
        mom = score_statistic(fit, proj, kern).moments
        assert mom.scale * mom.df == pytest.approx(mom.mean, rel=1e-12)
        assert 2 * mom.scale**2 * mom.df == pytest.approx(mom.variance, rel=1e-12)


class TestSatterthwaite:
    def moments(self, scale, df):
        return ScoreMoments(mean=scale * df, variance=2 * scale**2 * df, scale=scale, df=df)

    def result_at(self, u_quad, scale=1.0, df=4.0):
        mom = self.moments(scale, df)
        return ScoreResult(
            u_quad=u_quad,
            null_mean=mom.mean,
            u_score=u_quad - mom.mean,
            moments=mom,
            p_value=0.5,
            kernel_kind="test",
        )

    def test_zero_statistic_gives_one(self):
        assert satterthwaite_pvalue(self.result_at(0.0)) == 1.0

    @pytest.mark.parametrize("df", [1.0, 2.5, 7.0, 20.0, 50.0])
    def test_value_at_null_mean(self, df):
        """Oracle: regularized upper incomplete gamma at (df/2, df/2)."""
        p = satterthwaite_pvalue(self.result_at(df * 2.0, scale=2.0, df=df))
        assert p == pytest.approx(float(gammaincc(df / 2, df / 2)), rel=1e-10)
        assert 0.25 < p < 0.55

    def test_huge_statistic_stays_positive(self):
        p = satterthwaite_pvalue(self.result_at(1e6, scale=0.5, df=2.0))
        assert 0.0 < p < 1e-10

    def test_matches_result_field(self, small_dataset):
        _, fit, proj, kern = ols_pieces(small_dataset)
        result = score_statistic(fit, proj, kern)
        assert satterthwaite_pvalue(result) == result.p_value


class TestInvariances:
    def test_kernel_scaling_leaves_pvalue(self, small_dataset):
        _, fit, proj, kern = ols_pieces(small_dataset)
        base = score_statistic(fit, proj, kern)
        for c in (1e-6, 1.0, 1e6):
            scaled = SmootherKernel(M=c * kern.M, kind=kern.kind)
            got = score_statistic(fit, proj, scaled)
            assert abs(got.p_value - base.p_value) <= 1e-10
            assert got.moments.df == pytest.approx(base.moments.df, rel=1e-9)

    def test_mean_score_increases_with_departure(self):
        """Expected score grows with the size of the smooth departure."""
        means = []
        for c in range(5):
            total = 0.0
            for rep in range(120):
                ds = generate_dataset(50, 0.25, c, seed=(33, rep))
                _, fit, proj, kern = ols_pieces(ds)
                total += score_statistic(fit, proj, kern).u_score
            means.append(total / 120)
        assert all(b > a for a, b in zip(means, means[1:])), means

    def test_null_pvalues_near_uniform(self):
        """KS distance of null p-values from uniform stays small.

        The plug-in moment calibration leaves a mid-range deviation of about
        0.10 at m = 50 (shrinking with m); the bound reflects that measured
        quality, while the 0.05-level size is checked separately in the
        acceptance suite.
        """
        from scipy.stats import kstest

        pvals = np.empty(2000)
        for rep in range(2000):
            ds = generate_dataset(50, 0.25, 0, seed=(44, rep))
            _, fit, proj, kern = ols_pieces(ds)
            pvals[rep] = score_statistic(fit, proj, kern).p_value
        assert kstest(pvals, "uniform").statistic < 0.12


class TestRunScoreTest:
    def test_pipeline_natural_kernel(self, small_dataset):
        result = run_score_test(small_dataset)
        assert 0.0 < result.p_value <= 1.0
        assert result.kernel_kind == "natural-spline-kernel"

    def test_pipeline_penalized_kernel(self, small_dataset):
        result = run_score_test(small_dataset, kernel_kind=PENALIZED_GRAM, n_knots=10)
        assert 0.0 < result.p_value <= 1.0
        assert result.kernel_kind == "penalized-gram"

    def test_pipeline_clustered(self):
        rng = np.random.default_rng(9)
        cluster = np.repeat(np.arange(8), 4)
        n = cluster.size
        t = rng.uniform(0, 1, n)
        y = 0.5 * t + np.repeat(rng.normal(0, 1, 8), 4) + rng.normal(0, 0.5, n)
        ds = Dataset(y=y, S=np.empty((n, 0)), t=t, cluster=cluster)
        result = run_score_test(ds)
        assert 0.0 < result.p_value <= 1.0

    def test_detects_strong_departure(self):
        ds = generate_dataset(100, 0.25, 4, seed=(55, 0))
        assert run_score_test(ds).p_value < 0.001
