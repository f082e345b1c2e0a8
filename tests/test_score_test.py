"""Variance-component score test and its scaled chi-square calibration."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import chdtrc, gammaincc

from covtest import (
    ConfigError,
    Dataset,
    SmootherKernel,
    DegenerateFitError,
    DegenerateTestError,
    build_design,
    fit_ols,
    fit_reml_random_intercept,
    generate_dataset,
    place_knots,
    reml_projection,
    run_score_test,
    score_statistic,
    smoother_kernel,
)
from covtest.null_fit import NullFit, fit_ols_columns
from covtest.score_test import ScoreMoments, _upper_tail, score_statistics
from covtest.spline_basis import KnotSet, NATURAL_SPLINE, PENALIZED_GRAM
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


class TestBatchedColumns:
    @pytest.mark.parametrize("kind", [NATURAL_SPLINE, PENALIZED_GRAM])
    def test_columns_match_their_own_fits(self, kind):
        """One QR of X and one kernel application for the departure levels of
        a replicate give each level's single-fit result; a perfect-fit column
        gets fit_ols's error and fails alone."""
        datasets = generate_dataset(60, 0.5, (0, 1, 2, 4), seed=(23, 1))
        base = datasets[0]
        perfect = Dataset(y=base.S @ [1.3, 0.45] + 0.5 - base.t, S=base.S, t=base.t)
        datasets.insert(2, perfect)
        design = build_design(base, KnotSet(np.empty(0), 1))
        knots = place_knots(base.t, 10, 1) if kind == PENALIZED_GRAM else None
        kern = smoother_kernel(base.t, 1, kind, knots)
        proj, fits = fit_ols_columns(datasets, design)
        results = score_statistics(fits, proj, kern)
        assert len(fits) == len(results) == len(datasets)
        with pytest.raises(DegenerateFitError) as single:
            fit_ols(perfect, design)
        for failed in (fits[2], results[2]):
            assert isinstance(failed, DegenerateFitError) and str(failed) == str(single.value)
        for i, (ds, got) in enumerate(zip(datasets, results)):
            if i == 2:
                continue
            fit = fit_ols(ds, design)
            assert fits[i].sigma2_eps == pytest.approx(fit.sigma2_eps, rel=1e-12)
            np.testing.assert_allclose(fits[i].residuals, fit.residuals, rtol=0, atol=1e-12)
            want = score_statistic(fit, reml_projection(fit, design.X), kern)
            for field in ("u_quad", "null_mean", "u_score", "p_value"):
                assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12)
            assert got.moments.mean == pytest.approx(want.moments.mean, rel=1e-12)
            # The variance is |K|^2 / 2 less terms of nearly its size (here it is
            # 1,400-1,800 times smaller), so two float evaluations of it agree to
            # a few eps of |K|^2 / 2, not of the variance.
            cancel = 0.5 * kern.sq_norm / fit.sigma2_eps**2 / want.moments.variance
            for field in ("variance", "scale", "df"):
                assert getattr(got.moments, field) == pytest.approx(
                    getattr(want.moments, field), rel=16 * np.finfo(float).eps * cancel)
            assert got.kernel_kind == want.kernel_kind
        assert results[-1].p_value < results[0].p_value  # the departure is visible


class TestSatterthwaite:
    """The scaled chi-square tail behind ``ScoreResult.p_value``."""

    def tail(self, u_quad, scale=1.0, df=4.0):
        mom = ScoreMoments(mean=scale * df, variance=2 * scale**2 * df, scale=scale, df=df)
        return _upper_tail(u_quad, mom)

    def test_zero_statistic_gives_one(self):
        assert self.tail(0.0) == 1.0

    @pytest.mark.parametrize("df", [1.0, 2.5, 7.0, 20.0, 50.0])
    def test_value_at_null_mean(self, df):
        """Oracle: regularized upper incomplete gamma at (df/2, df/2)."""
        p = self.tail(df * 2.0, scale=2.0, df=df)
        assert p == pytest.approx(float(gammaincc(df / 2, df / 2)), rel=1e-10)
        assert 0.25 < p < 0.55

    def test_huge_statistic_stays_positive(self):
        p = self.tail(1e6, scale=0.5, df=2.0)
        assert 0.0 < p < 1e-10

    def test_matches_scipy_tail(self):
        """Oracle: scipy's chdtrc, wherever it does not underflow."""
        rng = np.random.default_rng(8)
        df = np.concatenate([rng.uniform(0.1, 1000, 6000), np.exp(rng.uniform(-2.3, 6.9, 6000))])
        x = df * np.exp(rng.uniform(np.log(1e-3), np.log(20), df.size))
        x[::3] = np.abs(df[::3] + 3 * np.sqrt(2 * df[::3]) * rng.standard_normal(df[::3].size))
        want = chdtrc(df, x)
        got = np.array([self.tail(xi, 1.0, dfi) for dfi, xi in zip(df, x)])
        keep = want > 1e-300
        assert keep.sum() > 10000 and (want[keep] < 1e-100).any()
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-10, atol=0)

    def test_matches_result_field(self, small_dataset):
        _, fit, proj, kern = ols_pieces(small_dataset)
        result = score_statistic(fit, proj, kern)
        assert _upper_tail(result.u_quad, result.moments) == result.p_value


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
        knots = place_knots(small_dataset.t, 10, 1)
        result = run_score_test(small_dataset, kernel_kind=PENALIZED_GRAM, knots=knots)
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


class TestMemory:
    @pytest.mark.parametrize("clusters", [0, 500])
    def test_large_n_stays_small(self, clusters):
        """Kernel and score at n = 20 000 stay far below one n x n array (3.2 GB)."""
        rng = np.random.default_rng(clusters)
        n = 20_000
        t = rng.uniform(0, 1, n)
        S = rng.standard_normal((n, 2))
        cluster = rng.integers(0, clusters, n) if clusters else None
        y = S @ [1.0, -0.5] + t + 0.3 * rng.standard_normal(n)
        if clusters:
            y = y + rng.normal(0, 0.5, clusters)[cluster]
        ds = Dataset(y=y, S=S, t=t, cluster=cluster)
        design = build_design(ds, KnotSet(np.empty(0), 1))
        fit = fit_reml_random_intercept(ds, design) if clusters else fit_ols(ds, design)
        assert (fit.ratio > 0) == bool(clusters)
        proj = reml_projection(fit, design.X)
        tracemalloc.start()
        try:
            result = score_statistic(fit, proj, smoother_kernel(ds.t, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < result.p_value <= 1.0
        assert peak < 64 * 2**20
