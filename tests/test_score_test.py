"""Variance-component score test and its scaled chi-square calibration."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import chdtrc, gammaincc

from covtest import (
    ConfigError,
    Dataset,
    SmootherKernel,
    DegenerateFitError,
    DegenerateTestError,
    NumericalError,
    SimConfig,
    build_design,
    fit_ols,
    fit_reml_random_intercept,
    generate_dataset,
    place_knots,
    reml_projection,
    run_score_test,
    run_study,
    score_statistic,
    smoother_kernel,
)
from covtest import score_test
from covtest.null_fit import NullFit, fit_ols_columns
from covtest.score_test import (
    _SCALE_ERROR,
    ScoreMoments,
    _tail_arguments,
    _upper_tail,
    _whitened_norms,
    score_statistics,
)
from covtest.spline_basis import KnotSet, NATURAL_SPLINE, PENALIZED_GRAM, stacked_qr
from oracles import gamma_q, restricted_loglik


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
            clusters=None,
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
        """One stacked OLS fit and one kernel application for a block of
        replicates and departure levels give each cell's one-fit result to
        1e-12; a perfect-fit column gets fit_ols's error and fails alone."""
        levels = (0, 1, 2, 4)
        draws = [[generate_dataset(60, 0.5, c, seed=(23, rep)) for c in levels] for rep in range(3)]
        base = draws[0][0]
        draws[1][2] = Dataset(y=draws[1][0].S @ [1.3, 0.45] + 0.5 - base.t, S=draws[1][0].S, t=base.t)
        Y = np.stack([np.column_stack([ds.y for ds in datasets]) for datasets in draws])
        designs = [build_design(datasets[0], KnotSet(np.empty(0), 1)) for datasets in draws]
        X = np.stack([design.X for design in designs])
        knots = place_knots(base.t, 10, 1) if kind == PENALIZED_GRAM else None
        kern = smoother_kernel(base.t, 1, kind, knots)
        proj = stacked_qr(X)
        fits = fit_ols_columns(Y, proj)
        results, failed = score_statistics(fits.residuals, fits.sigma2, proj, kern)
        assert results.p_value.shape == (3, len(levels)) and not failed
        with pytest.raises(DegenerateFitError) as single:
            fit_ols(draws[1][2], designs[1])
        assert list(fits.failed) == [(1, 2)] and str(fits.failed[1, 2]) == str(single.value)
        for r, datasets in enumerate(draws):
            for c, ds in enumerate(datasets):
                if (r, c) == (1, 2):
                    continue
                fit = fit_ols(ds, designs[r])
                want = score_statistic(fit, reml_projection(fit, designs[r].X), kern)
                got = results.cell(r, c)
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
            assert results.p_value[r, -1] < results.p_value[r, 0]  # the departure is visible

    def test_degenerate_replicate_fails_only_its_cells(self):
        """A kernel inside one replicate's design span makes that replicate's
        test degenerate; the other replicate still gets its statistics."""
        draws = [[generate_dataset(40, 0.5, c, seed=(29, rep)) for c in (0, 2)] for rep in range(2)]
        Y = np.stack([np.column_stack([ds.y for ds in datasets]) for datasets in draws])
        X = np.stack([build_design(datasets[0], KnotSet(np.empty(0), 1)).X for datasets in draws])
        x0 = X[0, :, 0]
        kern = SmootherKernel(M=np.outer(x0, x0), kind="span")
        proj = stacked_qr(X)
        fits = fit_ols_columns(Y, proj)
        results, failed = score_statistics(fits.residuals, fits.sigma2, proj, kern)
        assert sorted(failed) == [(0, 0), (0, 1)]
        assert all(isinstance(error, DegenerateTestError) for error in failed.values())
        fit = fit_ols(draws[1][1], build_design(draws[1][0], KnotSet(np.empty(0), 1)))
        want = score_statistic(fit, reml_projection(fit, X[1]), kern)
        assert results.cell(1, 1).p_value == pytest.approx(want.p_value, rel=1e-12)

    def test_unconverged_tail_fails_only_its_cell(self, monkeypatch):
        """A cell whose chi-square tail does not converge fails alone with a
        numerical error naming its arguments."""
        import covtest.score_test as score_test

        datasets = [generate_dataset(40, 0.5, c, seed=(31, 0)) for c in (0, 4)]
        design = build_design(datasets[0], KnotSet(np.empty(0), 1))
        Y = np.column_stack([ds.y for ds in datasets])[None]
        kern = smoother_kernel(datasets[0].t, 1)
        proj = design.qr
        fits = fit_ols_columns(Y, proj)
        want, _ = score_statistics(fits.residuals, fits.sigma2, proj, kern)
        # 20 terms close the c = 0 series (17) but not the c = 4 continued fraction (21).
        monkeypatch.setattr(score_test, "_MAX_TERMS", 20)
        results, failed = score_statistics(fits.residuals, fits.sigma2, proj, kern)
        assert list(failed) == [(0, 1)]
        a, x = score_test._tail_arguments(results.u_quad, results.moments)
        assert str(failed[0, 1]) == f"chi-square tail did not converge at a = {a[0, 1]}, x = {x[0, 1]}"
        assert results.p_value[0, 0] == want.p_value[0, 0]


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
        got = self.tail(x, 1.0, df)
        keep = want > 1e-300
        assert keep.sum() > 10000 and (want[keep] < 1e-100).any()
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-10, atol=0)

    def test_array_tail_is_the_scalar_tail_per_element(self):
        """On arrays the tail takes the scalar oracle's recurrence per element, bit
        for bit: on both sides of x = a + 1, at x = 0 and far in the tail,
        where it is floored at the smallest float."""
        a = np.array([[0.5, 0.5, 3.0, 3.0, 20.0], [20.0, 2.5, 2.5, 1.0, 0.7]])
        x = np.array([[1.4999, 1.5001, 3.9, 4.1, 21.0 - 1e-9], [21.0, 0.0, 400.0, 800.0, 1.7]])
        moments = ScoreMoments(mean=a, variance=a, scale=np.full(a.shape, 0.5), df=2.0 * a)
        got = _upper_tail(x, moments)  # the tail at u_quad = x is Q(df / 2, x)
        want = [[max(gamma_q(ak, xk), np.finfo(float).tiny) for ak, xk in zip(ar, xr)]
                for ar, xr in zip(a.tolist(), x.tolist())]
        assert got.shape == a.shape and np.array_equal(got, want)
        assert got[1, 1] == 1.0 and got[1, 3] == np.finfo(float).tiny

    @staticmethod
    def scalar_tail(u_quad, moments, max_terms=score_test._MAX_TERMS):
        """The tail by the scalar oracle, one element at a time."""
        a, x = _tail_arguments(u_quad, moments)
        return np.reshape([max(gamma_q(ak, xk, max_terms), np.finfo(float).tiny)
                           for ak, xk in zip(a.ravel().tolist(), x.ravel().tolist())], a.shape)

    def test_array_tail_is_the_scalar_tail_on_the_study_cells(self, monkeypatch):
        """Bit for bit the scalar recurrence on every cell of the benchmark's study
        grid (m = 50 and 100, two sigma, five c, 40 runs: 800 cells), as each
        block passes them."""
        cells = []
        real = score_test._upper_tail

        def spy(u_quad, moments):
            cells.append((u_quad, moments, real(u_quad, moments)))
            return cells[-1][2]

        monkeypatch.setattr(score_test, "_upper_tail", spy)
        run_study(SimConfig(m_values=(50, 100), tests=("score",), n_runs=40, n_knots=20, seed=1))
        assert sum(got.size for *_, got in cells) == 800
        for u_quad, moments, got in cells:
            assert got.tobytes() == self.scalar_tail(u_quad, moments).tobytes()

    @given(pairs=st.lists(st.tuples(
               st.one_of(st.floats(1e-3, 1e4), st.sampled_from([math.nan, math.inf])),
               st.one_of(st.floats(-10.0, 1e4), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))),
               min_size=1, max_size=30),
           max_terms=st.sampled_from([20, score_test._MAX_TERMS]))
    @example(pairs=[(2.5, 0.0), (2.5, -1.0), (math.nan, 1.0), (1.0, math.inf), (50.0, 51.0), (100.0, 99.0),
                    (0.5, 0.4)], max_terms=20)
    def test_array_tail_is_the_scalar_tail_on_a_sample(self, pairs, max_terms):
        """Bit for bit the scalar recurrence on (a, x) pairs on both sides of
        x = a + 1, at x <= 0, with non-finite arguments (NaN) and, at 20 terms,
        where a recurrence does not converge (NaN: (50, 51) and (100, 99) need more)."""
        a, x = np.array(pairs).T
        moments = ScoreMoments(mean=a, variance=a, scale=np.full(a.shape, 0.5), df=2.0 * a)
        with mock.patch.object(score_test, "_MAX_TERMS", max_terms):
            got = _upper_tail(x, moments)  # the tail at u_quad = x is Q(df / 2, x)
        assert got.tobytes() == self.scalar_tail(x, moments, max_terms).tobytes()

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
        _, fit, proj, kern = ols_pieces(small_dataset)
        assert result == score_statistic(fit, proj, kern)

    def test_pipeline_penalized_kernel(self, small_dataset):
        knots = place_knots(small_dataset.t, 10, 1)
        result = run_score_test(small_dataset, kernel_kind=PENALIZED_GRAM, knots=knots)
        assert 0.0 < result.p_value <= 1.0
        _, fit, proj, _ = ols_pieces(small_dataset)
        assert result == score_statistic(fit, proj, smoother_kernel(small_dataset.t, 1, PENALIZED_GRAM, knots))

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


def drawn_fit(n, clusters):
    """Data of size n with two covariates, and its OLS or random-intercept fit
    and projection (rows dealt to clusters at random)."""
    rng = np.random.default_rng(clusters)
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
    return ds, fit, reml_projection(fit, design.X)


class TestMemory:
    @pytest.mark.parametrize("clusters", [0, 500])
    def test_large_n_stays_small(self, clusters):
        """Kernel and score at n = 20 000 stay far below one n x n array (3.2 GB)."""
        ds, fit, proj = drawn_fit(20_000, clusters)
        tracemalloc.start()
        try:
            result = score_statistic(fit, proj, smoother_kernel(ds.t, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < result.p_value <= 1.0
        assert peak < 64 * 2**20

    def test_study_block_slices_stay_small(self, study_block):
        """A study block at m = 100 (32 replicates x 10 columns, p = 4) applies the
        kernel to 11 replicates at a time, an n x 11 (p + C) input (0.12 MB) with
        the kernel's output and scratch: under 0.6 MB, where one n x 32 (p + C)
        pass took 1.09 MB."""
        _, fixtures, Y, factored = study_block(32)
        fits = fit_ols_columns(Y, factored[1])
        tracemalloc.start()
        try:
            score_statistics(fits.residuals, fits.sigma2, factored[1], fixtures["kernel"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * 2**20

    def test_cluster_blocks_stay_small(self):
        """tr K and |K|^2 at n = 2000 with 100 clusters apply the kernel to
        blocks of 32 cluster indicators (0.5 MB each), a few of them alive at
        once: under 3 MB, where blocks of 2 MB took 7.6 MB."""
        ds, fit, proj = drawn_fit(2000, 100)
        kernel = smoother_kernel(ds.t, 1)
        tracemalloc.start()
        try:
            trace, sq_norm = _whitened_norms(kernel, proj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < trace and 0.0 < sq_norm
        assert peak < 3 * 2**20


def response_scale_data(clustered):
    """n = 300 rows of y = 0.7 s + 0.6 e^2t sin 9t + 0.3 e, t sorted uniform,
    plus a N(0, 2^2) intercept on each of 30 clusters when ``clustered``."""
    rng = np.random.default_rng(0)
    n = 300
    t = np.sort(rng.uniform(0, 1, n))
    s = rng.standard_normal(n)
    y = 0.7 * s + 0.6 * np.exp(2 * t) * np.sin(9 * t) + 0.3 * rng.standard_normal(n)
    cluster = None
    if clustered:
        cluster = np.arange(n) % 30
        y = y + 2.0 * rng.standard_normal(30)[cluster]
    return y, s[:, None], t, cluster


class TestResponseScale:
    """The score test does not depend on y's units: the projection is at unit
    variance and sigma-hat^2 is one scale. y * 10^k gives k = 0's p-value
    while every reported field is a finite normal double, and one
    NumericalError once a field leaves that range, never another exception."""

    @pytest.mark.parametrize("clustered", [False, True])
    def test_scaled_response(self, clustered):
        y, S, t, cluster = response_scale_data(clustered)
        ds = Dataset(y=y, S=S, t=t, cluster=cluster)
        base = run_score_test(ds)
        if clustered:
            assert fit_reml_random_intercept(ds, build_design(ds, KnotSet(np.empty(0), 1))).ratio > 0.0
        for k in (-150, -100, -77, -76, -70, -40, 40, 70, 76, 77, 100, 150):
            try:
                got = run_score_test(Dataset(y=y * 10.0**k, S=S, t=t, cluster=cluster))
            except NumericalError as exc:
                assert abs(k) >= 77, k
                assert str(exc) == _SCALE_ERROR
                continue
            assert abs(k) < 100, k
            fields = [got.u_quad, got.null_mean, *(getattr(got.moments, f) for f in ("mean", "variance", "scale", "df"))]
            assert all(np.isfinite(f) and abs(f) >= np.finfo(float).tiny for f in fields), k
            assert got.p_value == pytest.approx(base.p_value, rel=1e-10, abs=0), k
