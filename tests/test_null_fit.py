"""Null-model fitting: OLS, random-intercept REML, and the REML projection."""

import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covtest import (
    Clusters,
    ConfigError,
    Dataset,
    DegenerateFitError,
    ModelError,
    NumericalError,
    build_design,
    fit_ols,
    fit_reml_random_intercept,
    place_knots,
    reml_projection,
    score_statistic,
    smoother_kernel,
)
from covtest.cusum_test import multiplier_processes
from covtest.null_fit import NullFit, fit_null, fit_ols_columns
from covtest.score_test import score_statistics
from covtest.spline_basis import DesignMatrices, KnotSet, stacked_qr
from oracles import reml_slope_terms, restricted_loglik


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

    def test_too_few_rows(self):
        ds = Dataset(y=[1.0, 2.0], S=np.empty((2, 0)), t=[0.0, 1.0])
        with pytest.raises(Exception, match="n >"):
            fit_ols(ds, design_for(ds, degree=1))

    def test_is_the_one_column_case_of_fit_ols_columns(self, rng):
        """fit_ols is the 1 x n x 1 stack, bit for bit; in a stack of several
        replicates and columns every cell is its own fit_ols up to rounding,
        and a rejected design or a perfect fit fails only its own cells."""
        t = np.linspace(0, 1, 25)
        S = rng.standard_normal((3, 25, 2))
        S[1, :, 1] = 2.0 * S[1, :, 0]  # replicate 1's X is rank deficient
        Y = rng.standard_normal((3, 25, 2))
        Y[2, :, 1] = S[2] @ [1.0, -0.5] + 0.5 - t  # replicate 2's second column fits exactly
        datasets = [[Dataset(y=Y[r, :, c], S=S[r], t=t) for c in range(2)] for r in range(3)]
        X = np.stack([np.column_stack([S[r], np.ones(25), t]) for r in range(3)])
        proj = stacked_qr(X)
        fits = fit_ols_columns(Y, proj)
        assert sorted(fits.failed) == [(1, 0), (1, 1), (2, 1)]
        assert str(fits.failed[1, 0]) == "fixed-effects design is rank deficient (4 columns, rank 3)"
        assert isinstance(fits.failed[2, 1], DegenerateFitError)
        for r, c in [(0, 0), (0, 1), (2, 0)]:
            ds = datasets[r][c]
            fit = fit_ols(ds, design_for(ds))
            one = fit_ols_columns(Y[r, None, :, c, None], stacked_qr(X[r, None]))
            for name in ("beta", "fitted", "residuals"):
                np.testing.assert_array_equal(getattr(fit, name), getattr(one.null_fit(0, 0), name))
                np.testing.assert_allclose(getattr(fits.null_fit(r, c), name), getattr(fit, name),
                                           rtol=1e-12, atol=1e-12)
            assert fit.sigma2_eps == one.sigma2[0, 0]
            assert fits.sigma2[r, c] == pytest.approx(fit.sigma2_eps, rel=1e-12)
            np.testing.assert_array_equal(proj.replicate(r).Q[0], stacked_qr(X).Q[r])
        for r, c in fits.failed:
            assert fits.sigma2[r, c] == 1.0 and not fits.residuals[r, :, c].any()

    def test_overflowing_sum_of_squares_is_a_numerical_error(self, rng):
        """y'y = inf is an overflow, not a perfect fit, and warns nothing."""
        t = np.linspace(0, 1, 30)
        ds = Dataset(y=1e160 * (t + rng.standard_normal(30)), S=np.empty((30, 0)), t=t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="sum of squares of the response overflows"):
                fit_ols(ds, design_for(ds))

    def test_rank_deficient_design_rejected(self):
        """A hand-built design, made without build_design, is refused where it
        is made, so no fit can return a minimum-norm solution."""
        t = np.linspace(0, 1, 12)
        A = np.column_stack([np.ones(12), t])
        X = np.column_stack([2.0 * t, A])  # the covariate duplicates t
        with pytest.raises(ModelError, match=r"rank deficient \(3 columns, rank 2\)"):
            DesignMatrices(A=A, B=np.empty((12, 0)), X=X, knots=KnotSet(np.empty(0), 1), t=t)


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

    def test_exactly_clustered_data_stop_at_the_ratio_cap(self):
        """Without within-cluster noise the REML slope stays negative: the
        ratio stops at its cap 1e8."""
        t = np.linspace(0, 1, 40)
        cluster = np.arange(40) % 5
        ds = Dataset(y=1.0 + 2.0 * t + np.arange(5.0)[cluster] ** 2, S=np.empty((40, 0)), t=t,
                     cluster=cluster)
        assert fit_reml_random_intercept(ds, design_for(ds)).ratio == 1e8

    @pytest.mark.parametrize("spread", [0.1, 0.3, 1.0, 5.0])
    def test_root_takes_few_slope_evaluations(self, spread, monkeypatch):
        """On 100 clusters the ratio takes at most 15 slope evaluations (each
        inverts X'W^-1 X once; one more inverse gives the final GLS fit), and
        the fit is a root of the dense REML slope."""
        inverses = []
        real = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(a) or real(a))
        rng = np.random.default_rng(int(10 * spread))
        cluster = np.arange(400) % 100
        t = rng.uniform(0, 1, 400)
        S = rng.standard_normal((400, 2))
        y = S @ [1.0, -0.5] + t + spread * rng.standard_normal(100)[cluster]
        ds = Dataset(y=y + 0.25 * rng.standard_normal(400), S=S, t=t, cluster=cluster)
        design = design_for(ds)
        fit = fit_reml_random_intercept(ds, design)
        assert fit.ratio > 0.0
        assert len(inverses) - 1 <= 15
        monkeypatch.undo()
        trace, quad = reml_slope_terms(ds.y, design.X, ds.cluster, fit.ratio, dtype=float)
        assert abs(trace - quad) <= 1e-9 * trace

    def test_normal_equations_invariant(self):
        ds = clustered_dataset(seed=5)
        design = design_for(ds)
        fit = fit_reml_random_intercept(ds, design)
        X = design.X
        lhs = X.T @ np.linalg.solve(fit.V, ds.y - X @ fit.beta)
        np.testing.assert_allclose(lhs, 0.0, atol=1e-8 * np.abs(ds.y).max())


@st.composite
def unbalanced_clustered(draw):
    """Unbalanced clusters, singletons among them, with no, moderate or large
    between-cluster spread against unit noise."""
    sizes = draw(
        st.lists(st.integers(1, 6), min_size=3, max_size=10)
        .filter(lambda sizes: max(sizes) > 1 and sum(sizes) >= 8)
    )
    spread = draw(st.sampled_from([0.0, 1.0, 30.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cluster = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    t = rng.uniform(0, 1, cluster.size)
    S = rng.standard_normal((cluster.size, 1))
    effects = spread * rng.standard_normal(len(sizes))
    y = 0.5 * t + 0.8 * S[:, 0] + effects[cluster] + rng.standard_normal(cluster.size)
    return Dataset(y=y, S=S, t=t, cluster=cluster)


@given(unbalanced_clustered())
def test_fit_is_a_stationary_point_of_dense_reml(ds):
    """The dense REML slope is zero at a positive fitted ratio and >= 0 at a
    zero one, and the fit's restricted likelihood beats the OLS corner."""
    design = design_for(ds)
    fit = fit_reml_random_intercept(ds, design)
    trace, quad = reml_slope_terms(ds.y, design.X, ds.cluster, fit.ratio, dtype=float)
    if fit.ratio > 0.0:
        assert abs(trace - quad) <= 1e-9 * trace
    else:
        assert trace - quad >= -1e-12 * trace
    corner = restricted_loglik(ds.y, design.X, fit_ols(ds, design).sigma2_eps * np.eye(ds.n))
    assert restricted_loglik(ds.y, design.X, fit.V) >= corner - 1e-12 * abs(corner)


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
            clusters=None,
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

    @pytest.mark.parametrize("clustered", [False, True])
    def test_fit_null_projection_is_reml_projection(self, small_dataset, clustered):
        """fit_null passes the design's QR, and gets the bits of reml_projection
        on a bare X. At ratio 0 that is X's own QR, with no second QR and no
        cluster layout."""
        ds = small_dataset
        if clustered:
            ds = clustered_dataset(n_clusters=5, size=4, shift=1.0, noise=0.7, seed=0)
        design = design_for(ds)
        fit, proj = fit_null(ds, design)
        assert (fit.ratio > 0.0) == clustered
        bare = reml_projection(fit, design.X)
        for name in ("X", "Q", "R"):
            np.testing.assert_array_equal(getattr(proj, name), getattr(bare, name))
        assert proj.clusters is bare.clusters
        if not clustered:
            assert proj.clusters is None
            assert proj.X is design.qr.X and proj.Q is design.qr.Q and proj.R is design.qr.R
            Q, R = np.linalg.qr(design.X)
            np.testing.assert_allclose(proj.Q[0], Q, rtol=0, atol=1e-13)
            np.testing.assert_allclose(proj.R[0], R, rtol=1e-13)

    def test_cli_call_and_study_cell_share_one_projection(self, small_dataset):
        """At ratio 0 a covtest test call's projection (reml_projection of the
        OLS fit) is a study block's (fit_ols_columns of a 1 x 1 stack): the
        same score in every bit, and the same resampled cusum paths."""
        ds = small_dataset
        design = design_for(ds)
        fit, kern = fit_ols(ds, design), smoother_kernel(ds.t, 1)
        call = reml_projection(fit, design.X)
        study = design.qr
        fits = fit_ols_columns(ds.y[None, :, None], study)
        block, failed = score_statistics(fits.residuals, fits.sigma2, study, kern)
        assert not failed

        def bits(result):
            *head, moments, p_value = astuple(result)
            return np.array([*head, *moments, p_value]).tobytes()

        assert bits(score_statistic(fit, call, kern)) == bits(block.cell(0, 0))
        paths = [multiplier_processes(f, p, ds.t, 50, seed=7)[1]
                 for f, p in [(fit, call), (fits.null_fit(0, 0), study.replicate(0))]]
        assert np.array_equal(*paths)

    @pytest.mark.parametrize("clustered", [False, True])
    def test_rank_deficient_design_is_rejected(self, small_dataset, clustered):
        """V^-1/2 X takes the design check of X, at ratio 0 and above: a
        duplicated column is a ModelError, not a singular R."""
        ds = small_dataset
        if clustered:
            ds = clustered_dataset(n_clusters=5, size=4, shift=1.0, noise=0.7, seed=0)
        design = design_for(ds)
        fit = (fit_reml_random_intercept if clustered else fit_ols)(ds, design)
        assert (fit.ratio > 0.0) == clustered
        X = np.column_stack([design.X, design.X[:, -1]])
        p = X.shape[1]
        with pytest.raises(ModelError) as info:
            reml_projection(fit, X)
        assert str(info.value) == f"fixed-effects design is rank deficient ({p} columns, rank {p - 1})"

    def test_ill_conditioned_covariance(self):
        """cond(V) = 1 + ratio * (largest cluster size): 1 + 1.5e12 fails, 1 + 9e11 passes."""
        fit = NullFit(
            beta=np.array([0.0]),
            sigma2_eps=1.0,
            ratio=5e11,
            fitted=np.zeros(4),
            residuals=np.zeros(4),
            clusters=Clusters(np.array([0, 0, 0, 1])),
        )
        with pytest.raises(NumericalError, match="ill-conditioned"):
            reml_projection(fit, np.ones((4, 1)))
        assert reml_projection(replace(fit, ratio=3e11), np.ones((4, 1))).Q.shape == (1, 4, 1)
