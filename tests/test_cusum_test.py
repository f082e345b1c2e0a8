"""Cumulative-sum residual processes and the multiplier resampling test."""

import math

import numpy as np
import pytest

from covtest import (
    ConfigError,
    Dataset,
    build_design,
    cumulative_process,
    fit_ols,
    generate_dataset,
    multiplier_null,
    multiplier_processes,
    reml_projection,
    sup_test,
)
from covtest.null_fit import NullFit
from covtest.spline_basis import KnotSet


def manual_fit(residuals, cluster=None, n=None):
    residuals = np.asarray(residuals, dtype=float)
    n = n or residuals.size
    return NullFit(
        beta=np.zeros(1),
        sigma2_eps=1.0,
        ratio=0.0,
        fitted=np.zeros(n),
        residuals=residuals,
        cluster=None if cluster is None else np.asarray(cluster),
        method="ols",
    )


def fitted_pieces(dataset, degree=1):
    design = build_design(dataset, KnotSet(np.empty(0), degree))
    fit = fit_ols(dataset, design)
    proj = reml_projection(fit, design.X)
    return design, fit, proj


class TestCumulativeProcess:
    def test_hand_partial_sum_oracle(self):
        fit = manual_fit([1.0, -2.0, 1.0])
        process = cumulative_process(fit, np.array([0.1, 0.2, 0.3]))
        np.testing.assert_allclose(
            process.values, np.array([1.0, -1.0, 0.0]) / math.sqrt(3)
        )
        np.testing.assert_array_equal(process.points, [0.1, 0.2, 0.3])

    def test_value_below_first_point_is_zero(self):
        fit = manual_fit([1.0, -1.0])
        process = cumulative_process(fit, np.array([0.5, 0.7]))
        assert process.value_at(0.0) == 0.0
        assert process.value_at(0.5) == pytest.approx(1.0 / math.sqrt(2))

    def test_ties_aggregate_to_one_jump(self):
        fit = manual_fit([1.0, 2.0, -1.0])
        process = cumulative_process(fit, np.array([0.3, 0.3, 0.9]))
        np.testing.assert_array_equal(process.points, [0.3, 0.9])
        np.testing.assert_allclose(
            process.values, np.array([3.0, 2.0]) / math.sqrt(3)
        )

    def test_terminal_zero_with_intercept(self, small_dataset):
        _, fit, _ = fitted_pieces(small_dataset)
        process = cumulative_process(fit, small_dataset.t)
        scale = np.abs(fit.residuals).max()
        assert abs(process.values[-1]) <= 1e-12 * max(scale, 1.0)

    def test_permutation_invariant(self, small_dataset, rng):
        _, fit, _ = fitted_pieces(small_dataset)
        base = cumulative_process(fit, small_dataset.t)
        perm = rng.permutation(small_dataset.n)
        shuffled = Dataset(
            y=small_dataset.y[perm], S=small_dataset.S[perm], t=small_dataset.t[perm]
        )
        _, fit2, _ = fitted_pieces(shuffled)
        other = cumulative_process(fit2, shuffled.t)
        np.testing.assert_array_equal(other.points, base.points)
        np.testing.assert_allclose(other.values, base.values, atol=1e-10)

    def test_cluster_normalization(self):
        fit = manual_fit([1.0, 1.0, -1.0, -1.0], cluster=[0, 0, 1, 1])
        process = cumulative_process(fit, np.array([1.0, 2.0, 3.0, 4.0]))
        assert process.n_units == 2
        np.testing.assert_allclose(
            process.values, np.array([1.0, 2.0, 1.0, 0.0]) / math.sqrt(2)
        )


class TestMultiplierNull:
    def test_zero_residuals_give_zero_sups(self, small_dataset):
        design, fit, proj = fitted_pieces(small_dataset)
        silent = manual_fit(np.zeros(small_dataset.n))
        sups = multiplier_null(silent, proj, small_dataset.t, 50, seed=1)
        np.testing.assert_array_equal(sups, np.zeros(50))

    def test_single_unit_scales_observed_process(self, small_dataset):
        design, fit, proj = fitted_pieces(small_dataset)
        one_unit = NullFit(
            beta=fit.beta,
            sigma2_eps=fit.sigma2_eps,
            ratio=0.0,
            fitted=fit.fitted,
            residuals=fit.residuals,
            cluster=np.zeros(fit.n, dtype=int),
            method="ols",
        )
        observed = cumulative_process(one_unit, small_dataset.t)
        points, paths = multiplier_processes(one_unit, proj, small_dataset.t, 20, seed=2)
        sups = multiplier_null(one_unit, proj, small_dataset.t, 20, seed=2)
        for r in range(20):
            ratios = paths[r] / observed.values
            finite = np.isfinite(ratios)
            g = np.median(ratios[finite])
            np.testing.assert_allclose(paths[r], g * observed.values, atol=1e-10)
            assert sups[r] == pytest.approx(abs(g) * observed.sup, rel=1e-9)

    def test_bit_reproducible(self, small_dataset):
        _, fit, proj = fitted_pieces(small_dataset)
        a = multiplier_null(fit, proj, small_dataset.t, 300, seed=9)
        b = multiplier_null(fit, proj, small_dataset.t, 300, seed=9)
        assert np.array_equal(a, b)

    def test_resampled_terminal_zero_with_intercept(self, small_dataset):
        _, fit, proj = fitted_pieces(small_dataset)
        points, paths = multiplier_processes(fit, proj, small_dataset.t, 40, seed=3)
        assert np.abs(paths[:, -1]).max() <= 1e-10

    def test_needs_positive_resamples(self, small_dataset):
        _, fit, proj = fitted_pieces(small_dataset)
        with pytest.raises(ConfigError):
            multiplier_null(fit, proj, small_dataset.t, 0, seed=1)


class TestSupTest:
    def test_zero_observed_gives_one(self):
        process = cumulative_process(manual_fit([0.0, 0.0]), np.array([0.1, 0.2]))
        result = sup_test(process, np.array([0.5, 0.1, 0.0]))
        assert result.p_value == 1.0

    def test_observed_beyond_every_resample(self):
        fit = manual_fit([5.0, -1.0])
        process = cumulative_process(fit, np.array([0.1, 0.2]))
        result = sup_test(process, np.linspace(0.0, 1.0, 99))
        assert result.p_value == 1.0 / 100.0

    def test_rank_oracle(self, rng):
        fit = manual_fit([1.0, -0.25, 0.5])
        process = cumulative_process(fit, np.array([0.1, 0.2, 0.3]))
        sups = rng.uniform(0, 2, 501)
        result = sup_test(process, sups)
        expected = (1 + int(np.sum(np.sort(sups) >= process.sup))) / 502
        assert result.p_value == expected


class TestCalibration:
    def test_null_pvalues_near_uniform(self):
        """MC calibration oracle: p-values roughly uniform under a true null.

        Conditioning on the observed residuals costs the multiplier scheme
        about 0.10 of KS distance at n = 50 (about 0.05 at n = 100); the
        bound reflects that measured quality. The 0.05-level rejection rate
        is checked against a hard window in the acceptance suite.
        """
        from scipy.stats import kstest

        m, n_outer, n_res = 50, 1000, 500
        t = np.linspace(0, 1, m)
        pvals = np.empty(n_outer)
        for rep in range(n_outer):
            noise = np.random.default_rng((606, rep)).standard_normal(m)
            ds = Dataset(y=1.0 + 0.5 * t + noise, S=np.empty((m, 0)), t=t)
            _, fit, proj = fitted_pieces(ds)
            sups = multiplier_null(fit, proj, ds.t, n_res, seed=(607, rep))
            pvals[rep] = sup_test(cumulative_process(fit, ds.t), sups).p_value
        assert kstest(pvals, "uniform").statistic < 0.12

    def test_power_against_strong_departure(self):
        """Rejects clearly nonlinear data most of the time."""
        rejections = 0
        n_reps = 40
        for rep in range(n_reps):
            ds = generate_dataset(100, 0.25, 4, seed=(77, rep))
            _, fit, proj = fitted_pieces(ds)
            sups = multiplier_null(fit, proj, ds.t, 400, seed=(78, rep))
            p = sup_test(cumulative_process(fit, ds.t), sups).p_value
            rejections += p < 0.05
        assert rejections / n_reps >= 0.5
