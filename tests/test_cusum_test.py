"""Cumulative-sum residual processes and the multiplier resampling test."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from covtest import (
    Clusters,
    ConfigError,
    Dataset,
    build_design,
    cumulative_process,
    fit_ols,
    fit_reml_random_intercept,
    generate_dataset,
    multiplier_null,
    multiplier_processes,
    reml_projection,
    sup_test,
)
from covtest import rng as rngmod
from covtest.cusum_test import _RESAMPLE_CHUNK, _SUB_BLOCK, CusumProcess
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
        clusters=None if cluster is None else Clusters(cluster),
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

    def test_units_are_the_clusters_not_the_largest_label(self):
        """A hand-made fit's labels [7, 3, 7, 9] are three units, as [0, 1, 0, 2] are:
        the process is scaled by 1/sqrt(3), and the multiplier draws are the same."""
        residuals, t = [1.0, -1.0, 2.0, -2.0], np.array([1.0, 2.0, 3.0, 4.0])
        raw, coded = manual_fit(residuals, cluster=[7, 3, 7, 9]), manual_fit(residuals, cluster=[0, 1, 0, 2])
        process = cumulative_process(raw, t)
        assert process.n_units == raw.n_units == 3
        np.testing.assert_array_equal(process.values, cumulative_process(coded, t).values)
        np.testing.assert_allclose(process.values, np.array([1.0, 0.0, 2.0, 0.0]) / math.sqrt(3))
        proj = reml_projection(raw, np.ones((4, 1)))
        np.testing.assert_array_equal(multiplier_null(raw, proj, t, 40, seed=3),
                                      multiplier_null(coded, proj, t, 40, seed=3))


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
            clusters=Clusters(np.zeros(fit.n, dtype=int)),
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

    def test_nan_sup_does_not_reject(self):
        """No resample is >= NaN, so the add-one count alone would give the
        smallest p-value; a NaN sup gets a NaN p-value instead."""
        process = CusumProcess(np.array([0.1, 0.2]), np.array([np.nan, 1.0]), n_units=2)
        result = sup_test(process, np.linspace(0.0, 1.0, 99))
        assert math.isnan(process.sup) and math.isnan(result.p_value)
        assert result.n_resamples == 99


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


def drawn_pieces(n, clusters):
    """Data, OLS or random-intercept fit and projection at size n (no departure)."""
    rng = np.random.default_rng((n, clusters))
    t = rng.uniform(0, 1, n)
    S = rng.standard_normal((n, 2))
    cluster = np.arange(n) % clusters if clusters else None
    y = S @ [1.0, -0.5] + t + 0.3 * rng.standard_normal(n)
    if clusters:
        y = y + rng.normal(0, 0.5, clusters)[cluster]
    ds = Dataset(y=y, S=S, t=t, cluster=cluster)
    design = build_design(ds, KnotSet(np.empty(0), 1))
    fit = fit_reml_random_intercept(ds, design) if clusters else fit_ols(ds, design)
    return ds, design, fit, reml_projection(fit, design.X)


class TestSubBlocks:
    """Each 256-resample chunk is worked in sub-blocks of 32 rows, each drawn
    in turn from the chunk's stream."""

    @pytest.mark.parametrize("n_units", [1, 37, 2000])
    def test_sub_block_draws_equal_one_chunk_draw(self, n_units):
        gen = rngmod.stream((5, 2), 3)
        parts = [
            gen.standard_normal((min(_SUB_BLOCK, _RESAMPLE_CHUNK - lo), n_units))
            for lo in range(0, _RESAMPLE_CHUNK, _SUB_BLOCK)
        ]
        whole = rngmod.stream((5, 2), 3).standard_normal((_RESAMPLE_CHUNK, n_units))
        assert np.array_equal(np.concatenate(parts), whole)

    def test_single_unit_multipliers_are_the_chunk_draws(self, small_dataset):
        """With one unit every path is its multiplier times the observed
        process, so the multipliers can be read back: resample r is row
        r % 256 of one draw from the stream of chunk r // 256."""
        _, fit, proj = fitted_pieces(small_dataset)
        one_unit = replace(fit, clusters=Clusters(np.zeros(fit.n, dtype=int)))
        observed = cumulative_process(one_unit, small_dataset.t)
        _, paths = multiplier_processes(one_unit, proj, small_dataset.t, 600, seed=(8, 1))
        j = int(np.abs(observed.values).argmax())
        want = np.concatenate([
            rng.standard_normal((stop - start, 1))[:, 0]
            for start, stop, rng in rngmod.chunked_streams((8, 1), 600, _RESAMPLE_CHUNK)
        ])
        np.testing.assert_allclose(paths[:, j] / observed.values[j], want, rtol=1e-9)

    @pytest.mark.parametrize("clusters", [0, 15])
    def test_null_is_sup_norm_of_processes(self, clusters):
        """600 resamples end in a partial chunk (88 rows) and a partial
        sub-block (24 rows)."""
        ds, _, fit, proj = drawn_pieces(120, clusters)
        sups = multiplier_null(fit, proj, ds.t, 600, seed=(3, clusters))
        _, paths = multiplier_processes(fit, proj, ds.t, 600, seed=(3, clusters))
        assert np.array_equal(sups, np.abs(paths).max(axis=1))

    @pytest.mark.parametrize(
        "clusters,tied,digest",
        [
            (0, False, "45660f933328ecd78b1c736a063b8849b61ea118821ef2dedb1d31365678e29b"),
            (0, True, "10b517bb2cc9cb981dfe03f0c169a9a2df8d6e92de4f56a45bf30c4eb757f2a8"),
            (15, False, "25ada1ce6d807c77b1d02472a506cf8953f0c7f735c9031e13b115e289f1ee10"),
            (15, True, "f23b8c630228444ccac9599d7455339a9eac8a06d2ed21f279b60bc124fc95bf"),
        ],
    )
    def test_paths_pinned_with_and_without_ties(self, clusters, tied, digest):
        """Without ties the running sums are read in place, with ties they are
        gathered at the last row of each tie group; both give the bits of the
        resampler that always gathered, which these digests pinned. They were
        re-pinned once, within 3.8e-15 of the paths' scale, when the
        projection moved to unit variance."""
        ds, _, fit, proj = drawn_pieces(120, clusters)
        ordering = np.round(ds.t, 1) if tied else ds.t
        points, paths = multiplier_processes(fit, proj, ordering, 300, seed=(4, clusters))
        assert (points.size < ds.t.size) == tied
        assert hashlib.sha256(np.ascontiguousarray(paths, dtype="<f8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("clusters", [0, 100])
    def test_working_set_is_a_few_sub_blocks(self, clusters):
        """1000 resamples at n = 2000 hold about four 32 x n float64 blocks
        plus the O(np) sorted layout, not a 256 x n chunk."""
        ds, design, fit, proj = drawn_pieces(2000, clusters)
        n, p = design.X.shape
        tracemalloc.start()
        try:
            multiplier_null(fit, proj, ds.t, 1000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * _SUB_BLOCK * n * 8 + (4 * p + 8) * n * 8


class TestMemory:
    @pytest.mark.parametrize("clusters", [0, 500])
    def test_large_n_blocks_stay_small(self, clusters):
        """1000 resamples at n = 20 000 hold at most four 256 x n float64 blocks
        at once (164 MB), whether the units are rows or 500 clusters."""
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
            sups = multiplier_null(fit, proj, ds.t, 1000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(sups > 0.0)
        assert peak < 4 * 256 * n * 8
