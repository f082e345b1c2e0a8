"""Monte Carlo harness: data generation, study orchestration, reporting."""

import hashlib
import math
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from covtest import (
    ConfigError,
    DataError,
    SimConfig,
    SimCell,
    SimReport,
    StudyError,
    build_design,
    fit_ols,
    generate_dataset,
    nonlinear_effect,
    run_study,
)
from covtest import exact_lrt
from covtest.null_fit import fit_ols_columns
from covtest.rng import stream
from covtest.score_test import ScoreMoments, score_statistics
from covtest.sim_study import _block_data, _draw, _effects
from covtest.spline_basis import KnotSet


class TestNonlinearEffect:
    def test_linear_at_zero(self):
        assert nonlinear_effect(0.5, 0) == 0.0
        assert nonlinear_effect(0.0, 0) == 0.5

    def test_intercept_at_origin(self):
        assert nonlinear_effect(0.0, 2) == 0.5

    def test_peak_value_high_precision(self):
        """Oracle: direct evaluation 1 * 0.5 * e^1 - 0.5 + 0.5."""
        assert nonlinear_effect(0.5, 4) == pytest.approx(0.5 * math.exp(1.0), rel=1e-15)
        assert nonlinear_effect(0.5, 4) == pytest.approx(1.359140914, abs=5e-10)

    def test_vectorized(self):
        t = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(
            nonlinear_effect(t, 0), np.array([0.5, 0.0, -0.5]), atol=1e-15
        )


class TestGenerateDataset:
    def test_noiseless_identification(self):
        ds = generate_dataset(60, 1e-12, 0, seed=(1, 0))
        fit = fit_ols(ds, build_design(ds, KnotSet(np.empty(0), 1)))
        np.testing.assert_allclose(fit.beta[:2], [1.3, 0.45], atol=1e-6)

    def test_deterministic_given_seed(self):
        a = generate_dataset(50, 0.25, 2, seed=(9, 3))
        b = generate_dataset(50, 0.25, 2, seed=(9, 3))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.S, b.S)

    def test_shared_draws_across_departures(self):
        a = generate_dataset(50, 0.25, 0, seed=(9, 4))
        b = generate_dataset(50, 0.25, 3, seed=(9, 4))
        assert np.array_equal(a.S, b.S)
        shift = nonlinear_effect(a.t, 3) - nonlinear_effect(a.t, 0)
        np.testing.assert_allclose(b.y - a.y, shift, atol=1e-12)

    def test_departure_levels_from_one_draw(self):
        """Every departure level of a study replicate is, bit for bit, the
        design's formula on one draw of its one stream (seed, rep, 0): S's
        first column, its second, then the noise, with S and t shared. A
        generate_dataset call draws the same three from the per-role streams
        (seed, 0), (seed, 1) and (seed, 2)."""
        levels, t = (0, 1, 2.5, 4), np.arange(50) / 49
        rng = stream((9, 6), 0)
        s1, s2 = rng.normal(0.0, math.sqrt(0.3), 50), rng.normal(0.0, math.sqrt(0.4), 50)
        noise = rng.standard_normal(50)
        t_drawn, effects = _effects(50, levels)
        S, ((*Y,),) = _draw(t_drawn, effects, [0.25], (9, 6))
        assert np.array_equal(S, np.column_stack([s1, s2])) and np.array_equal(t_drawn, t)
        for c, y in zip(levels, Y):
            assert np.array_equal(y, 1.3 * s1 + 0.45 * s2 + nonlinear_effect(t, c) + 0.25 * noise)
        s1, s2 = stream((9, 6), 0).normal(0.0, math.sqrt(0.3), 50), stream((9, 6), 1).normal(0.0, math.sqrt(0.4), 50)
        noise = stream((9, 6), 2).standard_normal(50)
        for c in levels:
            one = generate_dataset(50, 0.25, c, seed=(9, 6))
            assert np.array_equal(one.y, 1.3 * s1 + 0.45 * s2 + nonlinear_effect(t, c) + 0.25 * noise)
            assert np.array_equal(one.S, np.column_stack([s1, s2])) and np.array_equal(one.t, t)

    def test_shared_noise_across_sigma(self):
        lo = generate_dataset(30, 0.25, 0, seed=(9, 5))
        hi = generate_dataset(30, 0.5, 0, seed=(9, 5))
        base = lo.y - 1.3 * lo.S[:, 0] - 0.45 * lo.S[:, 1] - nonlinear_effect(lo.t, 0)
        np.testing.assert_allclose(
            hi.y - 1.3 * hi.S[:, 0] - 0.45 * hi.S[:, 1] - nonlinear_effect(hi.t, 0),
            2.0 * base,
            rtol=1e-10,
        )

    def test_noise_variance_oracle(self):
        """Oracle: mean sample variance of the noise over 200 replicates."""
        m, sigma = 50, 0.25
        variances = np.empty(200)
        for rep in range(200):
            ds = generate_dataset(m, sigma, 0, seed=(21, rep))
            noise = ds.y - 1.3 * ds.S[:, 0] - 0.45 * ds.S[:, 1] - nonlinear_effect(ds.t, 0)
            variances[rep] = noise.var(ddof=1)
        se = math.sqrt(2 * sigma**4 / (m - 1) / 200)
        assert abs(variances.mean() - sigma**2) <= 3 * se

    def test_sd_interpretation_switch(self):
        """The second argument of the covariate law is a variance."""
        ds = generate_dataset(4000, 0.25, 0, seed=(31, 0))
        assert ds.S[:, 0].std() == pytest.approx(math.sqrt(0.3), rel=0.05)

    def test_grid_is_equally_spaced(self):
        ds = generate_dataset(25, 0.25, 0, seed=(41, 0))
        np.testing.assert_allclose(np.diff(ds.t), 1.0 / 24.0, rtol=1e-12)
        assert ds.t[0] == 0.0 and ds.t[-1] == 1.0

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            generate_dataset(1, 0.25, 0, seed=0)
        with pytest.raises(ConfigError):
            generate_dataset(10, 0.0, 0, seed=0)

    def test_block_slices_are_the_replicates_datasets(self):
        """A study block's R x m x SC responses (sigma-major) and R x m x 2
        covariates hold, bit for bit, the data of one scalar replicate draw
        per replicate, noise level and departure level."""
        config = tiny_config(sigma_values=(0.5, 0.25), c_values=(0, 1.5, 4), seed=8)
        Y, S = _block_data(config, *_effects(30, config.c_values), range(3, 9))
        assert Y.shape == (6, 30, 6) and S.shape == (6, 30, 2) and Y.flags.c_contiguous
        for r, rep in enumerate(range(3, 9)):
            for si, sigma in enumerate(config.sigma_values):
                for ci, c in enumerate(config.c_values):
                    one_S, ((y,),) = _draw(*_effects(30, [c]), [sigma], (8, rep))
                    assert np.array_equal(Y[r, :, 3 * si + ci], y) and np.array_equal(S[r], one_S)

    def test_block_data_is_written_in_place(self, study_block):
        """A study block at m = 100 (32 replicates x 10 columns) is written draw by
        draw into its R x m x SC and R x m x 2 arrays (0.3 MB): under 0.5 MB, where
        stacking the draws and copying their transpose took 0.88 MB."""
        config, fixtures, *_ = study_block(1)
        tracemalloc.start()
        try:
            Y, _ = _block_data(config, *fixtures["effects"], range(32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Y.shape == (32, 100, 10) and peak < 0.5 * 2**20

    def test_overflowing_noise_is_one_data_error(self):
        """sigma z overflows at sigma = 1e308: the dataset check's DataError,
        with no RuntimeWarning before it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"^non-finite value in y at row 7$"):
                generate_dataset(30, 1e308, 0, seed=0)


def broken_draw(real, collinear=None, perfect=None):
    """``sim_study._draw`` at seed 5 with a collinear S at replicate
    ``collinear`` and a perfect fit at c = 2 of replicate ``perfect``; the
    fixtures' draw (replicate 0, c = 0 only) keeps its data."""

    def draw(t, effects, sigmas, seed):
        S, Y = real(t, effects, sigmas, seed)
        if seed == (5, collinear):
            S = np.column_stack([S[:, 0], 2.0 * S[:, 0]])
        at_2 = [np.array_equal(f, nonlinear_effect(t, 2)) for f in effects]
        if seed == (5, perfect) and any(at_2):
            Y[:, at_2.index(True)] = 1.3 * S[:, 0] + 0.45 * S[:, 1] + 0.5 - t
        return S, Y

    return draw


# Replicates per slice of the LRT sweep in tiny_config's blocks: G = 201, K = 8.
SWEEP = exact_lrt._SWEEP_ENTRIES // (201 * 8)


def tiny_config(**kw):
    base = dict(
        m_values=(30,),
        sigma_values=(0.25,),
        c_values=(0,),
        levels=(0.05,),
        tests=("score",),
        n_runs=1,
        n_knots=8,
        n_sims_null=400,
        cusum_resamples=100,
        seed=5,
    )
    base.update(kw)
    return SimConfig(**base)


class TestRunStudy:
    def test_report_csv_pinned(self):
        """All five tests at two departure levels. Re-pinned once when a
        replicate's data came to be drawn from one stream and the LRT nulls from
        one pass keyed by variant name; CHANGES.md gives the per-cell two-sample
        check of that re-roll."""
        report = run_study(tiny_config(
            tests=("lrt1", "lrt2", "rlrt", "score", "cusum"), c_values=(0, 3),
            levels=(0.05, 0.1), n_runs=6,
        ))
        digest = hashlib.sha256(report.to_csv().encode()).hexdigest()
        assert digest == "df07bb92cd752c94cfea7b78f200aaef49481ac1a4f4e02bb123a60ef6c0c9f7"

    def test_perfect_fit_fails_only_its_departure(self, monkeypatch):
        """A perfect null fit at one c fails that c's LRT cells only, with the
        solver's message; the shared design keeps the other c working."""
        import covtest.sim_study as sim_study

        monkeypatch.setattr(sim_study, "_draw", broken_draw(sim_study._draw, perfect=0))
        report = run_study(tiny_config(tests=("lrt1", "rlrt"), c_values=(0, 2), n_runs=100))
        assert report.failure_messages == [
            f"{name} m=30 sigma=0.25 c=2 rep=0: null fit is numerically perfect; error variance is not estimable"
            for name in ("lrt1", "rlrt")
        ]
        for name in ("lrt1", "rlrt"):
            assert report.get(name, 30, 0.25, 2, 0.05).failures == 1
            assert report.get(name, 30, 0.25, 0, 0.05).failures == 0

    @pytest.mark.parametrize("block", [1, 7, SWEEP - 1, SWEEP, SWEEP + 1, 33, None])
    def test_block_size_does_not_change_report(self, monkeypatch, block):
        """The report is that of the default block size for any block size,
        also when the runs are no multiple of it, and for blocks at the edges
        of the LRT sweep's replicate slices (SWEEP, 40 here), which the 81 runs
        cut into full and short slices. So are the failure messages of a study
        with a collinear replicate in a later block and a perfect fit at one c."""
        import covtest.sim_study as sim_study

        config = tiny_config(tests=("lrt1", "lrt2", "rlrt", "score", "cusum"), c_values=(0, 3),
                             levels=(0.05, 0.1), n_runs=81, n_sims_null=300, cusum_resamples=50)
        faulty = tiny_config(tests=("score", "lrt1", "cusum", "rlrt"), c_values=(0, 2), n_runs=150,
                             n_sims_null=300, cusum_resamples=50)

        def run():
            with monkeypatch.context() as patch:
                patch.setattr(sim_study, "_draw", broken_draw(sim_study._draw, collinear=70, perfect=40))
                messages = run_study(faulty).failure_messages
            return run_study(config).to_csv(), messages

        reference = run()
        assert len(reference[1]) == 4 * (2 + 1)  # every test at both c of rep 70, and at c = 2 of rep 40
        if block is not None:
            monkeypatch.setattr(sim_study, "_BLOCK", block)
        assert run() == reference

    def test_collinear_and_perfect_fit_fail_only_their_cells(self, monkeypatch):
        """In one block, a replicate with collinear S fails all its cells with
        the design check's message and a perfect fit at one c fails that c."""
        import covtest.sim_study as sim_study

        monkeypatch.setattr(sim_study, "_draw", broken_draw(sim_study._draw, collinear=1, perfect=2))
        tests = ("lrt1", "rlrt", "score")
        report = run_study(tiny_config(tests=tests, c_values=(0, 2), n_runs=150))
        rank = "fixed-effects design is rank deficient (4 columns, rank 3)"
        assert report.failure_messages == [
            f"{name} m=30 sigma=0.25 c={c} rep=1: {rank}" for c in (0, 2) for name in tests
        ] + [
            f"{name} m=30 sigma=0.25 c=2 rep=2: null fit is numerically perfect; error variance is not estimable"
            for name in tests
        ]
        for name in tests:
            assert report.get(name, 30, 0.25, 0, 0.05).failures == 1
            assert report.get(name, 30, 0.25, 2, 0.05).failures == 2

    def test_failure_messages_follow_evaluation_order(self, monkeypatch):
        """Within a (replicate, c) the messages list the LRT cells, evaluated
        first, then score, whatever the order of ``tests``; failures.txt is
        written in this order."""
        import covtest.sim_study as sim_study

        monkeypatch.setattr(sim_study, "_draw", broken_draw(sim_study._draw, collinear=1))
        report = run_study(tiny_config(tests=("score", "lrt1"), c_values=(0, 2), n_runs=150))
        rank = "fixed-effects design is rank deficient (4 columns, rank 3)"
        assert report.failure_messages == [
            f"{name} m=30 sigma=0.25 c={c} rep=1: {rank}" for c in (0, 2) for name in ("lrt1", "score")
        ]

    def test_two_sigma_study_draws_and_factors_each_replicate_once(self, monkeypatch):
        """The noise levels of a replicate share its draw and its X: its one
        data stream (seed, rep, 0) is built once per (m, replicate), and the
        fixtures' draw builds the three streams (seed, 0, role 0-2) of its
        generate_dataset call once per m; the block takes one stacked QR per
        (m, block, degree)."""
        import covtest.rng as rngmod
        import covtest.sim_study as sim_study

        keys, factored = Counter(), []
        real_stream, real_qr = rngmod.stream, sim_study.stacked_qr

        def stream(seed, *indices):
            keys[rngmod._entropy(seed) + indices] += 1
            return real_stream(seed, *indices)

        def stacked_qr(X):
            factored.append(X.shape)
            return real_qr(X)

        monkeypatch.setattr(rngmod, "stream", stream)
        monkeypatch.setattr(sim_study, "stacked_qr", stacked_qr)
        monkeypatch.setattr(sim_study, "_BLOCK", 2)  # three runs make two blocks
        config = tiny_config(m_values=(30, 40), sigma_values=(0.25, 0.5), c_values=(0, 2),
                             tests=("lrt1", "lrt2", "score", "cusum"), n_runs=3)
        run_study(config)
        data = {key: count for key, count in keys.items() if len(key) == 3 and key[1] < config.n_runs}
        assert data == {(5, rep, 0): 2 * (1 + (rep == 0)) for rep in range(3)} | {(5, 0, 1): 2, (5, 0, 2): 2}
        assert len(factored) == 2 * 2 * 2  # (m, block, degree 1 or 2)

    def test_one_eigh_per_block_and_lrt_degree(self, monkeypatch):
        """A block takes one eigh of its stack of grams B'P0B per LRT degree
        and no eigvalsh; B'B's eigenvalues and the fixture design's spectrum
        are taken once per m and degree, before the blocks."""
        import covtest.sim_study as sim_study

        solvers, blocks = [], []
        real_block = sim_study._run_block

        def counted(name, real):
            def call(a):
                solvers.append(name)
                return real(a)
            return call

        def run_block(*args):
            before = len(solvers)
            result = real_block(*args)
            blocks.append(sorted(solvers[before:]))
            return result

        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr(sim_study, "_run_block", run_block)
        monkeypatch.setattr(sim_study, "_BLOCK", 2)  # three runs make two blocks
        run_study(tiny_config(m_values=(30, 40), sigma_values=(0.25, 0.5), c_values=(0, 2),
                              tests=("lrt1", "lrt2", "rlrt", "score"), n_runs=3))
        assert blocks == [["eigh", "eigh"]] * (2 * 2)  # (m, block); LRT degrees 1 and 2
        # The fixtures add one eigh and one eigvalsh per (m, LRT degree).
        assert sorted(solvers) == ["eigh"] * (4 * 2 + 2 * 2) + ["eigvalsh"] * (2 * 2)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_two_sigma_failure_messages_pinned(self, monkeypatch, threads):
        """One collinear replicate in the second block and a perfect fit in
        the first: the messages list every sigma in turn, each in block,
        replicate, c and evaluation order, as when each sigma ran on its own
        blocks."""
        import covtest.sim_study as sim_study

        monkeypatch.setattr(sim_study, "_draw", broken_draw(sim_study._draw, collinear=40, perfect=2))
        report = run_study(tiny_config(sigma_values=(0.25, 0.5), c_values=(0, 2),
                                       tests=("score", "lrt1", "cusum", "rlrt"), n_runs=150,
                                       cusum_resamples=50, threads=threads))
        rank = "fixed-effects design is rank deficient (4 columns, rank 3)"
        perfect = ["null fit is numerically perfect; error variance is not estimable"] * 4
        assert report.failure_messages == [
            message
            for sigma in (0.25, 0.5)
            for message in [f"{name} m=30 sigma={sigma} c=2 rep=2: {error}"
                            for name, error in zip(("lrt1", "rlrt", "score", "cusum"), perfect)]
            + [f"{name} m=30 sigma={sigma} c={c} rep=40: {rank}"
               for c in (0, 2) for name in ("lrt1", "rlrt", "score", "cusum")]
        ]

    def test_minimal_run(self):
        report = run_study(tiny_config())
        cell = report.get("score", 30, 0.25, 0, 0.05)
        assert cell.rejections in (0, 1)
        assert cell.fraction in (0.0, 1.0)
        assert cell.failures == 0

    def test_all_tests_small(self):
        report = run_study(
            tiny_config(tests=("lrt1", "lrt2", "rlrt", "score", "cusum"), n_runs=3, c_values=(0, 4))
        )
        for cell in report.cells:
            assert 0.0 <= cell.fraction <= 1.0
        strong = report.get("score", 30, 0.25, 4, 0.05)
        assert strong.fraction == 1.0

    def test_adding_tests_does_not_perturb_data(self):
        a = run_study(tiny_config(tests=("score",), n_runs=6, c_values=(0, 2)))
        b = run_study(tiny_config(tests=("score", "rlrt", "cusum"), n_runs=6, c_values=(0, 2)))
        for c in (0, 2):
            assert (
                a.get("score", 30, 0.25, c, 0.05).rejections
                == b.get("score", 30, 0.25, c, 0.05).rejections
            )

    def test_variant_rows_do_not_depend_on_the_other_tests(self):
        """A variant's null has streams keyed by its name, not by its place in
        ``tests``: on one seed its report rows are the same under rlrt,
        lrt1,rlrt and rlrt,lrt2,lrt1, and they reject at c = 1."""
        rows = {}
        for tests in (("rlrt",), ("lrt1", "rlrt"), ("rlrt", "lrt2", "lrt1")):
            report = run_study(tiny_config(m_values=(50,), sigma_values=(0.5,), c_values=(0, 1), tests=tests,
                                           levels=(0.05, 0.1), n_runs=100, n_sims_null=1000, seed=3))
            for line in report.to_csv().splitlines()[1:]:
                rows.setdefault(line.split(",", 1)[0], []).append(line)
        assert {name: len(lines) for name, lines in rows.items()} == {"rlrt": 3 * 4, "lrt1": 2 * 4, "lrt2": 4}
        for lines in rows.values():
            width = 4  # c x level rows per study
            assert all(lines[i:i + width] == lines[:width] for i in range(0, len(lines), width))
        assert all(int(line.split(",")[7]) > 0 for line in rows["rlrt"][2:4])

    def test_null_cache_entries_record_the_shared_pass(self, tmp_path, monkeypatch):
        """A study's null-cache entries record each variant's own stream; a rerun
        serves them all, and with one entry gone simulates that variant alone,
        with the bits of the full pass."""
        import covtest.sim_study as sim_study

        config = tiny_config(tests=("lrt1", "rlrt", "score"), n_runs=4, cache_dir=str(tmp_path))
        first = run_study(config).to_csv()
        entries = sorted(tmp_path.glob("null_*.npz"))
        streams = sorted(exact_lrt.load_null_distribution(path).provenance["stream"] for path in entries)
        assert streams == [[5, 1, sim_study._NULL], [5, 3, sim_study._NULL]]
        passes, real = [], exact_lrt._sample

        def sample(variants, *args):
            passes.append([v.kind for v in variants])
            return real(variants, *args)

        monkeypatch.setattr(exact_lrt, "_sample", sample)
        assert run_study(config).to_csv() == first and passes == []
        rlrt = next(path for path in entries if exact_lrt.load_null_distribution(path).kind == "rlrt")
        rlrt.unlink()
        assert run_study(config).to_csv() == first and passes == [["rlrt"]]

    def test_unconverged_tail_fails_its_own_cell(self, monkeypatch):
        """The score tails of an m are taken in one call after the blocks: a
        tail that does not converge there fails the cell it came from, in the
        first block (flat index 37: replicate 18, c = 2) or the second (70:
        replicate 32 + 3, c = 0), counted in its cell and listed in block,
        replicate and c order."""
        import covtest.sim_study as sim_study
        from covtest.errors import NumericalError

        real = sim_study._tail_p_values

        def tail(u_quad, moments):
            p, errors = real(u_quad, moments)
            for i in (70, 37):
                p[i] = np.nan
                errors[i,] = NumericalError(f"tail {i}")
            return p, errors

        monkeypatch.setattr(sim_study, "_tail_p_values", tail)
        report = run_study(tiny_config(tests=("score", "lrt1"), c_values=(0, 2), n_runs=64))
        assert report.failure_messages == ["score m=30 sigma=0.25 c=2 rep=18: tail 37",
                                           "score m=30 sigma=0.25 c=0 rep=35: tail 70"]
        assert [report.get(name, 30, 0.25, c, 0.05).failures
                for name in ("score", "lrt1") for c in (0, 2)] == [1, 1, 0, 0]

    def test_thread_count_does_not_change_output(self):
        """All five tests over a full block and a partial one: blocks on three
        threads give the serial report."""
        cfg = dict(tests=("lrt1", "lrt2", "rlrt", "score", "cusum"), n_runs=40, c_values=(0, 3),
                   n_sims_null=500, cusum_resamples=50)
        serial = run_study(tiny_config(**cfg, threads=1))
        threaded = run_study(tiny_config(**cfg, threads=3))
        assert serial.to_csv() == threaded.to_csv()

    def test_score_and_cusum_share_one_ols_fit_per_replicate(self, monkeypatch):
        """Each block fits every replicate and departure level with one
        fit_ols_columns call, which both score and cusum use, and scores them
        with one score_statistics call; neither test refits per level, and
        cusum resamples each (replicate, level) once."""
        import covtest.null_fit as null_fit
        import covtest.score_test as score_test
        import covtest.sim_study as sim_study

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import tracer

        monkeypatch.setattr(sim_study, "_BLOCK", 2)  # three runs make two blocks
        config = tiny_config(tests=("score", "cusum"), n_runs=3, c_values=(0, 2, 4))
        spans = tracer.Tracer()
        spans.install()
        monkeypatch.setattr(sim_study, "fit_ols_columns",
                            spans.wrap("null_fit.fit_ols_columns", null_fit.fit_ols_columns))
        monkeypatch.setattr(sim_study, "score_statistics",
                            spans.wrap("score_test.score_statistics", score_test.score_statistics))
        try:
            run_study(config)
        finally:
            spans.restore()
        names = [span.name for span in spans.spans]
        assert names.count("null_fit.fit_ols_columns") == 2
        assert names.count("score_test.score_statistics") == 2
        assert names.count("cusum_test.multiplier_null") == config.n_runs * len(config.c_values)
        assert "null_fit.fit_ols" not in names and "null_fit.reml_projection" not in names

    def test_block_cells_are_their_one_replicate_slices(self, study_block):
        """Every output of the LRT sweep (slices of 16 replicates here) and the score
        pass (slices of 11) on a 33-replicate study block at m = 100 equals, bit for
        bit, that of a call on each replicate alone: the slices move no bit."""
        _, fixtures, Y, factored = study_block(33)
        specs = {1: [("lrt", 0), ("rlrt", 0)], 2: [("lrt", 1)]}
        for d, stack in factored.items():
            solver, grid = fixtures["lrt"][d].solver, fixtures["lrt"][d].grid
            *block, errors = solver.statistics(Y, stack, grid, specs[d])
            assert errors == {}
            for r in range(Y.shape[0]):
                *one, _ = solver.statistics(Y[r:r + 1], stack.replicate(r), grid, specs[d])
                assert all(a[:, r:r + 1].tobytes() == b.tobytes() for a, b in zip(block, one))
        fits = fit_ols_columns(Y, factored[1])
        scores, failed = score_statistics(fits.residuals, fits.sigma2, factored[1], fixtures["kernel"])
        assert failed == {}

        def fields(result, rows):
            return [result.u_quad[rows], result.null_mean[rows], result.u_score[rows], result.p_value[rows],
                    *(getattr(result.moments, f)[rows] for f in ScoreMoments.__dataclass_fields__)]

        for r in range(Y.shape[0]):
            one, _ = score_statistics(fits.residuals[r:r + 1], fits.sigma2[r:r + 1], factored[1].replicate(r),
                                      fixtures["kernel"])
            assert all(a.tobytes() == b.tobytes() for a, b in zip(fields(scores, slice(r, r + 1)),
                                                                  fields(one, slice(None))))

    def test_ols_stack_is_the_projection_scored_and_resampled(self, monkeypatch):
        """A block's fit_ols_columns stack is itself the projection its score
        test scores with, and cusum resamples under its replicates."""
        import covtest.cusum_test as cusum_test
        import covtest.sim_study as sim_study

        stacks, scored, resampled = [], [], []
        real_fit, real_score, real_null = (sim_study.fit_ols_columns, sim_study.score_statistics,
                                           cusum_test.multiplier_null)

        def fit_ols_columns(Y, factored):
            stacks.append(factored)
            return real_fit(Y, factored)

        def score_statistics(residuals, sigma2, proj, kernel, **kw):
            scored.append(proj)
            return real_score(residuals, sigma2, proj, kernel, **kw)

        def multiplier_null(fit, proj, *rest, **kw):
            resampled.append(proj)
            return real_null(fit, proj, *rest, **kw)

        monkeypatch.setattr(sim_study, "fit_ols_columns", fit_ols_columns)
        monkeypatch.setattr(sim_study, "score_statistics", score_statistics)
        monkeypatch.setattr(cusum_test, "multiplier_null", multiplier_null)
        run_study(tiny_config(tests=("score", "cusum"), n_runs=2, c_values=(0, 2)))
        ((stack,), (proj,)) = stacks, scored
        assert proj is stack and len(resampled) == 4
        for r, one in enumerate(resampled[::2]):
            assert all(np.shares_memory(getattr(one, name), getattr(stack, name)) for name in "XQR")
            assert one.X.shape == (1, *stack.X.shape[1:])
            np.testing.assert_array_equal(one.Q[0], stack.Q[r])

    def test_empty_departure_levels_rejected(self):
        with pytest.raises(ConfigError, match="departure level"):
            tiny_config(c_values=())

    @pytest.mark.parametrize("axis", ["m_values", "sigma_values", "levels", "tests"])
    def test_empty_axis_rejected(self, axis):
        """A study with no value on an axis has no cell to run: refused, as an
        empty c_values is, not an IndexError (sigma) or an empty report."""
        with pytest.raises(ConfigError, match=f"^{axis} needs at least one "):
            run_study(SimConfig(**{axis: ()}))

    def test_unknown_test_rejected(self):
        with pytest.raises(ConfigError, match="unknown tests"):
            tiny_config(tests=("wavelet",))

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_seed_outside_32_bits_rejected(self, seed):
        with pytest.raises(ConfigError, match=r"^seed must lie in \[0, 2\*\*32\)"):
            tiny_config(seed=seed)

    @pytest.mark.parametrize("levels", [(2.0,), (0.05, 1.0), (0.0,), (float("nan"),)])
    def test_level_outside_unit_interval_rejected(self, levels):
        with pytest.raises(ConfigError, match="levels"):
            tiny_config(levels=levels)

    def test_study_error_on_mass_failures(self, monkeypatch):
        import covtest.sim_study as sim_study

        real = sim_study.score_statistics

        def boom(residuals, *args, **kwargs):
            results, _ = real(residuals, *args, **kwargs)
            return results, dict.fromkeys(np.ndindex(residuals.shape[0], residuals.shape[2]),
                                          ConfigError("synthetic failure"))

        monkeypatch.setattr(sim_study, "score_statistics", boom)
        with pytest.raises(StudyError, match="synthetic failure"):
            run_study(tiny_config(n_runs=4))

    def test_failures_are_counted_not_dropped(self, monkeypatch):
        """One cell the score test fails is counted in its cell, keeps its
        message and leaves the run count alone."""
        import covtest.sim_study as sim_study

        calls = {"n": 0}
        real = sim_study.score_statistics

        def flaky(*args, **kwargs):
            result, failed = real(*args, **kwargs)
            calls["n"] += 1
            if calls["n"] == 1:
                failed[3, 0] = ConfigError("one-off failure")
            return result, failed

        monkeypatch.setattr(sim_study, "score_statistics", flaky)
        report = run_study(
            tiny_config(tests=("score", "rlrt"), n_runs=100, c_values=(0,), n_sims_null=300)
        )
        cell = report.get("score", 30, 0.25, 0, 0.05)
        assert cell.failures == 1
        assert report.failure_messages == ["score m=30 sigma=0.25 c=0 rep=3: one-off failure"]
        assert cell.n_runs == 100


def study_keys(seed, n_runs, n_sims, resamples, tests):
    """Every stream key of a study, as sim_study lays them out: each replicate's
    data stream, the other two streams of the fixtures' generate_dataset draw
    (its first is replicate 0's), each replicate's cusum multiplier chunks and
    the chunks of the LRT nulls' shared spline terms and of each variant's own
    terms."""
    from covtest.cusum_test import _RESAMPLE_CHUNK
    from covtest.sim_study import _DATA, _MULTIPLIERS, _NULL, KNOWN_TESTS

    def chunks(n, size):
        return range(-(-n // size))

    keys = [(seed, rep, _DATA) for rep in range(n_runs)] + [(seed, 0, 1), (seed, 0, 2)]
    if "cusum" in tests:
        keys += [(seed, rep, _MULTIPLIERS, ci) for rep in range(n_runs) for ci in chunks(resamples, _RESAMPLE_CHUNK)]
    nulls = [1 + KNOWN_TESTS.index(name) for name in tests if name.startswith(("lrt", "rlrt"))]
    keys += [(seed, index, _NULL, ci) for index in [0] * bool(nulls) + nulls
             for ci in chunks(n_sims, exact_lrt._SIM_CHUNK)]
    return keys


def old_study_keys(seed, n_runs, n_sims, resamples, tests):
    """The layout before one stream per replicate: three data streams per
    replicate, its cusum chunks under role 3, and each LRT variant's null
    chunks under (seed, 9000 + its place in tests)."""
    keys = [(seed, rep, role) for rep in range(n_runs) for role in range(3)]
    keys += [(seed, rep, 3, ci) for rep in range(n_runs) for ci in range(-(-resamples // 256))]
    keys += [(seed, 9000 + vi, ci) for vi, name in enumerate(tests) if name != "score" and name != "cusum"
             for ci in range(-(-n_sims // exact_lrt._SIM_CHUNK))]
    return keys


def shared_states(keys) -> int:
    """How many keys name a SeedSequence state that an earlier key names too."""
    states = {np.random.SeedSequence(key).generate_state(4).tobytes() for key in keys}
    return len(keys) - len(states)


class TestStreamKeys:
    FIVE = ("lrt1", "lrt2", "rlrt", "score", "cusum")

    def test_study_draws_from_the_laid_out_keys(self, monkeypatch):
        """A five-test study builds a generator for exactly the keys of
        study_keys, with nulls and multipliers of two chunks each."""
        import covtest.rng as rngmod

        keys, real = set(), rngmod.stream

        def stream(seed, *indices):
            keys.add(rngmod._entropy(seed) + indices)
            return real(seed, *indices)

        monkeypatch.setattr(rngmod, "stream", stream)
        run_study(tiny_config(tests=self.FIVE, n_runs=3, n_sims_null=1500, cusum_resamples=300))
        assert keys == set(study_keys(5, 3, 1500, 300, self.FIVE))

    def test_no_two_streams_of_a_large_study_share_a_state(self):
        """At 20 000 runs of all five tests with the default draw counts, no
        replicate's data, cusum multipliers or null chunk shares the stream of
        another. The earlier layout did: SeedSequence pads a key shorter than
        four words with zeros, so at --runs >= 9001 + vi LRT variant vi's null
        chunks 0-2 were replicate 9000 + vi's three data streams and its chunk 3
        that replicate's first multiplier chunk, 4 shared streams per variant."""
        defaults = SimConfig()
        counts = (20_000, defaults.n_sims_null, defaults.cusum_resamples, self.FIVE)
        assert shared_states(study_keys(1, *counts)) == 0
        assert shared_states(old_study_keys(1, *counts)) == 3 * 4


@pytest.fixture(scope="module")
def report_config():
    return tiny_config(tests=("score", "rlrt"), n_runs=4, c_values=(0, 2), levels=(0.05, 0.1))


@pytest.fixture(scope="module")
def report(report_config):
    return run_study(report_config)


class TestSimReport:

    def test_csv_structure(self, report):
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "test,m,sigma,c,level,n_runs,failures,rejections,fraction,se"
        assert len(lines) == 1 + 2 * 2 * 2  # tests x c x levels
        for line in lines[1:]:
            fields = line.split(",")
            assert 0.0 <= float(fields[8]) <= 1.0

    def test_table_structure(self, report):
        table = report.to_table()
        assert "m = 30" in table
        assert "c=0" in table and "c=2" in table
        assert "score" in table and "rlrt" in table

    def test_se_is_binomial(self, report):
        cell = report.get("score", 30, 0.25, 2, 0.05)
        f = cell.fraction
        assert cell.se == pytest.approx(math.sqrt(f * (1 - f) / cell.n_runs))

    def test_missing_cell_raises_key_error(self, report):
        with pytest.raises(KeyError):
            report.get("cusum", 30, 0.25, 0, 0.05)

    def test_config_echo_lines(self, report_config):
        lines = report_config.lines()
        assert "n_runs = 4" in lines
        assert any(line.startswith("tests = score,rlrt") for line in lines)

    def test_from_csv_gives_back_the_csv_and_the_table(self):
        """A five-test study over two m and two sigma, read back from its own CSV."""
        report = run_study(tiny_config(
            m_values=(30, 40), sigma_values=(0.25, 0.5), c_values=(0, 2), levels=(0.05, 0.1),
            tests=("lrt1", "lrt2", "rlrt", "score", "cusum"), n_runs=3, n_sims_null=200,
            cusum_resamples=20))
        read = SimReport.from_csv(report.to_csv(), "x")
        assert read.to_csv() == report.to_csv()
        assert read.to_table() == report.to_table()

    def test_table_axes_are_the_cells_first_appearance_order(self):
        report = SimReport(cells=[
            SimCell("score", 50, 0.5, 1, 0.1, 4, 0, 2), SimCell("wavelet", 20, 0.25, 0, 0.05, 7, 1, 3)])
        lines = report.to_table().splitlines()
        assert lines[0] == "empirical rejection rates, m = 50, 7 runs"
        assert lines[1].split() == ["level", "sigma", "test", "c=1", "c=0"]
        assert lines[3].split() == ["0.1", "0.5", "score", "0.500", "n/a"]
        assert lines[4].split() == ["0.1", "0.5", "wavelet", "n/a", "n/a"]
