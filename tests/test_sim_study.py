"""Monte Carlo harness: data generation, study orchestration, reporting."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from covtest import (
    ConfigError,
    Dataset,
    SimConfig,
    StudyError,
    build_design,
    fit_ols,
    generate_dataset,
    nonlinear_effect,
    run_study,
)
from covtest.rng import stream
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
        """A sequence of c gives, bit for bit, the datasets of one call per c:
        the design's formula on the per-role streams, with S and t shared."""
        levels = (0, 1, 2.5, 4)
        many = generate_dataset(50, 0.25, levels, seed=(9, 6))
        s1 = stream((9, 6), 0).normal(0.0, math.sqrt(0.3), 50)
        s2 = stream((9, 6), 1).normal(0.0, math.sqrt(0.4), 50)
        noise = stream((9, 6), 2).standard_normal(50)
        t = np.arange(50) / 49
        assert len(many) == len(levels)
        for c, ds in zip(levels, many):
            one = generate_dataset(50, 0.25, c, seed=(9, 6))
            y = 1.3 * s1 + 0.45 * s2 + nonlinear_effect(t, c) + 0.25 * noise
            assert np.array_equal(ds.y, y) and np.array_equal(one.y, y)
            assert np.array_equal(ds.S, one.S) and np.array_equal(ds.t, one.t)
            assert np.shares_memory(ds.S, many[0].S) and np.shares_memory(ds.t, many[0].t)

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
        """All five tests at two departure levels; the sha256 was taken before
        the departure levels of a replicate shared one LRT decomposition."""
        report = run_study(tiny_config(
            tests=("lrt1", "lrt2", "rlrt", "score", "cusum"), c_values=(0, 3),
            levels=(0.05, 0.1), n_runs=6,
        ))
        digest = hashlib.sha256(report.to_csv().encode()).hexdigest()
        assert digest == "10075346968ee15538ed8c5591bc26d96f6e44b9704362f9d8047d48614794b8"

    def test_perfect_fit_fails_only_its_departure(self, monkeypatch):
        """A perfect null fit at one c fails that c's LRT cells only, with the
        solver's message; the shared design keeps the other c working."""
        import covtest.sim_study as sim_study

        real = sim_study.generate_dataset

        def perfect_at_c2(m, sigma, c, seed):
            out = real(m, sigma, c, seed)
            if np.ndim(c) == 0 or seed != (5, 0):  # the fixtures' draw, or another replicate
                return out
            y = 1.3 * out[0].S[:, 0] + 0.45 * out[0].S[:, 1] + 0.5 - out[0].t
            return [Dataset(y=y, S=ds.S, t=ds.t) if level == 2 else ds for level, ds in zip(c, out)]

        monkeypatch.setattr(sim_study, "generate_dataset", perfect_at_c2)
        report = run_study(tiny_config(tests=("lrt1", "rlrt"), c_values=(0, 2), n_runs=100))
        assert report.failure_messages == [
            f"{name} m=30 sigma=0.25 c=2 rep=0: null fit is numerically perfect; statistic undefined"
            for name in ("lrt1", "rlrt")
        ]
        for name in ("lrt1", "rlrt"):
            assert report.get(name, 30, 0.25, 2, 0.05).failures == 1
            assert report.get(name, 30, 0.25, 0, 0.05).failures == 0

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_block_size_does_not_change_report(self, monkeypatch, block):
        """The report is that of the default block size for any block size,
        also when the runs are no multiple of it."""
        import covtest.sim_study as sim_study

        config = tiny_config(tests=("lrt1", "lrt2", "rlrt", "score", "cusum"), c_values=(0, 3),
                             levels=(0.05, 0.1), n_runs=20, n_sims_null=300, cusum_resamples=50)
        reference = run_study(config).to_csv()
        if block is not None:
            monkeypatch.setattr(sim_study, "_BLOCK", block)
        assert run_study(config).to_csv() == reference

    def test_collinear_and_perfect_fit_fail_only_their_cells(self, monkeypatch):
        """In one block, a replicate with collinear S fails all its cells with
        the design check's message and a perfect fit at one c fails that c."""
        import covtest.sim_study as sim_study

        real = sim_study.generate_dataset

        def broken(m, sigma, c, seed):
            out = real(m, sigma, c, seed)
            if seed == (5, 1):
                S = np.column_stack([out[0].S[:, 0], 2.0 * out[0].S[:, 0]])
                return [Dataset(y=ds.y, S=S, t=ds.t) for ds in out]
            if seed == (5, 2):
                y = 1.3 * out[0].S[:, 0] + 0.45 * out[0].S[:, 1] + 0.5 - out[0].t
                return [Dataset(y=y, S=ds.S, t=ds.t) if level == 2 else ds
                        for level, ds in zip(c, out)]
            return out

        monkeypatch.setattr(sim_study, "generate_dataset", broken)
        tests = ("lrt1", "rlrt", "score")
        report = run_study(tiny_config(tests=tests, c_values=(0, 2), n_runs=150))
        rank = "fixed-effects design is rank deficient (4 columns, rank 3)"
        assert report.failure_messages == [
            f"{name} m=30 sigma=0.25 c={c} rep=1: {rank}" for c in (0, 2) for name in tests
        ] + [
            f"{name} m=30 sigma=0.25 c=2 rep=2: null fit is numerically perfect; statistic undefined"
            for name in ("lrt1", "rlrt")
        ] + ["score m=30 sigma=0.25 c=2 rep=2: residuals are numerically zero; error variance is not estimable"]
        for name in tests:
            assert report.get(name, 30, 0.25, 0, 0.05).failures == 1
            assert report.get(name, 30, 0.25, 2, 0.05).failures == 2

    def test_failure_messages_follow_evaluation_order(self, monkeypatch):
        """Within a (replicate, c) the messages list the LRT cells, evaluated
        first, then score, whatever the order of ``tests``; failures.txt is
        written in this order."""
        import covtest.sim_study as sim_study

        real = sim_study.generate_dataset

        def collinear_rep1(m, sigma, c, seed):
            out = real(m, sigma, c, seed)
            if seed != (5, 1):
                return out
            S = np.column_stack([out[0].S[:, 0], 2.0 * out[0].S[:, 0]])
            return [Dataset(y=ds.y, S=S, t=ds.t) for ds in out]

        monkeypatch.setattr(sim_study, "generate_dataset", collinear_rep1)
        report = run_study(tiny_config(tests=("score", "lrt1"), c_values=(0, 2), n_runs=150))
        rank = "fixed-effects design is rank deficient (4 columns, rank 3)"
        assert report.failure_messages == [
            f"{name} m=30 sigma=0.25 c={c} rep=1: {rank}" for c in (0, 2) for name in ("lrt1", "score")
        ]

    def test_too_few_rows_fail_every_test_application(self):
        """With m <= p every application fails with the fit's row-count message."""
        config = tiny_config(m_values=(4,), tests=("score", "cusum"), c_values=(0, 2),
                             n_runs=3, n_knots=1, cusum_resamples=20, seed=2)
        with pytest.raises(StudyError) as info:
            run_study(config)
        rows = "need n > 4 rows to fit 4 coefficients, got n = 4"
        assert str(info.value) == "12 of 12 test applications failed (> 1%): " + "; ".join([
            f"score m=4 sigma=0.25 c=0 rep=0: {rows}", f"cusum m=4 sigma=0.25 c=0 rep=0: {rows}",
            f"score m=4 sigma=0.25 c=2 rep=0: {rows}", f"cusum m=4 sigma=0.25 c=2 rep=0: {rows}",
            f"score m=4 sigma=0.25 c=0 rep=1: {rows}",
        ])

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

    def test_thread_count_does_not_change_output(self):
        cfg = dict(tests=("rlrt", "score"), n_runs=8, c_values=(0, 3), n_sims_null=500)
        serial = run_study(tiny_config(**cfg, threads=1))
        threaded = run_study(tiny_config(**cfg, threads=3))
        assert serial.to_csv() == threaded.to_csv()

    def test_score_and_cusum_share_one_ols_fit_per_replicate(self, monkeypatch):
        """Each replicate fits all its departure levels with one fit_ols_columns
        call, which both score and cusum use; neither refits per level."""
        import covtest.null_fit as null_fit
        import covtest.sim_study as sim_study

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import tracer

        config = tiny_config(tests=("score", "cusum"), n_runs=3, c_values=(0, 2, 4))
        spans = tracer.Tracer()
        spans.install()
        monkeypatch.setattr(sim_study, "fit_ols_columns",
                            spans.wrap("null_fit.fit_ols_columns", null_fit.fit_ols_columns))
        try:
            run_study(config)
        finally:
            spans.restore()
        names = [span.name for span in spans.spans]
        assert names.count("null_fit.fit_ols_columns") == config.n_runs
        assert names.count("cusum_test.multiplier_null") == config.n_runs * len(config.c_values)
        assert "null_fit.fit_ols" not in names and "null_fit.reml_projection" not in names

    def test_empty_departure_levels_rejected(self):
        with pytest.raises(ConfigError, match="departure level"):
            tiny_config(c_values=())

    def test_unknown_test_rejected(self):
        with pytest.raises(ConfigError, match="unknown tests"):
            tiny_config(tests=("wavelet",))

    @pytest.mark.parametrize("levels", [(2.0,), (0.05, 1.0), (0.0,), (float("nan"),)])
    def test_level_outside_unit_interval_rejected(self, levels):
        with pytest.raises(ConfigError, match="levels"):
            tiny_config(levels=levels)

    def test_study_error_on_mass_failures(self, monkeypatch):
        import covtest.sim_study as sim_study

        def boom(*args, **kwargs):
            raise ConfigError("synthetic failure")

        monkeypatch.setattr(sim_study, "score_statistics", boom)
        with pytest.raises(StudyError, match="synthetic failure"):
            run_study(tiny_config(n_runs=4))

    def test_failures_are_counted_not_dropped(self, monkeypatch):
        import covtest.sim_study as sim_study

        calls = {"n": 0}
        real = sim_study.score_statistics

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ConfigError("one-off failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(sim_study, "score_statistics", flaky)
        report = run_study(
            tiny_config(tests=("score", "rlrt"), n_runs=100, c_values=(0,), n_sims_null=300)
        )
        cell = report.get("score", 30, 0.25, 0, 0.05)
        assert cell.failures == 1
        assert len(report.failure_messages) == 1
        assert cell.n_runs == 100


@pytest.fixture(scope="module")
def report():
    return run_study(
        tiny_config(tests=("score", "rlrt"), n_runs=4, c_values=(0, 2), levels=(0.05, 0.1))
    )


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

    def test_config_echo_lines(self, report):
        lines = report.config.lines()
        assert "n_runs = 4" in lines
        assert any(line.startswith("tests = score,rlrt") for line in lines)
