"""Exact LRT/RLRT: spectral cache, profile terms, null sampler, observed stats."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from covtest import (
    ConfigError,
    Dataset,
    DegenerateFitError,
    LambdaGrid,
    ModelError,
    NullDistribution,
    build_design,
    default_lambda_grid,
    generate_dataset,
    observed_statistic,
    p_value,
    place_knots,
    profile_terms,
    simulate_null,
    simulate_null_cached,
    spectral_coordinates,
    spectral_decompose,
)
from covtest import exact_lrt
from covtest.exact_lrt import (
    ProfileSolver,
    SpectralCache,
    load_null_distribution,
    null_distribution_key,
    save_null_distribution,
)
from covtest.spline_basis import DesignMatrices, KnotSet, stacked_qr


def make_design(m, p, d, n_knots, seed=0, t=None):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0, 1, m)) if t is None else t
    S = rng.standard_normal((m, p))
    ds = Dataset(y=rng.standard_normal(m), S=S, t=t)
    return ds, build_design(ds, place_knots(t, n_knots, d))


def synthetic_design(X, B, degree):
    """DesignMatrices wrapper for hand-built X and B."""
    knots = KnotSet(np.linspace(0.1, 0.9, B.shape[1]), degree)
    return DesignMatrices(A=X[:, -degree - 1:], B=B, X=X, knots=knots, t=X[:, -1])


def pinned_null_digest(kind, d, h, n_sims):
    """sha256 of the null samples drawn for one fixed design and seed."""
    ds = generate_dataset(60, 0.25, 0, seed=(5, 0))
    design = build_design(ds, place_knots(ds.t, 10, d))
    null = simulate_null(spectral_decompose(design), kind, h, None, n_sims, seed=17)
    return hashlib.sha256(np.ascontiguousarray(null.samples, dtype="<f8").tobytes()).hexdigest()


def dense_path(y, X, B, grid_values, kind, h):
    """Independent dense two-model profiled likelihood (naive inverses)."""
    m, p = X.shape
    rss = np.empty(grid_values.size)
    ldv = np.empty_like(rss)
    ldx = np.empty_like(rss)
    for g, lam in enumerate(grid_values):
        V = np.eye(m) + lam * (B @ B.T)
        Vi = np.linalg.inv(V)
        XtViX = X.T @ Vi @ X
        beta = np.linalg.solve(XtViX, X.T @ Vi @ y)
        r = y - X @ beta
        rss[g] = r @ Vi @ r
        ldv[g] = np.linalg.slogdet(V)[1]
        ldx[g] = np.linalg.slogdet(XtViX)[1]
    if kind == "lrt":
        if h > 0:
            Xr = X[:, :-h]
            br = np.linalg.lstsq(Xr, y, rcond=None)[0]
            rss_null = float(((y - Xr @ br) ** 2).sum())
        else:
            rss_null = rss[0]
        return m * np.log(rss_null / rss) - ldv
    return (m - p) * np.log(rss[0] / rss) - (ldv + ldx - ldx[0])


class TestLambdaGrid:
    def test_must_start_at_zero(self):
        with pytest.raises(ConfigError, match="start at 0"):
            LambdaGrid(np.array([0.1, 1.0]))

    def test_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            LambdaGrid(np.array([0.0, 1.0, 1.0]))

    def test_default_grid_shape_and_scale(self):
        eigs = np.array([4.0, 2.0])  # mean 3
        grid = default_lambda_grid(eigs, n_points=10, span=(1e-2, 1e2))
        assert grid.values[0] == 0.0
        assert grid.values.size == 11
        assert grid.values[1] == pytest.approx(1e-2 / 3.0)
        assert grid.values[-1] == pytest.approx(1e2 / 3.0)

    def test_zero_basis_rejected(self):
        with pytest.raises(Exception, match="identically zero"):
            default_lambda_grid(np.zeros(3))

    def test_simulate_needs_positive_sims(self):
        ds, design = make_design(30, 1, 1, 4, seed=2)
        cache = spectral_decompose(design)
        with pytest.raises(ConfigError, match="n_sims"):
            simulate_null(cache, "rlrt", 0, None, 0, seed=1)


class TestSpectralDecompose:
    def test_orthonormal_basis_off_design(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((10, 5)))
        X, B = Q[:, :2], Q[:, 2:]
        cache = spectral_decompose(synthetic_design(X, B, 1))
        np.testing.assert_allclose(cache.proj_eigs, np.ones(3), atol=1e-12)
        np.testing.assert_allclose(cache.raw_eigs, np.ones(3), atol=1e-12)

    def test_basis_column_inside_design_span(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        X = Q[:, :2]
        B = np.column_stack([X[:, 0], Q[:, 2]])  # first column lies in col(X)
        cache = spectral_decompose(synthetic_design(X, B, 1))
        assert cache.proj_eigs.min() == 0.0
        assert cache.raw_eigs.min() > 0.5

    def test_trace_identity(self, rng):
        """Oracle: dense trace of B'P0B."""
        ds, design = make_design(30, 2, 1, 5, seed=5)
        cache = spectral_decompose(design)
        X, B = design.X, design.B
        P0 = np.eye(30) - X @ np.linalg.inv(X.T @ X) @ X.T
        assert cache.proj_eigs.sum() == pytest.approx(np.trace(B.T @ P0 @ B), rel=1e-9)

    def test_projection_shrinks(self, rng):
        ds, design = make_design(40, 1, 2, 6, seed=9)
        cache = spectral_decompose(design)
        assert np.all(cache.proj_eigs <= cache.raw_eigs + 1e-9)
        assert cache.complement_dim == 40 - 1 - 2 - 1

    def test_solver_penalty_eigenvalues_are_the_samplers(self, rng):
        """The observed LRT penalty uses the eigenvalues of B'B the null
        sampler uses, bit for bit: descending, with the same clipping of a
        near-zero eigenvalue (here from two almost equal basis columns)."""
        _, design = make_design(40, 1, 1, 6, seed=9)
        Q, _ = np.linalg.qr(rng.standard_normal((20, 4)))
        b = rng.standard_normal(20)
        near = synthetic_design(Q[:, :2], np.column_stack([b, b + 1e-9 * Q[:, 2], Q[:, 3]]), 1)
        for d in (design, near):
            raw = spectral_decompose(d).raw_eigs
            np.testing.assert_array_equal(ProfileSolver(d.B).raw_eigs, raw)
        assert raw[-1] == 0.0


class TestProfileTerms:
    def cache_one(self):
        return SpectralCache(
            proj_eigs=np.array([1.0]),
            raw_eigs=np.array([1.0]),
            n_obs=10,
            n_cov=0,
            degree=1,
            n_knots=1,
        )

    def test_origin(self):
        terms = profile_terms(self.cache_one(), np.array([2.0]), 8.0, 0.0)
        assert terms.num == 0.0
        assert terms.den == 10.0
        assert terms.gain == 0.0

    def test_hand_worked_case(self):
        terms = profile_terms(self.cache_one(), np.array([2.0]), 8.0, 1.0)
        assert terms.num == pytest.approx(1.0, rel=1e-14)
        assert terms.den == pytest.approx(9.0, rel=1e-14)
        assert terms.gain == pytest.approx(10 * math.log(10 / 9) - math.log(2), rel=1e-12)

    def test_zero_projected_eigs_never_gain(self):
        cache = SpectralCache(
            proj_eigs=np.zeros(3),
            raw_eigs=np.array([4.0, 2.0, 1.0]),
            n_obs=12,
            n_cov=0,
            degree=1,
            n_knots=3,
        )
        grid = default_lambda_grid(cache)
        gains = [profile_terms(cache, np.ones(3), 5.0, lam).gain for lam in grid.values]
        assert gains[0] == 0.0
        assert max(gains[1:]) < 0.0

    @given(
        w=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=6),
        tail=st.floats(0.1, 100.0),
    )
    def test_gain_zero_at_origin(self, w, tail):
        k = len(w)
        cache = SpectralCache(
            proj_eigs=np.linspace(2, 1, k),
            raw_eigs=np.linspace(4, 2, k),
            n_obs=k + 8,
            n_cov=0,
            degree=1,
            n_knots=k,
        )
        assert profile_terms(cache, np.array(w), tail, 0.0).gain == 0.0

    def test_gain_is_the_engine_profile(self):
        """At every grid value the gain is the LRT profile of the grid sweep that
        observed statistics and the null sampler run: n times the log ratio of
        _grid_profile minus the penalty of _kind_penalty."""
        ds, design = make_design(60, 2, 2, 12, seed=81)
        cache = spectral_decompose(design)
        values = default_lambda_grid(cache).values
        head, tail = spectral_coordinates(design, ds.y + np.sin(6 * ds.t))
        weights = exact_lrt._grid_weights(values, cache.proj_eigs)
        ratio = exact_lrt._grid_profile(weights, head[None], np.array([tail]))[0][0]
        mult, pen = exact_lrt._kind_penalty("lrt", values, cache.n_obs, cache.complement_dim,
                                            cache.raw_eigs, cache.proj_eigs)
        engine = mult * ratio - pen
        gains = np.array([profile_terms(cache, head, tail, lam).gain for lam in values])
        np.testing.assert_allclose(gains, engine, rtol=0, atol=1e-12 * np.abs(engine).max())

    def test_degenerate_inputs_rejected(self):
        cache = self.cache_one()
        with pytest.raises(ConfigError):
            profile_terms(cache, np.array([1.0]), -1.0, 0.5)
        with pytest.raises(ConfigError):
            profile_terms(cache, np.array([1.0]), 1.0, -0.5)


class TestSimulateNull:
    def test_degenerate_grid_all_zero(self):
        ds, design = make_design(30, 1, 1, 4, seed=1)
        cache = spectral_decompose(design)
        null = simulate_null(cache, "lrt", 0, LambdaGrid(np.array([0.0])), 500, seed=2)
        np.testing.assert_array_equal(null.samples, np.zeros(500))
        assert null.zero_mass_fraction == 1.0

    def test_rlrt_nonnegative_with_zero_mass(self):
        ds, design = make_design(40, 2, 1, 8, seed=3)
        cache = spectral_decompose(design)
        null = simulate_null(cache, "rlrt", 0, None, 3000, seed=4)
        assert np.all(null.samples >= 0.0)
        assert 0.0 < null.zero_mass_fraction < 1.0

    def test_bit_reproducible(self):
        ds, design = make_design(35, 1, 1, 6, seed=5)
        cache = spectral_decompose(design)
        a = simulate_null(cache, "rlrt", 0, None, 2500, seed=7)
        b = simulate_null(cache, "rlrt", 0, None, 2500, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_zero_mass_stable_across_seeds(self):
        ds = generate_dataset(50, 0.25, 0, seed=(1, 0))
        design = build_design(ds, place_knots(ds.t, 20, 1))
        cache = spectral_decompose(design)
        n = 4000
        za = simulate_null(cache, "rlrt", 0, None, n, seed=11).zero_mass_fraction
        zb = simulate_null(cache, "rlrt", 0, None, n, seed=12).zero_mass_fraction
        se = math.sqrt(za * (1 - za) / n + zb * (1 - zb) / n)
        assert abs(za - zb) <= 3 * se

    def test_empty_tail_rejected(self):
        ds, design = make_design(24, 2, 1, 20, seed=6)
        cache = spectral_decompose(design)
        assert cache.complement_dim == 20
        with pytest.raises(ConfigError, match="tail"):
            simulate_null(cache, "rlrt", 0, None, 10, seed=0)

    @pytest.mark.parametrize(
        "kind,d,h", [("lrt", 1, 0), ("lrt", 2, 1), ("rlrt", 1, 0)]
    )
    def test_brute_force_distribution_oracle(self, kind, d, h):
        """Oracle: simulate y ~ N(0, I), fit both models densely, take 2*dloglik."""
        m, p, n_knots = 30, 0, 5
        rng = np.random.default_rng(100 + h)
        t = np.sort(rng.uniform(0, 1, m))
        ds = Dataset(y=rng.standard_normal(m), S=np.empty((m, 0)), t=t)
        design = build_design(ds, place_knots(t, n_knots, d))
        cache = spectral_decompose(design)
        grid = default_lambda_grid(cache, n_points=100)
        spectral = simulate_null(cache, kind, h, grid, 20000, seed=31)
        brute = np.empty(800)
        for i in range(800):
            yb = np.random.default_rng((77, i)).standard_normal(m)
            path = dense_path(yb, design.X, design.B, grid.values, kind, h)
            brute[i] = max(path.max(), 0.0)
        stat, pv = ks_2samp(spectral.samples, brute)
        assert pv > 0.01, f"KS p = {pv:.4f} (stat {stat:.4f})"
        zm_s = spectral.zero_mass_fraction
        zm_b = float((brute <= 1e-12).mean())
        se = math.sqrt(zm_s * (1 - zm_s) / 20000 + zm_b * (1 - zm_b) / 800 + 1e-12)
        assert abs(zm_s - zm_b) <= 3.5 * se

    @pytest.mark.parametrize(
        "kind,d,h,digest",
        [
            ("rlrt", 1, 0, "3caaf0404d6e3d399c1855a191325a898635f8ff74e446ea202a1179a8863372"),
            ("lrt", 1, 0, "1e65e57e9b9967798852238de02bbc88ef3bca66600568dd293dcac6114ad080"),
            ("lrt", 2, 1, "09ae420219a52343d9e18501a39dba80ab2cbe58d7574213c27d4c735e316d5a"),
        ],
    )
    def test_samples_pinned(self, kind, d, h, digest):
        """The draws behind every cached null; a change here needs a new _SAMPLER_VERSION."""
        assert pinned_null_digest(kind, d, h, 3000) == digest

    @pytest.mark.parametrize(
        "kind,d,h,n_sims,digest",
        [
            ("rlrt", 1, 0, 500, "b60bd866bad791ed4ee2337576173bdbac93ce2f0523deb8ffe21e41652d433e"),
            ("rlrt", 1, 0, 2048, "ba64f224456421bd75c940f8abb0db38fd42f572796a11e4f9cd48a351829dd0"),
            ("lrt", 2, 1, 500, "4b1c6b56221d98eb00e978197c6204a8831329bc0d4142f50e430797d33998b5"),
            ("lrt", 2, 1, 2048, "9f94b6823bd3571a3eac7ce039e4c3169b20e60a3853352c0f47411cdb9526e7"),
        ],
    )
    def test_samples_pinned_at_chunk_edges(self, kind, d, h, n_sims, digest):
        """One partial chunk and exactly two full ones, through the reused work buffer."""
        assert pinned_null_digest(kind, d, h, n_sims) == digest

    @pytest.mark.parametrize("rows", [exact_lrt._SIM_CHUNK, 300])
    def test_grid_profile_buffers_bit_identical(self, rows):
        rng = np.random.default_rng(rows)
        values = np.concatenate([[0.0], np.logspace(-6, 8, 200)])
        weights = exact_lrt._grid_weights(values, np.sort(rng.uniform(0, 5, 20))[::-1])
        w, tail = rng.chisquare(1.0, size=(rows, 20)), rng.chisquare(70, size=rows)
        ref = exact_lrt._grid_profile(weights, w, tail)
        work = np.empty((2, exact_lrt._SIM_CHUNK, values.size))
        got = exact_lrt._grid_profile(weights, w, tail, work)
        for r, g, buf in zip(ref, got, work):
            assert g.shape == (rows, values.size)
            assert g.tobytes() == r.tobytes()
            assert np.shares_memory(g, buf)

    def test_memory_bounded_by_one_chunk(self):
        """Every chunk reuses one 2 x 1024 x G work array (3.3 MB at G = 201)."""
        ds = generate_dataset(100, 0.25, 0, seed=(1, 0))
        cache = spectral_decompose(build_design(ds, place_knots(ds.t, 20, 1)))
        grid = default_lambda_grid(cache)
        assert grid.values.size == 201 and cache.n_knots == 20
        tracemalloc.start()
        try:
            simulate_null(cache, "rlrt", 0, grid, 10000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20

    def test_rlrt_ignores_h(self):
        ds, design = make_design(30, 1, 1, 4, seed=8)
        cache = spectral_decompose(design)
        with pytest.raises(ConfigError, match="variance component"):
            simulate_null(cache, "rlrt", 1, None, 10, seed=0)


class TestObservedStatistic:
    def test_orthogonal_response_gives_zero(self, rng):
        ds, design = make_design(25, 1, 1, 4, seed=13)
        X, B = design.X, design.B
        Q, _ = np.linalg.qr(np.hstack([X, B]))
        v = rng.standard_normal(25)
        v -= Q @ (Q.T @ v)  # orthogonal to both the design and the spline
        y = X @ rng.standard_normal(X.shape[1]) + v
        ds2 = Dataset(y=y, S=ds.S, t=ds.t)
        result = observed_statistic(ds2, design, "lrt", 0)
        assert result.statistic == 0.0
        assert result.lambda_hat == 0.0

    @pytest.mark.parametrize("kind,h", [("lrt", 0), ("lrt", 1), ("rlrt", 0)])
    def test_dense_oracle(self, kind, h):
        """Oracle: independent dense GLS implementation of both model fits."""
        rng = np.random.default_rng(50)
        for trial in range(4):
            m = 25
            d = max(1, h)
            t = np.sort(rng.uniform(0, 1, m))
            S = rng.standard_normal((m, 1))
            y = S[:, 0] * 0.5 + np.sin(3 * t) + rng.standard_normal(m) * 0.3
            ds = Dataset(y=y, S=S, t=t)
            design = build_design(ds, place_knots(t, 5, d))
            grid = default_lambda_grid(spectral_decompose(design))
            result = observed_statistic(ds, design, kind, h, grid)
            oracle = max(dense_path(y, design.X, design.B, grid.values, kind, h).max(), 0.0)
            assert result.statistic == pytest.approx(oracle, abs=1e-6, rel=1e-6)

    def test_scale_invariance_exact_for_binary_scales(self):
        ds, design = make_design(30, 2, 1, 6, seed=21)
        rng = np.random.default_rng(23)
        y = np.sin(4 * design.t) + 0.2 * rng.standard_normal(30)
        grid = default_lambda_grid(spectral_decompose(design))
        base = Dataset(y=y, S=ds.S, t=ds.t)
        for kind in ("lrt", "rlrt"):
            ref = observed_statistic(base, design, kind, 0, grid)
            for a in (2.0, 0.5, 1024.0):
                scaled = Dataset(y=a * y, S=ds.S, t=ds.t)
                got = observed_statistic(scaled, design, kind, 0, grid)
                assert got.statistic == ref.statistic
                assert got.lambda_hat == ref.lambda_hat
            odd = observed_statistic(Dataset(y=3.0 * y, S=ds.S, t=ds.t), design, kind, 0, grid)
            assert odd.statistic == pytest.approx(ref.statistic, rel=1e-12, abs=1e-12)

    def test_grid_refinement_never_decreases(self):
        ds, design = make_design(30, 1, 1, 6, seed=31)
        rng = np.random.default_rng(33)
        y = np.cos(5 * design.t) + 0.3 * rng.standard_normal(30)
        dsy = Dataset(y=y, S=ds.S, t=ds.t)
        cache = spectral_decompose(design)
        coarse = default_lambda_grid(cache, n_points=40)
        extra = default_lambda_grid(cache, n_points=160)
        union = LambdaGrid(np.unique(np.concatenate([coarse.values, extra.values])))
        for kind in ("lrt", "rlrt"):
            s_coarse = observed_statistic(dsy, design, kind, 0, coarse).statistic
            s_union = observed_statistic(dsy, design, kind, 0, union).statistic
            assert s_union >= s_coarse - 1e-12

    def test_null_data_statistic_often_zero(self):
        """Under the null the restricted statistic has a large point mass at 0."""
        ds0 = generate_dataset(40, 0.5, 0, seed=(200, 0))
        design0 = build_design(ds0, place_knots(ds0.t, 10, 1))
        grid = default_lambda_grid(spectral_decompose(design0))
        zeros = 0
        n_reps = 150
        for rep in range(n_reps):
            ds = generate_dataset(40, 0.5, 0, seed=(200, rep))
            design = build_design(ds, design0.knots)
            stat = observed_statistic(ds, design, "rlrt", 0, grid).statistic
            zeros += stat <= 1e-12
        assert zeros / n_reps >= 0.55

    def test_guards(self):
        ds, design = make_design(30, 1, 1, 4, seed=43)
        grid = default_lambda_grid(spectral_decompose(design))
        collinear = np.column_stack([design.X, 2.0 * design.X[:, 0]])
        with pytest.raises(ModelError, match="rank deficient"):
            observed_statistic(ds, replace(design, X=collinear, qr=None), "rlrt", 0, grid)
        short = Dataset(y=ds.y[:3], S=ds.S[:3], t=ds.t[:3])
        with pytest.raises(ModelError, match="rows"):
            observed_statistic(short, replace(design, X=design.X[:3], B=design.B[:3], qr=None),
                               "rlrt", 0, grid)
        perfect = Dataset(y=design.X @ np.arange(1.0, design.X.shape[1] + 1), S=ds.S, t=ds.t)
        with pytest.raises(DegenerateFitError):
            observed_statistic(perfect, design, "lrt", 0, grid)

    def test_degenerate_column_fails_alone(self):
        """A perfect-fit column gets its error; the other column is that of a
        single-column call."""
        ds, design = make_design(30, 1, 1, 4, seed=43)
        solver = ProfileSolver(design.B)
        grid = default_lambda_grid(spectral_decompose(design))
        perfect = design.X @ np.arange(1.0, design.X.shape[1] + 1)
        Y = np.column_stack([ds.y, perfect])[None]
        got = solver.statistics(Y, design.X[None], grid, [("lrt", 0)])
        assert list(got[4]) == [(0, 1)]
        assert isinstance(got[4][0, 1], DegenerateFitError)
        assert str(got[4][0, 1]) == "null fit is numerically perfect; statistic undefined"
        ref = observed_statistic(ds, design, "lrt", 0, grid)
        assert got[0][0, 0, 0] == pytest.approx(ref.statistic, rel=1e-12, abs=1e-12)
        assert grid.values[got[1][0, 0, 0]] == ref.lambda_hat

    def test_no_n_by_n_work_at_large_n(self):
        """One 20 000 x 20 000 float64 array would take 3.2 GB."""
        ds = generate_dataset(20000, 0.25, 2, seed=(3, 0))
        design = build_design(ds, place_knots(ds.t, 20, 1))
        grid = default_lambda_grid(spectral_decompose(design))
        tracemalloc.start()
        try:
            observed_statistic(ds, design, "rlrt", 0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_h_validation(self):
        ds, design = make_design(30, 1, 1, 4, seed=41)
        with pytest.raises(ConfigError):
            observed_statistic(ds, design, "lrt", 2)
        with pytest.raises(ConfigError):
            observed_statistic(ds, design, "rlrt", 1)
        with pytest.raises(ConfigError):
            observed_statistic(ds, design, "wald", 0)


class TestBatchedColumns:
    @pytest.mark.parametrize("degree,specs", [
        (1, [("lrt", 0), ("rlrt", 0)]),
        (2, [("lrt", 1), ("lrt", 0), ("rlrt", 0)]),
    ])
    def test_matrix_matches_single_columns(self, degree, specs):
        """Five departure levels of one replicate share X: one call with
        five columns gives what five single-column calls give."""
        datasets = [generate_dataset(60, 0.5, c, seed=(17, 2)) for c in range(5)]
        design = build_design(datasets[0], place_knots(datasets[0].t, 12, degree))
        solver = ProfileSolver(design.B)
        grid = default_lambda_grid(spectral_decompose(design))
        Y = np.column_stack([ds.y for ds in datasets])[None]
        batched = solver.statistics(Y, design.X[None], grid, specs)
        assert [a.shape for a in batched[:4]] == [(len(specs), 1, 5)] * 4 and batched[4] == {}
        for c, ds in enumerate(datasets):
            for j, (kind, h) in enumerate(specs):
                got = cell_fields(batched, grid, specs, j, 0, c)
                ref = observed_statistic(ds, design, kind, h, grid)
                assert got[0] == ref.method
                assert got[1] == pytest.approx(ref.statistic, rel=1e-12, abs=1e-12)
                assert got[2] == ref.lambda_hat
                assert got[6] == pytest.approx(ref.nuisance["rss_null"], rel=1e-12)
                assert ref.nuisance["grid_sha"] == grid.sha
        assert batched[0][0, 0, 4] > batched[0][0, 0, 0]  # the departure is visible

    def test_grid_hashed_once(self, monkeypatch):
        """The grid's sha is computed once, however many statistics use it."""
        hashed = []
        real = exact_lrt._sha
        monkeypatch.setattr(exact_lrt, "_sha", lambda a: hashed.append(a) or real(a))
        ds = generate_dataset(40, 0.5, 2, seed=(17, 3))
        design = build_design(ds, place_knots(ds.t, 8, 1))
        grid = default_lambda_grid(spectral_decompose(design))
        for _ in range(3):
            result = observed_statistic(ds, design, "rlrt", 0, grid)
        assert result.nuisance["grid_sha"] == grid.sha == real(grid.values)
        assert sum(a is grid.values for a in hashed) == 1


def result_fields(result):
    """Every field of a TestResult, for exact comparison."""
    nuisance = result.nuisance
    return (result.method, result.statistic, result.lambda_hat, result.clamped,
            nuisance["sigma2_eps"], nuisance["sigma2_spline"], nuisance["rss_null"], nuisance["h"])


def cell_fields(got, grid, specs, j, r, c):
    """``result_fields`` of the TestResult that cell (r, c) of the j-th
    (kind, h) of a ``ProfileSolver.statistics`` result stands for."""
    raw, k, sigma2, rss_null = (a[j, r, c].item() for a in got[:4])
    lam = float(grid.values[k])
    return (specs[j][0], max(raw, 0.0), lam, raw < 0.0, sigma2, lam * sigma2, rss_null, specs[j][1])


def single_cell(design, X, Y, r, c):
    """Dataset and design of column c of replicate r of a replicate stack."""
    ds = Dataset(y=Y[r, :, c], S=X[r, :, :2], t=design.t)
    return ds, replace(design, X=X[r], qr=None)


def replicate_stack(m, degree, n_reps, seed):
    """Study-like replicates: one t grid, so one A and B, and per replicate
    its own S and five departure levels as the columns of Y."""
    draws = [generate_dataset(m, 0.5, (0, 1, 2, 3, 4), seed=(seed, rep)) for rep in range(n_reps)]
    design = build_design(draws[0][0], place_knots(draws[0][0].t, 12 if m > 30 else 8, degree))
    X = np.stack([np.hstack([datasets[0].S, design.A]) for datasets in draws])
    Y = np.stack([np.column_stack([ds.y for ds in datasets]) for datasets in draws])
    return design, X, Y


class TestStackedReplicates:
    SPECS = [("lrt", 0), ("rlrt", 0), ("lrt", 1)]

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("m", [30, 50, 100])
    def test_stack_matches_single_calls_bit_for_bit(self, m, degree):
        """A stack of replicates with different S gives, slice by slice, the
        bits of one call per replicate, for every (kind, h) and every
        TestResult field; observed_statistic gives the bits of a call on its
        one cell, and those of the stack to rounding."""
        design, X, Y = replicate_stack(m, degree, 7, seed=21)
        solver = ProfileSolver(design.B)
        grid = default_lambda_grid(spectral_decompose(design))
        stacked = solver.statistics(Y, X, grid, self.SPECS)
        assert stacked[0].shape == (3, 7, 5) and stacked[4] == {}
        for r in range(7):
            single = solver.statistics(Y[r:r + 1], X[r:r + 1], grid, self.SPECS)
            for c in range(5):
                ds, design_r = single_cell(design, X, Y, r, c)
                one = solver.statistics(ds.y[None, :, None], X[r:r + 1], grid, self.SPECS)
                for j, (kind, h) in enumerate(self.SPECS):
                    got = cell_fields(stacked, grid, self.SPECS, j, r, c)
                    assert got == cell_fields(single, grid, self.SPECS, j, 0, c)
                    ref = result_fields(observed_statistic(ds, design_r, kind, h, grid))
                    assert ref == cell_fields(one, grid, self.SPECS, j, 0, 0)
                    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)
                    assert got[2] == ref[2]  # the same lambda-hat
        given_qr = solver.statistics(Y, X, grid, self.SPECS, stacked_qr(X))
        for got, ref in zip(given_qr[:4], stacked[:4]):
            np.testing.assert_array_equal(got, ref)
        assert given_qr[4] == {}

    def test_failures_stay_in_their_cells(self):
        """A replicate with collinear S fails whole, with the design check's
        message; a perfect-fit column fails alone; the rest are untouched."""
        design, X, Y = replicate_stack(30, 1, 4, seed=22)
        X[1, :, 1] = 2.0 * X[1, :, 0]
        Y[2, :, 3] = X[2] @ np.arange(1.0, 5.0)
        solver = ProfileSolver(design.B)
        grid = default_lambda_grid(spectral_decompose(design))
        stacked = solver.statistics(Y, X, grid, self.SPECS)
        errors = stacked[4]
        assert list(errors) == [(1, c) for c in range(5)] + [(2, 3)]
        for c in range(5):
            assert isinstance(errors[1, c], ModelError)
            assert str(errors[1, c]) == "fixed-effects design is rank deficient (4 columns, rank 3)"
        with pytest.raises(ModelError, match="rank deficient"):
            observed_statistic(*single_cell(design, X, Y, 1, 0), "lrt", 0, grid)
        assert isinstance(errors[2, 3], DegenerateFitError)
        assert str(errors[2, 3]) == "null fit is numerically perfect; statistic undefined"
        with pytest.raises(DegenerateFitError):
            observed_statistic(*single_cell(design, X, Y, 2, 3), "lrt", 0, grid)
        for r in (0, 2, 3):
            single = solver.statistics(Y[r:r + 1], X[r:r + 1], grid, self.SPECS)
            assert list(single[4]) == ([(0, 3)] if r == 2 else [])
            for c in range(5):
                if (r, c) == (2, 3):
                    continue
                for j in range(len(self.SPECS)):
                    assert (cell_fields(stacked, grid, self.SPECS, j, r, c)
                            == cell_fields(single, grid, self.SPECS, j, 0, c))

    def test_too_few_rows_fail_every_replicate(self):
        design, X, Y = replicate_stack(30, 1, 3, seed=23)
        solver = ProfileSolver(design.B)
        grid = default_lambda_grid(spectral_decompose(design))
        stacked = solver.statistics(Y[:, :4], X[:, :4], grid, self.SPECS)
        rows = "need n > 4 rows to fit 4 coefficients, got n = 4"
        assert {cell: str(e) for cell, e in stacked[4].items()} == {
            (r, c): rows for r in range(3) for c in range(5)}


class TestSpectralDenseEquivalence:
    def test_profile_terms_match_dense_path(self):
        """Spectral gain from data coordinates equals the dense 2*dloglik."""
        rng = np.random.default_rng(71)
        for trial in range(6):
            m = int(rng.integers(15, 30))
            p = int(rng.integers(0, 3))
            d = int(rng.integers(1, 3))
            n_knots = int(rng.integers(2, min(7, m - p - d - 2)))
            t = np.sort(rng.uniform(0, 1, m))
            S = rng.standard_normal((m, p))
            y = rng.standard_normal(m) + np.sin(5 * t)
            ds = Dataset(y=y, S=S, t=t)
            design = build_design(ds, place_knots(t, n_knots, d))
            cache = spectral_decompose(design)
            grid = default_lambda_grid(cache, n_points=60)
            head, tail = spectral_coordinates(design, y)
            dense = dense_path(y, design.X, design.B, grid.values, "lrt", 0)
            for g, lam in enumerate(grid.values):
                gain = profile_terms(cache, head, tail, lam).gain
                assert gain == pytest.approx(dense[g], abs=1e-8 * max(1, abs(dense[g])))


class TestPValue:
    def fixed_null(self, samples):
        return NullDistribution(samples=np.asarray(samples, dtype=float),
                                provenance={"kind": "rlrt", "h": 0})

    def test_observed_beyond_all_samples(self):
        null = self.fixed_null(np.linspace(0, 1, 999))
        assert p_value(2.0, null) == 1.0 / 1000.0

    def test_observed_zero_floors_at_zero_mass(self):
        null = self.fixed_null([0.0, 0.0, 0.5, 1.0])
        assert p_value(0.0, null) >= null.zero_mass_fraction
        assert p_value(0.0, null) == 1.0

    def test_sorted_lookup_matches_brute_force_count(self):
        """Ties, zero mass, and values below and above every sample, one at a
        time and as one array: the add-one count of samples >= observed."""
        samples = np.array([7.0, 2.5, 0.0, 0.3, 2.5, 0.0, 1.2, 0.3, 0.0])
        null = self.fixed_null(samples)
        observed = np.array([-np.inf, -1.0, 0.0, 1e-300, 0.3, np.nextafter(0.3, 1.0), 1.2,
                             2.5, 6.999, 7.0, 7.5, np.inf])
        brute = np.array([(1 + int((samples >= x).sum())) / (1 + samples.size) for x in observed])
        assert np.array_equal(p_value(observed, null), brute)
        for x, want in zip(observed, brute):
            got = p_value(float(x), null)
            assert type(got) is float and got == want
        assert p_value(0.0, null) == 1.0
        assert p_value(7.5, null) == 1.0 / 10.0

    def test_statistics_at_or_below_zero_need_no_clamp(self):
        """A simulated null's samples are >= 0, so a raw statistic <= 0 gets the
        p-value of the clamped one: every sample counts."""
        ds, design = make_design(30, 1, 1, 4, seed=63)
        null = simulate_null(spectral_decompose(design), "rlrt", 0, None, 500, seed=4)
        assert null.samples.min() == 0.0
        raw = np.array([-np.inf, -50.0, -1e-300, -0.0, 0.0])
        assert np.array_equal(p_value(raw, null), p_value(np.maximum(raw, 0.0), null))
        assert np.all(p_value(raw, null) == 1.0)

    def test_median_maps_near_half(self):
        """Oracle: rank-based count on the sorted samples."""
        rng = np.random.default_rng(5)
        samples = rng.exponential(1.0, 4001)
        null = self.fixed_null(samples)
        med = float(np.median(samples))
        p = p_value(med, null)
        srt = np.sort(samples)
        rank_count = len(samples) - np.searchsorted(srt, med, side="left")
        assert p == (1 + rank_count) / (1 + len(samples))
        assert abs(p - 0.5) <= 2 / math.sqrt(len(samples))


class TestAttachPvalue:
    def test_kind_mismatch_rejected(self):
        from covtest import attach_pvalue

        ds, design = make_design(30, 1, 1, 4, seed=61)
        cache = spectral_decompose(design)
        null = simulate_null(cache, "lrt", 0, None, 200, seed=1)
        result = observed_statistic(ds, design, "rlrt", 0)
        with pytest.raises(ConfigError, match="null distribution"):
            attach_pvalue(result, null)

    def test_attaches_provenance(self):
        from covtest import attach_pvalue

        ds, design = make_design(30, 1, 1, 4, seed=62)
        cache = spectral_decompose(design)
        grid = default_lambda_grid(cache)
        null = simulate_null(cache, "rlrt", 0, grid, 500, seed=2)
        result = attach_pvalue(observed_statistic(ds, design, "rlrt", 0, grid), null)
        assert result.p_value == p_value(result.statistic, null)
        assert result.null_provenance == null.provenance


class TestNullCache:
    def test_save_load_round_trip(self, tmp_path):
        ds, design = make_design(30, 1, 1, 4, seed=51)
        cache = spectral_decompose(design)
        null = simulate_null(cache, "rlrt", 0, None, 1000, seed=3)
        path = tmp_path / "null.npz"
        save_null_distribution(null, path)
        back = load_null_distribution(path)
        assert np.array_equal(back.samples, null.samples)
        assert back.provenance == null.provenance
        assert back.kind == "rlrt"

    def test_cached_simulation_is_stable(self, tmp_path):
        ds, design = make_design(30, 1, 1, 4, seed=52)
        cache = spectral_decompose(design)
        first = simulate_null_cached(cache, "rlrt", 0, None, 800, seed=5, cache_dir=tmp_path)
        files = list(tmp_path.glob("null_*.npz"))
        assert len(files) == 1
        second = simulate_null_cached(cache, "rlrt", 0, None, 800, seed=5, cache_dir=tmp_path)
        assert np.array_equal(first.samples, second.samples)
        assert len(list(tmp_path.glob("null_*.npz"))) == 1

    def test_cached_null_equals_the_simulated_one(self, tmp_path, monkeypatch):
        """Saved by the cache and read back, an LRT null with h = 1 keeps its
        samples, provenance, kind, h and zero mass."""
        ds, design = make_design(40, 1, 2, 5, seed=55)
        cache = spectral_decompose(design)
        fresh = simulate_null(cache, "lrt", 1, None, 700, seed=(5, 1))
        simulate_null_cached(cache, "lrt", 1, None, 700, seed=(5, 1), cache_dir=tmp_path)

        def no_draws(*args, **kwargs):
            raise AssertionError("the cached null was simulated again")

        monkeypatch.setattr(exact_lrt, "simulate_null", no_draws)
        back = simulate_null_cached(cache, "lrt", 1, None, 700, seed=(5, 1), cache_dir=tmp_path)
        assert np.array_equal(back.samples, fresh.samples)
        assert back.provenance == fresh.provenance
        assert (back.kind, back.h, back.n_sims) == (fresh.kind, fresh.h, fresh.n_sims) == ("lrt", 1, 700)
        assert back.zero_mass_fraction == fresh.zero_mass_fraction

    def test_key_sensitivity(self, monkeypatch):
        ds, design = make_design(30, 1, 1, 4, seed=53)
        cache = spectral_decompose(design)
        grid = default_lambda_grid(cache)
        base = null_distribution_key(cache, "rlrt", 0, grid, 1000, 5)
        assert null_distribution_key(cache, "lrt", 0, grid, 1000, 5) != base
        assert null_distribution_key(cache, "rlrt", 0, grid, 2000, 5) != base
        assert null_distribution_key(cache, "rlrt", 0, grid, 1000, 6) != base
        other_grid = default_lambda_grid(cache, n_points=100)
        assert null_distribution_key(cache, "rlrt", 0, other_grid, 1000, 5) != base
        monkeypatch.setattr(exact_lrt, "_SAMPLER_VERSION", exact_lrt._SAMPLER_VERSION + 1)
        assert null_distribution_key(cache, "rlrt", 0, grid, 1000, 5) != base

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, samples=np.zeros(3), provenance=np.array('{"format": "nope"}'))
        with pytest.raises(ConfigError, match="not a recognised"):
            load_null_distribution(path)
        # The format tag alone is not enough: kind and h are read from the provenance.
        np.savez(path, samples=np.zeros(3),
                 provenance=np.array('{"format": "covtest-null-cache", "version": 1, "h": 0}'))
        with pytest.raises(ConfigError, match="not a recognised"):
            load_null_distribution(path)

    def test_truncated_entry_is_resimulated(self, tmp_path):
        ds, design = make_design(30, 1, 1, 4, seed=54)
        cache = spectral_decompose(design)
        first = simulate_null_cached(cache, "rlrt", 0, None, 800, seed=5, cache_dir=tmp_path)
        (path,) = tmp_path.glob("null_*.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.warns(UserWarning, match="unreadable null cache entry"):
            again = simulate_null_cached(cache, "rlrt", 0, None, 800, seed=5, cache_dir=tmp_path)
        assert np.array_equal(again.samples, first.samples)
        assert path.read_bytes() == data
        assert np.array_equal(load_null_distribution(path).samples, first.samples)

    def test_interrupted_save_leaves_nothing(self, tmp_path, monkeypatch):
        ds, design = make_design(30, 1, 1, 4, seed=55)
        null = simulate_null(spectral_decompose(design), "rlrt", 0, None, 200, seed=3)

        def crash(fh, **arrays):
            fh.write(b"PK\x03\x04 partial")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez", crash)
        with pytest.raises(KeyboardInterrupt):
            save_null_distribution(null, tmp_path / "null.npz")
        assert list(tmp_path.iterdir()) == []
