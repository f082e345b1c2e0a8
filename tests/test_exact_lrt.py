"""Exact LRT/RLRT: spectral cache, profile terms, null sampler, observed stats."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from covtest import (
    ConfigError,
    Dataset,
    LambdaGrid,
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
from covtest.exact_lrt import (
    ProfileSolver,
    SpectralCache,
    load_null_distribution,
    null_distribution_key,
    save_null_distribution,
)
from covtest.spline_basis import DesignMatrices, KnotSet


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
        solver = ProfileSolver(design0.B)
        grid = default_lambda_grid(spectral_decompose(design0))
        zeros = 0
        n_reps = 150
        for rep in range(n_reps):
            ds = generate_dataset(40, 0.5, 0, seed=(200, rep))
            design = build_design(ds, design0.knots)
            stat = solver.statistics(ds.y, design.X, grid, [("rlrt", 0)])[0].statistic
            zeros += stat <= 1e-12
        assert zeros / n_reps >= 0.55

    def test_h_validation(self):
        ds, design = make_design(30, 1, 1, 4, seed=41)
        with pytest.raises(ConfigError):
            observed_statistic(ds, design, "lrt", 2)
        with pytest.raises(ConfigError):
            observed_statistic(ds, design, "rlrt", 1)
        with pytest.raises(ConfigError):
            observed_statistic(ds, design, "wald", 0)


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
        samples = np.asarray(samples, dtype=float)
        return NullDistribution(
            samples=samples,
            kind="rlrt",
            h=0,
            zero_mass_fraction=float((samples <= 1e-12).mean()),
            provenance={},
        )

    def test_observed_beyond_all_samples(self):
        null = self.fixed_null(np.linspace(0, 1, 999))
        assert p_value(2.0, null) == 1.0 / 1000.0

    def test_observed_zero_floors_at_zero_mass(self):
        null = self.fixed_null([0.0, 0.0, 0.5, 1.0])
        assert p_value(0.0, null) >= null.zero_mass_fraction
        assert p_value(0.0, null) == 1.0

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

    def test_key_sensitivity(self):
        ds, design = make_design(30, 1, 1, 4, seed=53)
        cache = spectral_decompose(design)
        grid = default_lambda_grid(cache)
        base = null_distribution_key(cache, "rlrt", 0, grid, 1000, 5)
        assert null_distribution_key(cache, "lrt", 0, grid, 1000, 5) != base
        assert null_distribution_key(cache, "rlrt", 0, grid, 2000, 5) != base
        assert null_distribution_key(cache, "rlrt", 0, grid, 1000, 6) != base
        other_grid = default_lambda_grid(cache, n_points=100)
        assert null_distribution_key(cache, "rlrt", 0, other_grid, 1000, 5) != base

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, samples=np.zeros(3), provenance=np.array('{"format": "nope"}'))
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
