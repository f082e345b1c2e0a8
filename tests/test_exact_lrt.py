"""Exact LRT/RLRT: spectral cache, profile terms, null sampler, observed stats."""

import hashlib
import io
import json
import math
import tracemalloc
import unittest.mock
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from covtest import (
    ConfigError,
    Dataset,
    DegenerateFitError,
    LambdaGrid,
    ModelError,
    NullDistribution,
    NullVariant,
    build_design,
    default_lambda_grid,
    fit_ols,
    generate_dataset,
    observed_statistic,
    p_value,
    place_knots,
    profile_terms,
    simulate_null,
    simulate_null_cached,
    simulate_nulls,
    spectral_coordinates,
    spectral_decompose,
)
from covtest import exact_lrt, spline_basis
from covtest.exact_lrt import (
    ProfileSolver,
    SpectralCache,
    load_null_distribution,
    null_distribution_key,
    save_null_distribution,
)
from covtest.spline_basis import PERFECT_FIT_REL, DesignMatrices, KnotSet, stacked_qr, stacked_spectrum
import npz_faults
from oracles import extended_dense_profile, extended_singular_values, gamma_chisquare, log1p_ratio_null, log1p_ratio_sweep


# Every (kind, h) at spline degrees 1 to 3: on one draw of sorted uniform t at
# m = 60 and 100 with K = 20 and at m = 200 with K = 30, and on two more draws at
# m = 60 and 100 for degree 3, where B'B's smallest eigenvalues are below 1e-12
# of its largest (the LRT penalty reads them).
EXTENDED_CASES = [
    pytest.param(m, K, draw, d, kind, h, id="-".join(map(str, (m, d, kind, h))) + (f"-K{K}" if K != 20 else "")
                 + (f"-draw{draw}" if draw else ""))
    for m, K, draw, degrees in [(60, 20, 0, (1, 2, 3)), (100, 20, 0, (1, 2, 3)), (200, 30, 0, (1, 2, 3)),
                                (60, 20, 1, (3,)), (60, 20, 2, (3,)), (100, 20, 1, (3,)), (100, 20, 2, (3,))]
    for d in degrees for kind, h in [("rlrt", 0), *(("lrt", h) for h in range(d + 1))]
]


def oracle_case(m, K, draw, d):
    """(dataset, design) of an extended-precision oracle case: sorted uniform t,
    one covariate and a smooth departure, K knots of degree d."""
    rng = np.random.default_rng((draw, m))
    t = np.sort(rng.uniform(0, 1, m))
    S = rng.standard_normal((m, 1))
    ds = Dataset(y=0.5 * S[:, 0] + np.sin(3 * t) + 0.3 * rng.standard_normal(m), S=S, t=t)
    return ds, build_design(ds, place_knots(t, K, d))


@st.composite
def random_designs(draw):
    """A design of n = 12-300 rows, d = 1-3, p = 0-3 covariates and 1-30 knots,
    on t sorted, unsorted or tied."""
    n, d, p = draw(st.integers(12, 300)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.uniform(0, 1, n)
    layout = draw(st.sampled_from(["sorted", "unsorted", "tied"]))
    if layout == "sorted":
        t = np.sort(t)
    elif layout == "tied":
        levels = draw(st.integers(d + 2, max(d + 2, n // 2)))
        t = rng.integers(0, levels, n) / levels
    distinct = np.unique(t).size
    knots = draw(st.integers(1, max(1, min(30, distinct - 1, n - p - d - 2))))
    return build_design(Dataset(y=rng.standard_normal(n), S=rng.standard_normal((n, p)), t=t),
                        place_knots(t, knots, d))


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

    @staticmethod
    def cache_of(raw_eigs):
        return SpectralCache(proj_eigs=raw_eigs, raw_eigs=raw_eigs, grid_scale=float(raw_eigs.mean()), n_obs=10,
                             n_cov=0, degree=1, n_knots=raw_eigs.size)

    def test_default_grid_shape_and_scale(self):
        """{0} and 200 log-spaced ratios on (1e-6, 1e8) over the mean eigenvalue,
        with the bits of the grid written with explicit log10 ends."""
        grid = default_lambda_grid(self.cache_of(np.array([4.0, 2.0])))  # mean 3
        assert grid.values[0] == 0.0
        assert grid.values.size == 201
        assert grid.values[1] == pytest.approx(1e-6 / 3.0)
        assert grid.values[-1] == pytest.approx(1e8 / 3.0)
        ratios = np.logspace(math.log10(1e-6), math.log10(1e8), 200)
        assert grid.values[1:].tobytes() == (ratios / 3.0).tobytes()

    def test_zero_basis_rejected(self):
        with pytest.raises(Exception, match="identically zero"):
            default_lambda_grid(self.cache_of(np.zeros(3)))

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
        """The observed statistic uses the eigenvalues of B'B and of B'P0B the
        null sampler uses, bit for bit, descending. Those of B'P0B are also the
        ones a study's sweep takes on a stack of the same X. Where two basis
        columns are almost equal, B'B's near-zero eigenvalue (about 1e-19 of
        the largest) is kept at its extended-precision value, and B'P0B's is
        clipped to 0."""
        designs = [make_design(40, 1, 1, 6, seed=9)[1]]
        for m in (30, 100, 2000):
            ds = generate_dataset(m, 0.25, 2, seed=(8, m))
            designs += [build_design(ds, place_knots(ds.t, 8 if m == 30 else 20, d)) for d in (1, 2, 3)]
        Q, _ = np.linalg.qr(rng.standard_normal((20, 4)))
        b = rng.standard_normal(20)
        near = synthetic_design(Q[:, :2], np.column_stack([b, b + 1e-9 * Q[:, 2], Q[:, 3]]), 1)
        for d in designs + [near]:
            cache = spectral_decompose(d)
            np.testing.assert_array_equal(ProfileSolver(d).raw_eigs, cache.raw_eigs)
            (proj,), _, _ = stacked_spectrum(stacked_qr(d.X[None]).Q, d.B)
            assert proj.tobytes() == cache.proj_eigs.tobytes()
        cache = spectral_decompose(near)
        assert cache.raw_eigs[-1] == pytest.approx(float(extended_singular_values(near.B)[-1] ** 2), rel=1e-6)
        assert cache.raw_eigs[-1] < 1e-18 * cache.raw_eigs[0] and cache.proj_eigs[-1] == 0.0

    @pytest.mark.parametrize("m,K,draw,d", sorted({case.values[:4] for case in EXTENDED_CASES}))
    def test_raw_eigs_are_the_extended_precision_ones(self, m, K, draw, d):
        """B'B's eigenvalues on the extended-precision oracle's designs are the
        squared singular values of B from one-sided Jacobi in np.longdouble, each
        to 1e-10 relative, the smallest (down to 1e-14 of the largest at d = 3)
        included; an eigvalsh of the float64 gram misses them by up to 3e-6, or
        by all of one it sets to 0."""
        design = oracle_case(m, K, draw, d)[1]
        want = extended_singular_values(design.B) ** 2
        got = spectral_decompose(design).raw_eigs
        assert np.all(np.abs(got - want) <= 1e-10 * want)

    @given(case=random_designs())
    def test_projection_never_grows_an_eigenvalue(self, case):
        """Projecting off X shrinks B's quadratic form, so each eigenvalue of
        B'P0B is at most the matching one of B'B, up to the eigensolver's
        rounding of B'P0B (K eps of its largest eigenvalue)."""
        cache = spectral_decompose(case)
        slack = cache.n_knots * np.finfo(float).eps * cache.raw_eigs[0]
        assert np.all(cache.proj_eigs <= cache.raw_eigs + slack)


class TestProfileTerms:
    def cache_one(self):
        return SpectralCache(
            proj_eigs=np.array([1.0]),
            raw_eigs=np.array([1.0]),
            grid_scale=1.0,
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
            grid_scale=7.0 / 3.0,
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
            grid_scale=3.0,
            n_obs=k + 8,
            n_cov=0,
            degree=1,
            n_knots=k,
        )
        assert profile_terms(cache, np.array(w), tail, 0.0).gain == 0.0

    def test_gain_is_the_engine_profile(self):
        """At every grid value the gain is the LRT profile of the grid sweep that
        observed statistics and the null sampler run: _grid_max's n log(scaled(0)
        / scaled(lam)) of the residual energy from _grid_weights scaled by
        exp(pen / n), with pen from _kind_penalty."""
        ds, design = make_design(60, 2, 2, 12, seed=81)
        cache = spectral_decompose(design)
        values = default_lambda_grid(cache).values
        head, tail = spectral_coordinates(design, ds.y + np.sin(6 * ds.t))
        mult, pen = exact_lrt._kind_penalty("lrt", values, cache.n_obs, cache.complement_dim,
                                            cache.raw_eigs, cache.proj_eigs)
        scaled = (head @ exact_lrt._grid_weights(values, cache.proj_eigs) + tail) * np.exp(pen / mult)
        engine = mult * np.log(scaled[0] / scaled)
        assert exact_lrt._grid_max(scaled, mult)[1] == engine.max()
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
        grid = LambdaGrid(default_lambda_grid(cache).values[::2])
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
            ("rlrt", 1, 0, "16f91f1af5626b6bc6d0ecb0b4d686af2ddf4061d47f2c414f6751af723b18d4"),
            ("lrt", 1, 0, "5045512a47e28314d960eccc99b7f1574e85dc45d127db649d97474e470cac51"),
            ("lrt", 2, 1, "98726d471afe7ddcdc7c03255b877ed12edc8e5c5d03774df3f2ca83fe662240"),
        ],
    )
    def test_samples_pinned(self, kind, d, h, digest):
        """The draws behind every cached null. A change of the sampler's own
        steps needs a new _SAMPLER_VERSION; a digest that moves with the
        design's spectrum needs none, because the keys hash the eigenvalues."""
        assert pinned_null_digest(kind, d, h, 3000) == digest

    @pytest.mark.parametrize(
        "kind,d,h,n_sims,digest",
        [
            ("rlrt", 1, 0, 257, "287087faf8f9def4733d520610f4de065408430745ac33f29f906c1f2bcab984"),
            ("rlrt", 1, 0, 500, "a00dc62ab38e22abb86a852ba722ec4dd8b92e8cf1ea8296b390ba2fa2ff802d"),
            ("rlrt", 1, 0, 1025, "7e811c654895c3f16a2bcdaaaaed9cf7624e7ebf0973275a7ce85f4fb087eb75"),
            ("rlrt", 1, 0, 2048, "532918b5caf023c17830802c5c381ccd339017e49d195a1a09a687e4388afe48"),
            ("lrt", 2, 1, 257, "ebd0f946cdefcdff18ce57583d7a8b74684cbcfe47801e774fa3e3188463d712"),
            ("lrt", 2, 1, 500, "62d048db08f90495e9362196e802dd8773e865d54820f852dacff2bb6c0cf618"),
            ("lrt", 2, 1, 1025, "b60b41c852a67cd36aae0ba3d4972329d1926aca1dd4dd1f24e02c08d3b83592"),
            ("lrt", 2, 1, 2048, "2eb7aca184b6d9c5916e8831cd4ee1457e7213a81a8dd2adf705b8ade8e58b28"),
        ],
    )
    def test_samples_pinned_at_chunk_edges(self, kind, d, h, n_sims, digest):
        """One partial chunk of one sub-block and one row (257), of a partial
        last sub-block (500), a full chunk and one row of the next (1025) and
        exactly two full chunks (2048), through the reused buffers."""
        assert pinned_null_digest(kind, d, h, n_sims) == digest

    @pytest.mark.parametrize("rows", [exact_lrt._SIM_CHUNK, 300])
    def test_grid_profile_buffers_bit_identical(self, rows):
        """A chunk's scaled energies, written sub-block by sub-block into the
        leading rows of the sampler's reused buffer, have the bits of one
        product over the whole chunk, and so have the grid maxima _grid_max
        takes of them; a short last sub-block leaves the other rows alone."""
        rng = np.random.default_rng(rows)
        values = np.concatenate([[0.0], np.logspace(-6, 8, 200)])
        proj = np.sort(rng.uniform(0, 5, 20))[::-1]
        scale = np.exp(np.log1p(values[:, None] * proj).sum(1) / 90)
        weights = np.vstack([exact_lrt._grid_weights(values, proj) * scale, scale])
        chunk = np.column_stack([rng.chisquare(1.0, size=(rows, 20)), rng.chisquare(70, size=rows)])
        ref = chunk @ weights
        work = np.empty((exact_lrt._SIM_BLOCK, values.size))
        for lo in range(0, rows, exact_lrt._SIM_BLOCK):
            hi = min(lo + exact_lrt._SIM_BLOCK, rows)
            work.fill(np.nan)
            got = np.matmul(chunk[lo:hi], weights, out=work[:hi - lo])
            assert np.shares_memory(got, work) and got.tobytes() == ref[lo:hi].tobytes()
            assert np.isnan(work[hi - lo:]).all()
            for r, g in zip(exact_lrt._grid_max(ref[lo:hi], 90), exact_lrt._grid_max(got, 90)):
                assert g.shape == (hi - lo,) and g.tobytes() == r.tobytes()

    def test_memory_bounded_by_one_chunk(self):
        """10 000 draws at G = 201 and K = 20 hold one chunk's 1024 x K normals
        and 1024 x (K + 1) draws and one 256 x G sub-block of scaled energies
        (0.4 MB): under 1 MB, where a 1024 x G product (1.6 MB) took 1.9 MB."""
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
        assert peak < 2**20

    @pytest.mark.parametrize("m", [30, 50, 100, 300])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_log1p_ratio_oracle(self, m, d):
        """The scaled-energy sweep against the profile written out as numerator over
        denominator, on the same draws: samples within 1e-12 max(1, |s|) and the
        same draws at exactly zero."""
        ds = generate_dataset(m, 0.25, 0, seed=(m, d))
        cache = spectral_decompose(build_design(ds, place_knots(ds.t, 8 if m == 30 else 20, d)))
        grid = default_lambda_grid(cache)
        for kind, h in [("lrt", h) for h in range(d + 1)] + [("rlrt", 0)]:
            got = simulate_null(cache, kind, h, grid, 1500, seed=(m, d, h)).samples
            want = log1p_ratio_null(cache, kind, h, grid.values, 1500, (m, d, h))
            np.testing.assert_array_equal(got == 0.0, want == 0.0)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_grid_shorter_than_knot_count(self):
        """The chunk's normals take r x K entries of the work buffer and its
        scaled energies r x G: a 3-value grid with K = 20 still fits both."""
        ds = generate_dataset(100, 0.25, 0, seed=(7, 2))
        cache = spectral_decompose(build_design(ds, place_knots(ds.t, 20, 2)))
        values = np.array([0.0, 0.1, 10.0])
        for kind, h in [("lrt", 2), ("rlrt", 0)]:
            got = simulate_null(cache, kind, h, LambdaGrid(values), 1500, seed=(7, h)).samples
            want = log1p_ratio_null(cache, kind, h, values, 1500, (7, h))
            np.testing.assert_array_equal(got == 0.0, want == 0.0)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("m", [50, 100])
    @pytest.mark.parametrize("kind,d,h", [("rlrt", 1, 0), ("lrt", 1, 0), ("lrt", 2, 1)])
    def test_same_law_as_gamma_chisquare_draws(self, kind, d, h, m):
        """The unit-df terms drawn as squared standard normals (and the h-df
        term as a sum of h of them) give the null law of numpy's gamma-based
        chi-square draws, the recipe of sampler version 2: a two-sample KS
        test and the mass at zero, 20 000 draws each on fixed seeds."""
        ds = generate_dataset(m, 0.25, 0, seed=(m, d))
        cache = spectral_decompose(build_design(ds, place_knots(ds.t, 20, d)))
        grid = default_lambda_grid(cache)
        got = simulate_null(cache, kind, h, grid, 20000, seed=(41, m, d, h))
        want = log1p_ratio_null(cache, kind, h, grid.values, 20000, (42, m, d, h),
                                draw=gamma_chisquare)
        stat, pv = ks_2samp(got.samples, want)
        assert pv > 0.01, f"KS p = {pv:.4f} (stat {stat:.4f})"
        zm_got, zm_want = got.zero_mass_fraction, float((want <= 1e-12).mean())
        se = math.sqrt((zm_got * (1 - zm_got) + zm_want * (1 - zm_want)) / 20000 + 1e-12)
        assert abs(zm_got - zm_want) <= 3.5 * se

    @pytest.mark.parametrize("m", [50, 100])
    @pytest.mark.parametrize("d,h", [(1, 0), (2, 1), (3, 0), (3, 2)])
    def test_same_law_as_the_clipped_gram_eigenvalues(self, d, h, m):
        """The LRT null on B'B's eigenvalues from an SVD of B has the law of the
        null on those of one clipped eigvalsh of the float64 gram, the recipe
        the pinned digests were drawn with before: a two-sample KS test and the
        mass at zero, 20 000 draws each on fixed seeds."""
        ds = generate_dataset(m, 0.25, 0, seed=(m, d))
        design = build_design(ds, place_knots(ds.t, 20, d))
        cache = spectral_decompose(design)
        gram = spline_basis._clipped(np.linalg.eigvalsh(spline_basis._symmetric(design.B.T @ design.B)))
        grid = default_lambda_grid(cache)
        got = simulate_null(cache, "lrt", h, grid, 20000, seed=(43, m, d, h))
        want = simulate_null(replace(cache, raw_eigs=gram), "lrt", h, grid, 20000, seed=(44, m, d, h))
        stat, pv = ks_2samp(got.samples, want.samples)
        assert pv > 0.01, f"KS p = {pv:.4f} (stat {stat:.4f})"
        zm_got, zm_want = got.zero_mass_fraction, want.zero_mass_fraction
        se = math.sqrt((zm_got * (1 - zm_got) + zm_want * (1 - zm_want)) / 20000 + 1e-12)
        assert abs(zm_got - zm_want) <= 3.5 * se

    def test_rlrt_ignores_h(self):
        ds, design = make_design(30, 1, 1, 4, seed=8)
        cache = spectral_decompose(design)
        with pytest.raises(ConfigError, match="variance component"):
            simulate_null(cache, "rlrt", 1, None, 10, seed=0)


def bench_variants(m):
    """The study's three LRT variants (lrt1, lrt2, rlrt) on the spectra of one
    draw at m with 20 knots, each with a stream of its own."""
    ds = generate_dataset(m, 0.25, 0, seed=(m, 0))
    caches = {d: spectral_decompose(build_design(ds, place_knots(ds.t, 20, d))) for d in (1, 2)}
    return [NullVariant(caches[d], kind, h, default_lambda_grid(caches[d]), (m, index, 2))
            for index, (kind, d, h) in enumerate([("lrt", 1, 0), ("lrt", 2, 1), ("rlrt", 1, 0)], 1)]


class TestSharedPass:
    """simulate_nulls: one pass of draws for every (kind, h) variant of a study's m."""

    def test_lone_variant_is_simulate_null(self):
        """A variant without a stream of its own, alone in its pass, has
        simulate_null's draws, bit for bit, as the pinned digests do."""
        for variant in bench_variants(60):
            lone = variant._replace(stream=None)
            (got,) = simulate_nulls([lone], 1500, 17)
            want = simulate_null(lone.cache, lone.kind, lone.h, lone.grid, 1500, 17)
            assert got.samples.tobytes() == want.samples.tobytes() and got.provenance == want.provenance

    def test_variant_draws_do_not_depend_on_the_others(self):
        """A variant's samples in a pass of all three, in either order, are
        those of its pass alone: the pass shares only the spline terms."""
        variants = bench_variants(50)
        forward = simulate_nulls(variants, 2500, (3, 0, 2))
        backward = simulate_nulls(variants[::-1], 2500, (3, 0, 2))[::-1]
        for variant, a, b in zip(variants, forward, backward):
            (alone,) = simulate_nulls([variant], 2500, (3, 0, 2))
            assert a.samples.tobytes() == b.samples.tobytes() == alone.samples.tobytes()
            assert a.provenance == alone.provenance and a.provenance["stream"] == list(variant.stream)

    @pytest.mark.parametrize("m", [50, 100])
    def test_same_law_as_a_lone_variant(self, m):
        """Each variant's null from the shared pass has the law of its lone
        simulate_null on an independent seed: a two-sample KS test and the mass
        at zero, 20 000 draws each."""
        variants = bench_variants(m)
        for variant, got in zip(variants, simulate_nulls(variants, 20000, (m, 0, 2))):
            want = simulate_null(variant.cache, variant.kind, variant.h, variant.grid, 20000, (m, 99))
            stat, pv = ks_2samp(got.samples, want.samples)
            assert pv > 0.01, f"{variant.kind} h = {variant.h}: KS p = {pv:.4f} (stat {stat:.4f})"
            zm_got, zm_want = got.zero_mass_fraction, want.zero_mass_fraction
            se = math.sqrt((zm_got * (1 - zm_got) + zm_want * (1 - zm_want)) / 20000 + 1e-12)
            assert abs(zm_got - zm_want) <= 3.5 * se

    def test_guards(self):
        variants = bench_variants(50)
        other = generate_dataset(50, 0.25, 0, seed=(50, 0))
        cache = spectral_decompose(build_design(other, place_knots(other.t, 10, 1)))
        with pytest.raises(ConfigError, match="one knot count, got \\[10, 20\\]"):
            simulate_nulls([variants[0], NullVariant(cache, "rlrt", 0, None, (1, 2))], 100, 0)
        with pytest.raises(ConfigError, match="at most one null variant"):
            simulate_nulls([v._replace(stream=None) for v in variants[:2]], 100, 0)
        with pytest.raises(ConfigError, match="variance component"):
            simulate_nulls([variants[0], variants[2]._replace(h=1)], 100, 0)

    def test_entry_with_a_stream_is_not_a_lone_request(self):
        """The stream of a variant is part of its cache key: a study's entry is
        never served to a lone request of the same seed, whose key is that of
        a null with no stream."""
        variant = bench_variants(50)[2]
        identity = (variant.cache, variant.kind, variant.h, variant.grid, 1000, (5, 0, 2))
        assert null_distribution_key(*identity, variant.stream) != null_distribution_key(*identity)
        assert null_distribution_key(*identity, None) == null_distribution_key(*identity)


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
        """Oracle: independent dense GLS implementation of both model fits.
        The last trial puts a knot below the smallest t: its column is a
        polynomial of degree d in t, so it lies in span(X), one eigenvalue of
        B'P0B is clipped to 0 and that direction's energy stays in the tail."""
        rng = np.random.default_rng(50)
        for trial in range(5):
            m = 25
            d = max(1, h)
            t = np.sort(rng.uniform(0, 1, m))
            S = rng.standard_normal((m, 1))
            y = S[:, 0] * 0.5 + np.sin(3 * t) + rng.standard_normal(m) * 0.3
            ds = Dataset(y=y, S=S, t=t)
            knots = place_knots(t, 5, d)
            if trial == 4:
                knots = KnotSet(np.concatenate([[t[0] - 0.1], knots.knots]), d)
            design = build_design(ds, knots)
            cache = spectral_decompose(design)
            assert (cache.proj_eigs == 0.0).sum() == (trial == 4)
            grid = default_lambda_grid(cache)
            result = observed_statistic(ds, design, kind, h, grid)
            oracle = max(dense_path(y, design.X, design.B, grid.values, kind, h).max(), 0.0)
            assert result.statistic == pytest.approx(oracle, abs=1e-6, rel=1e-6)

    @pytest.mark.parametrize("m,K,draw,d,kind,h", EXTENDED_CASES)
    def test_extended_precision_oracle(self, m, K, draw, d, kind, h):
        """Oracle: the dense two-model profile in extended precision at 15
        grid indices, lambda-hat's among them. The statistic is the oracle's
        value at lambda-hat to 1e-8 relative and no index beats it; the profile
        the engine's pieces give there (the design's spectrum and coordinates,
        the sweep's weights and penalty) is the oracle's to 1e-8 max(1, |value|)."""
        ds, design = oracle_case(m, K, draw, d)
        y = ds.y
        cache = spectral_decompose(design)
        grid = default_lambda_grid(cache)
        result = observed_statistic(ds, design, kind, h, grid)
        best = int(np.searchsorted(grid.values, result.lambda_hat))
        idx = np.union1d(np.linspace(0, grid.values.size - 1, 14).round().astype(int), [best])
        values = grid.values[idx]
        oracle = extended_dense_profile(y, design.X, design.B, values, kind, h).astype(float)
        assert result.statistic == pytest.approx(oracle[idx == best][0], rel=1e-8, abs=0)
        assert oracle.max() <= result.statistic + 1e-8 * max(1.0, result.statistic)
        head, tail = spectral_coordinates(design, y)
        n, p = design.X.shape
        rss0 = head.sum() + tail
        rss = head @ exact_lrt._grid_weights(values, cache.proj_eigs) + tail
        mult, pen = exact_lrt._kind_penalty(kind, values, n, n - p, cache.raw_eigs, cache.proj_eigs)
        extra = ((design.qr.Q[0, :, p - h:].T @ y) ** 2).sum()  # 0 unless the null drops columns
        profile = mult * np.log(rss0 / rss) - pen + n * np.log1p(extra / rss0)
        assert np.all(np.abs(profile - oracle) <= 1e-8 * np.maximum(1.0, np.abs(oracle)))

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
        full = default_lambda_grid(cache).values
        coarse, extra = LambdaGrid(full[::5]), LambdaGrid(full[::4])
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
            observed_statistic(ds, replace(design, X=collinear), "rlrt", 0, grid)
        short = Dataset(y=ds.y[:3], S=ds.S[:3], t=ds.t[:3])
        with pytest.raises(ModelError, match="rows"):
            observed_statistic(short, replace(design, X=design.X[:3], B=design.B[:3]),
                               "rlrt", 0, grid)
        perfect = Dataset(y=design.X @ np.arange(1.0, design.X.shape[1] + 1), S=ds.S, t=ds.t)
        with pytest.raises(DegenerateFitError):
            observed_statistic(perfect, design, "lrt", 0, grid)

    def test_row_count_mismatch_is_a_config_error(self):
        """A dataset with fewer rows than the design is refused by the sweep
        with fit_ols's message, not by a shape error inside numpy."""
        ds, design = make_design(80, 2, 1, 8, seed=44)
        short = Dataset(y=ds.y[:60], S=ds.S[:60], t=ds.t[:60])
        for call in (fit_ols, observed_statistic):
            with pytest.raises(ConfigError) as info:
                call(short, design)
            assert str(info.value) == "design has 80 rows but dataset has 60"

    def test_replaced_X_is_factored_anew(self):
        """dataclasses.replace with a new X factors the new X: the spectral
        cache, the observed statistics and the OLS fit are bit for bit those of
        build_design on the dataset that X belongs to. The design's kept
        spectrum is not carried over: the replaced design has the new X's."""
        ds, design = make_design(80, 2, 1, 8, seed=45)
        plain = Dataset(y=ds.y, S=np.empty((80, 0)), t=ds.t)  # X = [1 | t], the intercept and t
        _, old, _ = design.spectrum  # W, kept by the design before it is replaced
        built, swapped = build_design(plain, design.knots), replace(design, X=design.A)
        cache = spectral_decompose(built)
        assert spectral_decompose(swapped).proj_eigs.tobytes() == cache.proj_eigs.tobytes()
        assert swapped.spectrum[1].tobytes() == built.spectrum[1].tobytes() != old.tobytes()
        grid = default_lambda_grid(cache)
        for kind, h in (("rlrt", 0), ("lrt", 0), ("lrt", 1)):
            assert (observed_statistic(plain, swapped, kind, h, grid)
                    == observed_statistic(plain, built, kind, h, grid))
        got, want = fit_ols(plain, swapped), fit_ols(plain, built)
        for name in ("beta", "fitted", "residuals"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert got.sigma2_eps == want.sigma2_eps

    def test_degenerate_column_fails_alone(self):
        """A perfect-fit column gets its error; the other column is that of a
        single-column call."""
        ds, design = make_design(30, 1, 1, 4, seed=43)
        solver = ProfileSolver(design)
        grid = default_lambda_grid(spectral_decompose(design))
        perfect = design.X @ np.arange(1.0, design.X.shape[1] + 1)
        Y = np.column_stack([ds.y, perfect])[None]
        got = solver.statistics(Y, design.qr, grid, [("lrt", 0)])
        assert list(got[4]) == [(0, 1)]
        assert isinstance(got[4][0, 1], DegenerateFitError)
        assert str(got[4][0, 1]) == "null fit is numerically perfect; error variance is not estimable"
        ref = observed_statistic(ds, design, "lrt", 0, grid)
        assert got[0][0, 0, 0] == pytest.approx(ref.statistic, rel=1e-12, abs=1e-12)
        assert grid.values[got[1][0, 0, 0]] == ref.lambda_hat

    @pytest.mark.parametrize("rel", [1e-24, 1e-26])
    def test_one_perfect_fit_rule(self, rel):
        """fit_ols and observed_statistic reject the same y: the one whose null
        residual sum of squares is at most PERFECT_FIT_REL of y'y."""
        ds, design = make_design(30, 1, 1, 4, seed=43)
        grid = default_lambda_grid(spectral_decompose(design))
        Q = design.qr.Q[0]
        signal = design.X @ np.arange(1.0, design.X.shape[1] + 1)
        noise = ds.y - Q @ (Q.T @ ds.y)
        noise *= math.sqrt(rel * (signal @ signal) / (noise @ noise))
        data = Dataset(y=signal + noise, S=ds.S, t=ds.t)
        for call in (lambda: fit_ols(data, design),
                     lambda: observed_statistic(data, design, "lrt", 0, grid)):
            if rel < PERFECT_FIT_REL:
                with pytest.raises(DegenerateFitError):
                    call()
            else:
                call()

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
        # The solver holds h to 0..degree as the null sampler does. Here d = 1
        # and p = 4: h = 2 or 3 would drop covariate columns, which no null
        # calibrates; h = p would take the slice Q[..., 0:] and h = -1 the slice
        # Q[..., p + 1:], wrapping to some other h's statistic.
        ds, design = make_design(30, 2, 1, 4, seed=41)
        solver = ProfileSolver(design)
        grid = default_lambda_grid(spectral_decompose(design))
        p = design.X.shape[-1]
        assert (design.degree, p) == (1, 4)
        bad = [("lrt", design.degree + 1), ("lrt", p - 1), ("lrt", p), ("lrt", -1),
               ("rlrt", 1), ("wald", 0)]
        for kind, h in bad:
            with pytest.raises(ConfigError):
                solver.statistics(ds.y[None, :, None], design.qr, grid, [(kind, h)])


@given(data=st.data())
def test_statistics_and_null_samples_never_negative(data):
    """Every observed statistic and every null draw is a grid maximum over a
    grid starting at lambda = 0 (plus n log(1 + extra / rss0) >= 0), so none is
    below 0 and no clamp is needed. Random shapes and h, with columns whose
    lambda-hat sits at the bottom edge (no spline signal), at the top edge
    (pure spline signal) and near-perfect null fits."""
    d = data.draw(st.integers(1, 3), label="d")
    p = data.draw(st.integers(0, 2), label="p")
    k = data.draw(st.integers(1, 8), label="K")
    m = data.draw(st.integers(p + d + k + 3, 60), label="m")
    h = data.draw(st.integers(0, d), label="h")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    _, design = make_design(m, p, d, k, seed=seed)
    X = np.stack([np.hstack([rng.standard_normal((m, p)), design.A]) for _ in range(2)])
    Y = np.empty((2, m, 4))
    for r in range(2):
        fixed = X[r] @ rng.standard_normal(X.shape[2])
        noise = rng.standard_normal(m)
        Q, _ = np.linalg.qr(np.hstack([X[r], design.B]))
        Y[r] = np.column_stack([fixed + noise,
                                fixed + noise - Q @ (Q.T @ noise),      # lambda-hat = 0
                                design.B @ rng.standard_normal(k) + 1e-9 * noise,
                                fixed + 1e-11 * np.linalg.norm(fixed) * noise])
    cache = spectral_decompose(design)
    grid = default_lambda_grid(cache)
    specs = [("lrt", h), ("lrt", 0), ("rlrt", 0)]
    stat, *_, failed = ProfileSolver(design).statistics(Y, stacked_qr(X), grid, specs)
    usable = np.ones(stat.shape[1:], dtype=bool)
    for cell in failed:
        usable[cell] = False
    assert np.all(stat[:, usable] >= 0.0)
    for kind, kind_h in (("lrt", h), ("rlrt", 0)):
        null = simulate_null(cache, kind, kind_h, grid, 300, seed=seed)
        assert np.all(null.samples >= 0.0)


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
        solver = ProfileSolver(design)
        grid = default_lambda_grid(spectral_decompose(design))
        Y = np.column_stack([ds.y for ds in datasets])[None]
        batched = solver.statistics(Y, design.qr, grid, specs)
        assert [a.shape for a in batched[:4]] == [(len(specs), 1, 5)] * 4 and batched[4] == {}
        for c, ds in enumerate(datasets):
            for j, (kind, h) in enumerate(specs):
                got = cell_fields(batched, grid, specs, j, 0, c)
                ref = observed_statistic(ds, design, kind, h, grid)
                assert got[0] == ref.method
                assert got[1] == pytest.approx(ref.statistic, rel=1e-12, abs=1e-12)
                assert got[2] == ref.lambda_hat
                assert got[5] == pytest.approx(ref.nuisance["rss_null"], rel=1e-12)
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
    return (result.method, result.statistic, result.lambda_hat,
            nuisance["sigma2_eps"], nuisance["sigma2_spline"], nuisance["rss_null"], nuisance["h"])


def cell_fields(got, grid, specs, j, r, c):
    """``result_fields`` of the TestResult that cell (r, c) of the j-th
    (kind, h) of a ``ProfileSolver.statistics`` result stands for."""
    stat, k, sigma2, rss_null = (a[j, r, c].item() for a in got[:4])
    lam = float(grid.values[k])
    return (specs[j][0], stat, lam, sigma2, lam * sigma2, rss_null, specs[j][1])


def single_cell(design, X, Y, r, c):
    """Dataset and design of column c of replicate r of a replicate stack."""
    ds = Dataset(y=Y[r, :, c], S=X[r, :, :2], t=design.t)
    return ds, replace(design, X=X[r])


def replicate_stack(m, degree, n_reps, seed):
    """Study-like replicates: one t grid, so one A and B, and per replicate
    its own S and five departure levels as the columns of Y."""
    draws = [[generate_dataset(m, 0.5, c, seed=(seed, rep)) for c in range(5)] for rep in range(n_reps)]
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
        solver = ProfileSolver(design)
        grid = default_lambda_grid(spectral_decompose(design))
        stacked = solver.statistics(Y, stacked_qr(X), grid, self.SPECS)
        assert stacked[0].shape == (3, 7, 5) and stacked[4] == {}
        for r in range(7):
            qr = stacked_qr(X[r:r + 1])
            single = solver.statistics(Y[r:r + 1], qr, grid, self.SPECS)
            for c in range(5):
                ds, design_r = single_cell(design, X, Y, r, c)
                one = solver.statistics(ds.y[None, :, None], qr, grid, self.SPECS)
                for j, (kind, h) in enumerate(self.SPECS):
                    got = cell_fields(stacked, grid, self.SPECS, j, r, c)
                    assert got == cell_fields(single, grid, self.SPECS, j, 0, c)
                    ref = result_fields(observed_statistic(ds, design_r, kind, h, grid))
                    assert ref == cell_fields(one, grid, self.SPECS, j, 0, 0)
                    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)
                    assert got[2] == ref[2]  # the same lambda-hat

    @pytest.mark.parametrize("m", [30, 50, 100, 300])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_matches_log1p_ratio_oracle(self, m, degree):
        """The scaled-energy sweep against the profile written out as numerator
        over denominator on the same coordinates: the same lambda-hat index,
        statistics within 1e-12 max(1, |s|) and the error variance there to rounding."""
        design, X, Y = replicate_stack(m, degree, 6, seed=24)
        specs = [("lrt", h) for h in range(degree + 1)] + [("rlrt", 0)]
        solver = ProfileSolver(design)
        values = default_lambda_grid(spectral_decompose(design)).values
        qr = stacked_qr(X)
        stat, index, sigma2, _, errors = solver.statistics(Y, qr, LambdaGrid(values), specs)
        assert errors == {}
        Q = qr.Q
        proj, head, rss0 = exact_lrt._coordinates(Q, design.B, stacked_spectrum(Q, design.B), Y)
        tail = np.maximum(rss0 - head.sum(axis=-1), 0.0)
        n, p = X.shape[1:]
        for j, (kind, h) in enumerate(specs):
            mult, eigs = (n, solver.raw_eigs) if kind == "lrt" else (n - p, proj)
            pen = np.log1p(values[:, None] * eigs[..., None, :]).sum(axis=-1)
            best, top, den = log1p_ratio_sweep(head, tail, values, proj, mult, pen)
            extra = ((Q[..., p - h:].swapaxes(-1, -2) @ Y) ** 2).sum(axis=-2)
            want = top + n * np.log1p(extra / rss0)
            np.testing.assert_array_equal(index[j], best)
            assert np.all(np.abs(stat[j] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
            np.testing.assert_allclose(sigma2[j], den / mult, rtol=1e-14, atol=0)

    def test_failures_stay_in_their_cells(self):
        """A replicate with collinear S fails whole, with the design check's
        message; a perfect-fit column fails alone; the rest are untouched."""
        design, X, Y = replicate_stack(30, 1, 4, seed=22)
        X[1, :, 1] = 2.0 * X[1, :, 0]
        Y[2, :, 3] = X[2] @ np.arange(1.0, 5.0)
        solver = ProfileSolver(design)
        grid = default_lambda_grid(spectral_decompose(design))
        stacked = solver.statistics(Y, stacked_qr(X), grid, self.SPECS)
        errors = stacked[4]
        assert list(errors) == [(1, c) for c in range(5)] + [(2, 3)]
        for c in range(5):
            assert isinstance(errors[1, c], ModelError)
            assert str(errors[1, c]) == "fixed-effects design is rank deficient (4 columns, rank 3)"
        with pytest.raises(ModelError, match="rank deficient"):
            observed_statistic(*single_cell(design, X, Y, 1, 0), "lrt", 0, grid)
        assert isinstance(errors[2, 3], DegenerateFitError)
        assert str(errors[2, 3]) == "null fit is numerically perfect; error variance is not estimable"
        with pytest.raises(DegenerateFitError):
            observed_statistic(*single_cell(design, X, Y, 2, 3), "lrt", 0, grid)
        for r in (0, 2, 3):
            single = solver.statistics(Y[r:r + 1], stacked_qr(X[r:r + 1]), grid, self.SPECS)
            assert list(single[4]) == ([(0, 3)] if r == 2 else [])
            for c in range(5):
                if (r, c) == (2, 3):
                    continue
                for j in range(len(self.SPECS)):
                    assert (cell_fields(stacked, grid, self.SPECS, j, r, c)
                            == cell_fields(single, grid, self.SPECS, j, 0, c))

    def test_study_block_sweeps_in_bounded_slices(self, study_block):
        """A study block at m = 100 (32 replicates x 10 columns, K = 20, G = 201,
        d = 1) is swept 16 replicates at a time, each slice holding one 16 x G x K
        array (0.51 MB): under 1 MB, where sweeping all 32 at once took 2.55 MB."""
        _, fixtures, Y, factored = study_block(32)
        solver, grid = fixtures["lrt"][1].solver, fixtures["lrt"][1].grid
        assert Y.shape == (32, 100, 10) and grid.values.size == 201 and solver.design.B.shape[1] == 20
        assert exact_lrt._SWEEP_ENTRIES // (201 * 20) == 16
        tracemalloc.start()
        try:
            solver.statistics(Y, factored[1], grid, [("lrt", 0), ("rlrt", 0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_too_few_rows_raise_for_the_stack(self):
        """No design of a stack with n <= p rows can be fit, so stacked_qr
        raises the row-count ModelError for the whole stack; one more row fits."""
        _, X, _ = replicate_stack(30, 1, 3, seed=23)
        for n in (1, 4):
            with pytest.raises(ModelError) as info:
                stacked_qr(X[:, :n])
            assert str(info.value) == f"need n > 4 rows to fit 4 coefficients, got n = {n}"
        assert stacked_qr(X[:, :5]).errors == [None] * 3


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
            grid = LambdaGrid(default_lambda_grid(cache).values[::3])
            head, tail = spectral_coordinates(design, y)
            dense = dense_path(y, design.X, design.B, grid.values, "lrt", 0)
            for g, lam in enumerate(grid.values):
                gain = profile_terms(cache, head, tail, lam).gain
                assert gain == pytest.approx(dense[g], abs=1e-8 * max(1, abs(dense[g])))


class TestRowBlocks:
    """The spectrum, the coordinates and B's singular values over row blocks of
    ``spline_basis._BLOCK_ENTRIES`` entries."""

    SPECS = [("rlrt", 0), ("lrt", 0), ("lrt", 1)]

    @pytest.mark.parametrize("m", [100, 2000])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_block_is_the_unblocked_product(self, m, d):
        """In one block the design's spectrum, its coordinates and raw_eigs are bit
        for bit the unblocked products: one eigh of B'(B - QQ'B), (P0y)'((B - QQ'B) W)
        and B's squared singular values from numpy's SVD of the whole of B."""
        ds = generate_dataset(m, 0.25, 2, seed=(46, m))
        design = build_design(ds, place_knots(ds.t, 20, d))
        (Q,), B = design.qr.Q, design.B
        assert len(spline_basis._row_blocks(*B.shape)) == 1
        PB = B - Q @ (Q.T @ B)
        mu, W = np.linalg.eigh(spline_basis._symmetric(B.T @ PB))
        mu, W = spline_basis._clipped(mu), W[:, ::-1]
        (got_mu,), (got_W,), (got_QtB,) = design.spectrum
        assert got_mu.tobytes() == mu.tobytes() and got_W.tobytes() == W.tobytes()
        assert got_QtB.tobytes() == (Q.T @ B).tobytes()
        r = ds.y - Q @ (Q.T @ ds.y)
        coords = r @ (PB @ W)
        head, _ = spectral_coordinates(design, ds.y)
        assert head.tobytes() == np.divide(coords**2, mu, out=np.zeros_like(coords), where=mu > 0).tobytes()
        sv = np.linalg.svd(B, compute_uv=False)
        want = np.where(sv > m * np.finfo(float).eps * sv[:1], sv * sv, 0.0)
        assert design.raw_eigs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_match_one_block(self, monkeypatch, d):
        """At n = 20 000 (7 blocks at K = 20) the rlrt, lrt and lrt h = 1 statistics
        are within 1e-12 relative of the same code with the budget raised past n."""
        ds = generate_dataset(20_000, 0.25, 1, seed=(47, d))
        knots = place_knots(ds.t, 20, d)

        def statistics():
            design = build_design(ds, knots)
            grid = default_lambda_grid(spectral_decompose(design))
            stats = [observed_statistic(ds, design, kind, h, grid).statistic for kind, h in self.SPECS]
            return len(spline_basis._row_blocks(*design.B.shape)), np.array(stats)

        blocks, got = statistics()
        monkeypatch.setattr(spline_basis, "_BLOCK_ENTRIES", 20 * 20_000)
        one, want = statistics()
        assert blocks == 7 and one == 1
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestMemory:
    N, K = 20_000, 20

    @pytest.fixture(scope="class")
    def large(self):
        ds = generate_dataset(self.N, 0.25, 1, seed=48)
        return ds, build_design(ds, place_knots(ds.t, self.K, 1))

    def test_spectrum_and_statistic_peak(self, large):
        """spectral_decompose and observed_statistic at n = 20 000, K = 20 peak under
        one n x K array (3.2 MB) of tracemalloc beyond the design, B included: P0B, P0B W
        and the copy of B an SVD takes are each formed one row block at a time."""
        ds, design = large
        design = replace(design)  # a fresh design: its spectrum is computed under the trace
        tracemalloc.start()
        try:
            grid = default_lambda_grid(spectral_decompose(design))
            observed_statistic(ds, design, "rlrt", 0, grid)
            observed_statistic(ds, design, "lrt", 1, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.N * self.K * 8

    def test_design_keeps_no_n_row_array(self, large):
        """After the spectrum and a statistic, the only arrays with n rows the design
        holds are A, B, X, t and X's QR: its spectrum is mu, W and Q'B."""
        ds, design = large
        observed_statistic(ds, design, "rlrt", 0, default_lambda_grid(spectral_decompose(design)))
        assert {"spectrum", "raw_eigs", "grid_scale"} <= set(vars(design))

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays(item)
            elif isinstance(value, (DesignMatrices, spline_basis.FactoredStack)):
                for item in vars(value).values():
                    yield from arrays(item)

        kept = [design.A, design.B, design.X, design.t, design.qr.X, design.qr.Q]
        tall = [a for a in arrays(design) if self.N in a.shape]
        assert len(tall) == len(kept) and all(any(a is b for b in kept) for a in tall)


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

    def test_nan_statistic_gets_nan(self):
        """searchsorted puts NaN after every sample, which the add-one rule
        alone would turn into the smallest p-value 1 / (1 + n_sims)."""
        null = self.fixed_null([0.0, 0.3, 1.2, 2.5])
        assert math.isnan(p_value(math.nan, null))
        got = p_value(np.array([0.0, np.nan, 2.5, np.nan]), null)
        np.testing.assert_array_equal(got, [1.0, np.nan, 0.4, np.nan])

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

        monkeypatch.setattr(exact_lrt, "_sample", no_draws)
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
        other_grid = LambdaGrid(grid.values[::2])
        assert null_distribution_key(cache, "rlrt", 0, other_grid, 1000, 5) != base
        monkeypatch.setattr(exact_lrt, "_SAMPLER_VERSION", exact_lrt._SAMPLER_VERSION + 1)
        assert null_distribution_key(cache, "rlrt", 0, grid, 1000, 5) != base

    @pytest.mark.parametrize("kind,m,d,key", [
        ("rlrt", 100, 1, "64a03b631d8c3d7f5d974df7b0c0774c120afc33879d303e1853845bf04ef19e"),
        ("lrt", 2000, 3, "e12eeca77b534c63b464d9ac1695431f98f2ddb1cd0826491303a138d8401c99"),
    ])
    def test_keys_pinned(self, kind, m, d, key):
        """The key hashes the eigenvalues bit for bit: one bit moved in any of
        them would turn every cached null of the design into a miss."""
        ds = generate_dataset(m, 0.25, 0, seed=(7, 0))
        cache = spectral_decompose(build_design(ds, place_knots(ds.t, 20, d)))
        assert null_distribution_key(cache, kind, 0, default_lambda_grid(cache), 10000, 3) == key

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


def _broken(good: bytes, null: NullDistribution, fault) -> bytes:
    """The bytes of a broken cache entry for ``null``, whose entry is ``good``:
    one of the faults of :func:`cache_faults` but another sampler version's."""
    kind, *args = fault
    if kind == "truncated":
        return good[:args[0] % len(good)]
    if kind == "flipped":
        out = bytearray(good)
        for at, value in args[0]:
            out[at % len(good)] = value
        return bytes(out)
    if kind == "inserted":
        at = args[0] % (len(good) + 1)
        return good[:at] + args[1] + good[at:]
    if kind == "unsupported compression":
        return npz_faults.unsupported_compression(good, args[0])
    if kind == "oversized header":
        return npz_faults.oversized_header(good, args[0])
    out = io.BytesIO()
    if kind == "foreign file":
        if args[0] == ".npy":
            np.save(out, null.samples)
        else:
            np.savez(out, **{"weights": {"weights": np.arange(3.0)}, "samples only": {"samples": null.samples},
                             "text provenance": {"samples": null.samples, "provenance": np.array("covtest")}}[args[0]])
    else:  # a wrong provenance: another value of one field, a JSON list, or not JSON
        field, provenance = args[0], null.provenance
        if field == "a list":
            text = json.dumps([provenance])
        elif field == "not json":
            text = "{kind: rlrt"
        else:
            value = provenance.get(field)
            other = [1, 2] if field == "stream" else value + 1 if isinstance(value, int) else "other"
            text = json.dumps({**provenance, field: other}, sort_keys=True)
        np.savez(out, samples=null.samples, provenance=np.array(text))
    return out.getvalue()


def cache_faults():
    """A fault of a null-cache entry: bytes truncated, set to other values or
    inserted; a compression method zipfile does not support; a samples header
    whose shape cannot be allocated; another program's .npz or .npy; a provenance that
    is not this request's; or the request's own null saved under another
    sampler version's key."""
    where = st.integers(0, 2**20)
    return st.one_of(
        st.tuples(st.just("truncated"), where),
        st.tuples(st.just("flipped"), st.lists(st.tuples(where, st.integers(0, 255)), min_size=1, max_size=4)),
        st.tuples(st.just("inserted"), where, st.binary(min_size=1, max_size=8)),
        st.tuples(st.just("unsupported compression"), st.sampled_from([1, 6, 9, 97, 99])),
        st.tuples(st.just("oversized header"), st.sampled_from([10**15, 2**60, 2**63 - 1])),
        st.tuples(st.just("foreign file"), st.sampled_from(["weights", "samples only", "text provenance", ".npy"])),
        st.tuples(st.just("wrong provenance"),
                  st.sampled_from(["seed", "n_sims", "kind", "h", "format", "version", "grid_sha",
                                   "raw_eigs_sha", "stream", "a list", "not json"])),
        st.tuples(st.just("wrong sampler version"), st.sampled_from([-1, 1])),
    )


@pytest.fixture(scope="module")
def cached_rlrt(tmp_path_factory):
    """(spectrum, its rlrt null of 50 draws, the bytes the cache saves for it)."""
    ds, design = make_design(30, 1, 1, 4, seed=57)
    cache = spectral_decompose(design)
    fresh = simulate_null(cache, "rlrt", 0, None, 50, seed=6)
    path = tmp_path_factory.mktemp("entry") / "null.npz"
    save_null_distribution(fresh, path)
    return cache, fresh, path.read_bytes()


class TestCacheEntryFaults:
    @settings(max_examples=150)
    @given(fault=cache_faults())
    def test_served_whole_or_one_warning_and_the_same_bits(self, cached_rlrt, tmp_path_factory, fault):
        """A lookup on a broken entry ends in no traceback and no error: it
        serves the request's own null, or warns once, draws the same bits again
        and saves the entry whole in place of the broken one. An entry another
        sampler version saved lies under another name, so it is never read."""
        cache, fresh, good = cached_rlrt
        root = tmp_path_factory.mktemp("cache")
        path = root / f"null_{null_distribution_key(cache, 'rlrt', 0, default_lambda_grid(cache), 50, 6)[:24]}.npz"
        kind = fault[0]
        if kind == "wrong sampler version":
            with unittest.mock.patch.object(exact_lrt, "_SAMPLER_VERSION", exact_lrt._SAMPLER_VERSION + fault[1]):
                key = null_distribution_key(cache, "rlrt", 0, default_lambda_grid(cache), 50, 6)
            stale = root / f"null_{key[:24]}.npz"
            save_null_distribution(NullDistribution(fresh.samples + 1.0, fresh.provenance), stale)
            broken = None
        else:
            broken = _broken(good, fresh, fault)
            path.write_bytes(broken)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = simulate_null_cached(cache, "rlrt", 0, None, 50, seed=6, cache_dir=root)
        assert np.array_equal(got.samples, fresh.samples) and got.provenance == fresh.provenance
        assert len(caught) <= 1
        if caught:
            assert str(caught[0].message).startswith(f"{path}: unreadable null cache entry (")
        if caught or broken is None:
            assert path.read_bytes() == good
        else:
            assert path.read_bytes() == broken
        if kind not in ("flipped", "inserted"):
            assert len(caught) == (broken is not None)
        if broken is None:
            assert stale.exists() and len(list(root.iterdir())) == 2
