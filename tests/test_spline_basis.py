"""Knot placement, truncated power basis, design matrices, smoother kernels."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from covtest import (
    ConfigError,
    Dataset,
    ModelError,
    NumericalError,
    build_design,
    place_knots,
    smoother_kernel,
    truncated_power,
)
from covtest.spline_basis import NATURAL_SPLINE, PENALIZED_GRAM, KnotSet, SmootherKernel, _trunc_basis
from oracles import natural_spline_gram


def plain_dataset(t, p=0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.asarray(t, dtype=float)
    S = rng.standard_normal((t.size, p))
    return Dataset(y=rng.standard_normal(t.size), S=S, t=t)


class TestPlaceKnots:
    def test_zero_knots(self):
        ks = place_knots(np.linspace(0, 1, 30), 0)
        assert ks.knots.size == 0

    def test_median_of_symmetric_grid(self):
        ks = place_knots(np.linspace(0, 1, 101), 1)
        np.testing.assert_array_equal(ks.knots, [0.5])

    def test_order_statistic_oracle(self):
        """Oracle: sort and pick the ceil(k*n/(K+1)) order statistic."""
        rng = np.random.default_rng(4)
        t = rng.permutation(np.arange(1.0, 100.0))
        ks = place_knots(t, 9)
        np.testing.assert_array_equal(ks.knots, [10, 20, 30, 40, 50, 60, 70, 80, 90])
        srt = np.sort(np.unique(t))
        expected = [srt[math.ceil(k * srt.size / 10) - 1] for k in range(1, 10)]
        np.testing.assert_array_equal(ks.knots, expected)

    @pytest.mark.parametrize("t", [
        [0.3, 0.1, 0.3, 0.2, 0.1, 0.9, 0.2],   # unsorted with ties
        [0.0, -0.0, 0.5, -0.0, 1.0, 0.0],      # signed zeros are one value
        [5.0, 4.0, 3.0, 2.0, 1.0],             # descending
    ])
    def test_distinct_values_are_numpy_unique(self, t):
        """With one knot fewer than the distinct t values, the knots are the
        distinct values but the largest; one knot more is refused with their count."""
        distinct = np.unique(t)
        np.testing.assert_array_equal(place_knots(np.array(t), distinct.size - 1).knots, distinct[:-1])
        with pytest.raises(ConfigError, match=f"found {distinct.size};"):
            place_knots(np.array(t), distinct.size)

    def test_too_few_distinct_values(self):
        with pytest.raises(ConfigError, match="smaller knot count"):
            place_knots(np.array([1.0, 1.0, 2.0, 2.0]), 3)

    @given(m=st.integers(25, 120), n_knots=st.integers(1, 20))
    def test_strictly_increasing_within_range(self, m, n_knots):
        t = np.linspace(0, 1, m)
        ks = place_knots(t, n_knots)
        assert np.all(np.diff(ks.knots) > 0)
        assert ks.knots.min() >= t.min() and ks.knots.max() <= t.max()

    def test_random_order_statistic_property(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            t = rng.uniform(-3, 5, size=rng.integers(30, 80))
            n_knots = int(rng.integers(1, 10))
            ks = place_knots(t, n_knots)
            srt = np.unique(t)
            expected = [srt[math.ceil(k * srt.size / (n_knots + 1)) - 1] for k in range(1, n_knots + 1)]
            np.testing.assert_array_equal(ks.knots, expected)


class TestTruncatedPower:
    def test_below_knot(self):
        assert truncated_power(0.3, 0.5, 1) == 0.0

    def test_above_knot_squares(self):
        assert truncated_power(0.7, 0.5, 2) == pytest.approx(0.04, rel=1e-12)

    def test_boundary_is_strict(self):
        for d in (0, 1, 2, 3):
            assert truncated_power(0.5, 0.5, d) == 0.0

    def test_degree_zero_indicator(self):
        np.testing.assert_array_equal(
            truncated_power(np.array([0.1, 0.5, 0.9]), 0.5, 0), [0.0, 0.0, 1.0]
        )

    @given(
        x=st.floats(-5, 5),
        knot=st.floats(-5, 5),
        degree=st.integers(0, 4),
    )
    def test_matches_direct_formula(self, x, knot, degree):
        got = truncated_power(x, knot, degree)
        if x <= knot:
            assert got == 0.0
        else:
            expected = 1.0 if degree == 0 else (x - knot) ** degree
            assert got == pytest.approx(expected, rel=1e-12)


class TestMemory:
    """n = 20 000 rows against K = 20 knots: one n x K float64 array is 3.2 MB."""

    n, K = 20_000, 20

    def test_build_design_peak_under_two_basis_arrays(self):
        """B is built in its own buffer: build_design (A, B, X = [S | A] and
        X's QR) peaks under two n x K arrays, where four n x K temporaries
        of B took 9.9 MB."""
        rng = np.random.default_rng(5)
        ds = plain_dataset(rng.permutation(self.n) / (self.n - 1), p=2, seed=5)
        knots = place_knots(ds.t, self.K, 1)
        tracemalloc.start()
        try:
            design = build_design(ds, knots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert design.B.shape == (self.n, self.K)
        assert peak < 2 * self.n * self.K * 8

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_basis_bits_are_the_where_formula(self, degree):
        """The in-place basis has the bits of np.where(shifted > 0, shifted, 0.0) ** d
        (the indicator for d = 0), ties at a knot and signed zeros included."""
        rng = np.random.default_rng(degree)
        t = np.round(rng.uniform(-2, 2, self.n), 2)  # many ties with the knots
        t[:4] = [-0.0, 0.0, -0.0, 0.0]
        knots = KnotSet(np.unique(np.concatenate([t[:self.K - 2], [-0.0, 1e-300]])), degree)
        shifted = t[:, None] - knots.knots[None, :]
        old = (shifted > 0).astype(float) if degree == 0 else np.where(shifted > 0, shifted, 0.0) ** degree
        new = _trunc_basis(t, knots)
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()


class TestBuildDesign:
    def test_single_row(self):
        """One row cannot fit the two coefficients of [1, t]: the design is
        rejected where it is built, by its row count."""
        with pytest.raises(ModelError) as info:
            build_design(plain_dataset([0.3]), KnotSet(np.array([0.5]), 1))
        assert str(info.value) == "need n > 2 rows to fit 2 coefficients, got n = 1"

    def test_linear_basis_entries(self):
        """With d = 1 every entry of B is max(0, t - knot)."""
        ds = plain_dataset(np.linspace(0, 1, 50), p=2, seed=1)
        design = build_design(ds, place_knots(ds.t, 20, 1))
        expected = np.maximum(ds.t[:, None] - design.knots.knots[None, :], 0.0)
        np.testing.assert_array_equal(design.B, expected)
        assert design.B.shape == (50, 20)
        assert design.X.shape == (50, 4)

    def test_column_nonzero_counts(self):
        """Oracle: column k has exactly #{i : t_i > knot_k} nonzeros."""
        rng = np.random.default_rng(7)
        ds = plain_dataset(rng.uniform(0, 1, 37), seed=2)
        design = build_design(ds, place_knots(ds.t, 6, 2))
        for k, knot in enumerate(design.knots.knots):
            assert np.count_nonzero(design.B[:, k]) == np.sum(ds.t > knot)

    def test_columns_match_scalar_evaluation(self):
        ds = plain_dataset(np.linspace(0, 2, 23), seed=3)
        design = build_design(ds, place_knots(ds.t, 5, 3))
        for k, knot in enumerate(design.knots.knots):
            np.testing.assert_array_equal(design.B[:, k], truncated_power(ds.t, knot, 3))

    def test_first_column_of_A_is_ones(self):
        ds = plain_dataset(np.linspace(-1, 1, 15), seed=4)
        design = build_design(ds, KnotSet(np.array([0.0]), 2))
        np.testing.assert_array_equal(design.A[:, 0], np.ones(15))

    def test_rank_deficient_design(self):
        ds = plain_dataset([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ModelError, match=r"rank deficient \(2 columns, rank 1\)"):
            build_design(ds, KnotSet(np.empty(0), 1))

    def test_translation_equivariance(self):
        rng = np.random.default_rng(8)
        t = rng.uniform(0, 1, 31)
        knots = np.sort(rng.choice(np.unique(t), 4, replace=False))[1:]
        for shift in (0.5, 2.0, -3.25):
            b1 = build_design(plain_dataset(t), KnotSet(knots, 1)).B
            b2 = build_design(plain_dataset(t + shift), KnotSet(knots + shift, 1)).B
            np.testing.assert_allclose(b1, b2, atol=1e-12)

    def test_joint_basis_full_rank(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = int(rng.integers(20, 50))
            d = int(rng.integers(0, 3))
            t = rng.uniform(0, 1, m)
            k_max = min(8, m - d - 2)
            ks = place_knots(t, int(rng.integers(1, k_max)), d)
            design = build_design(plain_dataset(t), ks)
            joint = np.hstack([design.A, design.B])
            assert np.linalg.matrix_rank(joint) == joint.shape[1]

    def test_failed_eigensolver_is_numerical_error(self):
        """A gram that eigh or eigvalsh cannot decompose (here, a NaN in B) is a
        NumericalError, for the projected spectrum and for B'B's eigenvalues."""
        design = build_design(plain_dataset(np.linspace(0, 1, 20)), place_knots(np.linspace(0, 1, 20), 4, 1))
        B = design.B.copy()
        B[3, 2] = np.nan
        broken = replace(design, B=B)
        with pytest.raises(NumericalError, match="eigendecomposition failed"):
            broken.spectrum
        with pytest.raises(NumericalError, match="eigendecomposition failed"):
            broken.raw_eigs


class TestNaturalSplineGram:
    def test_unit_endpoint_value(self):
        """Oracle: quadrature of the kernel integrand at s = t = 1, d = 1."""
        M = natural_spline_gram(np.array([0.0, 1.0]), degree=1)
        assert M[1, 1] == pytest.approx(1.0 / 3.0, rel=1e-12)
        num, _ = quad(lambda w: (1 - w) ** 2, 0, 1)
        assert M[1, 1] == pytest.approx(num, rel=1e-10)

    def test_cubic_spline_closed_form(self):
        u = np.array([0.2, 0.7, 1.0])
        M = natural_spline_gram(u, degree=1)
        for i in range(3):
            for j in range(3):
                s, t = u[i], u[j]
                lo = min(s, t)
                expected = s * t * lo - (s + t) * lo**2 / 2 + lo**3 / 3
                assert M[i, j] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_quadrature_oracle(self, degree):
        rng = np.random.default_rng(degree)
        u = np.sort(rng.uniform(0, 1, 5))
        M = natural_spline_gram(u, degree)
        for i in range(5):
            for j in range(i, 5):
                s, t = u[i], u[j]
                num, _ = quad(lambda w: (s - w) ** degree * (t - w) ** degree, 0, min(s, t))
                expected = num / math.factorial(degree) ** 2
                assert M[i, j] == pytest.approx(expected, abs=1e-10)

    def test_symmetric_and_psd(self):
        u = np.linspace(0, 1, 40)
        M = natural_spline_gram(u, 2)
        np.testing.assert_array_equal(M, M.T)
        eigs = np.linalg.eigvalsh(M)
        assert eigs.min() >= -1e-8 * eigs.max()


class TestSmootherKernel:
    def test_penalized_gram_matches_basis(self):
        t = np.linspace(0, 1, 25)
        ks = place_knots(t, 5, 1)
        kern = smoother_kernel(t, 1, PENALIZED_GRAM, ks)
        design = build_design(plain_dataset(t), ks)
        np.testing.assert_allclose(kern.M, design.B @ design.B.T, atol=1e-12)
        nonzero = np.sort(np.linalg.eigvalsh(kern.M))[-5:]
        np.testing.assert_allclose(
            nonzero, np.sort(np.linalg.eigvalsh(design.B.T @ design.B)), rtol=1e-9
        )

    def test_orthonormal_gram_has_unit_eigenvalues(self):
        # The gram of any orthonormal column set has unit spectrum; sanity
        # for the penalized-gram construction path.
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        eigs = np.sort(np.linalg.eigvalsh(Q @ Q.T))
        np.testing.assert_allclose(eigs[-4:], np.ones(4), atol=1e-12)
        np.testing.assert_allclose(eigs[:-4], np.zeros(8), atol=1e-12)

    def test_penalized_requires_knots(self):
        """No knot set, or one with no knots, whose B B' = 0 no projection can test."""
        t = np.linspace(0, 1, 10)
        for knots in (None, place_knots(t, 0, 1)):
            with pytest.raises(ConfigError, match="needs at least one knot"):
                smoother_kernel(t, 1, PENALIZED_GRAM, knots)

    def test_natural_requires_varying_t(self):
        with pytest.raises(ModelError, match="non-constant"):
            smoother_kernel(np.full(5, 2.0), 1, NATURAL_SPLINE)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown kernel"):
            smoother_kernel(np.linspace(0, 1, 10), 1, "mystery")

    def test_symmetry_machine_precision(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(-2, 7, 30)
        for kind, ks in ((NATURAL_SPLINE, None), (PENALIZED_GRAM, place_knots(t, 6, 1))):
            M = smoother_kernel(t, 1, kind, ks).M
            np.testing.assert_array_equal(M, M.T)

    def test_rescale_absorbed_into_scale_only(self):
        # Affine rescaling of t changes the natural kernel by a constant
        # factor only: M(a*t + b) proportional to M(t).
        t = np.sort(np.random.default_rng(5).uniform(0, 1, 12))
        M1 = smoother_kernel(t, 1, NATURAL_SPLINE).M
        M2 = smoother_kernel(5.0 * t - 2.0, 1, NATURAL_SPLINE).M
        np.testing.assert_allclose(M1, M2, atol=1e-12)

    def test_dense_view_is_psd(self):
        """M = int phi phi' dw and B B' are PSD by construction; the dense views keep that."""
        t = np.random.default_rng(3).uniform(-1, 4, 60)
        for degree in range(4):
            for kind, ks in ((NATURAL_SPLINE, None), (PENALIZED_GRAM, place_knots(t, 6, degree))):
                eigs = np.linalg.eigvalsh(smoother_kernel(t, degree, kind, ks).M)
                assert eigs.min() >= -1e-12 * eigs.max()

    def test_semidefinite_kernels_pass(self):
        t = np.linspace(0, 1, 400)
        knots = place_knots(t, 12, 1)
        assert smoother_kernel(t, 1, PENALIZED_GRAM, knots).M.shape == (400, 400)  # rank 12
        assert smoother_kernel(t, 3).M.shape == (400, 400)
        high = KnotSet(np.array([2.0]), 1)  # every row of B is zero
        assert not smoother_kernel(t, 1, PENALIZED_GRAM, high).M.any()


def _ties(seed, n=80):
    """Unsorted t on a coarse grid, so many values repeat."""
    return np.round(np.random.default_rng(seed).uniform(-2.0, 5.0, n), 1)


def _rel(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestStructuredKernel:
    """The structured kernels against the dense oracle kernel."""

    def kernels(self, degree, seed):
        t = _ties(seed)
        u = (t - t.min()) / (t.max() - t.min())
        yield smoother_kernel(t, degree), natural_spline_gram(u, degree)
        knots = place_knots(t, 8, degree)
        B = build_design(plain_dataset(t), knots).B
        yield smoother_kernel(t, degree, PENALIZED_GRAM, knots), B @ B.T

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_products_match_dense(self, degree):
        for kern, dense in self.kernels(degree, seed=10 + degree):
            A = np.random.default_rng(degree).standard_normal((dense.shape[0], 5))
            assert _rel(kern.apply(A), dense @ A) <= 1e-12
            assert _rel(kern.apply(A[:, 2]), dense @ A[:, 2]) <= 1e-12
            assert kern.apply(A[:, 2]).shape == (dense.shape[0],)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_trace_and_norm_match_dense(self, degree):
        for kern, dense in self.kernels(degree, seed=20 + degree):
            assert kern.trace == pytest.approx(np.trace(dense), rel=1e-12)
            assert kern.sq_norm == pytest.approx(float((dense * dense).sum()), rel=1e-12)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_dense_view_matches_oracle(self, degree):
        for kern, dense in self.kernels(degree, seed=30 + degree):
            assert kern.M.shape == dense.shape
            assert _rel(kern.M, dense) <= 1e-12
            np.testing.assert_array_equal(kern.M, kern.M.T)

    def test_tied_rows_are_identical(self):
        t = _ties(5)
        M = smoother_kernel(t, 2).M
        i, j = np.flatnonzero(t == t[0])[:2]
        np.testing.assert_array_equal(M[i], M[j])

    def test_dense_wrapper(self):
        rng = np.random.default_rng(6)
        F = rng.standard_normal((12, 3))
        kern = SmootherKernel(M=F @ F.T, kind="custom")
        A = rng.standard_normal((12, 2))
        np.testing.assert_allclose(kern.apply(A), F @ (F.T @ A), rtol=1e-12)
        assert kern.trace == pytest.approx(float((F * F).sum()), rel=1e-12)
        assert kern.sq_norm == pytest.approx(float(((F.T @ F) ** 2).sum()), rel=1e-12)
        assert kern.n == 12 and kern.kind == "custom"
