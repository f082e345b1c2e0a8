"""Spline design construction: knots, truncated power basis, smoother kernels.

Builds the polynomial basis ``A`` (columns 1, t, ..., t^d), the truncated
power basis ``B`` (columns (t - knot)_+^d), the combined fixed-effects matrix
``X = [S | A]``, and the symmetric smoother kernels consumed by the
variance-component score test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import Dataset
from .errors import ConfigError, ModelError, NumericalError

__all__ = [
    "KnotSet",
    "DesignMatrices",
    "SmootherKernel",
    "place_knots",
    "truncated_power",
    "build_design",
    "smoother_kernel",
    "natural_spline_gram",
]

PENALIZED_GRAM = "penalized-gram"
NATURAL_SPLINE = "natural-spline-kernel"


@dataclass(frozen=True)
class KnotSet:
    """Strictly increasing interior knots plus the spline degree."""

    knots: np.ndarray
    degree: int

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        if self.degree < 0:
            raise ConfigError(f"spline degree must be >= 0, got {self.degree}")
        if knots.size and np.any(np.diff(knots) <= 0):
            raise ConfigError("knots must be strictly increasing")
        object.__setattr__(self, "knots", knots)

    @property
    def n_knots(self) -> int:
        return int(self.knots.size)


@dataclass(frozen=True)
class DesignMatrices:
    """Design matrices for one dataset and one knot set.

    ``A`` is n x (d+1) polynomial, ``B`` is n x K truncated power,
    ``X = [S | A]`` is the combined fixed-effects design.
    """

    A: np.ndarray
    B: np.ndarray
    X: np.ndarray
    knots: KnotSet
    t: np.ndarray

    @property
    def degree(self) -> int:
        return self.knots.degree

    @property
    def n_fixed(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class SmootherKernel:
    """Symmetric PSD kernel matrix used by the score test."""

    M: np.ndarray
    kind: str


def place_knots(t, n_knots: int, degree: int = 1) -> KnotSet:
    """Place knots at sample quantiles of t.

    Knot k sits at the k/(K+1) quantile, realised as the order statistic at
    index ceil(k * n / (K+1)) of the sorted distinct values of t. On an
    equally spaced grid this reproduces the grid quantiles exactly.
    """
    t = np.asarray(t, dtype=float)
    if n_knots < 0:
        raise ConfigError(f"number of knots must be >= 0, got {n_knots}")
    if n_knots == 0:
        return KnotSet(np.empty(0), degree)
    distinct = np.unique(t)
    if distinct.size < n_knots + 1:
        raise ConfigError(
            f"{n_knots} knots need at least {n_knots + 1} distinct t values, "
            f"found {distinct.size}; use a smaller knot count"
        )
    order = np.ceil(np.arange(1, n_knots + 1) * distinct.size / (n_knots + 1)).astype(int)
    knots = distinct[order - 1]
    if np.any(np.diff(knots) <= 0):
        raise ConfigError("tied t values collapsed two knots; use a smaller knot count")
    return KnotSet(knots, degree)


def truncated_power(x, knot: float, degree: int):
    """(x - knot)_+^d: zero at and below the knot, polynomial above.

    The inequality is strict, so x == knot contributes 0 for every degree;
    degree 0 is the indicator of x > knot.
    """
    if degree < 0:
        raise ConfigError(f"degree must be >= 0, got {degree}")
    x = np.asarray(x, dtype=float)
    shifted = x - knot
    if degree == 0:
        out = (shifted > 0).astype(float)
    else:
        out = np.where(shifted > 0, shifted, 0.0) ** degree
    return out if out.ndim else float(out)


def _poly_basis(t: np.ndarray, degree: int) -> np.ndarray:
    return np.vander(t, degree + 1, increasing=True)


def _trunc_basis(t: np.ndarray, knots: KnotSet) -> np.ndarray:
    if knots.n_knots == 0:
        return np.empty((t.shape[0], 0))
    diff = t[:, None] - knots.knots[None, :]
    if knots.degree == 0:
        return (diff > 0).astype(float)
    return np.where(diff > 0, diff, 0.0) ** knots.degree


def build_design(dataset: Dataset, knots: KnotSet) -> DesignMatrices:
    """Assemble A, B, and X = [S | A] for a dataset.

    Raises ModelError when X is rank deficient (e.g. constant t with
    degree >= 1).
    """
    t = dataset.t
    A = _poly_basis(t, knots.degree)
    B = _trunc_basis(t, knots)
    X = np.hstack([dataset.S, A]) if dataset.p else A
    # A fat matrix (n < columns) cannot have full column rank; fitting guards n.
    if X.shape[0] >= X.shape[1] and np.linalg.matrix_rank(X) < X.shape[1]:
        raise ModelError(
            f"fixed-effects design is rank deficient ({X.shape[1]} columns, "
            f"rank {np.linalg.matrix_rank(X)})"
        )
    return DesignMatrices(A=A, B=B, X=X, knots=knots, t=np.asarray(t, dtype=float))


def natural_spline_gram(u: np.ndarray, degree: int = 1) -> np.ndarray:
    """Covariance kernel of a degree-d integrated Wiener process on [0, 1].

    Entry (i, j) is the closed form of
    ``int_0^min(u_i, u_j) (u_i - w)^d (u_j - w)^d dw / (d!)^2``.
    For the linearity test (d = 1) this is the familiar cubic-spline kernel
    ``s*t*min - (s + t)*min^2/2 + min^3/3``.
    """
    u = np.asarray(u, dtype=float)
    lo = np.minimum.outer(u, u)
    hi = np.maximum.outer(u, u)
    gap = hi - lo
    out = np.zeros_like(lo)
    # For a <= b: int_0^a (a-w)^d (b-w)^d dw expanded around (a - w).
    for j in range(degree + 1):
        out += math.comb(degree, j) * gap ** (degree - j) * lo ** (degree + j + 1) / (degree + j + 1)
    out /= math.factorial(degree) ** 2
    return 0.5 * (out + out.T)


def smoother_kernel(
    t,
    degree: int = 1,
    kind: str = NATURAL_SPLINE,
    knots: KnotSet | None = None,
) -> SmootherKernel:
    """Build the effective smoother kernel over the observed t values.

    ``penalized-gram`` is B B' from the truncated power basis (requires
    knots); ``natural-spline-kernel`` evaluates the integrated-Wiener kernel
    on t affinely rescaled to [0, 1]. The rescale changes the kernel only by
    a constant factor, which the score test absorbs into its scale
    calibration, so test decisions are unaffected.
    """
    t = np.asarray(t, dtype=float)
    if kind == PENALIZED_GRAM:
        if knots is None:
            raise ConfigError("penalized-gram kernel requires a knot set")
        B = _trunc_basis(t, knots)
        M = B @ B.T
        M = 0.5 * (M + M.T)
    elif kind == NATURAL_SPLINE:
        lo, hi = float(t.min()), float(t.max())
        if hi == lo:
            raise ModelError("smoother kernel needs non-constant t")
        M = natural_spline_gram((t - lo) / (hi - lo), degree)
    else:
        raise ConfigError(f"unknown kernel kind {kind!r}")
    _check_psd(M)
    return SmootherKernel(M=M, kind=kind)


def _check_psd(M: np.ndarray) -> None:
    """Raise NumericalError unless M + tau I has a Cholesky factor.

    tau = 1e-8 max diag(M) is at most 1e-8 times the largest eigenvalue, so
    this rejects every kernel with an eigenvalue below -tau, at a fraction
    of the cost of a full eigendecomposition.
    """
    diag = np.diagonal(M)
    tau = 1e-8 * float(diag.max()) if diag.size else 0.0
    if tau <= 0.0:
        ok = not M.any()  # a PSD matrix with zero diagonal is zero
    else:
        shifted = M.copy()
        shifted.flat[:: M.shape[0] + 1] += tau
        try:
            np.linalg.cholesky(shifted)
            ok = True
        except np.linalg.LinAlgError:
            ok = False
    if not ok:
        raise NumericalError(
            f"smoother kernel is not PSD (Cholesky of M + {tau:.3e} I failed); construction bug"
        )
