"""Spline design construction: knots, truncated power basis, smoother kernels.

Builds the polynomial basis ``A`` (columns 1, t, ..., t^d), the truncated
power basis ``B`` (columns (t - knot)_+^d), the combined fixed-effects matrix
``X = [S | A]``, and the symmetric smoother kernels consumed by the
variance-component score test. The kernels are held in structured form (a
semiseparable natural-spline kernel, or the factor B of B B'), so none of
them needs an n x n array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import Dataset
from .errors import ConfigError, ModelError

__all__ = [
    "KnotSet",
    "DesignMatrices",
    "SmootherKernel",
    "GramKernel",
    "NaturalSplineKernel",
    "place_knots",
    "truncated_power",
    "build_design",
    "checked_qr",
    "stacked_qr",
    "smoother_kernel",
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
    ``X = [S | A]`` is the combined fixed-effects design and ``qr`` its
    checked thin QR when already taken (see :meth:`factors`).
    """

    A: np.ndarray
    B: np.ndarray
    X: np.ndarray
    knots: KnotSet
    t: np.ndarray
    qr: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def degree(self) -> int:
        return self.knots.degree

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The checked thin QR of X: ``qr`` if set, else :func:`checked_qr` of X."""
        return checked_qr(self.X) if self.qr is None else self.qr


class SmootherKernel:
    """Symmetric PSD n x n kernel M used by the score test.

    The score test reads a kernel only through ``apply`` (M A for an n x k
    block A), ``trace`` (tr M) and ``sq_norm`` (|M|_F^2). This class holds M
    as a dense matrix, for hand-made kernels and dense checks;
    :func:`smoother_kernel` returns the structured subclasses, which override
    those three. ``.M`` forms M from ``apply`` alone, so a subclass builds it
    only when asked; for a dense symmetric M it returns M exactly.
    """

    def __init__(self, M, kind: str):
        self._M = np.asarray(M, dtype=float)
        self.kind = kind
        self.n = self._M.shape[0]
        self.trace = float(np.trace(self._M))
        self.sq_norm = float(np.einsum("ij,ij->", self._M, self._M))

    @property
    def M(self) -> np.ndarray:
        """Dense n x n kernel, built on demand for dense checks."""
        M = self.apply(np.eye(self.n))
        return 0.5 * (M + M.T)

    def apply(self, A) -> np.ndarray:
        """M A for a vector or a matrix with one row per observation."""
        return self._M @ A


class GramKernel(SmootherKernel):
    """M = B B' held as its n x K factor B: M A = B (B'A), |M|_F = |B'B|_F."""

    def __init__(self, B: np.ndarray):
        self.B = B
        self.kind = PENALIZED_GRAM
        self.n = B.shape[0]
        self.trace = float(np.einsum("ij,ij->", B, B))
        gram = B.T @ B
        self.sq_norm = float(np.einsum("ij,ij->", gram, gram))

    def apply(self, A) -> np.ndarray:
        return self.B @ (self.B.T @ A)


class NaturalSplineKernel(SmootherKernel):
    """Covariance kernel of a degree-d integrated Wiener process on [0, 1].

    k(a, b) = int_0^min(a, b) (a - w)^d (b - w)^d dw / (d!)^2. For a <= b it
    expands to sum_l f_l(a) g_l(b) with f_l(a) = c_l a^(2d+1-l), g_l(b) = b^l
    and c_l = (-1)^(d-l) / (l! (2d+1-l)!), so M is semiseparable in sorted-u
    order. Row i of M A (rows sorted by u) is
    sum_l g_l(u_i) sum_{j<=i} f_l(u_j) A_j + f_l(u_i) sum_{j>i} g_l(u_j) A_j:
    one prefix and one suffix sum per l, O(n (d+1) k) for an n x k block.
    Tied u are safe: both expansions agree at a = b.
    """

    def __init__(self, u: np.ndarray, degree: int):
        self.kind = NATURAL_SPLINE
        self.n = u.shape[0]
        self._order = np.argsort(u, kind="stable")
        us = u[self._order]
        powers = np.arange(degree + 1)
        c = np.array([
            (-1.0) ** (degree - p) / (math.factorial(p) * math.factorial(2 * degree + 1 - p))
            for p in powers
        ])
        self._f = c * us[:, None] ** (2 * degree + 1 - powers)
        self._g = us[:, None] ** powers
        diag = us ** (2 * degree + 1) / ((2 * degree + 1) * math.factorial(degree) ** 2)
        self.trace = float(diag.sum())
        # |M|_F^2 = sum_i k_ii^2 + 2 sum_j g_j' (sum_{i<j} f_i f_i') g_j
        outer = self._f[:, :, None] * self._f[:, None, :]
        before = np.zeros_like(outer)
        np.cumsum(outer[:-1], axis=0, out=before[1:])
        cross = float(np.einsum("jl,jlm,jm->", self._g, before, self._g))
        self.sq_norm = float(diag @ diag) + 2.0 * cross

    def apply(self, A) -> np.ndarray:
        A = np.asarray(A, dtype=float)
        block = A.reshape(self.n, -1)[self._order]
        out = np.zeros_like(block)
        for p in range(self._f.shape[1]):
            f, g = self._f[:, p : p + 1], self._g[:, p : p + 1]
            out += g * np.cumsum(f * block, axis=0)
            after = np.cumsum((g * block)[::-1], axis=0)[::-1]  # sum over j >= i
            out[:-1] += f[:-1] * after[1:]
        result = np.empty_like(out)
        result[self._order] = out
        return result.reshape(A.shape)


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


def _trunc_basis(t: np.ndarray, knots: KnotSet) -> np.ndarray:
    return truncated_power(t[:, None], knots.knots[None, :], knots.degree)


def stacked_qr(X: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None, list]:
    """Thin QR of each n x p fixed-effects design in an R x n x p stack, the
    one factorisation every least-squares step takes, and per design the
    ModelError that rejects it or None. A design is rejected unless n > p and
    it has full column rank: every |R_jj| must exceed n * eps * max |R_jj|.
    With n <= p every design is rejected and no factors are returned."""
    stack, n, p = X.shape
    if n <= p:
        return None, None, [ModelError(f"need n > {p} rows to fit {p} coefficients, got n = {n}")] * stack
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    tol = n * np.finfo(float).eps * diag.max(axis=1)
    errors = [
        None if d.min() > tl else
        ModelError(f"fixed-effects design is rank deficient ({p} columns, rank {int((d > tl).sum())})")
        for d, tl in zip(diag, tol)
    ]
    return Q, R, errors


def checked_qr(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR of one n x p design (see :func:`stacked_qr`); raises its ModelError."""
    Q, R, (error,) = stacked_qr(X[None])
    if error is not None:
        raise error
    return Q[0], R[0]


def build_design(dataset: Dataset, knots: KnotSet) -> DesignMatrices:
    """Assemble A, B, and X = [S | A] for a dataset.

    Raises ModelError when X is rank deficient (e.g. constant t with
    degree >= 1); otherwise the design keeps the checked QR of X.
    """
    t = dataset.t
    A = np.vander(t, knots.degree + 1, increasing=True)
    B = _trunc_basis(t, knots)
    X = np.hstack([dataset.S, A]) if dataset.p else A
    # A design with no more rows than columns is left to the fits, which
    # reject it by its row count.
    qr = checked_qr(X) if X.shape[0] > X.shape[1] else None
    return DesignMatrices(A=A, B=B, X=X, knots=knots, t=np.asarray(t, dtype=float), qr=qr)


def smoother_kernel(
    t,
    degree: int = 1,
    kind: str = NATURAL_SPLINE,
    knots: KnotSet | None = None,
) -> SmootherKernel:
    """Build the effective smoother kernel over the observed t values.

    ``penalized-gram`` is B B' from the truncated power basis (requires
    knots), held as B; ``natural-spline-kernel`` is the integrated-Wiener
    kernel on t affinely rescaled to [0, 1], held in semiseparable form. The rescale changes the kernel only by
    a constant factor, which the score test absorbs into its scale
    calibration, so test decisions are unaffected.
    """
    t = np.asarray(t, dtype=float)
    if kind == PENALIZED_GRAM:
        if knots is None:
            raise ConfigError("penalized-gram kernel requires a knot set")
        return GramKernel(_trunc_basis(t, knots))
    if kind == NATURAL_SPLINE:
        lo, hi = float(t.min()), float(t.max())
        if hi == lo:
            raise ModelError("smoother kernel needs non-constant t")
        return NaturalSplineKernel((t - lo) / (hi - lo), degree)
    raise ConfigError(f"unknown kernel kind {kind!r}")
