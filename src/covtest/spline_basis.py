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
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

import numpy as np

from .data_io import Clusters, Dataset
from .errors import ConfigError, DegenerateFitError, ModelError, NumericalError

__all__ = [
    "KnotSet",
    "DesignMatrices",
    "FactoredStack",
    "SmootherKernel",
    "GramKernel",
    "NaturalSplineKernel",
    "place_knots",
    "truncated_power",
    "build_design",
    "checked_qr",
    "stacked_qr",
    "stacked_spectrum",
    "projected_blocks",
    "failed_cells",
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


@dataclass(frozen=True)
class FactoredStack:
    """An R x n x p stack of fixed-effects designs ``X`` sharing V = I + ratio ZZ',
    the thin QR factors ``Q`` (R x n x p) and ``R`` (R x p x p) of each V^-1/2 X,
    and per design the ModelError that rejects it or None (see :func:`stacked_qr`).

    Z's layout is the :class:`~covtest.data_io.Clusters` record ``clusters``; the
    defaults are V = I. Each design's REML projection at unit variance is
    P = V^-1/2 (I - QQ') V^-1/2, and ``sigma2`` scales only the dense ``P``.
    """

    X: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    errors: list
    ratio: float = 0.0
    clusters: Clusters | None = None
    sigma2: float = 1.0

    @property
    def n(self) -> int:
        return self.X.shape[-2]

    def replicates(self, lo: int, hi: int) -> FactoredStack:
        """Designs lo..hi-1 as a stack of views; a one-design stack is every replicate's design, so itself."""
        if len(self.errors) == 1:
            return self
        rows = slice(lo, hi)
        return replace(self, X=self.X[rows], Q=self.Q[rows], R=self.R[rows], errors=self.errors[rows])

    def replicate(self, r: int) -> FactoredStack:
        """Design ``r`` as a one-design stack."""
        return self.replicates(r, r + 1)

    def whiten(self, a) -> np.ndarray:
        """V^-1/2 a along the observation axis of a vector, a matrix or a stack."""
        return self.clusters.whiten(a, self.ratio) if self.ratio > 0.0 else np.asarray(a, dtype=float)

    @property
    def P(self) -> np.ndarray:
        """Dense n x n projection of design 0 for the covariance sigma2 V, for dense checks."""
        root = self.whiten(np.eye(self.n))  # V^-1/2, symmetric
        rq = root @ self.Q[0]
        P = (root @ root - rq @ rq.T) / self.sigma2
        return 0.5 * (P + P.T)


@dataclass(frozen=True)
class DesignMatrices:
    """Design matrices for one dataset and one knot set.

    ``A`` is n x (d+1) polynomial, ``B`` is n x K truncated power and
    ``X = [S | A]`` the combined fixed-effects design. ``qr`` is X's checked
    thin QR as a one-design stack, taken when the design is made, so a design
    that cannot be fit raises its ModelError there (:func:`checked_qr`), and
    ``dataclasses.replace`` with a new X factors the new X. ``spectrum`` (the
    :func:`stacked_spectrum` of ``qr``), ``raw_eigs`` (B'B's eigenvalues) and
    ``grid_scale`` are computed on first use and kept, so a replaced design
    computes its own; none is an n x K array.
    """

    A: np.ndarray
    B: np.ndarray
    X: np.ndarray
    knots: KnotSet
    t: np.ndarray
    qr: FactoredStack = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "qr", checked_qr(self.X))

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return stacked_spectrum(self.qr.Q, self.B)

    @cached_property
    def raw_eigs(self) -> np.ndarray:
        """B'B's eigenvalues, descending: B's squared singular values, set to 0
        only where s <= n eps s_max, from the K x K R of a row-blocked QR of B (as
        numpy's SVD of a tall B in one block). No gram is formed, so none is rounded away."""
        B = self.B
        R = B[:0]
        for rows in _row_blocks(*B.shape):
            R = np.linalg.qr(np.vstack([R, B[rows]]), mode="r")
        s = _decomposed(lambda R: np.linalg.svd(R, compute_uv=False), R)
        return np.where(s > B.shape[0] * np.finfo(float).eps * s[:1], s * s, 0.0)

    @cached_property
    def grid_scale(self) -> float:
        """The lambda grid's scale: the mean of B'B's eigenvalues as one eigvalsh
        of the gram, clipped as :func:`stacked_spectrum` clips, gives them."""
        return float(_clipped(_decomposed(np.linalg.eigvalsh, _symmetric(self.B.T @ self.B))).mean())

    @property
    def degree(self) -> int:
        return self.knots.degree


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
        self._sorted = bool(np.all(self._order == np.arange(self.n)))  # no gathers
        self._inverse = np.empty_like(self._order)  # row i of the result is sorted row _inverse[i]
        self._inverse[self._order] = np.arange(self.n)
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
        block = A.reshape(self.n, -1)
        if not self._sorted:
            block = block[self._order]
        out = np.zeros_like(block)
        work = np.empty_like(block)  # one scratch array, reused in place
        for p in range(self._f.shape[1]):
            f, g = self._f[:, p : p + 1], self._g[:, p : p + 1]
            np.cumsum(np.multiply(f, block, out=work), axis=0, out=work)
            out += np.multiply(work, g, out=work)
            after = np.multiply(g, block, out=work)[::-1]
            np.cumsum(after, axis=0, out=after)  # work[i] is the sum over j >= i
            out[:-1] += np.multiply(work[1:], f[:-1], out=work[1:])
        if not self._sorted:
            # mode="clip" (the indices are a permutation) writes into work unbuffered
            out = np.take(out, self._inverse, axis=0, out=work, mode="clip")
        return out.reshape(A.shape)


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
    # A sort, not np.unique: the bare call imports numpy.ma, and np.unique(t, return_index=True),
    # which does not, sorts stably: 39 ms against 5 ms at n = 200 000 on one x86-64 core.
    ordered = np.sort(t, axis=None)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    if distinct.size < n_knots + 1:
        raise ConfigError(
            f"{n_knots} knots need at least {n_knots + 1} distinct t values, "
            f"found {distinct.size}; use a smaller knot count"
        )
    # With D >= K + 1 distinct values, ceil(kD / (K + 1)) rises by at least 1 with k,
    # so the knots are distinct values of t in strictly increasing order.
    order = np.ceil(np.arange(1, n_knots + 1) * distinct.size / (n_knots + 1)).astype(int)
    return KnotSet(distinct[order - 1], degree)


def truncated_power(x, knot: float, degree: int):
    """(x - knot)_+^d: zero at and below the knot, polynomial above.

    The inequality is strict, so x == knot contributes 0 for every degree;
    degree 0 is the indicator of x > knot. The result is built in place in
    the one array ``x - knot`` (n x K for a column of x against a row of
    knots); a NaN x stays NaN for degree >= 1.
    """
    if degree < 0:
        raise ConfigError(f"degree must be >= 0, got {degree}")
    out = np.asarray(np.asarray(x, dtype=float) - knot)  # 0-d differences come back as scalars
    if degree == 0:
        np.greater(out, 0.0, out=out)
    else:
        np.maximum(out, 0.0, out=out)  # -0.0 becomes +0.0, as in where(out > 0, out, 0.0)
        out **= degree
    return out if out.ndim else float(out)


def _trunc_basis(t: np.ndarray, knots: KnotSet) -> np.ndarray:
    return truncated_power(t[:, None], knots.knots[None, :], knots.degree)


# A least-squares fit is numerically perfect, with no estimable error variance,
# when its residual sum of squares is at most this fraction of y'y. It separates
# genuine near-zero noise (sigma ~ 1e-12 gives rss/yty ~ 1e-24) from pure float
# roundoff of an exact fit (~ (eps * cond)^2 ~ 1e-27).
PERFECT_FIT_REL = 1e-25


def stacked_qr(X: np.ndarray) -> FactoredStack:
    """Thin QR of each n x p fixed-effects design in an R x n x p stack, the
    one factorisation every least-squares step takes, and per design the
    ModelError that rejects it or None. A stack with n <= p rows raises its
    ModelError: no design in it can be fit. A design is rejected unless it
    has full column rank: every |R_jj| must exceed n * eps * max |R_jj|. A
    rejected design's R is the identity, so a solve with it stays defined;
    its fits fail by :func:`failed_cells`."""
    _, n, p = X.shape
    if n <= p:
        raise ModelError(f"need n > {p} rows to fit {p} coefficients, got n = {n}")
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    tol = n * np.finfo(float).eps * diag.max(axis=1)
    errors = [
        None if d.min() > tl else
        ModelError(f"fixed-effects design is rank deficient ({p} columns, rank {int((d > tl).sum())})")
        for d, tl in zip(diag, tol)
    ]
    R[[error is not None for error in errors]] = np.eye(p)
    return FactoredStack(X, Q, R, errors)


_EIG_CLIP_REL = 1e-12
# Entries in a row block of B (3,276 rows at K = 20)
_BLOCK_ENTRIES = 2**16


def _symmetric(gram: np.ndarray) -> np.ndarray:
    return 0.5 * (gram + gram.swapaxes(-1, -2))


def _decomposed(solver, a: np.ndarray):
    """``solver`` (an eigensolver or an SVD) of a; a LinAlgError becomes a NumericalError."""
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


def _clipped(eigs: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (per gram of a stack) in descending order, those below _EIG_CLIP_REL of the largest 0."""
    return np.where(eigs[..., ::-1] < _EIG_CLIP_REL * np.maximum(eigs[..., -1:], 0.0), 0.0, eigs[..., ::-1])


def _row_blocks(n: int, width: int) -> list[slice]:
    """Row slices of an n x width array, each of about _BLOCK_ENTRIES entries."""
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def projected_blocks(Q: np.ndarray, B: np.ndarray, QtB: np.ndarray):
    """(rows, P0B[rows]) of P0B = B - QQ'B for each row block of B in turn."""
    return ((rows, B[rows] - Q[..., rows, :] @ QtB) for rows in _row_blocks(*B.shape))


def stacked_spectrum(Q: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The projected spectrum of designs X with thin QR factors Q (R x n x p) and spline basis B
    (n x K), from one eigh of the stack of grams B'P0B = W diag(mu) W', P0B = B - QQ'B: the
    clipped mu (R x K, descending), W (its columns in mu's order) and Q'B, the gram summed over
    row blocks, sum_b B_b'(B_b - Q_b Q'B). A slice is bit for bit its own design's."""
    QtB = Q.swapaxes(-1, -2) @ B
    gram = reduce(np.add, (B[rows].T @ PB for rows, PB in projected_blocks(Q, B, QtB)))
    mu, W = _decomposed(np.linalg.eigh, _symmetric(gram))
    return _clipped(mu), W[..., ::-1], QtB


def checked_qr(X: np.ndarray) -> FactoredStack:
    """:func:`stacked_qr` of one n x p design as a one-design stack; raises its ModelError."""
    factored = stacked_qr(X[None])
    if factored.errors[0] is not None:
        raise factored.errors[0]
    return factored


def failed_cells(factored: FactoredStack, rss: np.ndarray, yty: np.ndarray) -> tuple[np.ndarray, dict]:
    """The one rule for least-squares fits that cannot be used: of R x C fits
    under the designs of ``factored``, with residual sums of squares ``rss``
    and response energies ``yty``, the R x C mask of failed cells and each
    failed (replicate, column) cell's error. That is the ModelError of its
    design; else a NumericalError when rss or y'y is not finite (take both
    under ``np.errstate(over="ignore", invalid="ignore")``); else a
    DegenerateFitError when the fit is numerically perfect, rss <= PERFECT_FIT_REL * y'y."""
    rejected = np.array([error is not None for error in factored.errors])[:, None]
    overflowed = ~(np.isfinite(rss) & np.isfinite(yty))
    failed = rejected | overflowed | (rss <= PERFECT_FIT_REL * yty)
    errors = {(int(r), int(c)): factored.errors[r] or (
                  NumericalError("sum of squares of the response overflows double precision; rescale y")
                  if overflowed[r, c] else
                  DegenerateFitError("null fit is numerically perfect; error variance is not estimable"))
              for r, c in zip(*np.nonzero(failed))}
    return failed, errors


def build_design(dataset: Dataset, knots: KnotSet) -> DesignMatrices:
    """Assemble A, B, and X = [S | A] for a dataset.

    Raises the ModelError of :func:`checked_qr` when X cannot be fit: no
    more rows than columns, or rank deficient (e.g. constant t with
    degree >= 1); otherwise the design keeps the checked QR of X.
    """
    t = dataset.t
    A = np.vander(t, knots.degree + 1, increasing=True)
    B = _trunc_basis(t, knots)
    X = np.hstack([dataset.S, A]) if dataset.p else A
    return DesignMatrices(A=A, B=B, X=X, knots=knots, t=np.asarray(t, dtype=float))


def smoother_kernel(
    t,
    degree: int = 1,
    kind: str = NATURAL_SPLINE,
    knots: KnotSet | None = None,
) -> SmootherKernel:
    """Build the effective smoother kernel over the observed t values.

    ``penalized-gram`` is B B' from the truncated power basis (requires
    knots), held as B; ``natural-spline-kernel`` is the integrated-Wiener
    kernel on t mapped affinely onto [0, 1], held in semiseparable form. That
    map changes the kernel only by a constant factor, which the score test
    absorbs into its scale calibration, so test decisions are unaffected.
    """
    t = np.asarray(t, dtype=float)
    if kind == PENALIZED_GRAM:
        if knots is None or not knots.knots.size:
            raise ConfigError("penalized-gram kernel needs at least one knot")
        return GramKernel(_trunc_basis(t, knots))
    if kind == NATURAL_SPLINE:
        lo, hi = float(t.min()), float(t.max())
        if hi == lo:
            raise ModelError("smoother kernel needs non-constant t")
        return NaturalSplineKernel((t - lo) / (hi - lo), degree)
    raise ConfigError(f"unknown kernel kind {kind!r}")
