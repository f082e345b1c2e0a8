"""Variance-component score test with scaled chi-square calibration.

The statistic needs only the null fit: half the V^-1-weighted quadratic form
of the residuals through the smoother kernel, centred at its null mean. Its
null law is matched by kappa * chisq(nu) through the first two moments of the
quadratic part, and the test is one-sided (large values indicate smooth
departure from the polynomial).

The smoother kernel M is read only through M A, tr M and |M|_F^2 (see
:class:`~covtest.spline_basis.SmootherKernel`), so no n x n matrix is built:
the cost is O(n (d+1)) for independent data and O(n m) time in O(n) memory
for m random-intercept clusters. The chi-square tail is an array recurrence
in numpy, with the standard library's lgamma for its prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .data_io import Dataset
from .errors import ConfigError, DegenerateTestError, NumericalError
from .null_fit import NullFit, fit_null
from .spline_basis import (
    NATURAL_SPLINE,
    FactoredStack,
    KnotSet,
    SmootherKernel,
    build_design,
    smoother_kernel,
)

__all__ = [
    "ScoreMoments",
    "ScoreResult",
    "score_statistic",
    "score_statistics",
    "run_score_test",
]


@dataclass(frozen=True)
class ScoreMoments:
    """Null mean/variance of the quadratic form and the matching chi-square.

    mean = tr(PM)/2, variance = tr((PM)^2)/2, scale = variance/(2*mean),
    df = 2*mean^2/variance. By construction scale*df = mean and
    2*scale^2*df = variance. Floats for one fit, R x C arrays for a stack.
    """

    mean: float
    variance: float
    scale: float
    df: float


@dataclass(frozen=True)
class ScoreResult:
    """Score test output.

    ``u_quad`` is the quadratic part (always >= 0), ``null_mean`` its expected
    value under the null, and ``u_score = u_quad - null_mean`` the centred
    score; the p-value is the one-sided upper tail of the calibrated
    chi-square at ``u_quad``. Floats for one fit, R x C arrays for a stack
    (see :func:`score_statistics`).
    """

    u_quad: float
    null_mean: float
    u_score: float
    moments: ScoreMoments
    p_value: float
    kernel_kind: str

    def cell(self, r: int, c: int) -> ScoreResult:
        """The result of cell (r, c) of a stack's arrays, in floats."""
        def at(a):
            return float(a[r, c])

        moments = ScoreMoments(*(at(getattr(self.moments, f.name)) for f in fields(ScoreMoments)))
        return ScoreResult(u_quad=at(self.u_quad), null_mean=at(self.null_mean),
                           u_score=at(self.u_score), moments=moments,
                           p_value=at(self.p_value), kernel_kind=self.kernel_kind)


_EPS = float(np.finfo(float).eps)
_FLOOR = 1e-300
_MAX_TERMS = 100_000
_TINY = float(np.finfo(float).tiny)
_SCALE_ERROR = "scale of the response is out of double-precision range for the score statistic; rescale y"


def _tail_arguments(u_quad, moments: ScoreMoments) -> tuple[np.ndarray, np.ndarray]:
    """(a, x) of the gamma tail at u_quad: df / 2 and u_quad / (2 scale)."""
    return np.broadcast_arrays(0.5 * np.asarray(moments.df), 0.5 * np.asarray(u_quad) / moments.scale)


def _series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k x^k / (a (a + 1) ... (a + k)) per element, up to its first term below
    eps times the sum; NaN where that takes _MAX_TERMS terms. An element leaves the
    live set at its own last term."""
    total = np.full(a.shape, np.nan)
    live = np.arange(a.size)
    term = 1.0 / a
    run = term.copy()
    for k in range(1, _MAX_TERMS):
        if not live.size:
            break
        term *= x / (a + k)
        run += term
        done = term < _EPS * run
        if done.any():
            total[live[done]] = run[done]
            keep = ~done
            live, a, x, term, run = live[keep], a[keep], x[keep], term[keep], run[keep]
    return total


def _fraction(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The continued fraction for Q(a, x) / (x^a e^-x / Gamma(a)) per element, by
    modified Lentz, up to the first step within eps of 1; NaN where that takes
    _MAX_TERMS terms. An element leaves the live set at its own last step."""
    out = np.full(a.shape, np.nan)
    live = np.arange(a.size)
    b = x + 1.0 - a
    c = np.full(a.shape, 1.0 / _FLOOR)
    d = 1.0 / b
    h = d.copy()
    for k in range(1, _MAX_TERMS):
        if not live.size:
            break
        an = k * (a - k)
        b += 2.0
        d = an * d + b
        d = 1.0 / np.where(np.abs(d) > _FLOOR, d, _FLOOR)
        c = b + an / c
        c = np.where(np.abs(c) > _FLOOR, c, _FLOOR)
        step = d * c
        h *= step
        done = np.abs(step - 1.0) <= _EPS
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live, a, b, c, d, h = live[keep], a[keep], b[keep], c[keep], d[keep], h[keep]
    return out


def _upper_tail(u_quad, moments: ScoreMoments) -> np.ndarray:
    """Upper tail of scale * chisq(df) beyond u_quad, elementwise (floats or
    arrays of one shape), floored at the smallest float: the regularised upper
    incomplete gamma Q(a, x) at (a, x) = :func:`_tail_arguments`, for a > 0.

    A power series for P = 1 - Q below x = a + 1, a continued fraction for Q
    above it (modified Lentz), each scaled by x^a e^-x / Gamma(a), which is
    taken per element with ``math``'s lgamma, exp and log. The two recurrences
    run as array steps over the elements still live, each element stopping at
    its own term count, so a value is bit for bit the scalar recurrence's
    (+, -, *, / and abs round alike in both). 1 for x <= 0; NaN for a
    non-finite argument or where neither converges within _MAX_TERMS terms.
    """
    a, x = _tail_arguments(u_quad, moments)
    shape, a, x = a.shape, a.ravel(), x.ravel()
    finite = np.isfinite(a) & np.isfinite(x)
    q = np.where(finite, 1.0, np.nan)
    live = np.flatnonzero(finite & (x > 0.0))
    a, x = a[live], x[live]
    front = np.array([math.exp(ak * math.log(xk) - xk - math.lgamma(ak)) for ak, xk in zip(a.tolist(), x.tolist())])
    low = x < a + 1.0
    with np.errstate(all="ignore"):  # as in float arithmetic: an overflow is an inf, not a warning
        q[live[low]] = 1.0 - front[low] * _series(a[low], x[low])
        q[live[~low]] = front[~low] * _fraction(a[~low], x[~low])
    return np.maximum(q.reshape(shape), _TINY)


def _tail_p_values(u_quad, moments: ScoreMoments) -> tuple[np.ndarray, dict]:
    """:func:`_upper_tail` at cells of one shape, and a map from each cell whose
    tail did not converge (a NaN p-value) to its NumericalError."""
    with np.errstate(all="ignore"):  # an argument out of double range is a NaN tail, reported so
        p = _upper_tail(u_quad, moments)
        a, x = _tail_arguments(u_quad, moments)
    return p, {tuple(int(i) for i in cell): NumericalError(
                   f"chi-square tail did not converge at a = {float(a[cell])!r}, x = {float(x[cell])!r}")
               for cell in zip(*np.nonzero(np.isnan(p)))}


def _sq_frobenius(A: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of a matrix, or of each matrix of a stack."""
    return np.einsum("...ij,...ij->...", A, A)


# Cluster indicator columns per kernel application: 0.5 MB per n x b float64
# block, of which the indicators, the kernel's gathered input, its running sums
# and its output (four blocks) are alive at once.
_BLOCK_ENTRIES = 2**16
# Entries of the n x R(p + C) kernel input per replicate slice of score_statistics
# (128 KB); its kernel output and the kernel's scratch are alive with it.
_SLICE_ENTRIES = 2**14


def _whitened_norms(kernel: SmootherKernel, proj: FactoredStack) -> tuple[float, float]:
    """tr K and |K|_F^2 for the whitened kernel K = V^-1/2 M V^-1/2, V = I + ratio ZZ'.

    With V^-1 = I - Z G Z', g_i = ratio / (1 + ratio n_i) and z_i the
    indicator of cluster i, tr K = tr M - sum_i g_i z_i'M z_i and
    |K|^2 = |M|^2 - 2 sum_i g_i |M z_i|^2 + sum_ik g_i g_k (z_i'M z_k)^2.
    M is applied to the indicators a block of clusters at a time, so the
    memory stays O(n) and the time is that of m kernel applications. The
    terms cancel where V^-1 removes most of M (a large ratio, clusters narrow
    in t): |K|^2 then carries a relative error of about eps |M|^2 / |K|^2.
    """
    trace, sq_norm = kernel.trace, kernel.sq_norm
    if proj.ratio > 0.0:
        m = proj.sizes.size
        g = proj.ratio / (1.0 + proj.ratio * proj.sizes)
        width = max(1, _BLOCK_ENTRIES // proj.n)
        for lo in range(0, m, width):
            ids = np.arange(lo, min(lo + width, m))
            MZ = kernel.apply((proj.cluster[:, None] == ids).astype(float))
            ZMZ = proj.cluster_sums(MZ)  # (i, k): z_i'M z_k
            gb = g[ids]
            trace -= float(gb @ ZMZ[ids, np.arange(ids.size)])
            sq_norm -= 2.0 * float(gb @ np.einsum("ij,ij->j", MZ, MZ))
            sq_norm += float(gb @ (g @ ZMZ**2))
            del MZ  # freed before the next block's indicators are made
    return trace, sq_norm


def score_statistic(fit: NullFit, proj: FactoredStack, kernel: SmootherKernel) -> ScoreResult:
    """Compute the score statistic and its calibrated one-sided p-value: the
    one-fit case of :func:`score_statistics`. All three inputs must come from
    the same dataset and design."""
    if fit.n != proj.n or fit.ratio != proj.ratio:
        raise ConfigError(f"the fit ({fit.n} rows) must match the projection's n = {proj.n} and ratio")
    block, failed = score_statistics(fit.residuals[None, :, None], np.full((1, 1), fit.sigma2_eps),
                                     proj, kernel)
    if failed:
        raise failed[0, 0]
    return block.cell(0, 0)


def score_statistics(
    residuals: np.ndarray, sigma2: np.ndarray, proj: FactoredStack, kernel: SmootherKernel, *, tail: bool = True
) -> tuple[ScoreResult, dict]:
    """Score statistics of a stack of null fits: R x n x C residuals with R x C
    error variances, where replicate r's columns share design r of ``proj`` (or
    its one design) and its V. ``proj`` is the record the fits were taken under:
    a study block's stack, or one fit's ``reml_projection``. Returns a ScoreResult
    of R x C arrays and a map from each failed (replicate, column) cell to its
    error: a DegenerateTestError for every cell of a replicate whose projection
    annihilates the kernel (the test carries no information, e.g. M = 0 or
    col(M) inside col(X)), or a NumericalError where the tail did not
    converge. A failed cell's array entries are meaningless; a cell's numbers
    do not depend on the other cells.

    With the whitened kernel K = V^-1/2 M V^-1/2 and P = V^-1/2 (I - QQ') V^-1/2,
    tr(PM) = tr K - tr Q'KQ and tr((PM)^2) = |K|^2 - 2 |KQ|^2 + |Q'KQ|^2
    (Frobenius norms). The kernel is applied once per slice of replicates to
    [V^-1/2 Q | V^-1 r of every column], an n x R(p + C) block of at most
    max(1, _SLICE_ENTRIES // (n (p + C))) replicates (11 at n = 100, p = 4,
    C = 10), so the working set does not grow with the stack; the kernel
    acts on each column alone and every other step is per replicate, so a
    cell's bits do not depend on the slice size. tr K and |K|^2 come from
    :func:`_whitened_norms`, once per call. ``proj`` is at unit variance, so
    a column of error variance s has mean / s, variance / s^2 and u_quad / s^2,
    and df and the tail's arguments are free of s. A cell fails with a
    NumericalError where dividing by s leaves one of them out of double range.
    With ``tail=False`` the p-values are NaN and the tail is the caller's to
    take (:func:`_tail_p_values`), as a study takes every block's in one call.
    """
    n, (stack, _, n_cols) = proj.n, residuals.shape
    if kernel.n != n or residuals.shape[1] != n:
        raise ConfigError(
            f"kernel ({kernel.n} rows) and fits ({residuals.shape[1]}) must match the projection's n = {n}"
        )
    p = proj.Q.shape[-1]
    qkq_trace, kq_sq, qkq_sq, u_half = np.empty(stack), np.empty(stack), np.empty(stack), np.empty((stack, n_cols))
    step = max(1, _SLICE_ENTRIES // (n * (p + n_cols)))
    for lo in range(0, stack, step):
        hi = min(lo + step, stack)
        part = proj.replicates(lo, hi)
        WQ = part.whiten(part.Q)
        v = part.whiten(part.whiten(residuals[lo:hi]))  # V^-1 r
        G = np.empty((n, hi - lo, p + n_cols))  # observation-major, so the kernel reads it in place
        G[..., :p] = np.broadcast_to(WQ, (hi - lo, n, p)).transpose(1, 0, 2)
        G[..., p:] = v.transpose(1, 0, 2)
        MG = kernel.apply(G.reshape(n, -1)).reshape(G.shape).transpose(1, 0, 2)
        del G
        MWQ, Mv = MG[..., :p], MG[..., p:]
        QKQ = WQ.swapaxes(-1, -2) @ MWQ
        qkq_trace[lo:hi] = np.trace(QKQ, axis1=-2, axis2=-1)
        kq_sq[lo:hi] = _sq_frobenius(part.whiten(MWQ))  # |KQ|^2, KQ = V^-1/2 M V^-1/2 Q
        qkq_sq[lo:hi] = _sq_frobenius(QKQ)
        u_half[lo:hi] = 0.5 * np.einsum("...ij,...ij->...j", v, Mv)
    trace_k, sq_norm_k = _whitened_norms(kernel, proj)
    mean = 0.5 * (trace_k - qkq_trace)  # tr(PM) / 2, per replicate
    degenerate = (mean <= 1e-12 * max(trace_k, 0.0)) | (mean <= 0.0)
    # tr((PM)^2) / 2, with KQ = V^-1/2 M V^-1/2 Q
    variance = 0.5 * (sq_norm_k - 2.0 * kq_sq + qkq_sq)
    mean, variance = (np.where(degenerate, 1.0, a)[:, None] for a in (mean, variance))
    with np.errstate(all="ignore"):  # a field out of double range fails its cell below
        m, var = mean / sigma2, variance / sigma2**2
        df = np.broadcast_to(2.0 * mean**2 / variance, m.shape)  # free of sigma2, so never out of range
        moments = ScoreMoments(mean=m, variance=var, scale=var / (2.0 * m), df=df)
        u_unit = np.maximum(u_half, 0.0)  # PSD form, clamp roundoff
        u_quad = u_unit / sigma2**2
        p_value, failed = _tail_p_values(u_quad, moments) if tail else (np.full(m.shape, np.nan), {})
        result = ScoreResult(u_quad=u_quad, null_mean=m, u_score=u_quad - m, moments=moments,
                             p_value=p_value, kernel_kind=kernel.kind)
    out_of_range = np.any([~np.isfinite(f) | ((np.abs(f) < _TINY) & (unit != 0.0))  # overflowed or underflowed
                           for f, unit in ((u_quad, u_unit), (m, mean), (var, variance), (moments.scale, variance))], 0)
    failed.update(((int(r), int(c)), NumericalError(_SCALE_ERROR)) for r, c in zip(*np.nonzero(out_of_range)))
    for r in np.flatnonzero(degenerate):
        failed.update(((int(r), c), DegenerateTestError(
            "projection annihilates the smoother kernel; score test is degenerate")) for c in range(n_cols))
    return result, failed


def run_score_test(
    dataset: Dataset,
    degree: int = 1,
    kernel_kind: str = NATURAL_SPLINE,
    knots: KnotSet | None = None,
) -> ScoreResult:
    """Fit the null model and run the score test end to end.

    Clustered datasets get the random-intercept REML null fit, independent
    ones plain OLS, on X = [S | A], which does not depend on the knots. The
    default kernel is the natural smoothing-spline one; ``penalized-gram`` is
    B B' for the LRT's truncated power basis B of ``knots``, which it requires.
    """
    fit, proj = fit_null(dataset, build_design(dataset, KnotSet(np.empty(0), degree)))
    kern = smoother_kernel(dataset.t, degree, kernel_kind, knots)
    return score_statistic(fit, proj, kern)
