"""Variance-component score test with scaled chi-square calibration.

The statistic needs only the null fit: half the V^-1-weighted quadratic form
of the residuals through the smoother kernel, centred at its null mean. Its
null law is matched by kappa * chisq(nu) through the first two moments of the
quadratic part, and the test is one-sided (large values indicate smooth
departure from the polynomial).

The smoother kernel M is read only through M A, tr M and |M|_F^2 (see
:class:`~covtest.spline_basis.SmootherKernel`), so no n x n matrix is built:
the cost is O(n (d+1)) for independent data and O(n m) time in O(n) memory
for m random-intercept clusters. The chi-square tail is computed with the
standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import Dataset
from .errors import ConfigError, CovtestError, DegenerateTestError, NumericalError
from .null_fit import NullFit, RemlProjection, fit_null
from .spline_basis import (
    NATURAL_SPLINE,
    PENALIZED_GRAM,
    KnotSet,
    SmootherKernel,
    build_design,
    place_knots,
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
    2*scale^2*df = variance.
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
    chi-square at ``u_quad``.
    """

    u_quad: float
    null_mean: float
    u_score: float
    moments: ScoreMoments
    p_value: float
    kernel_kind: str


_EPS = float(np.finfo(float).eps)
_FLOOR = 1e-300
_MAX_TERMS = 100_000


def _gamma_q(a: float, x: float) -> float:
    """Regularised upper incomplete gamma Q(a, x) for a > 0, x >= 0.

    A power series for P = 1 - Q below x = a + 1, a continued fraction for Q
    above it (modified Lentz), each scaled by x^a e^-x / Gamma(a).
    """
    if x <= 0.0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        for k in range(1, _MAX_TERMS):
            term *= x / (a + k)
            total += term
            if term < _EPS * total:
                return 1.0 - front * total
    else:
        b = x + 1.0 - a
        c, d = 1.0 / _FLOOR, 1.0 / b
        h = d
        for k in range(1, _MAX_TERMS):
            an = k * (a - k)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) > _FLOOR else _FLOOR)
            c = b + an / c
            c = c if abs(c) > _FLOOR else _FLOOR
            h *= d * c
            if abs(d * c - 1.0) <= _EPS:
                return front * h
    raise NumericalError(f"chi-square tail did not converge at a = {a!r}, x = {x!r}")


def _upper_tail(u_quad: float, moments: ScoreMoments) -> float:
    """Upper tail of scale * chisq(df) beyond u_quad, floored at the smallest float."""
    p = _gamma_q(0.5 * moments.df, 0.5 * u_quad / moments.scale)
    return max(p, np.finfo(float).tiny)


def _sq_norm(A: np.ndarray) -> float:
    return float(np.einsum("ij,ij->", A, A))


# Cluster indicator columns per kernel application: about 2 MB per n x b block.
_BLOCK_ENTRIES = 2**18


def _whitened_norms(kernel: SmootherKernel, proj: RemlProjection) -> tuple[float, float]:
    """tr K and |K|_F^2 for the whitened kernel K = V^-1/2 M V^-1/2.

    With V^-1 = (I - Z G Z') / sigma2, g_i = ratio / (1 + ratio n_i) and z_i
    the indicator of cluster i,
    tr K = (tr M - sum_i g_i z_i'M z_i) / sigma2 and
    |K|^2 = (|M|^2 - 2 sum_i g_i |M z_i|^2 + sum_ik g_i g_k (z_i'M z_k)^2) / sigma2^2.
    M is applied to the indicators a block of clusters at a time, so the
    memory stays O(n) and the time is that of m kernel applications. The
    terms cancel where V^-1 removes most of M (a large ratio, clusters narrow
    in t): |K|^2 then carries a relative error of about eps |M|^2 / (sigma2^2 |K|^2).
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
    return trace / proj.sigma2, sq_norm / proj.sigma2**2


def score_statistic(fit: NullFit, proj: RemlProjection, kernel: SmootherKernel) -> ScoreResult:
    """Compute the score statistic and its calibrated one-sided p-value. All
    three inputs must come from the same dataset and design."""
    return score_statistics([fit], proj, kernel)[0]


def score_statistics(fits: list, proj: RemlProjection, kernel: SmootherKernel) -> list:
    """:func:`score_statistic` for the null fits of responses that share one
    design and ``proj``, at any error variance and the fits' variance ratio. An
    error in ``fits`` (a failed fit) stands in for that fit's result. Raises
    DegenerateTestError when the projection annihilates the kernel (the test
    carries no information, e.g. M = 0 or col(M) inside col(X)).

    With the whitened kernel K = V^-1/2 M V^-1/2 and P = V^-1/2 (I - QQ') V^-1/2,
    tr(PM) = tr K - tr Q'KQ and tr((PM)^2) = |K|^2 - 2 |KQ|^2 + |Q'KQ|^2
    (Frobenius norms). The kernel is applied once, to [V^-1/2 Q | V^-1 r of
    every column]; tr K and |K|^2 come from :func:`_whitened_norms`. A column
    whose V is s times proj's has mean / s, variance / s^2 and u_quad / s^2.
    """
    n, failed = proj.n, [isinstance(fit, CovtestError) for fit in fits]
    ok = [fit for fit, bad in zip(fits, failed) if not bad]
    if kernel.n != n or any(fit.n != n or fit.ratio != proj.ratio for fit in ok):
        raise ConfigError(
            f"kernel ({kernel.n} rows) and fits must match the projection's n = {n} and ratio"
        )
    residuals = np.column_stack([np.zeros(n) if bad else fit.residuals for fit, bad in zip(fits, failed)])
    WQ = proj.whiten(proj.Q)
    v = proj.whiten(proj.whiten(residuals))  # V^-1 r
    MG = kernel.apply(np.column_stack([WQ, v]))
    MWQ, Mv = MG[:, : WQ.shape[1]], MG[:, WQ.shape[1]:]
    trace_k, sq_norm_k = _whitened_norms(kernel, proj)
    QKQ = WQ.T @ MWQ
    mean = 0.5 * (trace_k - float(np.trace(QKQ)))  # tr(PM) / 2
    if mean <= 1e-12 * max(trace_k, 0.0) or mean <= 0.0:
        raise DegenerateTestError(
            "projection annihilates the smoother kernel; score test is degenerate"
        )
    # tr((PM)^2) / 2, with KQ = V^-1/2 M V^-1/2 Q
    variance = 0.5 * (sq_norm_k - 2.0 * _sq_norm(proj.whiten(MWQ)) + _sq_norm(QKQ))
    out = []
    for quad, fit, bad in zip(0.5 * np.einsum("ij,ij->j", v, Mv), fits, failed):
        if bad:
            out.append(fit)
            continue
        s = fit.sigma2_eps / proj.sigma2
        m, var = mean / s, variance / s**2
        moments = ScoreMoments(mean=m, variance=var, scale=var / (2.0 * m), df=2.0 * m**2 / var)
        u_quad = max(float(quad) / s**2, 0.0)  # PSD form, clamp roundoff
        out.append(ScoreResult(u_quad=u_quad, null_mean=m, u_score=u_quad - m, moments=moments,
                               p_value=_upper_tail(u_quad, moments), kernel_kind=kernel.kind))
    return out


def run_score_test(
    dataset: Dataset,
    degree: int = 1,
    kernel_kind: str = NATURAL_SPLINE,
    knots: KnotSet | None = None,
    n_knots: int = 20,
) -> ScoreResult:
    """Fit the null model and run the score test end to end.

    Clustered datasets get the random-intercept REML null fit, independent
    ones plain OLS. The default kernel is the natural smoothing-spline one;
    ``penalized-gram`` uses the truncated power basis (placing ``n_knots``
    quantile knots when none are supplied) for comparability with the LRT.
    """
    if kernel_kind == PENALIZED_GRAM and knots is None:
        knots = place_knots(dataset.t, n_knots, degree)
    design = build_design(dataset, knots if knots is not None else KnotSet(np.empty(0), degree))
    fit, proj = fit_null(dataset, design)
    kern = smoother_kernel(dataset.t, degree, kernel_kind, knots)
    return score_statistic(fit, proj, kern)
