"""Variance-component score test with scaled chi-square calibration.

The statistic needs only the null fit: half the V^-1-weighted quadratic form
of the residuals through the smoother kernel, centred at its null mean. Its
null law is matched by kappa * chisq(nu) through the first two moments of the
quadratic part, and the test is one-sided (large values indicate smooth
departure from the polynomial).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import Dataset
from .errors import ConfigError, DegenerateTestError
from .null_fit import NullFit, RemlProjection, fit_ols, fit_reml_random_intercept, reml_projection
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


def _upper_tail(u_quad: float, moments: ScoreMoments) -> float:
    """Upper tail of scale * chisq(df) beyond u_quad, floored at the smallest float."""
    from scipy.special import chdtrc  # imported here: only the score test needs scipy

    p = float(chdtrc(moments.df, u_quad / moments.scale))
    return max(p, np.finfo(float).tiny)


def _sq_norm(A: np.ndarray) -> float:
    return float(np.einsum("ij,ij->", A, A))


def score_statistic(fit: NullFit, proj: RemlProjection, kernel: SmootherKernel) -> ScoreResult:
    """Compute the score statistic and its calibrated one-sided p-value.

    All three inputs must come from the same dataset and design. Raises
    DegenerateTestError when the projection annihilates the kernel (the test
    carries no information, e.g. M = 0 or col(M) inside col(X)).

    With the whitened kernel K = V^-1/2 M V^-1/2 and P = V^-1/2 (I - QQ') V^-1/2,
    tr(PM) = tr K - tr Q'KQ and tr((PM)^2) = |K|^2 - 2 |KQ|^2 + |Q'KQ|^2
    (Frobenius norms), so no n x n projection is formed.
    """
    M = kernel.M
    n = fit.n
    if M.shape != (n, n) or proj.n != n:
        raise ConfigError(
            f"kernel {M.shape} and projection ({proj.n} rows) must both match n = {n}"
        )
    K = proj.whiten(proj.whiten(M).T)  # M symmetric, so this is V^-1/2 M V^-1/2
    KQ = K @ proj.Q
    QKQ = proj.Q.T @ KQ
    trace_k = float(np.trace(K))
    mean = 0.5 * (trace_k - float(np.trace(QKQ)))  # tr(PM) / 2
    if mean <= 1e-12 * max(trace_k, 0.0) or mean <= 0.0:
        raise DegenerateTestError(
            "projection annihilates the smoother kernel; score test is degenerate"
        )
    variance = 0.5 * (_sq_norm(K) - 2.0 * _sq_norm(KQ) + _sq_norm(QKQ))  # tr((PM)^2) / 2
    moments = ScoreMoments(
        mean=mean,
        variance=variance,
        scale=variance / (2.0 * mean),
        df=2.0 * mean**2 / variance,
    )
    white_r = proj.whiten(fit.residuals)
    u_quad = max(0.5 * float(white_r @ K @ white_r), 0.0)  # PSD form, clamp roundoff
    return ScoreResult(
        u_quad=u_quad,
        null_mean=mean,
        u_score=u_quad - mean,
        moments=moments,
        p_value=_upper_tail(u_quad, moments),
        kernel_kind=kernel.kind,
    )


def run_score_test(
    dataset: Dataset,
    degree: int = 1,
    kernel_kind: str = NATURAL_SPLINE,
    knots: KnotSet | None = None,
    n_knots: int = 20,
    variance: str = "reml",
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
    if dataset.cluster is not None and dataset.n_units >= 2:
        fit = fit_reml_random_intercept(dataset, design, variance=variance)
    else:
        fit = fit_ols(dataset, design, variance=variance)
    proj = reml_projection(fit, design.X)
    kern = smoother_kernel(dataset.t, degree, kernel_kind, knots)
    return score_statistic(fit, proj, kern)
