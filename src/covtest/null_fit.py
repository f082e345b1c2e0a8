"""Null-model fitting: OLS for independent data, REML for random intercepts.

Under the null the marginal covariance is sigma2 V, V = I + ratio ZZ', with Z
the cluster indicators (ratio = 0 for independent data). Nothing here builds
an n x n matrix: fits profile the likelihood from per-cluster sums, and the
REML projection P = V^-1 - V^-1 X (X'V^-1 X)^-1 X'V^-1 of the score and cusum
tests is kept factored at unit variance (see :class:`~covtest.spline_basis.FactoredStack`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data_io import Dataset, _normalize_cluster
from .errors import ConfigError, NumericalError
from .spline_basis import DesignMatrices, FactoredStack, _cluster_sums, _whiten, checked_qr, failed_cells

__all__ = [
    "NullFit",
    "OlsFits",
    "fit_null",
    "fit_ols",
    "fit_ols_columns",
    "fit_reml_random_intercept",
    "reml_projection",
]

# The random-intercept ratio is sought in [0, _RATIO_MAX], the REML root
# bracketed by steps of a factor _BRACKET_STEP and closed to _ROOT_TOL.
_RATIO_MAX = 1e8
_BRACKET_STEP = 10.0
_ROOT_TOL = 1e-14


def _sq_norms(A: np.ndarray) -> np.ndarray:
    """Squared norm of each column of a matrix or of a stack of them, each
    taken as one dot product: a one-column fit's is its vector's ``r @ r``."""
    cols = A.swapaxes(-1, -2)
    return (cols[..., None, :] @ cols[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class NullFit:
    """Fitted null polynomial model.

    ``ratio`` is sigma2_b / sigma2_eps, 0 for independent data, so the
    marginal covariance is sigma2_eps (I + ratio ZZ').
    """

    beta: np.ndarray
    sigma2_eps: float
    ratio: float
    fitted: np.ndarray
    residuals: np.ndarray
    cluster: np.ndarray | None

    @property
    def sigma2_b(self) -> float:
        return self.ratio * self.sigma2_eps

    @property
    def n(self) -> int:
        return self.fitted.shape[0]

    @property
    def n_units(self) -> int:
        if self.cluster is None:
            return self.n
        return int(self.cluster.max()) + 1

    @property
    def V(self) -> np.ndarray:
        """Dense n x n marginal covariance, built on demand for dense checks."""
        V = np.eye(self.n)
        if self.ratio > 0.0:
            V += self.ratio * (self.cluster[:, None] == self.cluster[None, :])
        return self.sigma2_eps * V


@dataclass(frozen=True)
class OlsFits:
    """OLS fits of a stack of responses: R x p x C coefficients, R x n x C
    fitted values and residuals, R x C error variances, and a map from each
    failed (replicate, column) cell to its error. A failed cell's residuals
    are 0 and its error variance 1, so arrays computed from it stay finite."""

    beta: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    sigma2: np.ndarray
    failed: dict

    def null_fit(self, r: int, c: int, cluster: np.ndarray | None = None) -> NullFit:
        """The NullFit of cell (r, c); its arrays are views of the stack's."""
        return NullFit(beta=self.beta[r, :, c], sigma2_eps=float(self.sigma2[r, c]), ratio=0.0,
                       fitted=self.fitted[r, :, c], residuals=self.residuals[r, :, c],
                       cluster=cluster)


def fit_ols(dataset: Dataset, design: DesignMatrices) -> NullFit:
    """Ordinary least squares fit of the null polynomial model: the
    one-replicate, one-column case of :func:`fit_ols_columns`, from the
    design's checked thin QR of X (``DesignMatrices.qr``).

    The error variance is the residual sum of squares over n - p, the REML
    estimate for p fixed effects. A perfect fit is rejected: every downstream
    statistic divides by the residual variance.
    """
    return _fit_one(dataset, design).null_fit(0, 0, dataset.cluster)


def _fit_one(dataset: Dataset, design: DesignMatrices) -> OlsFits:
    """The OLS fit of one response, a 1 x n x 1 stack; raises its error if it failed."""
    fits = fit_ols_columns(dataset.y[None, :, None], design.qr)
    if fits.failed:
        raise fits.failed[0, 0]
    return fits


def fit_null(dataset: Dataset, design: DesignMatrices) -> tuple[NullFit, FactoredStack]:
    """The null fit the score and cusum tests use, and its projection: the
    random-intercept REML fit when the data have two or more clusters and one
    of them two or more rows, else the OLS fit of independent rows, whose
    ``cluster`` is None. One cluster, or clusters of one row each, carry no
    intercept variance, and a one-cluster fit would resample one unit. The
    fit and the projection read the dataset's one sort of its cluster labels.
    At ratio 0 the projection's X, Q and R are the design's ``qr``'s arrays."""
    if dataset.cluster is not None and 2 <= dataset.n_units < dataset.n:
        fit, order = fit_reml_random_intercept(dataset, design), dataset.cluster_order
    else:
        fit, order = replace(fit_ols(dataset, design), cluster=None), None
    return fit, reml_projection(fit, design.qr, order)


def fit_ols_columns(Y: np.ndarray, factored: FactoredStack) -> OlsFits:
    """OLS fits of responses Y (R x n x C) under a stack of designs factored
    by :func:`~covtest.spline_basis.stacked_qr` (R x n x p), which is also
    the fits' projection at unit variance. A cell fails by
    :func:`~covtest.spline_basis.failed_cells`; its numbers do not depend on
    the other cells.
    """
    n, p = factored.X.shape[-2:]
    if Y.shape[1] != n:
        raise ConfigError(f"design has {n} rows but dataset has {Y.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):  # failed_cells reports an overflow
        beta = np.linalg.solve(factored.R, factored.Q.swapaxes(-1, -2) @ Y)
        fitted = factored.X @ beta
        resid = Y - fitted
        rss = _sq_norms(resid)
        bad, failed = failed_cells(factored, rss, _sq_norms(Y))
    if failed:
        resid = np.where(bad[:, None, :], 0.0, resid)
        rss = np.where(bad, n - p, rss)
    return OlsFits(beta=beta, fitted=fitted, residuals=resid, sigma2=rss / (n - p), failed=failed)


def fit_reml_random_intercept(dataset: Dataset, design: DesignMatrices) -> NullFit:
    """REML fit of the null model with a Gaussian random intercept per cluster.

    The ratio sigma2_b / sigma2_eps minimises the REML criterion
    f = (n - p) log rss + log|W| + log|X'W^-1 X| for W = I + ratio ZZ' and rss
    the GLS residual sum of squares. W^-1 subtracts g_i = ratio / (1 + ratio n_i)
    times each cluster sum, so with g_i' = (1 + ratio n_i)^-2 and s_i, c_i the
    cluster sums of X and of the GLS residuals, the REML score equation is
    f' = sum_i n_i / (1 + ratio n_i) - sum_i g_i' s_i'(X'W^-1 X)^-1 s_i
    - (n - p) sum_i g_i' c_i^2 / rss = 0 (Harville 1977): O(m p^2) per ratio
    after one O(n p) pass. The estimate is 0, the OLS fit, when f'(0) >= 0,
    else the root of f' (see :func:`_log_root`), or the cap 1e8 when f' < 0
    up to it. The sums are taken of the OLS residuals e rather than y (GLS of
    y is OLS plus GLS of e), which keeps rss free of cancellation.
    """
    if dataset.cluster is None:
        raise ConfigError("random-intercept fit requires cluster labels")
    cluster, order = dataset.cluster, dataset.cluster_order
    n_clusters = int(cluster.max()) + 1
    if n_clusters < 2:
        raise ConfigError(f"random-intercept fit needs >= 2 clusters, got {n_clusters}")
    ols = _fit_one(dataset, design)
    X, beta_ols, e = design.X, ols.beta[0, :, 0], ols.residuals[0, :, 0]
    n, p_fixed = X.shape

    sizes = np.bincount(cluster, minlength=n_clusters)
    sum_x = _cluster_sums(X, sizes, order)
    sum_e = _cluster_sums(e, sizes, order)
    xtx, xte, ete = X.T @ X, X.T @ e, float(e @ e)

    def gls_terms(ratio: float):
        """(X'W^-1 X)^-1, the GLS correction to the OLS beta, and r'W^-1 r."""
        g = ratio / (1.0 + ratio * sizes)
        xtwx_inv = np.linalg.inv(xtx - (sum_x * g[:, None]).T @ sum_x)
        xtwe = xte - sum_x.T @ (g * sum_e)
        delta = xtwx_inv @ xtwe
        rss = ete - float(g @ sum_e**2) - float(xtwe @ delta)
        return xtwx_inv, delta, rss

    def slope(ratio: float) -> float:
        """f'(ratio) = T - Q, the trace term less the residual term, relative
        to |T| + Q: of the sign of f' and near linear in log ratio at the root."""
        xtwx_inv, delta, rss = gls_terms(ratio)
        w = 1.0 / (1.0 + ratio * sizes)
        lev = ((sum_x @ xtwx_inv) * sum_x).sum(axis=1)
        resid_sums = sum_e - sum_x @ delta
        trace = float(sizes @ w) - float(w**2 @ lev)
        quad = (n - p_fixed) * float(w**2 @ resid_sums**2) / rss if rss > 0.0 else math.inf
        scale = abs(trace) + quad
        value = (trace - quad) / scale if scale > 0.0 else 0.0
        if not math.isfinite(value):
            raise NumericalError(
                f"restricted likelihood slope not finite at variance ratio {ratio:.3e}"
            )
        return value

    if sizes.max() == 1:
        warnings.warn(
            "every cluster has a single row; the intercept variance is "
            "unidentifiable and is set to 0",
            stacklevel=2,
        )
        ratio_hat = 0.0
    elif slope(0.0) >= 0.0:
        ratio_hat = 0.0
    else:  # bracket the root by factors of 10 from 1; the cap when f' < 0 up to it
        lo = hi = 1.0
        f_lo = f_hi = slope(1.0)
        while f_lo >= 0.0:
            hi, f_hi, lo = lo, f_lo, lo / _BRACKET_STEP
            f_lo = slope(lo)
        while f_hi < 0.0 and hi < _RATIO_MAX:
            lo, f_lo, hi = hi, f_hi, min(hi * _BRACKET_STEP, _RATIO_MAX)
            f_hi = slope(hi)
        ratio_hat = hi if f_hi < 0.0 else _log_root(slope, lo, hi, f_lo, f_hi)
    beta = beta_ols + (gls_terms(ratio_hat)[1] if ratio_hat > 0.0 else 0.0)
    fitted = X @ beta
    resid = dataset.y - fitted
    with np.errstate(over="ignore", invalid="ignore"):  # failed_cells reports an overflow
        white = _whiten(resid, ratio_hat, cluster, sizes, order)
        rss = white @ white
        failed = failed_cells(design.qr, *np.reshape([rss, dataset.y @ dataset.y], (2, 1, 1)))[1]
    if failed:
        raise failed[0, 0]
    return NullFit(beta=beta, sigma2_eps=float(rss) / (n - p_fixed), ratio=ratio_hat, fitted=fitted,
                   residuals=resid, cluster=cluster)


def _log_root(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of f in (lo, hi], f(lo) < 0 <= f(hi), by regula falsi in log x with
    the Illinois rule, bisecting when a step leaves the bracket, until |f| or the
    bracket width (relative beyond |log x| = 1) is at most _ROOT_TOL."""
    a, b, kept = math.log(lo), math.log(hi), 0
    x, fx = b, f_hi
    while abs(fx) > _ROOT_TOL and b - a > _ROOT_TOL * max(1.0, abs(b)):
        x = b - f_hi * (b - a) / (f_hi - f_lo)
        if not a < x < b:
            x = 0.5 * (a + b)
        fx = f(math.exp(x))
        if fx < 0.0:
            a, f_lo, f_hi, kept = x, fx, f_hi * (0.5 if kept > 0 else 1.0), 1
        else:
            b, f_hi, f_lo, kept = x, fx, f_lo * (0.5 if kept < 0 else 1.0), -1
    return math.exp(x)


def reml_projection(
    fit: NullFit, X: np.ndarray | FactoredStack, order: np.ndarray | None = None
) -> FactoredStack:
    """P = V^-1 - V^-1 X (X'V^-1 X)^-1 X'V^-1 for the fit's V = I + ratio ZZ', at unit variance.

    Symmetric, annihilates the columns of X, and satisfies P V P = P. It is
    held as the one-design record of the checked thin QR of V^-1/2 X
    (:func:`~covtest.spline_basis.checked_qr`, which raises the ModelError of
    an X that cannot be fit), carrying the raw X, V's layout and the fit's
    variance. ``X`` is the design or its checked QR (``DesignMatrices.qr``).
    At ratio 0, V^-1/2 X = X: the projection is X's own QR, the given record's
    arrays themselves. ``order`` is the stable argsort of ``fit.cluster`` when
    the caller holds it (``Dataset.cluster_order``, as :func:`fit_null` passes
    it); else it is taken here.
    """
    factored, X = (X, X.X[0]) if isinstance(X, FactoredStack) else (None, np.asarray(X, dtype=float))
    if X.shape[0] != fit.n:
        raise ConfigError(f"design has {X.shape[0]} rows but the fit has {fit.n}")
    if fit.ratio == 0.0:
        return replace(checked_qr(X) if factored is None else factored, sigma2=fit.sigma2_eps)
    if fit.cluster is None:
        raise ConfigError("a positive intercept variance needs cluster labels")
    cluster = _normalize_cluster(np.asarray(fit.cluster))
    order = np.argsort(cluster, kind="stable") if order is None else order
    sizes = np.bincount(cluster)
    # V's eigenvalues are 1 + ratio n_i and 1.
    cond = 1.0 + fit.ratio * float(sizes.max())
    if cond > 1e12:
        raise NumericalError(f"fitted covariance is ill-conditioned (cond = {cond:.3e})")
    return replace(checked_qr(_whiten(X, fit.ratio, cluster, sizes, order)), X=X[None], ratio=fit.ratio,
                   cluster=cluster, sizes=sizes, order=order, sigma2=fit.sigma2_eps)
