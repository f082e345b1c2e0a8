"""Null-model fitting: OLS for independent data, REML for random intercepts.

Under the null the marginal covariance is V = sigma2 (I + ratio ZZ') with Z
the cluster indicators (ratio = 0 for independent data). Nothing here builds
an n x n matrix: fits profile the likelihood from per-cluster sums, and the
REML projection P = V^-1 - V^-1 X (X'V^-1 X)^-1 X'V^-1 used by the score and
cumulative-sum tests is kept in factored form (see :class:`RemlProjection`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data_io import Dataset
from .errors import ConfigError, DegenerateFitError, ModelError, NumericalError
from .spline_basis import DesignMatrices

__all__ = [
    "NullFit",
    "RemlProjection",
    "fit_ols",
    "fit_reml_random_intercept",
    "reml_projection",
]

# Separates genuine near-zero noise (sigma ~ 1e-12 gives rss/yty ~ 1e-24)
# from pure float roundoff of an exact fit (~ (eps * cond)^2 ~ 1e-27).
_PERFECT_FIT_REL = 1e-25


def _cluster_sums(a: np.ndarray, cluster: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sums of the rows of ``a`` within each cluster 0..m-1 (none empty)."""
    order = np.argsort(cluster, kind="stable")
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return np.add.reduceat(a[order], starts, axis=0)


def _whiten(
    a, sigma2: float, ratio: float, cluster: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """V^-1/2 a along axis 0: (a - d[cluster] * mean_cluster(a)) / sigma.

    On a cluster of size n_i, I + ratio 11' has eigenvalue 1 + ratio n_i
    along 1 and 1 elsewhere, so its inverse square root shrinks the cluster
    mean by d_i = 1 - (1 + ratio n_i)^-1/2. Every d_i is 0 when ratio = 0.
    """
    out = np.asarray(a, dtype=float) / math.sqrt(sigma2)
    if ratio > 0.0:
        shrink = (1.0 - 1.0 / np.sqrt(1.0 + ratio * sizes)) / sizes
        sums = _cluster_sums(out, cluster, sizes)
        out -= (sums * shrink.reshape((-1,) + (1,) * (out.ndim - 1)))[cluster]
    return out


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
    method: str

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
class RemlProjection:
    """REML projection P = V^-1/2 (I - QQ') V^-1/2 in factored form.

    ``Q R`` is the thin QR of V^-1/2 X for V = sigma2 (I + ratio ZZ'), so P is
    symmetric, annihilates the columns of X and satisfies P V P = P. Applying
    V^-1/2 or the residual-forming map costs O(n p) per column.
    """

    sigma2: float
    ratio: float
    cluster: np.ndarray
    sizes: np.ndarray
    X: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def whiten(self, a) -> np.ndarray:
        """V^-1/2 a for a vector or a matrix with one row per observation."""
        return _whiten(a, self.sigma2, self.ratio, self.cluster, self.sizes)

    def residual_map(self, G: np.ndarray) -> np.ndarray:
        """Rows of G through I - X (X'V^-1 X)^-1 X'V^-1, i.e. G - (R^-1 Q'V^-1/2 G')' X'."""
        coef = np.linalg.solve(self.R, self.Q.T @ self.whiten(G.T))
        return G - coef.T @ self.X.T

    @property
    def P(self) -> np.ndarray:
        """Dense n x n projection, built on demand for dense checks."""
        root = self.whiten(np.eye(self.n))  # V^-1/2, symmetric
        rq = root @ self.Q
        P = root @ root - rq @ rq.T
        return 0.5 * (P + P.T)


def fit_ols(dataset: Dataset, design: DesignMatrices, variance: str = "reml") -> NullFit:
    """Ordinary least squares fit of the null polynomial model.

    The error variance uses the REML-type divisor n - p - d - 1 by default
    (``variance="ml"`` divides by n instead). A perfect fit is rejected:
    every downstream statistic divides by the residual variance.
    """
    X = dataset_design_matrix(dataset, design)
    y = dataset.y
    n, p_fixed = X.shape
    if n <= p_fixed:
        raise ModelError(f"need n > {p_fixed} rows to fit {p_fixed} coefficients, got n = {n}")
    if variance not in ("reml", "ml"):
        raise ConfigError(f"variance must be 'reml' or 'ml', got {variance!r}")
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    fitted = X @ beta
    resid = y - fitted
    rss = float(resid @ resid)
    if rss <= _PERFECT_FIT_REL * float(y @ y):
        raise DegenerateFitError(
            "residuals are numerically zero; error variance is not estimable"
        )
    return NullFit(
        beta=beta,
        sigma2_eps=rss / (n - p_fixed if variance == "reml" else n),
        ratio=0.0,
        fitted=fitted,
        residuals=resid,
        cluster=dataset.cluster,
        method="ols",
    )


def dataset_design_matrix(dataset: Dataset, design: DesignMatrices) -> np.ndarray:
    if design.X.shape[0] != dataset.n:
        raise ConfigError(
            f"design has {design.X.shape[0]} rows but dataset has {dataset.n}"
        )
    return design.X


def _golden_section(fun, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200):
    """Minimise a unimodal scalar function on [lo, hi] by golden section."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(max_iter):
        if b - a < tol * (1.0 + abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    x = c if fc < fd else d
    return x, min(fc, fd)


def fit_reml_random_intercept(
    dataset: Dataset, design: DesignMatrices, variance: str = "reml"
) -> NullFit:
    """REML fit of the null model with a Gaussian random intercept per cluster.

    The variance pair is found by profiling the restricted likelihood over the
    ratio sigma2_b / sigma2_eps: a log-spaced grid over [1e-8, 1e8] followed by
    golden-section refinement. The boundary estimate sigma2_b = 0 is a valid
    result, not an error. ``variance="ml"`` maximises the unrestricted
    likelihood instead.

    With W = I + ratio ZZ' and g_i = ratio / (1 + ratio n_i), W^-1 subtracts
    g_i times the cluster sum, so X'W^-1 X = X'X - sum_i g_i s_i s_i' over the
    cluster sums s_i of X, and log|W| = sum_i log(1 + ratio n_i). Each ratio
    thus costs O(m p^2) after one O(n p) pass. The sums are taken of the OLS
    residuals e rather than y (GLS of y is OLS plus GLS of e), which keeps the
    restricted residual sum of squares free of cancellation.
    """
    if dataset.cluster is None:
        raise ConfigError("random-intercept fit requires cluster labels")
    if variance not in ("reml", "ml"):
        raise ConfigError(f"variance must be 'reml' or 'ml', got {variance!r}")
    X = dataset_design_matrix(dataset, design)
    y = dataset.y
    n, p_fixed = X.shape
    cluster = dataset.cluster
    n_clusters = int(cluster.max()) + 1
    if n_clusters < 2:
        raise ConfigError(f"random-intercept fit needs >= 2 clusters, got {n_clusters}")
    if n <= p_fixed:
        raise ModelError(f"need n > {p_fixed} rows to fit {p_fixed} coefficients, got n = {n}")

    sizes = np.bincount(cluster, minlength=n_clusters)
    beta_ols, *_ = np.linalg.lstsq(X, y, rcond=None)
    e = y - X @ beta_ols
    sum_x = _cluster_sums(X, cluster, sizes)
    sum_e = _cluster_sums(e, cluster, sizes)
    xtx, xte, ete = X.T @ X, X.T @ e, float(e @ e)

    def gls_terms(ratio: float):
        """X'W^-1 X, the GLS correction to the OLS beta, and r'W^-1 r."""
        g = ratio / (1.0 + ratio * sizes)
        xtwx = xtx - (sum_x * g[:, None]).T @ sum_x
        xtwe = xte - sum_x.T @ (g * sum_e)
        delta = np.linalg.solve(xtwx, xtwe)
        rss = ete - float(g @ sum_e**2) - float(xtwe @ delta)
        return xtwx, delta, rss

    if sizes.max() == 1:
        warnings.warn(
            "every cluster has a single row; the intercept variance is "
            "unidentifiable and is set to 0",
            stacklevel=2,
        )
        ratio_hat = 0.0
    else:

        def neg_profile(log_ratio: float) -> float:
            ratio = math.exp(log_ratio)
            xtwx, _, rss = gls_terms(ratio)
            logdet_w = float(np.log1p(ratio * sizes).sum())
            if variance == "reml":
                sign, logdet_x = np.linalg.slogdet(xtwx)
                crit = (n - p_fixed) * math.log(rss) + logdet_w + logdet_x
            else:
                crit = n * math.log(rss) + logdet_w
            if not math.isfinite(crit):
                raise NumericalError(
                    f"restricted likelihood not finite at variance ratio {ratio:.3e}"
                )
            return 0.5 * crit

        grid = np.log(np.logspace(-8, 8, 81))
        values = np.array([neg_profile(g) for g in grid])
        best = int(np.argmin(values))
        corner = neg_profile(math.log(1e-12))  # effectively ratio = 0
        if corner <= values[best]:
            ratio_hat = 0.0
        else:
            lo = grid[max(best - 1, 0)]
            hi = grid[min(best + 1, grid.size - 1)]
            log_ratio, refined = _golden_section(neg_profile, lo, hi)
            ratio_hat = math.exp(log_ratio) if refined < corner else 0.0

    _, delta, _ = gls_terms(ratio_hat)
    beta = beta_ols + delta
    fitted = X @ beta
    resid = y - fitted
    white = _whiten(resid, 1.0, ratio_hat, cluster, sizes)
    rss = float(white @ white)
    if rss <= _PERFECT_FIT_REL * float(y @ y):
        raise DegenerateFitError(
            "residuals are numerically zero; error variance is not estimable"
        )
    return NullFit(
        beta=beta,
        sigma2_eps=rss / ((n - p_fixed) if variance == "reml" else n),
        ratio=ratio_hat,
        fitted=fitted,
        residuals=resid,
        cluster=cluster,
        method="reml-random-intercept",
    )


def reml_projection(fit: NullFit, X: np.ndarray) -> RemlProjection:
    """P = V^-1 - V^-1 X (X'V^-1 X)^-1 X'V^-1 for the fitted covariance.

    Symmetric, annihilates the columns of X, and satisfies P V P = P. Only the
    thin QR of V^-1/2 X is computed; see :class:`RemlProjection`.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] != fit.n:
        raise ConfigError(f"design has {X.shape[0]} rows but the fit has {fit.n}")
    if fit.ratio > 0.0 and fit.cluster is None:
        raise ConfigError("a positive intercept variance needs cluster labels")
    if fit.cluster is None:
        cluster = np.arange(fit.n)
    else:
        _, cluster = np.unique(fit.cluster, return_inverse=True)
    sizes = np.bincount(cluster)
    # V's eigenvalues are sigma2 (1 + ratio n_i) and sigma2.
    cond = 1.0 + fit.ratio * float(sizes.max())
    if cond > 1e12:
        raise NumericalError(f"fitted covariance is ill-conditioned (cond = {cond:.3e})")
    Q, R = np.linalg.qr(_whiten(X, fit.sigma2_eps, fit.ratio, cluster, sizes))
    return RemlProjection(
        sigma2=fit.sigma2_eps, ratio=fit.ratio, cluster=cluster, sizes=sizes, X=X, Q=Q, R=R
    )
