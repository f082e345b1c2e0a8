"""Dense n x n reference formulas for the null fit, projection, score and cusum.

The package keeps V = sigma2 (I + ratio ZZ') and the REML projection in
factored form and never builds an n x n matrix for them. These are the
textbook dense versions, kept here as test oracles only.
"""

import math

import numpy as np


def intercept_covariance(cluster, sigma2, ratio):
    """sigma2 (I + ratio ZZ') for cluster labels (``None``: independent rows)."""
    n = len(cluster)
    W = np.eye(n)
    if ratio:
        cluster = np.asarray(cluster)
        W += ratio * (cluster[:, None] == cluster[None, :])
    return sigma2 * W


def gls(y, X, V_inv):
    """Generalised least squares: (beta, residuals)."""
    XtVi = X.T @ V_inv
    beta = np.linalg.solve(XtVi @ X, XtVi @ y)
    return beta, y - X @ beta


def marginal_loglik(y, X, V, beta):
    """Gaussian marginal log-likelihood at (beta, V)."""
    n = y.shape[0]
    r = y - X @ beta
    sign, logdet = np.linalg.slogdet(V)
    assert sign > 0, "covariance matrix is not positive definite"
    return float(-0.5 * (n * math.log(2 * math.pi) + logdet + r @ np.linalg.solve(V, r)))


def restricted_loglik(y, X, V):
    """Restricted (REML) log-likelihood at V, with fixed effects profiled out."""
    n, p = X.shape
    sign, logdet = np.linalg.slogdet(V)
    assert sign > 0, "covariance matrix is not positive definite"
    V_inv = np.linalg.inv(V)
    beta, r = gls(y, X, V_inv)
    s2, logdet_x = np.linalg.slogdet(X.T @ V_inv @ X)
    assert s2 > 0, "X'V^-1 X is singular"
    quad = r @ V_inv @ r
    return float(-0.5 * ((n - p) * math.log(2 * math.pi) + logdet + logdet_x + quad))


def dense_fit(y, X, cluster, ratio, variance="reml"):
    """GLS fit at a fixed variance ratio: (beta, sigma2_eps, residuals)."""
    n, p = X.shape
    W_inv = np.linalg.inv(intercept_covariance(cluster, 1.0, ratio))
    beta, r = gls(y, X, W_inv)
    return beta, float(r @ W_inv @ r) / ((n - p) if variance == "reml" else n), r


def dense_projection(V, X):
    """P = V^-1 - V^-1 X (X'V^-1 X)^-1 X'V^-1."""
    V_inv = np.linalg.inv(V)
    ViX = V_inv @ X
    P = V_inv - ViX @ np.linalg.solve(X.T @ ViX, ViX.T)
    return 0.5 * (P + P.T)


def dense_score(V, P, M, residuals):
    """(u_quad, tr(PM)/2, tr((PM)^2)/2) of the variance-component score test."""
    v = np.linalg.solve(V, residuals)
    PM = P @ M
    return 0.5 * float(v @ M @ v), 0.5 * float(np.trace(PM)), 0.5 * float((PM * PM.T).sum())


class DenseResidualMap:
    """Stand-in projection whose residual-forming map is the dense V P."""

    def __init__(self, V, P):
        self.resid_form = V @ P  # I - X (X'V^-1 X)^-1 X'V^-1

    def residual_map(self, G):
        return G @ self.resid_form.T
