"""Reference formulas for the null fit, projection, kernel, score, cusum and LRT sweep.

The package keeps V = sigma2 (I + ratio ZZ'), the REML projection and the
smoother kernels in factored form and never builds an n x n matrix for them.
These are the textbook dense versions, kept here as test oracles only. The
LRT profile sweep is also kept in its written-out form, numerator over
denominator, which the package's scaled-energy sweep must match, and the
score test's chi-square tail in its scalar form, one element at a time, which
the package's array recurrence must match bit for bit.
"""

import math

import numpy as np

from covtest.rng import chunked_streams
from covtest.score_test import _EPS, _FLOOR, _MAX_TERMS


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


def dense_fit(y, X, cluster, ratio):
    """GLS fit at a fixed variance ratio: (beta, REML sigma2_eps, residuals)."""
    n, p = X.shape
    W_inv = np.linalg.inv(intercept_covariance(cluster, 1.0, ratio))
    beta, r = gls(y, X, W_inv)
    return beta, float(r @ W_inv @ r) / (n - p), r


def _cholesky(A):
    """Lower Cholesky factor, written out so that it runs in any float dtype."""
    L = np.zeros_like(A)
    for j in range(A.shape[0]):
        L[j, j] = np.sqrt(A[j, j] - L[j, :j] @ L[j, :j])
        L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def _cho_solve(L, b):
    """A^-1 b for A = L L' by forward and back substitution."""
    x = np.array(b, dtype=L.dtype)
    for i in range(L.shape[0]):
        x[i] = (x[i] - L[i, :i] @ x[:i]) / L[i, i]
    for i in range(L.shape[0] - 1, -1, -1):
        x[i] = (x[i] - L[i + 1 :, i] @ x[i + 1 :]) / L[i, i]
    return x


def extended_dense_profile(y, X, B, grid_values, kind, h):
    """The LRT (null: X without its last h columns) or RLRT profile at each
    grid value from two dense model fits, V = I + lam BB', with BB' and the
    whole GLS and log-determinant chain in extended precision (np.longdouble),
    as in the acceptance suite's extended path: its own error stays below
    1e-10 where V has condition number ~ 1e9 at the top of the grid."""
    ld = np.longdouble
    m, p = X.shape
    y, X, B = (np.asarray(a, dtype=ld) for a in (y, X, B))
    gram = B @ B.T
    rss, ldv, ldx = np.empty((3, len(grid_values)), dtype=ld)
    for g, lam in enumerate(grid_values):
        L = _cholesky(np.eye(m, dtype=ld) + ld(lam) * gram)
        ViX = _cho_solve(L, X)
        Lx = _cholesky(X.T @ ViX)
        r = y - X @ _cho_solve(Lx, ViX.T @ y)
        rss[g] = r @ _cho_solve(L, r)
        ldv[g], ldx[g] = 2 * np.log(np.diag(L)).sum(), 2 * np.log(np.diag(Lx)).sum()
    if kind == "lrt":
        Xr = X[:, :p - h]
        r0 = y - Xr @ _cho_solve(_cholesky(Xr.T @ Xr), Xr.T @ y)
        return m * np.log((r0 @ r0) / rss) - ldv
    return (m - p) * np.log(rss[0] / rss) - (ldv + ldx - ldx[0])


def reml_slope_terms(y, X, cluster, ratio, dtype=np.longdouble):
    """The two terms of the slope of the REML criterion in the ratio.

    For f = (n - p) log(y'P_W y) + log|W| + log|X'W^-1 X|, W = I + ratio ZZ'
    and P_W = W^-1 - W^-1 X (X'W^-1 X)^-1 X'W^-1, the slope is
    f' = tr(P_W ZZ') - (n - p) y'P_W ZZ'P_W y / y'P_W y; the two terms are
    returned in that order. Dense, by Cholesky, in ``dtype`` throughout.
    """
    y, X = np.asarray(y, dtype=dtype), np.asarray(X, dtype=dtype)
    n, p = X.shape
    cluster = np.asarray(cluster)
    Z = (cluster[:, None] == np.unique(cluster)[None, :]).astype(dtype)
    L = _cholesky(np.eye(n, dtype=dtype) + dtype(ratio) * (Z @ Z.T))
    WiX = _cho_solve(L, X)
    Lx = _cholesky(X.T @ WiX)

    def project(a):
        Wia = _cho_solve(L, a)
        return Wia - WiX @ _cho_solve(Lx, X.T @ Wia)

    Py, PZ = project(y), project(Z)
    zPy = Z.T @ Py
    return (Z * PZ).sum(), (n - p) * (zPy @ zPy) / (y @ Py)


def reml_root(y, X, cluster, rtol=1e-14):
    """Extended-precision REML ratio: 0 when the slope at 0 is >= 0, else the
    root of the slope in [1e-12, 1e8], bisected in log ratio."""

    def slope(ratio):
        trace, quad = reml_slope_terms(y, X, cluster, ratio)
        return trace - quad

    if slope(0.0) >= 0:
        return 0.0
    lo, hi = np.longdouble(1e-12), np.longdouble(1e8)
    assert slope(lo) < 0 <= slope(hi), "REML root outside [1e-12, 1e8]"
    while hi - lo > rtol * hi:
        mid = np.sqrt(lo * hi)
        if slope(mid) < 0:
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(lo * hi))


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


def dense_multiplier_processes(fit, X, ordering, n_resamples, seed):
    """(points, processes): multiplier-resampled cusum paths by the dense map.

    The unit-level N(0, 1) draws are the package's, one generator per chunk of
    256 resamples from ``chunked_streams``. Each perturbed residual vector goes
    through the n x n residual-forming map I - X (X'V^-1 X)^-1 X'V^-1, is
    summed in ``ordering`` and read where each run of tied values ends, and is
    scaled by the square root of the number of units.
    """
    n = fit.n
    unit = np.arange(n) if fit.cluster is None else np.asarray(fit.cluster)
    m = int(unit.max()) + 1
    V_inv = np.linalg.inv(fit.V)
    resid_form = np.eye(n) - X @ np.linalg.solve(X.T @ V_inv @ X, X.T @ V_inv)
    draws = np.vstack([
        rng.standard_normal((stop - start, m))
        for start, stop, rng in chunked_streams(seed, n_resamples, 256)
    ])
    mapped = (draws[:, unit] * fit.residuals) @ resid_form.T
    ordering = np.asarray(ordering, dtype=float)
    points, counts = np.unique(ordering, return_counts=True)
    sums = np.cumsum(mapped[:, np.argsort(ordering, kind="stable")], axis=1)
    return points, sums[:, np.cumsum(counts) - 1] / math.sqrt(m)


def gamma_q(a: float, x: float, max_terms: int = _MAX_TERMS) -> float:
    """Regularised upper incomplete gamma Q(a, x) for a > 0, x >= 0, one pair at a time.

    A power series for P = 1 - Q below x = a + 1, a continued fraction for Q
    above it (modified Lentz), each scaled by x^a e^-x / Gamma(a). NaN for a
    non-finite argument or when neither converges within ``max_terms`` terms.
    """
    if not (math.isfinite(a) and math.isfinite(x)):
        return math.nan
    if x <= 0.0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        for k in range(1, max_terms):
            term *= x / (a + k)
            total += term
            if term < _EPS * total:
                return 1.0 - front * total
    else:
        b = x + 1.0 - a
        c, d = 1.0 / _FLOOR, 1.0 / b
        h = d
        for k in range(1, max_terms):
            an = k * (a - k)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) > _FLOOR else _FLOOR)
            c = b + an / c
            c = c if abs(c) > _FLOOR else _FLOOR
            h *= d * c
            if abs(d * c - 1.0) <= _EPS:
                return front * h
    return math.nan


def natural_spline_gram(u, degree=1):
    """Covariance kernel of a degree-d integrated Wiener process on [0, 1].

    Entry (i, j) is the closed form of
    ``int_0^min(u_i, u_j) (u_i - w)^d (u_j - w)^d dw / (d!)^2``.
    For the linearity test (d = 1) this is the familiar cubic-spline kernel
    ``s*t*min - (s + t)*min^2/2 + min^3/3``.
    """
    u = np.asarray(u, dtype=float)
    lo = np.minimum.outer(u, u)
    gap = np.maximum.outer(u, u) - lo
    out = np.zeros_like(lo)
    # For a <= b: int_0^a (a-w)^d (b-w)^d dw expanded around (a - w).
    for j in range(degree + 1):
        out += math.comb(degree, j) * gap ** (degree - j) * lo ** (degree + j + 1) / (degree + j + 1)
    out /= math.factorial(degree) ** 2
    return 0.5 * (out + out.T)


def log1p_ratio_sweep(coord_sq, tail, values, proj, mult, pen):
    """Grid maximum of mult * log1p(num / den) - pen, the profile with its numerator
    num(lam) = sum lam s / (1 + lam s) w and denominator den(lam) = sum w / (1 + lam s)
    + tail written out. ``coord_sq`` is (R x) rows x K, ``tail`` (R x) rows, ``proj``
    (R x) K and ``pen`` (R x) G. Returns the index of the maximum, its value and den there."""
    scaled = values[:, None] * proj[..., None, :]                       # (R x) G x K
    num = coord_sq @ (scaled / (1.0 + scaled)).swapaxes(-1, -2)
    den = coord_sq @ (1.0 / (1.0 + scaled)).swapaxes(-1, -2) + tail[..., None]
    path = mult * np.log1p(num / den) - pen[..., None, :]
    best = path.argmax(axis=-1)
    at = lambda a: np.take_along_axis(a, best[..., None], axis=-1)[..., 0]
    return best, at(path), at(den)


def squared_normals(rng, df, size):
    """chi-square(df) draws of shape ``size`` as the package's sampler draws them
    (sampler version 3): each the sum of df squared standard normals."""
    z = rng.standard_normal((*size, df))
    return (z * z).sum(axis=-1)


def gamma_chisquare(rng, df, size):
    """chi-square(df) draws by numpy's gamma-based sampler, the recipe of
    sampler version 2 for the unit-df and h-df terms."""
    return rng.chisquare(df, size)


def log1p_ratio_null(cache, kind, h, values, n_sims, seed, chunk=1024, draw=squared_normals):
    """Null samples by :func:`log1p_ratio_sweep`: per chunk stream K unit-df draws, one
    chi-square tail draw and, for the LRT with h > 0, one h-df draw whose term
    n log1p(extra / rss(0)) is added; clipped at 0. ``draw(rng, df, size)`` draws the
    unit-df and h-df terms; the default gives the package's draws."""
    mult, eigs = (cache.n_obs, cache.raw_eigs) if kind == "lrt" else (cache.complement_dim, cache.proj_eigs)
    pen = np.log1p(values[:, None] * eigs).sum(axis=1)
    samples = []
    for start, stop, rng in chunked_streams(seed, n_sims, chunk):
        w = draw(rng, 1, (stop - start, cache.n_knots))
        tail = rng.chisquare(cache.complement_dim - cache.n_knots, size=stop - start)
        stat = log1p_ratio_sweep(w, tail, values, cache.proj_eigs, mult, pen)[1]
        if kind == "lrt" and h > 0:
            extra = draw(rng, h, (stop - start,))
            stat = stat + cache.n_obs * np.log1p(extra / (w.sum(axis=1) + tail))
        samples.append(stat)
    return np.clip(np.concatenate(samples), 0.0, None)


def csv_load(path, columns):
    """The data-CSV reader as the csv module and Python's ``float`` define it,
    one ``str`` per cell: the reference that ``load_csv``'s numpy read must
    match, bit for bit or error for error. Data row r is the r-th line after
    the header, blank lines included."""
    import csv
    from pathlib import Path

    from covtest import ConfigError, DataError, Dataset

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"input file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            top = last = reader.line_num
            rows = []
            for row in reader:
                if row:
                    rows.append((last + 1 - top, row))
                last = reader.line_num
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: file is empty")
    header = [h.strip() for h in header]
    repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
    if repeated is not None:
        raise ConfigError(f"{path}: column {repeated!r} appears more than once in the header")

    def col_index(name):
        try:
            return header.index(name)
        except ValueError:
            raise ConfigError(f"{path}: column {name!r} not found in header {header}") from None

    iy, it = col_index(columns.y), col_index(columns.t)
    icl = col_index(columns.cluster) if columns.cluster is not None else None
    if columns.s is not None:
        i_s = [col_index(name) for name in columns.s]
    else:
        i_s = [i for i in range(len(header)) if i not in {iy, it, icl}]
    used = [iy, it, *i_s, *([] if icl is None else [icl])]
    shared = next((i for k, i in enumerate(used) if i in used[:k]), None)
    if shared is not None:
        raise ConfigError(f"{path}: column {header[shared]!r} is given more than one of the roles "
                          "y, t, s and cluster")
    if not rows:
        raise DataError(f"{path}: no data rows")
    cols = [iy, it, *i_s]
    for r, row in rows:
        if len(row) != len(header):
            raise DataError(f"{path}: data row {r} has {len(row)} cells, expected {len(header)}")
        for idx in cols:
            cell = row[idx].strip()
            try:
                v = float(cell)
            except ValueError:
                raise DataError(f"{path}: non-numeric value {cell!r} in column {header[idx]!r} "
                                f"at data row {r}") from None
            if not math.isfinite(v):
                raise DataError(f"{path}: non-finite value {cell!r} in column {header[idx]!r} "
                                f"at data row {r}")
        if icl is not None and not row[icl].strip():
            raise DataError(f"{path}: empty value in column {header[icl]!r} at data row {r}")
    values = np.array([[float(row[i].strip()) for _, row in rows] for i in cols])
    cluster = None if icl is None else first_appearance([row[icl].strip() for _, row in rows])
    return Dataset(y=values[0], S=values[2:].T, t=values[1], cluster=cluster)


def first_appearance(labels):
    """Labels remapped to 0..m-1 in first-appearance order, one dict lookup per label."""
    index = {}
    return np.array([index.setdefault(label, len(index)) for label in labels], dtype=np.int64)
