"""Exact likelihood-ratio tests for a zero spline variance component.

Two routes to the same statistics:

* the *dense* route fits the null and alternative models directly by
  profiled (restricted) likelihood over a smoothing-ratio grid -- used for
  observed statistics;
* the *spectral* route expresses everything through the eigenvalues of the
  two K x K spline Gram matrices and simulates the exact finite-sample null
  distribution from independent chi-square draws -- used for the null
  sampler.

Their agreement is a tested invariant, not an assumption.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
import zipfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data_io import Dataset
from .errors import ConfigError, DegenerateFitError, ModelError, NumericalError
from .rng import SeedLike, chunked_streams
from .spline_basis import DesignMatrices

__all__ = [
    "SpectralCache",
    "LambdaGrid",
    "NullDistribution",
    "TestResult",
    "ProfileSolver",
    "spectral_decompose",
    "spectral_coordinates",
    "default_lambda_grid",
    "profile_terms",
    "simulate_null",
    "simulate_null_cached",
    "observed_statistic",
    "p_value",
    "attach_pvalue",
    "save_null_distribution",
    "load_null_distribution",
]

_EIG_CLIP_REL = 1e-12
_ZERO_STAT = 1e-12
_SIM_CHUNK = 1024
_PERFECT_REL = 1e-25


def _seed_repr(seed: SeedLike):
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return [int(s) for s in seed]


@dataclass(frozen=True)
class SpectralCache:
    """Eigenvalues driving the exact null sampler.

    ``proj_eigs`` are the K eigenvalues (descending) of B'P0B with P0 the
    projection off the fixed-effects columns; ``raw_eigs`` those of B'B.
    Projection shrinks the quadratic form, so proj_eigs <= raw_eigs holds
    elementwise up to eigenvalue reordering.
    """

    proj_eigs: np.ndarray
    raw_eigs: np.ndarray
    n_obs: int
    n_cov: int
    degree: int
    n_knots: int

    @property
    def complement_dim(self) -> int:
        """Dimension of the residual space: n - p - d - 1."""
        return self.n_obs - self.n_cov - self.degree - 1

    def fingerprint(self) -> dict:
        return {
            "n_obs": self.n_obs,
            "n_cov": self.n_cov,
            "degree": self.degree,
            "n_knots": self.n_knots,
            "proj_eigs_sha": _sha(self.proj_eigs),
            "raw_eigs_sha": _sha(self.raw_eigs),
        }


@dataclass(frozen=True)
class LambdaGrid:
    """Ascending grid of smoothing-ratio values starting at 0."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size < 1 or v[0] != 0.0:
            raise ConfigError("lambda grid must start at 0")
        if np.any(np.diff(v) <= 0):
            raise ConfigError("lambda grid must be strictly increasing")
        object.__setattr__(self, "values", v)

    def sha(self) -> str:
        return _sha(self.values)


@dataclass(frozen=True)
class NullDistribution:
    """Simulated finite-sample null distribution of an LRT/RLRT statistic."""

    samples: np.ndarray
    kind: str
    h: int
    zero_mass_fraction: float
    provenance: dict

    @property
    def n_sims(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class TestResult:
    """Observed statistic plus, once attached, its simulated p-value."""

    method: str
    statistic: float
    lambda_hat: float
    nuisance: dict
    p_value: float | None = None
    null_provenance: dict | None = None
    clamped: bool = False


class ProfileTerms(NamedTuple):
    num: float
    den: float
    gain: float


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()[:16]


def _eig_desc_clipped(gram: np.ndarray) -> np.ndarray:
    try:
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    eigs = eigs[::-1].copy()
    top = eigs[0] if eigs.size else 0.0
    eigs[eigs < _EIG_CLIP_REL * max(top, 0.0)] = 0.0
    return eigs


def spectral_decompose(design: DesignMatrices) -> SpectralCache:
    """Eigenvalues of B'P0B and B'B for the exact null sampler."""
    X, B = design.X, design.B
    if B.shape[1] < 1:
        raise ConfigError("spectral decomposition needs at least one knot")
    Q, _ = np.linalg.qr(X)
    PB = B - Q @ (Q.T @ B)
    return SpectralCache(
        proj_eigs=_eig_desc_clipped(B.T @ PB),
        raw_eigs=_eig_desc_clipped(B.T @ B),
        n_obs=X.shape[0],
        n_cov=X.shape[1] - design.degree - 1,
        degree=design.degree,
        n_knots=B.shape[1],
    )


def spectral_coordinates(design: DesignMatrices, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Squared residual-space coordinates of y along the spline directions.

    Returns (head, tail): ``head[s]`` pairs with ``proj_eigs[s]`` and ``tail``
    is the squared norm in the remaining residual directions. Feeding these to
    :func:`profile_terms` reproduces the dense profiled likelihood exactly.
    """
    X, B = design.X, design.B
    m, p_fixed = X.shape
    Q_full, _ = np.linalg.qr(X, mode="complete")
    comp = Q_full[:, p_fixed:]
    u = comp.T @ y
    U, sv, _ = np.linalg.svd(comp.T @ B, full_matrices=False)
    head = (U.T @ u) ** 2
    tail = float(max(u @ u - head.sum(), 0.0))
    return head, tail


def default_lambda_grid(
    cache: SpectralCache | np.ndarray, n_points: int = 200, span: tuple[float, float] = (1e-6, 1e8)
) -> LambdaGrid:
    """{0} followed by log-spaced points, scaled by the mean raw eigenvalue.

    Scaling by 1/mean(raw_eigs) makes the grid adaptive to the design's
    overall spline energy. The same grid must be used for observed statistics
    and for the null simulation so that grid coarseness cancels.
    """
    raw = cache.raw_eigs if isinstance(cache, SpectralCache) else np.asarray(cache, dtype=float)
    mean_eig = float(raw.mean()) if raw.size else 0.0
    if mean_eig <= 0:
        raise ModelError("spline basis is identically zero; cannot build a lambda grid")
    values = np.concatenate([[0.0], np.logspace(math.log10(span[0]), math.log10(span[1]), n_points) / mean_eig])
    return LambdaGrid(values)


def profile_terms(
    cache: SpectralCache, coord_sq: np.ndarray, tail_sum: float, lam: float
) -> ProfileTerms:
    """Numerator, denominator, and likelihood gain at one grid value.

    ``num`` and ``den`` split the weighted residual energy between the spline
    directions and their complement; ``gain`` is the profiled 2*delta-loglik
    of the alternative over the null at this smoothing ratio. gain(0) = 0
    exactly.
    """
    coord_sq = np.asarray(coord_sq, dtype=float)
    if lam < 0:
        raise ConfigError(f"lambda must be >= 0, got {lam}")
    if tail_sum < 0:
        raise ConfigError(f"tail sum must be >= 0, got {tail_sum}")
    shrink = 1.0 + lam * cache.proj_eigs
    num = float(((lam * cache.proj_eigs / shrink) * coord_sq).sum())
    den = float((coord_sq / shrink).sum() + tail_sum)
    if den <= 0:
        raise NumericalError("denominator of the profile ratio is zero")
    gain = cache.n_obs * math.log1p(num / den) - float(np.log1p(lam * cache.raw_eigs).sum())
    return ProfileTerms(num=num, den=den, gain=gain)


class ProfileSolver:
    """Dense profiled-likelihood engine for one spline basis B.

    Diagonalises BB' once; each dataset then costs one rotation plus a
    weighted least-squares sweep over the grid. Reused across the replicates
    of a simulation study, where B is fixed and the covariate part of X
    varies.
    """

    def __init__(self, B: np.ndarray):
        gram = B @ B.T
        eigs, Q = np.linalg.eigh(0.5 * (gram + gram.T))
        self.eigs = np.clip(eigs, 0.0, None)
        self.rotation = Q
        self.n_obs = B.shape[0]
        self.n_knots = B.shape[1]

    def logdet_v(self, grid: np.ndarray) -> np.ndarray:
        return np.log1p(np.outer(grid, self.eigs)).sum(axis=1)

    def gls_path(self, y: np.ndarray, X: np.ndarray, grid: np.ndarray):
        """GLS residual quadratic form and log|X'V^-1 X| at every grid value."""
        yt = self.rotation.T @ y
        Xt = self.rotation.T @ X
        w = 1.0 / (1.0 + np.outer(grid, self.eigs))        # G x m
        Xw = w[:, :, None] * Xt[None, :, :]                # G x m x p
        XtWX = np.einsum("mi,gmj->gij", Xt, Xw)
        XtWy = np.einsum("gmi,m->gi", Xw, yt)
        beta = np.linalg.solve(XtWX, XtWy[..., None])[..., 0]
        resid = yt[None, :] - np.einsum("mi,gi->gm", Xt, beta)
        rss = np.einsum("gm,gm->g", w, resid**2)
        sign, logdet = np.linalg.slogdet(XtWX)
        if np.any(sign <= 0):
            raise ModelError("X'V^-1 X became singular along the grid")
        return rss, logdet

    def statistics(
        self,
        y: np.ndarray,
        X: np.ndarray,
        grid: LambdaGrid,
        specs: list[tuple[str, int]],
    ) -> list[TestResult]:
        """Observed statistics for several (kind, h) pairs from one GLS sweep."""
        values = grid.values
        m = self.n_obs
        p_fixed = X.shape[1]
        if m <= p_fixed:
            raise ModelError(f"need n > {p_fixed} rows, got n = {m}")
        yty = float(y @ y)
        rss, logdet_xwx = self.gls_path(y, X, values)
        if rss[0] <= _PERFECT_REL * yty or np.any(rss <= 0):
            raise DegenerateFitError("null fit is numerically perfect; statistic undefined")
        logdet_v = self.logdet_v(values)
        out = []
        for kind, h in specs:
            if kind == "lrt":
                if h > 0:
                    null_beta, *_ = np.linalg.lstsq(X[:, :-h], y, rcond=None)
                    null_resid = y - X[:, :-h] @ null_beta
                    rss_null = float(null_resid @ null_resid)
                    if rss_null <= _PERFECT_REL * yty:
                        raise DegenerateFitError("null fit is numerically perfect; statistic undefined")
                else:
                    rss_null = float(rss[0])
                path = m * np.log(rss_null / rss) - logdet_v
                sigma_div = m
            elif kind == "rlrt":
                pen = logdet_v + logdet_xwx - logdet_xwx[0]
                path = (m - p_fixed) * np.log(rss[0] / rss) - pen
                sigma_div = m - p_fixed
            else:
                raise ConfigError(f"unknown statistic kind {kind!r}")
            k = int(np.argmax(path))
            raw = float(path[k])
            stat = max(raw, 0.0)
            lam_hat = float(values[k])
            sigma2 = float(rss[k]) / sigma_div
            out.append(
                TestResult(
                    method=kind,
                    statistic=stat,
                    lambda_hat=lam_hat,
                    nuisance={
                        "sigma2_eps": sigma2,
                        "sigma2_spline": lam_hat * sigma2,
                        "rss_null": rss_null if kind == "lrt" and h > 0 else float(rss[0]),
                        "h": h,
                        "grid_sha": grid.sha(),
                    },
                    clamped=raw < 0.0,
                )
            )
        return out


def _check_h(kind: str, h: int, degree: int) -> None:
    if kind not in ("lrt", "rlrt"):
        raise ConfigError(f"statistic kind must be 'lrt' or 'rlrt', got {kind!r}")
    if not 0 <= h <= degree:
        raise ConfigError(f"h must lie in 0..{degree}, got {h}")
    if kind == "rlrt" and h != 0:
        raise ConfigError(
            "the restricted statistic tests only the variance component (h = 0); "
            "use kind='lrt' to also drop polynomial coefficients"
        )


def observed_statistic(
    dataset: Dataset,
    design: DesignMatrices,
    kind: str = "rlrt",
    h: int = 0,
    grid: LambdaGrid | None = None,
) -> TestResult:
    """Observed LRT/RLRT statistic by dense profiled likelihood over the grid.

    The null model drops the top ``h`` polynomial coefficients and sets the
    spline variance to zero; the alternative profiles the error variance and
    fixed effects in closed form at each grid ratio. The statistic is clamped
    at 0 (the supremum includes the null itself).
    """
    _check_h(kind, h, design.degree)
    if grid is None:
        grid = default_lambda_grid(_eig_desc_clipped(design.B.T @ design.B))
    solver = ProfileSolver(design.B)
    return solver.statistics(dataset.y, design.X, grid, [(kind, h)])[0]


def simulate_null(
    cache: SpectralCache,
    kind: str,
    h: int = 0,
    grid: LambdaGrid | None = None,
    n_sims: int = 10000,
    seed: SeedLike = 0,
) -> NullDistribution:
    """Sample the exact finite-sample null distribution of the statistic.

    Each replicate draws the chi-square ingredients (K unit-df draws for the
    spline directions, one pooled draw for the residual tail, and for the LRT
    with h > 0 one h-df draw for the dropped coefficients), evaluates the
    profile gain over the whole grid, and records the supremum. Replicate
    randomness comes from fixed-size chunk streams keyed by (seed, chunk), so
    results are independent of scheduling and worker count.
    """
    _check_h(kind, h, cache.degree)
    if n_sims < 1:
        raise ConfigError(f"n_sims must be >= 1, got {n_sims}")
    if grid is None:
        grid = default_lambda_grid(cache)
    tail_df = cache.complement_dim - cache.n_knots
    if tail_df <= 0:
        raise ConfigError(
            f"residual tail is empty: n - p - d - 1 = {cache.complement_dim} "
            f"must exceed the knot count {cache.n_knots}"
        )
    values = grid.values
    proj = cache.proj_eigs
    shrink = 1.0 + np.outer(values, proj)                  # G x K
    gain_w = (values[:, None] * proj[None, :]) / shrink    # G x K
    if kind == "lrt":
        pen = np.log1p(np.outer(values, cache.raw_eigs)).sum(axis=1)
        mult = cache.n_obs
    else:
        pen = np.log1p(np.outer(values, proj)).sum(axis=1)
        mult = cache.complement_dim
    samples = np.empty(n_sims)
    for start, stop, rng in chunked_streams(seed, n_sims, _SIM_CHUNK):
        w = rng.chisquare(1.0, size=(stop - start, cache.n_knots))
        tail = rng.chisquare(tail_df, size=stop - start)
        num = w @ gain_w.T                                  # n x G
        den = w @ (1.0 / shrink).T + tail[:, None]
        stat = (mult * np.log1p(num / den) - pen[None, :]).max(axis=1)
        if kind == "lrt" and h > 0:
            extra = rng.chisquare(h, size=stop - start)
            stat = stat + cache.n_obs * np.log1p(extra / (w.sum(axis=1) + tail))
        samples[start:stop] = stat
    samples = np.clip(samples, 0.0, None)
    provenance = {
        "format": "covtest-null-cache",
        "version": 1,
        "kind": kind,
        "h": h,
        "n_sims": n_sims,
        "seed": _seed_repr(seed),
        "grid_sha": grid.sha(),
        "n_grid": int(values.size),
        **cache.fingerprint(),
    }
    return NullDistribution(
        samples=samples,
        kind=kind,
        h=h,
        zero_mass_fraction=float((samples <= _ZERO_STAT).mean()),
        provenance=provenance,
    )


def p_value(observed: float, null: NullDistribution) -> float:
    """Empirical upper-tail p-value with the add-one rule (never exactly 0)."""
    if null.n_sims < 1:
        raise ConfigError("null distribution has no samples")
    return (1 + int((null.samples >= observed).sum())) / (1 + null.n_sims)


def attach_pvalue(result: TestResult, null: NullDistribution) -> TestResult:
    if null.kind != result.method:
        raise ConfigError(
            f"null distribution is for {null.kind!r} but the statistic is {result.method!r}"
        )
    return replace(result, p_value=p_value(result.statistic, null), null_provenance=null.provenance)


# ---------------------------------------------------------------------------
# Disk cache for null distributions


def null_distribution_key(
    cache: SpectralCache, kind: str, h: int, grid: LambdaGrid, n_sims: int, seed: SeedLike
) -> str:
    """Stable content key over everything the sampler depends on."""
    payload = {
        "kind": kind,
        "h": h,
        "n_sims": n_sims,
        "seed": _seed_repr(seed),
        "grid_sha": grid.sha(),
        **cache.fingerprint(),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def save_null_distribution(null: NullDistribution, path: str | Path) -> None:
    """Write samples plus provenance; samples stored as little-endian float64.

    The file is written under a temporary name in the same directory and
    then renamed into place, so an interrupted write never leaves a partial
    entry at ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                samples=null.samples.astype("<f8"),
                provenance=np.array(json.dumps(null.provenance, sort_keys=True)),
            )
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_null_distribution(path: str | Path) -> NullDistribution:
    with np.load(path, allow_pickle=False) as payload:
        provenance = json.loads(str(payload["provenance"]))
        samples = payload["samples"].astype(float)
    if provenance.get("format") != "covtest-null-cache" or provenance.get("version") != 1:
        raise ConfigError(f"{path}: not a recognised null-distribution cache file")
    return NullDistribution(
        samples=samples,
        kind=provenance["kind"],
        h=provenance["h"],
        zero_mass_fraction=float((samples <= _ZERO_STAT).mean()),
        provenance=provenance,
    )


def simulate_null_cached(
    cache: SpectralCache,
    kind: str,
    h: int = 0,
    grid: LambdaGrid | None = None,
    n_sims: int = 10000,
    seed: SeedLike = 0,
    cache_dir: str | Path | None = None,
) -> NullDistribution:
    """Like :func:`simulate_null` but memoised on disk when cache_dir is set."""
    if grid is None:
        grid = default_lambda_grid(cache)
    if cache_dir is None:
        return simulate_null(cache, kind, h, grid, n_sims, seed)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = null_distribution_key(cache, kind, h, grid, n_sims, seed)
    path = cache_dir / f"null_{key[:24]}.npz"
    if path.exists():
        try:
            return load_null_distribution(path)
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile, ConfigError) as exc:
            warnings.warn(
                f"{path}: unreadable null cache entry ({exc}); simulating again",
                stacklevel=2,
            )
    null = simulate_null(cache, kind, h, grid, n_sims, seed)
    save_null_distribution(null, path)
    return null
