"""Exact likelihood-ratio tests for a zero spline variance component.

The LRT and RLRT depend on y only through its null residual (Crainiceanu &
Ruppert 2004, JRSS-B 66:165). With P0 the projection off the fixed-effects
columns and P0B = U diag(s) W' (thin SVD), the profiled likelihood at every
smoothing ratio is a function of s^2 (the eigenvalues of B'P0B), the
eigenvalues of B'B, the squared coordinates (U'y)^2 and the residual energy
left in the other n - p - K directions. Observed statistics evaluate that
profile on the data; the null sampler draws the same coordinates as
independent chi-square variables and evaluates the same profile. Both take
O(nK^2) work once and O(GK) per grid sweep; no n x n matrix is formed.
Agreement with a dense two-model fit is a tested invariant.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
import zipfile
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data_io import Dataset
from .errors import ConfigError, DegenerateFitError, ModelError, NumericalError
from .rng import SeedLike, chunked_streams
from .spline_basis import DesignMatrices, stacked_qr

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
# Part of every null-cache key: raise it whenever simulate_null's draws change,
# so entries written by an earlier sampler are never served.
_SAMPLER_VERSION = 1


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

    @cached_property
    def sha(self) -> str:
        return _sha(self.values)


@dataclass(frozen=True)
class NullDistribution:
    """Simulated finite-sample null distribution of an LRT/RLRT statistic: the
    draws (each >= 0) and the provenance dict :func:`simulate_null` records,
    which the null-cache key hashes. The other attributes are read from these."""

    samples: np.ndarray
    provenance: dict

    @property
    def kind(self) -> str:
        return self.provenance["kind"]

    @property
    def h(self) -> int:
        return self.provenance["h"]

    @property
    def n_sims(self) -> int:
        return self.samples.shape[0]

    @property
    def zero_mass_fraction(self) -> float:
        return float((self.samples <= _ZERO_STAT).mean())

    @cached_property
    def sorted_samples(self) -> np.ndarray:
        return np.sort(self.samples)


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


def _residual_coordinates(Q: np.ndarray, B: np.ndarray, Y: np.ndarray):
    """For Q the orthonormal QR factor of X (n x p), the eigenvalues s^2 of
    B'P0B and, per column of Y (n x C), the squared coordinates (U'y)^2
    (C x K) and ||P0 y||^2 (C). A stack of Q and Y (leading axis R) gives a
    stack of each, every slice bit for bit its own call's."""
    R, PB = (a - Q @ (Q.swapaxes(-1, -2) @ a) for a in (Y, B))
    U, sv, _ = np.linalg.svd(PB, full_matrices=False)
    return sv**2, (R.swapaxes(-1, -2) @ U) ** 2, np.einsum("...ij,...ij->...j", R, R)


def spectral_decompose(design: DesignMatrices) -> SpectralCache:
    """Eigenvalues of B'P0B and B'B for the exact null sampler."""
    X, B = design.X, design.B
    if B.shape[1] < 1:
        raise ConfigError("spectral decomposition needs at least one knot")
    Q, _ = design.factors()
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
    y = np.asarray(y, dtype=float)[:, None]
    _, (head,), (rss0,) = _residual_coordinates(design.factors()[0], design.B, y)
    return head, float(max(rss0 - head.sum(), 0.0))


def default_lambda_grid(
    cache: SpectralCache | np.ndarray, n_points: int = 200, span: tuple[float, float] = (1e-6, 1e8)
) -> LambdaGrid:
    """{0} followed by log-spaced points, scaled by the mean raw eigenvalue.

    Scaling by 1/mean(raw_eigs) makes the grid adaptive to the design's
    overall spline energy. The same grid must be used for observed statistics
    and for the null simulation so that grid coarseness cancels.
    """
    if n_points < 1:
        raise ConfigError(f"the lambda grid needs at least 1 point after 0, got {n_points}")
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

    ``num`` and ``den`` split the shrunken residual energy between the spline
    directions and their complement; ``gain`` is the profiled 2*delta-loglik
    of the alternative over the null at this smoothing ratio. gain(0) = 0
    exactly. The weights and the penalty are those of the engine's grid sweep
    (:func:`_grid_weights`, :func:`_kind_penalty`) at the single value ``lam``.
    """
    coord_sq = np.asarray(coord_sq, dtype=float)
    if lam < 0:
        raise ConfigError(f"lambda must be >= 0, got {lam}")
    if tail_sum < 0:
        raise ConfigError(f"tail sum must be >= 0, got {tail_sum}")
    values = np.array([float(lam)])
    num_w, den_w = _grid_weights(values, cache.proj_eigs)
    num = float(coord_sq @ num_w[:, 0])
    den = float(coord_sq @ den_w[:, 0] + tail_sum)
    if den <= 0:
        raise NumericalError("denominator of the profile ratio is zero")
    mult, pen = _kind_penalty("lrt", values, cache.n_obs, cache.complement_dim,
                              cache.raw_eigs, cache.proj_eigs)
    return ProfileTerms(num=num, den=den, gain=mult * math.log1p(num / den) - float(pen[0]))


def _grid_weights(values: np.ndarray, proj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K x G weights of the spline coordinates in the profile's numerator
    (``lam * proj / (1 + lam * proj)``) and denominator (``1 / (1 + lam * proj)``);
    R x K x G for a stack of R eigenvalue vectors (R x K)."""
    scaled = values[:, None] * proj[..., None, :]          # (R x) G x K
    shrink = 1.0 + scaled
    num, den = np.divide(scaled, shrink, out=scaled), np.divide(1.0, shrink, out=shrink)
    return num.swapaxes(-1, -2), den.swapaxes(-1, -2)


def _grid_profile(
    weights: tuple[np.ndarray, np.ndarray],
    coord_sq: np.ndarray,
    tail: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Log residual-energy ratio and residual energy at every grid value.

    ``weights`` come from :func:`_grid_weights`; ``coord_sq`` (rows x K)
    holds squared coordinates along the spline directions and ``tail``
    (rows) the residual energy in the remaining directions. Returns
    ``log(rss(0) / rss(lam))`` and ``rss(lam)``, both rows x G; stacks of
    weights, coordinates and tails (leading axis R) give stacks;
    :func:`_sweep` turns the first into a statistic kind's profile. Given
    ``out`` (2 x >= rows x G), both results are written into its leading
    rows and returned as views of it.
    """
    rows = coord_sq.shape[0]
    num, den = (None, None) if out is None else (out[0, :rows], out[1, :rows])
    num = np.matmul(coord_sq, weights[0], out=num)         # rows x G
    den = np.matmul(coord_sq, weights[1], out=den)
    den += tail[..., None]
    num /= den
    return np.log1p(num, out=num), den


def _kind_penalty(kind: str, values: np.ndarray, n_obs: int, n_resid: int,
                  raw_eigs: np.ndarray, proj_eigs: np.ndarray) -> tuple[int, np.ndarray]:
    """(mult, pen) of a statistic kind on the grid: its profile is mult * log(rss(0) /
    rss(lam)) - pen(lam), with mult = n and B'B's eigenvalues for the LRT, n - p
    and B'P0B's for the RLRT; pen is R x G for a stack of B'P0B eigenvalues (R x K)."""
    mult, eigs = (n_obs, raw_eigs) if kind == "lrt" else (n_resid, proj_eigs)
    return mult, np.log1p(values[:, None] * eigs[..., None, :]).sum(axis=-1)


def _dropped_gain(n_obs: int, extra: np.ndarray, rss0: np.ndarray) -> np.ndarray:
    """n log(1 + extra / rss(0)): the LRT's term for the h coefficients the null drops."""
    return n_obs * np.log1p(extra / rss0)


def _sweep(ratio: np.ndarray, mult: int, pen: np.ndarray, out: np.ndarray | None = None):
    """Grid maximum of a statistic kind's profile mult * log(rss(0) / rss(lam))
    - pen(lam), with ``ratio`` the log ratio from :func:`_grid_profile` and
    ``mult`` and ``pen`` from :func:`_kind_penalty`, shaped to broadcast
    against it. Returns the index and the value of the maximum along the last
    axis. Given ``out``, the profile is written there."""
    path = np.multiply(ratio, mult, out=out)
    path -= pen
    best = path.argmax(axis=-1)
    return best, np.take_along_axis(path, best[..., None], axis=-1)[..., 0]


class ProfileSolver:
    """Observed LRT/RLRT statistics for one spline basis B.

    Holds B and the eigenvalues of B'B, clipped as the null sampler's are
    (see :func:`spectral_decompose`). A call takes a stack of replicates:
    one thin QR of each X, one thin SVD of each projected basis P0B (n x K)
    and one G x K grid sweep, shared by every (kind, h) pair and every
    response column of that X. The sweep's maximum is taken by the step
    :func:`simulate_null` takes, so the observed statistic and its null are
    one profile functional. A simulation study reuses the solver across
    replicates, where B is fixed, and passes a block of replicates as one
    stack; :func:`observed_statistic` passes one replicate with one column.
    """

    def __init__(self, B: np.ndarray):
        self.B = B
        self.raw_eigs = _eig_desc_clipped(B.T @ B)

    def statistics(
        self,
        Y: np.ndarray,
        X: np.ndarray,
        grid: LambdaGrid,
        specs: list[tuple[str, int]],
        qr: tuple | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
        """Observed statistics of Y (R x n x C) under X (R x n x p) for S
        (kind, h) pairs from one decomposition per replicate.

        Returns S x R x C arrays of the statistic before clamping at 0, the
        grid index of lambda-hat, the error variance there and the null
        residual sum of squares, and a map from each failed (replicate,
        column) cell, whose array entries are meaningless, to its error: the
        ModelError that rejects the replicate's X, or a DegenerateFitError for
        a numerically perfect null fit. A cell's numbers do not depend on the
        other cells. ``qr`` saves the QR of X when the caller has
        :func:`stacked_qr`'s result. For the LRT with h > 0 the null also
        drops the last h columns of X; the extra residual energy is the
        squared norm of y along the last h columns of Q, the term
        :func:`simulate_null` draws as chi-square(h).
        """
        for kind, h in specs:
            if kind not in ("lrt", "rlrt") or kind == "rlrt" and h:
                raise ConfigError(f"statistics are ('lrt', h) or ('rlrt', 0), got ({kind!r}, {h})")
        n, p = X.shape[-2:]
        Q, _, errors = stacked_qr(X) if qr is None else qr
        out = np.zeros((4, len(specs), Y.shape[0], Y.shape[2]))
        usable = np.zeros(out.shape[2:], dtype=bool)
        if Q is not None:
            values = grid.values
            proj, head, rss0 = _residual_coordinates(Q, self.B, Y)
            usable = rss0 > _PERFECT_REL * np.einsum("...ij,...ij->...j", Y, Y)
            usable &= np.array([error is None for error in errors])[:, None]
            # A failed cell is swept with unit energy in the tail, so no division is by zero.
            rss0 = np.where(usable, rss0, 1.0)
            tail = np.where(usable, np.maximum(rss0 - head.sum(axis=-1), 0.0), 1.0)
            ratio, den = _grid_profile(_grid_weights(values, proj), head, tail)
            for j, (kind, h) in enumerate(specs):
                mult, pen = _kind_penalty(kind, values, n, n - p, self.raw_eigs, proj)
                best, top = _sweep(ratio, mult, pen[..., None, :])
                extra = ((Q[..., p - h:].swapaxes(-1, -2) @ Y) ** 2).sum(axis=-2)
                sigma2 = np.take_along_axis(den, best[..., None], axis=-1)[..., 0] / mult
                out[:, j] = top + _dropped_gain(n, extra, rss0), best, sigma2, rss0 + extra
        failed = {(int(r), int(c)): errors[r] or DegenerateFitError(
                      "null fit is numerically perfect; statistic undefined")
                  for r, c in zip(*np.nonzero(~usable))}
        return out[0], out[1].astype(np.intp), out[2], out[3], failed


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
    """Observed LRT/RLRT statistic: the profiled likelihood ratio over the grid.

    The null model drops the top ``h`` polynomial coefficients and sets the
    spline variance to zero; the alternative profiles the error variance and
    fixed effects in closed form at each grid ratio. The statistic is clamped
    at 0 (the supremum includes the null itself).
    """
    _check_h(kind, h, design.degree)
    solver = ProfileSolver(design.B)
    if grid is None:
        grid = default_lambda_grid(solver.raw_eigs)
    Q, R = design.factors()
    *cell, errors = solver.statistics(dataset.y[None, :, None], design.X[None], grid,
                                      [(kind, h)], (Q[None], R[None], [None]))
    if errors:
        raise errors[0, 0]
    raw, k, sigma2, rss_null = (a.item() for a in cell)
    lam_hat = float(grid.values[k])
    nuisance = {"sigma2_eps": sigma2, "sigma2_spline": lam_hat * sigma2, "rss_null": rss_null,
                "h": h, "grid_sha": grid.sha}
    return TestResult(kind, max(raw, 0.0), lam_hat, nuisance, clamped=raw < 0.0)


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
    mult, pen = _kind_penalty(
        kind, values, cache.n_obs, cache.complement_dim, cache.raw_eigs, cache.proj_eigs
    )
    weights = _grid_weights(values, cache.proj_eigs)
    work = np.empty((2, min(n_sims, _SIM_CHUNK), values.size))  # reused by every chunk
    samples = np.empty(n_sims)
    for start, stop, rng in chunked_streams(seed, n_sims, _SIM_CHUNK):
        w = rng.chisquare(1.0, size=(stop - start, cache.n_knots))
        tail = rng.chisquare(tail_df, size=stop - start)
        ratio = _grid_profile(weights, w, tail, work)[0]
        stat = _sweep(ratio, mult, pen, out=ratio)[1]
        if kind == "lrt" and h > 0:
            extra = rng.chisquare(h, size=stop - start)
            stat = stat + _dropped_gain(cache.n_obs, extra, w.sum(axis=1) + tail)
        samples[start:stop] = stat
    np.clip(samples, 0.0, None, out=samples)
    return NullDistribution(samples, _provenance(cache, kind, h, grid, n_sims, seed))


def p_value(observed: float | np.ndarray, null: NullDistribution) -> float | np.ndarray:
    """Empirical upper-tail p-value with the add-one rule (never exactly 0):
    (1 + #{samples >= observed}) / (1 + n_sims), elementwise for an array."""
    if null.n_sims < 1:
        raise ConfigError("null distribution has no samples")
    above = null.n_sims - np.searchsorted(null.sorted_samples, observed, side="left")
    p = (1 + above) / (1 + null.n_sims)
    return p if np.ndim(p) else float(p)


def attach_pvalue(result: TestResult, null: NullDistribution) -> TestResult:
    if null.kind != result.method:
        raise ConfigError(
            f"null distribution is for {null.kind!r} but the statistic is {result.method!r}"
        )
    return replace(result, p_value=p_value(result.statistic, null), null_provenance=null.provenance)


# ---------------------------------------------------------------------------
# Disk cache for null distributions


def _provenance(
    cache: SpectralCache, kind: str, h: int, grid: LambdaGrid, n_sims: int, seed: SeedLike
) -> dict:
    """The identity of a simulated null: its file format and everything its draws depend on."""
    return {
        "format": "covtest-null-cache",
        "version": 1,
        "kind": kind,
        "h": h,
        "n_sims": n_sims,
        "seed": int(seed) if isinstance(seed, (int, np.integer)) else [int(s) for s in seed],
        "grid_sha": grid.sha,
        "n_grid": int(grid.values.size),
        "n_obs": cache.n_obs,
        "n_cov": cache.n_cov,
        "degree": cache.degree,
        "n_knots": cache.n_knots,
        "proj_eigs_sha": _sha(cache.proj_eigs),
        "raw_eigs_sha": _sha(cache.raw_eigs),
    }


def null_distribution_key(
    cache: SpectralCache, kind: str, h: int, grid: LambdaGrid, n_sims: int, seed: SeedLike
) -> str:
    """Stable content key: the null's provenance and the sampler version."""
    payload = {**_provenance(cache, kind, h, grid, n_sims, seed), "sampler_version": _SAMPLER_VERSION}
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
    if (provenance.get("format") != "covtest-null-cache" or provenance.get("version") != 1
            or not {"kind", "h"} <= provenance.keys()):
        raise ConfigError(f"{path}: not a recognised null-distribution cache file")
    return NullDistribution(samples, provenance)


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
