"""Exact likelihood-ratio tests for a zero spline variance component.

The LRT and RLRT depend on y only through its null residual (Crainiceanu &
Ruppert 2004, JRSS-B 66:165). With P0 the projection off the fixed-effects
columns and B'P0B = W diag(mu) W', the profiled likelihood at every smoothing
ratio is a function of mu, the eigenvalues of B'B, the squared coordinates
(y'P0B w)^2 / mu and the residual energy left in the other n - p - K
directions. Observed statistics evaluate that profile on the data; the null
sampler draws the same coordinates as chi-square variables on the same mu.
Both take O(nK^2) work once and O(GK) per grid sweep; no n x n matrix is
formed. Agreement with a dense two-model fit is a tested invariant.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
import zipfile
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .data_io import Dataset, atomic_write
from .errors import ConfigError, ModelError, NumericalError
from .rng import SeedLike, chunked_streams
from .spline_basis import DesignMatrices, FactoredStack, failed_cells, stacked_spectrum

__all__ = [
    "SpectralCache",
    "LambdaGrid",
    "NullDistribution",
    "NullVariant",
    "TestResult",
    "ProfileSolver",
    "spectral_decompose",
    "spectral_coordinates",
    "default_lambda_grid",
    "profile_terms",
    "simulate_null",
    "simulate_nulls",
    "simulate_null_cached",
    "observed_statistic",
    "p_value",
    "attach_pvalue",
    "save_null_distribution",
    "load_null_distribution",
]

_ZERO_STAT = 1e-12
_SIM_CHUNK = 1024
# Each chunk's (K + 1) x G product and grid maximum run over sub-blocks of this
# many rows, so the product buffer does not grow with the chunk; the draws are
# the chunk's, made before its sub-blocks in the chunk stream's order.
_SIM_BLOCK = 256
# ProfileSolver.statistics sweeps its replicates in slices whose R x G x K array of
# grid weights holds about this many entries (512 KB), whatever the block's width:
# smaller slices pay a slice's fixed cost (an eigh call, the failure checks) more often.
_SWEEP_ENTRIES = 2**16
# Part of every null-cache key: raise it whenever simulate_null's draws change,
# so entries written by an earlier sampler are never served.
_SAMPLER_VERSION = 3


@dataclass(frozen=True)
class SpectralCache:
    """Eigenvalues driving the exact null sampler.

    ``proj_eigs`` are the K eigenvalues (descending) of B'P0B with P0 the
    projection off the fixed-effects columns; ``raw_eigs`` those of B'B, from
    an SVD of B (``DesignMatrices.raw_eigs``). Projection shrinks the
    quadratic form, so proj_eigs <= raw_eigs holds elementwise, up to the
    eigensolver's rounding of proj_eigs (K eps of the largest). ``grid_scale``
    is the lambda grid's scale (``DesignMatrices.grid_scale``).
    """

    proj_eigs: np.ndarray
    raw_eigs: np.ndarray
    grid_scale: float
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


class ProfileTerms(NamedTuple):
    num: float
    den: float
    gain: float


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()[:16]


def _coordinates(Q: np.ndarray, spectrum: tuple[np.ndarray, np.ndarray], Y: np.ndarray):
    """For Q the QR factor of X (R x n x p), its spectrum (mu, P0B W) from
    ``spline_basis.stacked_spectrum`` and Y (R x n x C): mu; (y'P0B w)^2 / mu (R x C x K), or 0
    where mu is clipped, leaving that energy in the tail; and ||P0 y||^2 (R x C). A slice is bit
    for bit its own call's. P0B w, unlike w'B'P0y, keeps P0y's rounding inside span(X) out."""
    mu, PBW = spectrum
    R = Y - Q @ (Q.swapaxes(-1, -2) @ Y)
    coords = R.swapaxes(-1, -2) @ PBW
    head = np.divide(coords**2, mu[..., None, :], out=np.zeros_like(coords), where=mu[..., None, :] > 0)
    return mu, head, np.einsum("...ij,...ij->...j", R, R)


def spectral_decompose(design: DesignMatrices) -> SpectralCache:
    """The design's eigenvalues of B'P0B and B'B (``DesignMatrices.spectrum``'s eigh and
    ``raw_eigs``'s SVD, the bits observed_statistic reads) and its grid scale, for the
    exact null sampler."""
    (n, p), knots = design.X.shape, design.B.shape[1]
    if knots < 1:
        raise ConfigError("spectral decomposition needs at least one knot")
    return SpectralCache(proj_eigs=design.spectrum[0][0], raw_eigs=design.raw_eigs, grid_scale=design.grid_scale,
                         n_obs=n, n_cov=p - design.degree - 1, degree=design.degree, n_knots=knots)


def spectral_coordinates(design: DesignMatrices, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Squared residual-space coordinates of y along the spline directions.

    Returns (head, tail): ``head[s]`` pairs with ``proj_eigs[s]`` and ``tail``
    is the squared norm in the remaining residual directions. Feeding these to
    :func:`profile_terms` reproduces the dense profiled likelihood exactly.
    """
    y = np.asarray(y, dtype=float)[None, :, None]
    _, ((head,),), ((rss0,),) = _coordinates(design.qr.Q, design.spectrum, y)
    return head, float(max(rss0 - head.sum(), 0.0))


def default_lambda_grid(cache: SpectralCache) -> LambdaGrid:
    """{0} followed by 200 log-spaced ratios from 1e-6 to 1e8, divided by the
    mean of B'B's eigenvalues (the cache's ``grid_scale``).

    Scaling by that mean makes the grid adaptive to the design's overall
    spline energy. The same grid must be used for observed statistics and
    for the null simulation so that grid coarseness cancels.
    """
    if not cache.grid_scale > 0:
        raise ModelError("spline basis is identically zero; cannot build a lambda grid")
    return LambdaGrid(np.concatenate([[0.0], np.logspace(-6, 8, 200) / cache.grid_scale]))


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
    den_w = _grid_weights(values, cache.proj_eigs)[:, 0]
    num = float(coord_sq @ (lam * cache.proj_eigs * den_w))
    den = float(coord_sq @ den_w + tail_sum)
    if den <= 0:
        raise NumericalError("denominator of the profile ratio is zero")
    mult, pen = _kind_penalty("lrt", values, cache.n_obs, cache.complement_dim,
                              cache.raw_eigs, cache.proj_eigs)
    return ProfileTerms(num=num, den=den, gain=mult * math.log1p(num / den) - float(pen[0]))


def _grid_weights(values: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """K x G weights ``1 / (1 + lam * proj)`` of the spline coordinates in the
    residual energy rss(lam), the profile's denominator (its numerator's are
    ``lam * proj`` times these); R x K x G for a stack of R eigenvalue
    vectors (R x K)."""
    return _weights_in_place(values[:, None] * proj[..., None, :])


def _weights_in_place(products: np.ndarray) -> np.ndarray:
    """:func:`_grid_weights` from the (R x) G x K products lam * proj, taken in their place."""
    products += 1.0
    return np.divide(1.0, products, out=products).swapaxes(-1, -2)


def _penalty(products: np.ndarray) -> np.ndarray:
    """sum_k log1p(lam * eig_k) over the last axis of the (R x) G x K products
    lam * eig, one G x K at a time, so no second array of their size is made."""
    pen = np.empty(products.shape[:-1])
    for row, out in zip(products.reshape(-1, *products.shape[-2:]), pen.reshape(-1, pen.shape[-1])):
        np.log1p(row).sum(axis=-1, out=out)
    return pen


def _kind_penalty(kind: str, values: np.ndarray, n_obs: int, n_resid: int,
                  raw_eigs: np.ndarray, proj_eigs: np.ndarray) -> tuple[int, np.ndarray]:
    """(mult, pen) of a statistic kind on the grid: its profile is mult * log(rss(0) /
    rss(lam)) - pen(lam), with mult = n and B'B's eigenvalues for the LRT, n - p
    and B'P0B's for the RLRT; pen is R x G for a stack of B'P0B eigenvalues (R x K)."""
    mult, eigs = (n_obs, raw_eigs) if kind == "lrt" else (n_resid, proj_eigs)
    return mult, _penalty(values[:, None] * eigs[..., None, :])


def _dropped_gain(n_obs: int, extra: np.ndarray, rss0: np.ndarray) -> np.ndarray:
    """n log(1 + extra / rss(0)): the LRT's term for the h coefficients the null drops."""
    return n_obs * np.log1p(extra / rss0)


def _grid_max(scaled: np.ndarray, mult: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid maximum of a statistic kind's profile mult * log(rss(0) / rss(lam))
    - pen(lam), from its scaled residual energy rss(lam) * exp(pen(lam) / mult)
    at every grid value (last axis). pen(0) = 0, so the profile is mult *
    log(scaled(0) / scaled(lam)): it is largest where the scaled energy is
    smallest, only there is a logarithm taken, and a maximum at lam = 0 is
    exactly 0; the grid starts at 0, so no maximum is below 0. Returns the
    index and the value of the maximum."""
    best = scaled.argmin(axis=-1)
    low = np.take_along_axis(scaled, best[..., None], axis=-1)[..., 0]
    return best, mult * np.log(scaled[..., 0] / low)


class ProfileSolver:
    """Observed LRT/RLRT statistics for one spline basis B.

    Holds the design, whose B, spline degree and eigenvalues of B'B it reads
    (``DesignMatrices.raw_eigs``, the null sampler's). A call takes a stack of
    replicates: one thin QR of each X, one eigh of each K x K gram B'P0B
    (``spline_basis.stacked_spectrum``, or the design's own ``spectrum`` when
    the stack is the design's ``qr``) and one K x G product for the residual
    energy on the grid, shared by every (kind, h) pair and response column of
    that X. Each kind scales that energy by its penalty and takes its
    maximum by the step :func:`simulate_null` takes (:func:`_grid_max`), so the
    observed statistic and its null are one profile functional of one spectrum.
    A study reuses the solver across replicates, where B is fixed, passing a
    block of them as one stack; :func:`observed_statistic` passes one column.
    """

    def __init__(self, design: DesignMatrices):
        self.design, self.raw_eigs = design, design.raw_eigs

    def statistics(
        self, Y: np.ndarray, factored: FactoredStack, grid: LambdaGrid, specs: list[tuple[str, int]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
        """Observed statistics of Y (R x n x C) under a stack of designs
        factored by ``spline_basis.stacked_qr`` (R x n x p), for S (kind, h) pairs.

        Returns S x R x C arrays of the statistic (>= 0), the grid index of
        lambda-hat, the error variance there and the null residual sum of
        squares, and a map from each failed (replicate, column) cell, whose
        array entries are meaningless, to its error
        (:func:`~covtest.spline_basis.failed_cells` of the null fit). A cell's
        numbers do not depend on the other cells.
        For the LRT with h > 0 the null also drops the last h columns of X;
        the extra residual energy is the squared norm of y along the last h
        columns of Q, the term :func:`simulate_null` draws as chi-square(h),
        so h lies in 0..degree as there.

        The replicates run in contiguous slices of max(1, _SWEEP_ENTRIES // (G K))
        (16 at G = 201, K = 20), each holding one slice x G x K array, so the working
        set does not grow with R. Every product and eigensolver call is per
        replicate and every other step elementwise, so a cell's bits do not depend
        on the slice size.
        """
        n, p = factored.Q.shape[-2:]
        if Y.shape[1] != n:
            raise ConfigError(f"design has {n} rows but dataset has {Y.shape[1]}")
        for kind, h in specs:
            _check_h(kind, h, self.design.degree)
        values, reps, knots = grid.values, Y.shape[0], self.design.B.shape[1]
        out = np.zeros((4, len(specs), reps, Y.shape[2]))
        lrt = (_kind_penalty("lrt", values, n, n - p, self.raw_eigs, None)  # the design's, for every slice
               if any(kind == "lrt" for kind, _ in specs) else None)
        errors = {}
        step = max(1, _SWEEP_ENTRIES // (values.size * max(knots, 1)))
        for lo in range(0, reps, step):
            hi = min(lo + step, reps)
            part = self._sweep(Y[lo:hi], factored.replicates(lo, hi), values, specs, lrt, out[:, :, lo:hi])
            errors.update(((lo + r, c), error) for (r, c), error in part.items())
        return out[0], out[1].astype(np.intp), out[2], out[3], errors

    def _sweep(self, Y: np.ndarray, factored: FactoredStack, values: np.ndarray,
               specs: list[tuple[str, int]], lrt: tuple[int, np.ndarray] | None, out: np.ndarray) -> dict:
        """One slice of :meth:`statistics`, with the LRT's (mult, pen): fills ``out``
        (4 x S x R x C) and returns the slice's failed cells. lambda * mu is formed
        once, as the slice's one R x G x K array: the RLRT penalty reads it, then
        the grid weights 1 / (1 + lambda mu) are taken in its place."""
        Q, design = factored.Q, self.design
        n, p = Q.shape[-2:]
        with np.errstate(over="ignore", invalid="ignore"):  # failed_cells reports an overflow
            own = factored is design.qr
            proj, head, rss0 = _coordinates(Q, design.spectrum if own else stacked_spectrum(Q, design.B), Y)
            extras = {h: ((Q[..., p - h:].swapaxes(-1, -2) @ Y) ** 2).sum(axis=-2) for _, h in specs}
            failed, errors = failed_cells(factored, rss0, np.einsum("...ij,...ij->...j", Y, Y))
        # A failed cell is swept with no spline energy and unit energy in the
        # tail, so no division is by zero and no value is infinite.
        head = np.where(failed[..., None], 0.0, head)
        rss0 = np.where(failed, 1.0, rss0)
        tail = np.where(failed, 1.0, np.maximum(rss0 - head.sum(axis=-1), 0.0))
        products = values[:, None] * proj[..., None, :]    # R x G x K: lambda mu
        pens = {"lrt": lrt}
        if any(kind == "rlrt" for kind, _ in specs):
            pens["rlrt"] = n - p, _penalty(products)
        rss = head @ _weights_in_place(products)             # R x C x G
        del products
        rss += tail[..., None]
        for j, (kind, h) in enumerate(specs):
            mult, pen = pens[kind]
            best, top = _grid_max(rss * np.exp(pen / mult)[..., None, :], mult)
            sigma2 = np.take_along_axis(rss, best[..., None], axis=-1)[..., 0] / mult
            extra = np.where(failed, 0.0, extras[h])
            out[:, j] = top + _dropped_gain(n, extra, rss0), best, sigma2, rss0 + extra
        return errors


def _check_h(kind: str, h: int, max_h: int) -> None:
    """The LRT drops 0..max_h polynomial coefficients, the RLRT none."""
    if kind not in ("lrt", "rlrt"):
        raise ConfigError(f"statistic kind must be 'lrt' or 'rlrt', got {kind!r}")
    if not 0 <= h <= max_h:
        raise ConfigError(f"h must lie in 0..{max_h}, got {h}")
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
    fixed effects in closed form at each grid ratio. The statistic is >= 0
    (see :func:`_grid_max`); ``h`` lies in 0..degree, and is 0 for the RLRT.
    """
    if grid is None:
        grid = default_lambda_grid(spectral_decompose(design))
    *cell, errors = ProfileSolver(design).statistics(dataset.y[None, :, None], design.qr, grid, [(kind, h)])
    if errors:
        raise errors[0, 0]
    stat, k, sigma2, rss_null = (a.item() for a in cell)
    lam_hat = float(grid.values[k])
    nuisance = {"sigma2_eps": sigma2, "sigma2_spline": lam_hat * sigma2, "rss_null": rss_null,
                "h": h, "grid_sha": grid.sha}
    return TestResult(kind, stat, lam_hat, nuisance)


class NullVariant(NamedTuple):
    """One statistic whose null :func:`simulate_nulls` draws: the spectrum of its
    design, its kind and h, its grid (None: :func:`default_lambda_grid`) and the key
    of the stream its own terms come from (None: the pass's chunk stream)."""

    cache: SpectralCache
    kind: str
    h: int = 0
    grid: LambdaGrid | None = None
    stream: SeedLike | None = None


def simulate_null(
    cache: SpectralCache,
    kind: str,
    h: int = 0,
    grid: LambdaGrid | None = None,
    n_sims: int = 10000,
    seed: SeedLike = 0,
) -> NullDistribution:
    """Sample the exact finite-sample null distribution of the statistic: the
    one-variant pass of :func:`simulate_nulls`, whose every draw comes from the
    chunk streams keyed by (seed, chunk)."""
    (null,) = simulate_nulls([NullVariant(cache, kind, h, grid)], n_sims, seed)
    return null


def simulate_nulls(
    variants: list[NullVariant], n_sims: int = 10000, seed: SeedLike = 0, cache_dir: str | Path | None = None
) -> list[NullDistribution]:
    """The null distributions of several statistics of one knot count from one
    pass of draws (:func:`_sample`): each sample's K spline terms are drawn once,
    from the chunk streams of ``seed``, and read by every variant, and each
    variant with a stream of its own draws its residual tail and h term there,
    so its null does not depend on which other variants share the pass.

    The one path of the null cache: when cache_dir is set, each variant is looked
    up there (:func:`_cache_entry`), only the variants with no entry to serve are
    drawn, in one pass with the bits of the full pass, and each is saved as it is
    drawn. An entry is served only if its provenance and sample count are those
    of the request; an unreadable or foreign entry is drawn again and
    overwritten, with a warning."""
    variants = [v if v.grid is not None else v._replace(grid=default_lambda_grid(v.cache)) for v in variants]
    if cache_dir is None:
        return _sample(variants, n_sims, seed)
    entries = [_cache_entry(Path(cache_dir), v, n_sims, seed) for v in variants]
    missing = [v for v, (_, null) in zip(variants, entries) if null is None]
    fresh = iter(_sample(missing, n_sims, seed) if missing else [])
    out = []
    for path, null in entries:
        if null is None:
            null = next(fresh)
            save_null_distribution(null, path)
        out.append(null)
    return out


def _sample(variants: list[NullVariant], n_sims: int, seed: SeedLike) -> list[NullDistribution]:
    """The exact null sampler, one pass for every variant, each with its grid.

    Each replicate draws the chi-square ingredients, evaluates each variant's
    profile gain over its grid, and records the supremum: K unit-df terms for
    the spline directions, each a squared standard normal, shared by every
    variant, so their spectra must have one knot count K; and per variant one
    pooled chi-square(n - p - d - 1 - K) draw for its residual tail and, for
    the LRT with h > 0, the dropped coefficients' chi-square(h) term, the sum
    of h squared standard normals. Replicate randomness comes from fixed-size
    chunk streams keyed by (seed, chunk), so results are independent of
    scheduling and worker count: a chunk draws its K normals per replicate from
    its stream, then each variant its tail and h term from the same chunk of its
    own stream (``NullVariant.stream``, keyed (stream, chunk)), or from the
    chunk stream itself after the normals. At most one variant may take the
    chunk stream, so no variant's draws depend on the others': variants of one
    pass share their spline terms as common random numbers, and a lone variant
    without a stream of its own (:func:`simulate_null`) draws everything from
    the chunk stream, as the sampler always has.
    """
    for v in variants:
        _check_h(v.kind, v.h, v.cache.degree)
    if n_sims < 1:
        raise ConfigError(f"n_sims must be >= 1, got {n_sims}")
    knots = {v.cache.n_knots for v in variants}
    if len(knots) != 1:
        raise ConfigError(f"the null variants of one pass need one knot count, got {sorted(knots)}")
    if sum(v.stream is None for v in variants) > 1:
        raise ConfigError("at most one null variant may draw from the pass's chunk stream")
    (knots,) = knots
    plans = []
    for v in variants:
        tail_df = v.cache.complement_dim - v.cache.n_knots
        if tail_df <= 0:
            raise ConfigError(
                f"residual tail is empty: n - p - d - 1 = {v.cache.complement_dim} "
                f"must exceed the knot count {v.cache.n_knots}"
            )
        mult, pen = _kind_penalty(
            v.kind, v.grid.values, v.cache.n_obs, v.cache.complement_dim, v.cache.raw_eigs, v.cache.proj_eigs
        )
        scale = np.exp(pen / mult)
        # [w | tail] @ weights is the scaled energy rss(lam) * scale(lam) that _grid_max takes.
        weights = np.vstack([_grid_weights(v.grid.values, v.cache.proj_eigs) * scale, scale])
        plans.append((v, tail_df, mult, weights))
    rows, width = min(n_sims, _SIM_CHUNK), max(weights.shape[1] for *_, weights in plans)
    # Reused by every chunk and variant: its standard normals (contiguous, as out= needs),
    # its draws [w | tail] and one sub-block's scaled energies (at most _SIM_BLOCK x G).
    normals = np.empty(rows * max(knots, *(v.h for v, *_ in plans)))
    coords, scaled = np.empty((rows, knots + 1)), np.empty(min(rows, _SIM_BLOCK) * width)
    samples = np.empty((len(plans), n_sims))
    for start, stop, rng in chunked_streams(seed, n_sims, _SIM_CHUNK):
        r = stop - start
        chunk = coords[:r]
        np.square(rng.standard_normal(out=normals[:r * knots].reshape(r, knots)), out=chunk[:, :-1])
        for (v, tail_df, mult, weights), out in zip(plans, samples):
            own = rng if v.stream is None else rngmod.stream(v.stream, start // _SIM_CHUNK)
            chunk[:, -1] = own.chisquare(tail_df, size=r)
            for lo in range(0, r, _SIM_BLOCK):
                hi, size = min(lo + _SIM_BLOCK, r), weights.shape[1]  # a contiguous (hi - lo) x G
                block = np.matmul(chunk[lo:hi], weights, out=scaled[:(hi - lo) * size].reshape(-1, size))
                out[start + lo:start + hi] = _grid_max(block, mult)[1]
            if v.kind == "lrt" and v.h > 0:
                z = own.standard_normal(out=normals[:r * v.h].reshape(r, v.h))
                out[start:stop] += _dropped_gain(v.cache.n_obs, np.square(z, out=z).sum(axis=1),
                                                 chunk.sum(axis=1))
    return [NullDistribution(out, _provenance(v.cache, v.kind, v.h, v.grid, n_sims, seed, v.stream))
            for (v, *_), out in zip(plans, samples)]


def p_value(observed: float | np.ndarray, null: NullDistribution) -> float | np.ndarray:
    """Empirical upper-tail p-value with the add-one rule (never exactly 0):
    (1 + #{samples >= observed}) / (1 + n_sims), elementwise for an array.
    A NaN statistic gets a NaN p-value: it is no evidence against the null."""
    if null.n_sims < 1:
        raise ConfigError("null distribution has no samples")
    above = null.n_sims - np.searchsorted(null.sorted_samples, observed, side="left")
    p = np.where(np.isnan(observed), np.nan, (1 + above) / (1 + null.n_sims))
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
    cache: SpectralCache, kind: str, h: int, grid: LambdaGrid, n_sims: int, seed: SeedLike,
    stream: SeedLike | None = None,
) -> dict:
    """The identity of a simulated null: its file format and everything its draws
    depend on; a variant with a stream of its own (:class:`NullVariant`) records it,
    so its entry is never served for the lone-variant draws of the same seed."""
    def words(key):
        return int(key) if isinstance(key, (int, np.integer)) else [int(k) for k in key]

    own = {} if stream is None else {"stream": words(stream)}
    return {
        "format": "covtest-null-cache",
        "version": 1,
        "kind": kind,
        "h": h,
        "n_sims": n_sims,
        "seed": words(seed),
        **own,
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
    cache: SpectralCache, kind: str, h: int, grid: LambdaGrid, n_sims: int, seed: SeedLike,
    stream: SeedLike | None = None,
) -> str:
    """Stable content key: the null's provenance and the sampler version."""
    payload = {**_provenance(cache, kind, h, grid, n_sims, seed, stream), "sampler_version": _SAMPLER_VERSION}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def save_null_distribution(null: NullDistribution, path: str | Path) -> None:
    """Write samples plus provenance; samples stored as little-endian float64.
    The entry appears whole or not at all (:func:`~covtest.data_io.atomic_write`)."""
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, samples=null.samples.astype("<f8"),
                 provenance=np.array(json.dumps(null.provenance, sort_keys=True)))


def load_null_distribution(path: str | Path) -> NullDistribution:
    """The null saved at path. The file is opened here, so it is closed whatever
    np.load makes of it, and read only if it is a .npz archive."""
    with open(path, "rb") as fh:
        payload = np.load(fh, allow_pickle=False)
        if not isinstance(payload, np.lib.npyio.NpzFile):
            raise ConfigError("not a recognised null-distribution cache file")
        provenance = json.loads(str(payload["provenance"]))
        samples = payload["samples"].astype(float)
    if (not isinstance(provenance, dict) or provenance.get("format") != "covtest-null-cache"
            or provenance.get("version") != 1 or not {"kind", "h"} <= provenance.keys()):
        raise ConfigError("not a recognised null-distribution cache file")
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
    """:func:`simulate_null` memoised on disk when cache_dir is set: the
    one-variant call of :func:`simulate_nulls`, which serves, draws and saves it."""
    (null,) = simulate_nulls([NullVariant(cache, kind, h, grid)], n_sims, seed, cache_dir)
    return null


def _cache_entry(cache_dir: Path, variant: NullVariant, n_sims: int, seed: SeedLike):
    """(path, null) of a variant's entry in cache_dir, its grid given: null is None
    where there is no entry to serve, after a warning where the entry is unreadable
    or foreign: a broken file, zipfile's refusal of a compression method, version,
    encryption or flag it does not support (a RuntimeError), or a header whose shape
    cannot be allocated. A lookup makes nothing: the directory appears with its first entry."""
    identity = (variant.cache, variant.kind, variant.h, variant.grid, n_sims, seed, variant.stream)
    path = cache_dir / f"null_{null_distribution_key(*identity)[:24]}.npz"
    if path.exists():
        try:
            null = load_null_distribution(path)
            if null.provenance != _provenance(*identity) or null.n_sims != n_sims:
                raise ConfigError("its provenance or sample count is not the one its name hashes")
            return path, null
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile, RuntimeError, MemoryError,
                ConfigError) as exc:
            warnings.warn(
                f"{path}: unreadable null cache entry ({exc}); simulating again",
                stacklevel=3,
            )
    return path, None
