"""Residual cumulative-sum goodness-of-fit tests.

The observed process is the scaled running sum of null-model residuals
ordered by a covariate (or by fitted values). Its null law is regenerated by
multiplier resampling: unit-level standard-normal multipliers perturb the
residual contributions, and the perturbed vector is passed through the
model's residual-forming map so the resampled process carries the same
estimation effect as the observed one. The test statistic is the sup-norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .null_fit import NullFit
from .rng import SeedLike, chunked_streams
from .spline_basis import FactoredStack

__all__ = [
    "CusumProcess",
    "CusumResult",
    "cumulative_process",
    "multiplier_null",
    "multiplier_processes",
    "sup_test",
]

# Each chunk of 256 resamples draws from its own stream, keyed by the chunk
# index; the chunk is worked through in sub-blocks of 32 rows, drawn in turn
# from that stream, so the working set does not grow with the chunk.
_RESAMPLE_CHUNK = 256
_SUB_BLOCK = 32


@dataclass(frozen=True)
class CusumProcess:
    """Right-continuous step process of scaled residual partial sums.

    ``points`` are the distinct ordered values of the ordering variable (ties
    aggregated at one jump); ``values`` the process evaluated there. Below
    the first point the process is 0.
    """

    points: np.ndarray
    values: np.ndarray

    @property
    def sup(self) -> float:
        return float(np.abs(self.values).max())

    def value_at(self, x: float) -> float:
        idx = int(np.searchsorted(self.points, x, side="right"))
        return 0.0 if idx == 0 else float(self.values[idx - 1])


@dataclass(frozen=True)
class CusumResult:
    observed_sup: float
    p_value: float


def _sorted_contributions(fit: NullFit, ordering: np.ndarray):
    ordering = np.asarray(ordering, dtype=float)
    if ordering.shape[0] != fit.n:
        raise ConfigError(
            f"ordering variable has {ordering.shape[0]} rows, residuals have {fit.n}"
        )
    order = np.argsort(ordering, kind="stable")
    points, first = np.unique(ordering[order], return_index=True)
    return order, points, first


def cumulative_process(fit: NullFit, ordering: np.ndarray) -> CusumProcess:
    """Observed process: partial sums of residuals sorted by ``ordering``.

    Scaled by the square root of the number of independent units (clusters
    when present, rows otherwise).
    """
    order, points, first = _sorted_contributions(fit, ordering)
    steps = np.add.reduceat(fit.residuals[order], first)
    values = np.cumsum(steps) / math.sqrt(fit.n_units)
    return CusumProcess(points=points, values=values)


def _resampled_blocks(
    fit: NullFit, proj: FactoredStack, ordering: np.ndarray, n_resamples: int, seed: SeedLike
):
    """Jump points, and resampled processes evaluated there in blocks of rows.

    Each draw multiplies residual contributions by unit-level N(0, 1)
    multipliers and re-applies the residual-forming map
    I - X (X'V^-1 X)^-1 X'V^-1, which injects the same estimation
    effect the observed residuals carry. Since residuals are a fixed point of
    that map, a single unit reduces to multiplying the observed process by
    one normal draw. The blocks are yielded as (start, stop, processes) so
    that callers needing only sup-norms never hold every path at once.

    Rows are laid out in sorted order once per call. A block's process at a
    jump is then cumsum(g) - coef' cumsum(X)' at the last row of its ties
    (every row, taken in place, when the ordering has no ties),
    with coef = R^-1 (V^-1/2 Q)' g fitted in O(n p) per resample. A block
    is a sub-block of at most ``_SUB_BLOCK`` rows of a ``_RESAMPLE_CHUNK``
    chunk; its multipliers are the next rows of the chunk's stream, the same
    numbers one draw of the whole chunk gives.
    """
    if n_resamples < 1:
        raise ConfigError(f"n_resamples must be >= 1, got {n_resamples}")
    order, points, first = _sorted_contributions(fit, ordering)
    rows = order if fit.clusters is None else fit.clusters.labels[order]
    contrib = fit.residuals[order]
    white_q = proj.whiten(proj.Q[0])[order]
    last = np.append(first[1:], fit.n) - 1
    tied = last.size < fit.n  # without ties every row is the last of its group: no gather
    x_cum = np.cumsum(proj.X[0][order], axis=0)[last].T
    n_units = fit.n_units

    def blocks():
        for start, stop, rng in chunked_streams(seed, n_resamples, _RESAMPLE_CHUNK):
            for lo in range(start, stop, _SUB_BLOCK):
                hi = min(lo + _SUB_BLOCK, stop)
                g = np.take(rng.standard_normal((hi - lo, n_units)), rows, axis=1)
                g *= contrib
                coef = np.linalg.solve(proj.R[0], (g @ white_q).T).T
                np.cumsum(g, axis=1, out=g)
                if tied:
                    g = np.take(g, last, axis=1)
                g -= coef @ x_cum
                g /= math.sqrt(n_units)
                yield lo, hi, g
                del g  # with the caller's reference gone, this block is freed before the next draw

    return points, blocks()


def multiplier_null(
    fit: NullFit,
    proj: FactoredStack,
    ordering: np.ndarray,
    n_resamples: int,
    seed: SeedLike = 0,
) -> np.ndarray:
    """Sup-norms of ``n_resamples`` multiplier draws of the null process, under the fit's
    one-design projection: its ``reml_projection``, or ``replicate(r)`` of a study block's stack."""
    _, blocks = _resampled_blocks(fit, proj, ordering, n_resamples, seed)
    sups = np.empty(n_resamples)
    for start, stop, processes in blocks:
        sups[start:stop] = np.abs(processes, out=processes).max(axis=1)
        del processes
    return sups


def multiplier_processes(
    fit: NullFit,
    proj: FactoredStack,
    ordering: np.ndarray,
    n_resamples: int,
    seed: SeedLike = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """(points, processes) for plotting resampled paths next to the observed one."""
    points, blocks = _resampled_blocks(fit, proj, ordering, n_resamples, seed)
    processes = np.empty((n_resamples, points.size))
    for start, stop, block in blocks:
        processes[start:stop] = block
    return points, processes


def sup_test(observed: CusumProcess, null_sups: np.ndarray) -> CusumResult:
    """Empirical sup-norm test with the add-one p-value rule; a NaN sup gets a
    NaN p-value."""
    null_sups = np.asarray(null_sups, dtype=float)
    if null_sups.size < 1:
        raise ConfigError("need at least one resampled sup-norm")
    obs = observed.sup
    p = math.nan if math.isnan(obs) else (1 + int((null_sups >= obs).sum())) / (1 + null_sups.size)
    return CusumResult(observed_sup=obs, p_value=p)
