"""Monte Carlo size/power study for the four lack-of-fit tests.

Generates partially linear datasets with a tunable smooth departure from
linearity, applies the configured tests to each replicate, and tabulates
empirical rejection rates per (test, sample size, noise level, departure,
nominal level). Every random stream of a study is keyed by (master seed,
index, role), see :data:`_DATA`: one generator per replicate draws its data,
so the generated data do not depend on which tests are enabled, on the
execution order, or on the worker count. The stream does not depend on sigma
or c either, so the noise and departure levels of a replicate share S, t and
the noise draw z, hence one draw and one X per spline degree. The LRT
variants' nulls of one m come from one pass of draws keyed by name, so a
variant's counts do not depend on the other tests either. Replicates run in
blocks, each one set of arrays with a replicate axis and a column axis of
every (sigma, c) (see :func:`_run_block`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .data_io import Dataset, _check_finite
from .errors import ConfigError, StudyError, check_seed, sized_by
from .exact_lrt import (
    LambdaGrid,
    NullDistribution,
    NullVariant,
    ProfileSolver,
    default_lambda_grid,
    p_value,
    simulate_nulls,
    spectral_decompose,
)
from .null_fit import fit_ols_columns
from .score_test import ScoreMoments, _tail_p_values, score_statistics
from .spline_basis import NATURAL_SPLINE, build_design, place_knots, smoother_kernel, stacked_qr

__all__ = [
    "nonlinear_effect",
    "generate_dataset",
    "SimConfig",
    "SimCell",
    "SimReport",
    "run_study",
    "KNOWN_TESTS",
]

# (statistic kind, spline degree, dropped top coefficients) per LRT variant.
_LRT_VARIANTS = {
    "lrt1": ("lrt", 1, 0),
    "lrt2": ("lrt", 2, 1),
    "rlrt": ("rlrt", 1, 0),
}
KNOWN_TESTS = ("lrt1", "lrt2", "rlrt", "score", "cusum")

# Replicates per block: the unit of the stacked LRT pass and of the thread pool.
_BLOCK = 32

# The roles of a study's streams. Each stream is keyed (seed, index, role), a
# chunked one extended by its chunk: at most four 32-bit words for a seed below
# 2**32, so two roles' keys differ in a word both have and never name one
# stream (see covtest.rng on the padding of short keys). The index is the
# replicate for its data and its cusum multipliers; for the LRT nulls it is 0
# for the spline terms every variant shares and 1 + the variant's place in
# KNOWN_TESTS for the variant's own terms. A replicate's data stream is
# generate_dataset's stream of S's first column; roles 1 and 2, its other two,
# serve only the fixtures' draw (see _study_fixtures).
_DATA, _MULTIPLIERS, _NULL = 0, 3, 4

_TRUE_COEF = (1.3, 0.45)
_S_VARIANCES = (0.3, 0.4)


def nonlinear_effect(t, c: float):
    """Smooth covariate effect of the simulation design.

    Linear in t at c = 0; the bump term grows with c, pulling the curve
    further from any straight line.
    """
    t = np.asarray(t, dtype=float)
    out = 0.25 * c * t * np.exp(2.0 - 2.0 * t) - t + 0.5
    return out if out.ndim else float(out)


def _draw(t: np.ndarray, effects: np.ndarray, sigmas, seed: rngmod.SeedLike) -> tuple[np.ndarray, np.ndarray]:
    """One study replicate's S (m x 2) and responses, ``seed`` = (master seed,
    replicate): :func:`_data` from one generator, the stream (seed, _DATA),
    which draws S's first column, its second, then z, m values each. Its next
    draw is reserved for random intercepts."""
    rng = rngmod.stream(seed, _DATA)
    return _data(t, effects, sigmas, rng, rng, rng)


def _data(t: np.ndarray, effects: np.ndarray, sigmas, *rngs: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """S (m x 2) and responses: a sigmas x levels x m array whose (sigma, c) row
    is (linear + f_c) + sigma z, with f_c the row of ``effects`` (levels x m,
    :func:`nonlinear_effect` on t), from one draw of S's two columns and z by
    the three generators, in turn. A non-finite response raises the DataError a
    dataset would."""
    m = t.size
    s1 = rngs[0].normal(0.0, math.sqrt(_S_VARIANCES[0]), m)
    s2 = rngs[1].normal(0.0, math.sqrt(_S_VARIANCES[1]), m)
    z = rngs[2].standard_normal(m)
    S, linear = np.column_stack([s1, s2]), _TRUE_COEF[0] * s1 + _TRUE_COEF[1] * s2
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, as the dataset check would
        Y = (linear + effects) + np.asarray(sigmas, dtype=float)[:, None, None] * z
    if not np.isfinite(Y).all():
        _check_finite("y", next(y for y in Y.reshape(-1, m) if not np.isfinite(y).all()))
    return S, Y


def _effects(m: int, levels) -> tuple[np.ndarray, np.ndarray]:
    """t, the fixed grid on [0, 1], and :func:`nonlinear_effect` at each level (levels x m)."""
    t = np.arange(m) / (m - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a response it makes non-finite is reported by _data
        return t, nonlinear_effect(t, np.asarray(levels, dtype=float)[:, None])


def generate_dataset(m: int, sigma: float, c: float, seed: rngmod.SeedLike) -> Dataset:
    """One simulated dataset: two Gaussian covariates, a fixed t grid on
    [0, 1], and Gaussian noise of standard deviation sigma.

    The covariates are N(0, 0.3) and N(0, 0.4), given by their variances; the
    draws come from the per-role streams (seed, 0) and (seed, 1) for S and
    (seed, 2) for z, so datasets with the same seed share draws across c and
    sigma. A study replicate draws the same three from one stream instead
    (:func:`_draw`).
    """
    if m < 2:
        raise ConfigError(f"need m >= 2, got {m}")
    if sigma <= 0:
        raise ConfigError(f"sigma must be > 0, got {sigma}")
    t, effects = _effects(m, [c])
    S, ((y,),) = _data(t, effects, [sigma], *(rngmod.stream(seed, role) for role in range(3)))
    return Dataset(y=y, S=S, t=t)


@dataclass(frozen=True)
class SimConfig:
    """Full description of one study; every field feeds the provenance echo."""

    m_values: tuple[int, ...] = (50, 100)
    sigma_values: tuple[float, ...] = (0.25, 0.5)
    c_values: tuple[float, ...] = (0, 1, 2, 3, 4)
    levels: tuple[float, ...] = (0.05, 0.1)
    tests: tuple[str, ...] = ("lrt1", "lrt2", "rlrt", "score")
    n_runs: int = 1000
    n_knots: int = 20
    n_sims_null: int = 10000
    cusum_resamples: int = 1000
    seed: int = 0
    threads: int = 1
    cache_dir: str | None = None

    def __post_init__(self):
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")
        if not all(math.isfinite(c) for c in self.c_values):
            raise ConfigError(f"departure levels must be finite, got {list(self.c_values)}")
        if not all(math.isfinite(s) and s > 0 for s in self.sigma_values):
            raise ConfigError(f"sigma values must be finite and > 0, got {list(self.sigma_values)}")
        if "cusum" in self.tests and self.cusum_resamples < 1:
            raise ConfigError(f"cusum_resamples must be >= 1, got {self.cusum_resamples}")
        if not all(0.0 < a < 1.0 for a in self.levels):
            raise ConfigError(f"nominal levels must lie in (0, 1), got {list(self.levels)}")
        unknown = [t for t in self.tests if t not in KNOWN_TESTS]
        if unknown:
            raise ConfigError(f"unknown tests {unknown}; known: {list(KNOWN_TESTS)}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        check_seed(self.seed)
        for axis, noun in (("m_values", "sample size"), ("sigma_values", "noise level"),
                           ("c_values", "departure level"), ("levels", "nominal level"), ("tests", "test")):
            values = getattr(self, axis)
            if not values:
                raise ConfigError(f"{axis} needs at least one {noun}")
            if len(set(values)) < len(values):
                raise ConfigError(f"{axis} lists a value more than once: {list(values)}")

    def lines(self) -> list[str]:
        """Flat key = value echo of the effective configuration."""
        out = []
        for key in (f.name for f in fields(self)):
            value = getattr(self, key)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            out.append(f"{key} = {value}")
        return out


@dataclass(frozen=True)
class SimCell:
    test: str
    m: int
    sigma: float
    c: float
    level: float
    n_runs: int
    failures: int
    rejections: int

    @property
    def fraction(self) -> float:
        valid = self.n_runs - self.failures
        return self.rejections / valid if valid else float("nan")

    @property
    def se(self) -> float:
        valid = self.n_runs - self.failures
        return math.sqrt(self.fraction * (1.0 - self.fraction) / valid) if valid else float("nan")


@dataclass
class SimReport:
    """The cells of a study, indexed once by (test, m, sigma, c, level)."""

    CSV_HEADER = "test,m,sigma,c,level,n_runs,failures,rejections,fraction,se"
    cells: list[SimCell]
    failure_messages: list[str] = field(default_factory=list)
    runtime_s: float = 0.0

    def __post_init__(self):
        self._index = {(cell.test, cell.m, cell.sigma, cell.c, cell.level): cell for cell in self.cells}

    def get(self, test: str, m: int, sigma: float, c: float, level: float) -> SimCell:
        """The cell at these axis values; KeyError if the report has none."""
        return self._index[test, m, sigma, c, level]

    def to_csv(self) -> str:
        """Machine-readable report; deterministic given the same counts."""
        lines = [self.CSV_HEADER]
        for cell in self.cells:
            lines.append(
                f"{cell.test},{cell.m},{cell.sigma:g},{cell.c:g},{cell.level:g},"
                f"{cell.n_runs},{cell.failures},{cell.rejections},"
                f"{cell.fraction:.6f},{cell.se:.6f}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, source: str) -> SimReport:
        """The report of a :meth:`to_csv` text. A ConfigError naming ``source`` rejects a
        foreign header, no rows, a repeated cell and a row that lacks a number, has a
        non-finite axis value, a negative count or n_runs < max(1, failures + rejections)."""
        lines = text.strip().splitlines()
        header = lines[0].split(",") if lines else []
        if header != cls.CSV_HEADER.split(","):
            raise ConfigError(f"{source}: not a study report CSV (header {header})")
        cells: dict[tuple, SimCell] = {}  # in row order: row r holds entry r - 2
        for row, line in enumerate(lines[1:], 2):
            f = line.split(",")
            try:
                if len(f) != len(header):
                    raise ValueError
                cell = SimCell(f[0], int(f[1]), *map(float, f[2:5]), *map(int, f[5:8]))
                finite = all(map(math.isfinite, (cell.sigma, cell.c, cell.level)))
                float(f[8]) + float(f[9])  # fraction and se: numbers, but recomputed from the counts
                if not (finite and min(cell.failures, cell.rejections) >= 0
                        and cell.n_runs >= max(1, cell.failures + cell.rejections)):
                    raise ValueError
            except ValueError:
                raise ConfigError(f"{source}:{row}: malformed report row {line!r}") from None
            key = (cell.test, cell.m, cell.sigma, cell.c, cell.level)
            if key in cells:
                raise ConfigError(f"{source}:{row}: repeats the cell of row {list(cells).index(key) + 2}")
            cells[key] = cell
        if not cells:
            raise ConfigError(f"{source}: report CSV has no rows")
        return cls(cells=list(cells.values()))

    def to_table(self) -> str:
        """Aligned text table: one block per m, rows test within sigma within
        level, one column per departure level c (c = 0 is the empirical size).
        Each axis is in its values' order of first appearance in the cells, the
        run count is the largest cell's, and a cell missing from the report reads n/a."""
        tests, m_values, sigmas, c_values, levels = (dict.fromkeys(values) for values in zip(*self._index))
        n_runs = max(cell.n_runs for cell in self.cells)
        out = []
        for m in m_values:
            out.append(f"empirical rejection rates, m = {m}, {n_runs} runs")
            header = f"{'level':>6} {'sigma':>6} {'test':<6}" + "".join(f"{f'c={c:g}':>8}" for c in c_values)
            out.append(header)
            out.append("-" * len(header))
            for level in levels:
                for sigma in sigmas:
                    for test in tests:
                        row = f"{level:>6g} {sigma:>6g} {test:<6}"
                        for c in c_values:
                            cell = self._index.get((test, m, sigma, c, level))
                            row += f"{'n/a':>8}" if cell is None else f"{cell.fraction:>8.3f}"
                        out.append(row)
                out.append("")
            out.append("")
        return "\n".join(out)


class _LrtDegree(NamedTuple):
    """The LRT variants of one spline degree: its ProfileSolver and lambda grid, and
    per member variant, in ``tests`` order, its test index, kind, h and null."""

    solver: ProfileSolver
    grid: LambdaGrid
    members: list[tuple[int, str, int, NullDistribution]]


def _study_fixtures(config: SimConfig, m: int):
    """Pieces shared by every replicate and departure level of one m: t and
    the departure effects at every c (:func:`_effects`); per
    spline degree used (1 for score and cusum), the design of
    ``generate_dataset(m, sigma, 0, (seed, 0))``, whose S's first column is
    replicate 0's and whose A and B every replicate shares as t is the same
    grid, with knots only for an LRT degree, since score and cusum read X
    alone; per LRT degree an :class:`_LrtDegree`, in the order of its first
    variant in ``tests``, all read from that design's one spectrum.
    The nulls of every variant come from one pass of draws
    (:func:`~covtest.exact_lrt.simulate_nulls`): the spline terms from the
    streams (seed, 0, _NULL, chunk), shared, and a variant's own terms from
    (seed, 1 + its place in KNOWN_TESTS, _NULL, chunk), so its null does not
    depend on the other tests or their order.
    Building a design raises the ModelError of an m too small to fit it, and a
    null count whose draws cannot be allocated is refused there as the config
    error of ``--nsims`` (:func:`~covtest.errors.sized_by`)."""
    base = generate_dataset(m, config.sigma_values[0], 0, (config.seed, 0))
    lrt = [(ti, name, *_LRT_VARIANTS[name]) for ti, name in enumerate(config.tests) if name in _LRT_VARIANTS]
    knotted = {d for *_, d, _ in lrt}
    degrees = knotted | ({1} if {"score", "cusum"} & set(config.tests) else set())
    designs = {d: build_design(base, place_knots(base.t, config.n_knots if d in knotted else 0, d))
               for d in sorted(degrees)}
    caches = {d: spectral_decompose(designs[d]) for *_, d, _ in lrt}  # each reads its design's one spectrum
    grids = {d: default_lambda_grid(cache) for d, cache in caches.items()}
    nulls = []
    if lrt:
        variants = [NullVariant(caches[d], kind, h, grids[d], (config.seed, 1 + KNOWN_TESTS.index(name), _NULL))
                    for _, name, kind, d, h in lrt]
        with sized_by("nsims", config.n_sims_null):
            nulls = simulate_nulls(variants, config.n_sims_null, (config.seed, 0, _NULL), config.cache_dir)
    fixtures: dict = {"effects": _effects(m, config.c_values), "designs": designs,
                      "lrt": {d: _LrtDegree(ProfileSolver(designs[d]), grid, []) for d, grid in grids.items()}}
    for (ti, _, kind, d, h), null in zip(lrt, nulls):
        fixtures["lrt"][d].members.append((ti, kind, h, null))
    if "score" in config.tests:
        fixtures["kernel"] = smoother_kernel(base.t, 1, NATURAL_SPLINE)
    return fixtures


def _block_data(config: SimConfig, t: np.ndarray, effects: np.ndarray,
                reps: range) -> tuple[np.ndarray, np.ndarray]:
    """Responses (R x m x SC, one column per noise and departure level,
    sigma-major) and covariates (R x m x 2) of the replicates ``reps``: one
    :func:`_draw` per replicate, keyed (seed, rep), for every (sigma, c), written
    into the two arrays as it is made."""
    m, n_cols = t.size, len(config.sigma_values) * len(config.c_values)
    Y, S = np.empty((len(reps), m, n_cols)), np.empty((len(reps), m, 2))
    for r, rep in enumerate(reps):
        S[r], rows = _draw(t, effects, config.sigma_values, (config.seed, rep))
        Y[r] = rows.reshape(n_cols, m).T
    return Y, S


def _run_block(config: SimConfig, fixtures: dict, reps: range):
    """The p-values (test x replicate x column, NaN where a cell failed or its
    score tail is still to be taken), the score test's ScoreResult (None
    without it) and the failed cells of the replicates ``reps``, which map
    (replicate, column) to their (test index, error) pairs in evaluation
    order: the LRT degrees, then score and cusum in ``tests`` order.

    Every (sigma, c) of a replicate shares its draw, S and hence X, so per
    degree the block takes one QR of the stacked X = [S | A] and each LRT
    degree one ProfileSolver call for its variants. Score and cusum share one
    OLS fit of the stack; cusum resamples each cell at unit variance, which
    its sups do not depend on, from the streams (seed, rep, _MULTIPLIERS,
    chunk). A count whose arrays cannot be allocated is refused as the config
    error of its flag. The block's arrays are its own, so blocks may run on
    separate threads.
    """
    tests = config.tests
    Y, S = _block_data(config, *fixtures["effects"], reps)
    factored = {d: stacked_qr(np.stack([np.hstack([s, design.A]) for s in S]))
                for d, design in fixtures["designs"].items()}
    pvals = np.full((len(tests), len(reps), Y.shape[2]), np.nan)
    failed: dict[tuple[int, int], list] = {}

    def fail(cell_errors: dict, indices: list[int]) -> None:
        for (r, k), error in cell_errors.items():
            pvals[indices, r, k] = np.nan
            failed.setdefault((reps[r], k), []).extend((ti, error) for ti in indices)

    for d, group in fixtures["lrt"].items():
        stats, *_, cell_errors = group.solver.statistics(Y, factored[d], group.grid,
                                                         [(kind, h) for _, kind, h, _ in group.members])
        for j, (ti, _, _, null) in enumerate(group.members):
            pvals[ti] = p_value(stats[j], null)
        fail(cell_errors, [ti for ti, *_ in group.members])
    scores = None
    if "score" in tests or "cusum" in tests:
        proj, fits, t = factored[1], fit_ols_columns(Y, factored[1]), fixtures["designs"][1].t
    for ti, name in enumerate(tests):
        if name == "score":
            scores, cell_errors = score_statistics(fits.residuals, fits.sigma2, proj, fixtures["kernel"],
                                                   tail=False)
            fail({**cell_errors, **fits.failed}, [ti])  # a cell whose fit failed reports the fit's error
        elif name == "cusum":  # SimConfig checks cusum_resamples, so only a fit can fail
            from .cusum_test import cumulative_process, multiplier_null, sup_test

            for r, k in np.ndindex(len(reps), Y.shape[2]):
                if (r, k) not in fits.failed:
                    fit = fits.null_fit(r, k)
                    with sized_by("resamples", config.cusum_resamples):
                        sups = multiplier_null(fit, proj.replicate(r), t, config.cusum_resamples,
                                               seed=(config.seed, reps[r], _MULTIPLIERS))
                    pvals[ti, r, k] = sup_test(cumulative_process(fit, t), sups).p_value
            fail(fits.failed, [ti])
    return pvals, scores, failed


def _study_m(config: SimConfig, m: int) -> tuple[list[SimCell], list[str]]:
    """The cells and failure messages of one m, whose arrays are freed before the
    next m's nulls are simulated. Its blocks of ``_BLOCK`` replicates may run on
    a thread pool; the score test's chi-square tails are then taken in one call,
    elementwise, so no cell's bits depend on the blocks."""
    tests, sigmas, c_values, levels = config.tests, config.sigma_values, config.c_values, config.levels
    fixtures = _study_fixtures(config, m)
    blocks = [range(start, min(start + _BLOCK, config.n_runs)) for start in range(0, config.n_runs, _BLOCK)]

    def job(reps: range):
        return _run_block(config, fixtures, reps)

    if config.threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # loads logging; serial runs skip it

        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(job, blocks))
    else:
        results = [job(reps) for reps in blocks]
    del fixtures  # the nulls and their sorted copies, before the arrays below are made
    pvals = np.concatenate([block_pvals for block_pvals, _, _ in results], axis=1)
    failed = {cell: errors for *_, block_failed in results for cell, errors in block_failed.items()}
    if "score" in tests:  # its pending cells in (replicate, column) order; a failed tail comes last in its cell
        ti = tests.index("score")
        pending = np.ones(pvals.shape[1:], dtype=bool)
        for cell, errors in failed.items():
            pending[cell] &= all(i != ti for i, _ in errors)
        u_quad = np.concatenate([scores.u_quad for _, scores, _ in results])[pending]
        moments = ScoreMoments(*(np.concatenate([getattr(scores.moments, f.name) for _, scores, _ in results])
                                 [pending] for f in fields(ScoreMoments)))
        pvals[ti][pending], errors = _tail_p_values(u_quad, moments)
        cells_of = np.argwhere(pending)
        for (i,), error in errors.items():
            failed.setdefault(tuple(map(int, cells_of[i])), []).append((ti, error))
    shape = (len(tests), len(sigmas), len(c_values))
    counts = (pvals[..., None] < np.asarray(levels)).sum(axis=1).reshape(shape + (len(levels),))
    fails = np.isnan(pvals).sum(axis=1).reshape(shape)
    n_c = len(c_values)
    messages = [f"{tests[ti]} m={m} sigma={sigmas[k // n_c]:g} c={c_values[k % n_c]:g} rep={rep}: {error}"
                for rep, k in sorted(failed, key=lambda cell: (cell[1] // n_c, cell)) for ti, error in failed[rep, k]]
    cells = [SimCell(test=test, m=m, sigma=sigma, c=c, level=level, n_runs=config.n_runs,
                     failures=int(fails[ti, si, ci]), rejections=int(counts[ti, si, ci, li]))
             for si, sigma in enumerate(sigmas) for ti, test in enumerate(tests)
             for ci, c in enumerate(c_values) for li, level in enumerate(levels)]
    return cells, messages


def run_study(config: SimConfig) -> SimReport:
    """Run the full study described by ``config``, one m at a time.

    Every test sees the same replicates, and the output is the same for any
    worker count. Cells and failure messages are listed in (m, sigma,
    replicate, c, test) order.
    """
    started = time.perf_counter()
    cells: list[SimCell] = []
    messages: list[str] = []
    for m in config.m_values:
        m_cells, m_messages = _study_m(config, m)
        cells += m_cells
        messages += m_messages
    # Each application is counted once per level; SimConfig makes every axis non-empty.
    total_fail, total_apps = (sum(cell.failures for cell in cells) // len(config.levels),
                              len(cells) // len(config.levels) * config.n_runs)
    if total_fail > 0.01 * total_apps:
        raise StudyError(f"{total_fail} of {total_apps} test applications failed (> 1%): "
                         f"{'; '.join(messages[:5])}")
    return SimReport(cells=cells, failure_messages=messages, runtime_s=time.perf_counter() - started)
