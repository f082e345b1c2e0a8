"""Monte Carlo size/power study for the four lack-of-fit tests.

Generates partially linear datasets with a tunable smooth departure from
linearity, applies the configured tests to each replicate, and tabulates
empirical rejection rates per (test, sample size, noise level, departure,
nominal level). Per-replicate random streams are keyed by (master seed,
replicate, variate role), so the generated data do not depend on which tests
are enabled, on the execution order, or on the worker count. The departure
levels of a replicate share S and t, hence one draw and one X per spline
degree. Replicates run in blocks of ``_BLOCK``, each one stacked LRT/RLRT
decomposition per spline degree.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import rng as rngmod
from .data_io import Dataset
from .errors import ConfigError, CovtestError, StudyError
from .exact_lrt import (
    ProfileSolver,
    default_lambda_grid,
    p_value,
    simulate_null_cached,
    spectral_decompose,
)
from .null_fit import fit_ols_columns
from .score_test import score_statistics
from .cusum_test import cumulative_process, multiplier_null, sup_test
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


def generate_dataset(
    m: int,
    sigma: float,
    c: float | tuple[float, ...],
    seed: rngmod.SeedLike,
    s_scale_as_sd: bool = False,
) -> Dataset | list[Dataset]:
    """One simulated dataset: two Gaussian covariates, a fixed t grid on
    [0, 1], and Gaussian noise of standard deviation sigma.

    The second argument of the covariate law is a variance by default
    (``s_scale_as_sd=True`` reads it as a standard deviation instead). The
    covariate and noise draws come from per-role streams under ``seed``, so
    datasets with the same seed share draws across c and sigma. A sequence
    ``c`` gives one dataset per departure level from one set of draws: they
    share S and t, and each y equals the one a scalar call with that c gives.
    """
    if m < 2:
        raise ConfigError(f"need m >= 2, got {m}")
    if sigma <= 0:
        raise ConfigError(f"sigma must be > 0, got {sigma}")
    scale = (lambda v: v) if s_scale_as_sd else math.sqrt
    s1 = rngmod.stream(seed, 0).normal(0.0, scale(_S_VARIANCES[0]), m)
    s2 = rngmod.stream(seed, 1).normal(0.0, scale(_S_VARIANCES[1]), m)
    noise = sigma * rngmod.stream(seed, 2).standard_normal(m)
    t = np.arange(m) / (m - 1)
    S, linear = np.column_stack([s1, s2]), _TRUE_COEF[0] * s1 + _TRUE_COEF[1] * s2
    out = [Dataset(y=linear + nonlinear_effect(t, level) + noise, S=S, t=t)
           for level in (c if np.ndim(c) else [c])]
    return out if np.ndim(c) else out[0]


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
    s_scale_as_sd: bool = False
    cache_dir: str | None = None

    def __post_init__(self):
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")
        if not self.c_values:
            raise ConfigError("c_values needs at least one departure level")
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
        if not valid:
            return float("nan")
        f = self.fraction
        return math.sqrt(f * (1.0 - f) / valid)


@dataclass
class SimReport:
    cells: list[SimCell]
    config: SimConfig
    failure_messages: list[str] = field(default_factory=list)
    runtime_s: float = 0.0

    def get(self, test: str, m: int, sigma: float, c: float, level: float) -> SimCell:
        key = (test, m, sigma, c, level)
        for cell in self.cells:
            if (cell.test, cell.m, cell.sigma, cell.c, cell.level) == key:
                return cell
        raise KeyError(key)

    def to_csv(self) -> str:
        """Machine-readable report; deterministic given the same counts."""
        lines = ["test,m,sigma,c,level,n_runs,failures,rejections,fraction,se"]
        for cell in self.cells:
            lines.append(
                f"{cell.test},{cell.m},{cell.sigma:g},{cell.c:g},{cell.level:g},"
                f"{cell.n_runs},{cell.failures},{cell.rejections},"
                f"{cell.fraction:.6f},{cell.se:.6f}"
            )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        """Aligned text table: one block per m, rows test within sigma within
        level, one column per departure level c (c = 0 is the empirical size)."""
        cfg = self.config
        out = []
        for m in cfg.m_values:
            out.append(f"empirical rejection rates, m = {m}, {cfg.n_runs} runs")
            header = f"{'level':>6} {'sigma':>6} {'test':<6}" + "".join(
                f"{f'c={c:g}':>8}" for c in cfg.c_values
            )
            out.append(header)
            out.append("-" * len(header))
            for level in cfg.levels:
                for sigma in cfg.sigma_values:
                    for test in cfg.tests:
                        row = f"{level:>6g} {sigma:>6g} {test:<6}"
                        for c in cfg.c_values:
                            row += f"{self.get(test, m, sigma, c, level).fraction:>8.3f}"
                        out.append(row)
                out.append("")
            out.append("")
        return "\n".join(out)


def _study_fixtures(config: SimConfig, m: int):
    """Pieces shared by every replicate and departure level of one m: per
    spline degree used (1 for score and cusum), the design of one draw, whose
    A and B every replicate shares as t is the same grid; per LRT degree, a
    ProfileSolver, the lambda grid and each variant's null distribution. The
    variants of a degree form a group, evaluated in one call for all c."""
    base = generate_dataset(m, config.sigma_values[0], 0, (config.seed, 0), config.s_scale_as_sd)
    lrt = [(vi, name, *_LRT_VARIANTS[name]) for vi, name in enumerate(config.tests)
           if name in _LRT_VARIANTS]
    degrees = {d for _, _, _, d, _ in lrt} | ({1} if {"score", "cusum"} & set(config.tests) else set())
    designs = {d: build_design(base, place_knots(base.t, config.n_knots, d)) for d in sorted(degrees)}
    groups: dict[int, list[tuple[int, str, str, int]]] = {}
    fixtures: dict = {"designs": designs, "lrt_groups": groups}
    for vi, name, kind, d, h in lrt:
        if d not in groups:
            fixtures[("cache", d)] = spectral_decompose(designs[d])
            fixtures[("solver", d)] = ProfileSolver(designs[d].B)
            fixtures[("grid", d)] = default_lambda_grid(fixtures[("cache", d)])
        fixtures[("null", name)] = simulate_null_cached(
            fixtures[("cache", d)], kind, h, fixtures[("grid", d)], config.n_sims_null,
            seed=(config.seed, 9000 + vi), cache_dir=config.cache_dir,
        )
        groups.setdefault(d, []).append((vi, name, kind, h))
    if "score" in config.tests:
        fixtures["kernel"] = smoother_kernel(base.t, 1, NATURAL_SPLINE)
    return fixtures


def _run_block(config: SimConfig, m: int, sigma: float, fixtures: dict, reps: range):
    """Rejection counts (test x c x level), failure counts (test x c) and
    failure messages of the replicates ``reps``.

    Each replicate draws every c at once, so its c share S, t and hence X. Per
    degree the block stacks the replicates' X = [S | A] and takes one QR of
    the stack; each LRT group makes one ProfileSolver call on the stacked
    responses and one p-value lookup per variant. A replicate whose X is
    rejected fails all its cells with the rejection. Per replicate, score and
    cusum share the OLS fits of all c from its QR and their unit-variance
    projection, which the score rescales per fit and the resampled cusum sups
    do not depend on.
    """
    tests, n_c, levels = config.tests, len(config.c_values), np.asarray(config.levels)
    draws = [generate_dataset(m, sigma, config.c_values, (config.seed, rep), config.s_scale_as_sd)
             for rep in reps]
    Y = np.stack([np.column_stack([dataset.y for dataset in datasets]) for datasets in draws])
    S = np.stack([datasets[0].S for datasets in draws])
    X = {d: np.concatenate([S, np.broadcast_to(design.A, (len(S),) + design.A.shape)], axis=2)
         for d, design in fixtures["designs"].items()}
    factors = {d: stacked_qr(Xd) for d, Xd in X.items()}
    pvals: dict[int, list] = {}  # test index -> per replicate, per c a p-value or the error that failed it
    for d, members in fixtures["lrt_groups"].items():
        specs = [(kind, h) for _, _, kind, h in members]
        per_rep = fixtures[("solver", d)].statistics(Y, X[d], fixtures[("grid", d)], specs, factors[d])
        per_rep = [[cells] * n_c if isinstance(cells, CovtestError) else cells for cells in per_rep]
        ok = [res for per_c in per_rep for res in per_c if not isinstance(res, CovtestError)]
        for j, (ti, name, _, _) in enumerate(members):
            found = iter(p_value(np.array([res[j].statistic for res in ok]), fixtures[("null", name)]))
            pvals[ti] = [[res if isinstance(res, CovtestError) else next(found) for res in per_c]
                         for per_c in per_rep]
    ols = [(ti, name) for ti, name in enumerate(tests) if name in ("score", "cusum")]
    pvals.update((ti, []) for ti, _ in ols)
    for r, (rep, datasets) in enumerate(zip(reps, draws) if ols else ()):
        Q, R, errors = factors[1]  # a rejected X is left to the fit, which raises its error
        design = replace(fixtures["designs"][1], X=X[1][r], qr=None if errors[r] else (Q[r], R[r]))
        try:
            proj, fits = fit_ols_columns(datasets, design)
        except CovtestError as exc:  # the shared X failed: every c fails
            proj, fits = None, [exc] * n_c
        for ti, name in ols:
            if name == "score":
                try:
                    scores = fits if proj is None else score_statistics(fits, proj, fixtures["kernel"])
                except CovtestError as exc:
                    scores = [exc] * n_c
                pvals[ti].append([s if isinstance(s, CovtestError) else s.p_value for s in scores])
            else:  # cusum; SimConfig checks cusum_resamples, so only a fit can fail
                pvals[ti].append([
                    fit if isinstance(fit, CovtestError) else sup_test(
                        cumulative_process(fit, dataset.t),
                        multiplier_null(fit, proj, dataset.t, config.cusum_resamples,
                                        seed=(config.seed, rep, 3)),
                    ).p_value
                    for dataset, fit in zip(datasets, fits)
                ])
    counts = np.zeros((len(tests), n_c, len(levels)), dtype=np.int64)
    fails = np.zeros((len(tests), n_c), dtype=np.int64)
    messages = []
    for r, rep in enumerate(reps):
        for ci, c in enumerate(config.c_values):
            for ti, per_rep in pvals.items():
                cell = per_rep[r][ci]
                if isinstance(cell, CovtestError):
                    fails[ti, ci] += 1
                    messages.append(f"{tests[ti]} m={m} sigma={sigma:g} c={c:g} rep={rep}: {cell}")
                else:
                    counts[ti, ci] += cell < levels
    return counts, fails, messages


def run_study(config: SimConfig) -> SimReport:
    """Run the full study described by ``config``.

    Every configured test sees the same generated dataset within a replicate.
    Null distributions for the LRT variants are simulated once per (m, design)
    and reused across replicates and departure levels. The replicates of each
    (m, sigma) run in blocks of ``_BLOCK`` (see :func:`_run_block`), which may
    run on a thread pool; the output is the same for any worker count.
    """
    started = time.perf_counter()
    cells: list[SimCell] = []
    all_messages: list[str] = []
    total_fail = 0
    total_apps = 0
    for m in config.m_values:
        fixtures = _study_fixtures(config, m)
        for sigma in config.sigma_values:
            shape = (len(config.tests), len(config.c_values), len(config.levels))
            counts = np.zeros(shape, dtype=np.int64)
            fails = np.zeros(shape[:2], dtype=np.int64)

            blocks = [range(start, min(start + _BLOCK, config.n_runs))
                      for start in range(0, config.n_runs, _BLOCK)]

            def job(reps: range):
                return _run_block(config, m, sigma, fixtures, reps)

            if config.threads > 1:
                with ThreadPoolExecutor(max_workers=config.threads) as pool:
                    results = list(pool.map(job, blocks))
            else:
                results = [job(reps) for reps in blocks]
            for block_counts, block_fails, messages in results:
                counts += block_counts
                fails += block_fails
                all_messages.extend(messages)
            for ti, test in enumerate(config.tests):
                for ci, c in enumerate(config.c_values):
                    for li, level in enumerate(config.levels):
                        cells.append(SimCell(
                            test=test, m=m, sigma=sigma, c=c, level=level, n_runs=config.n_runs,
                            failures=int(fails[ti, ci]), rejections=int(counts[ti, ci, li]),
                        ))
            total_fail += int(fails.sum())
            total_apps += len(config.tests) * len(config.c_values) * config.n_runs
        del fixtures  # this m's nulls and their sorted copies, before the next m's are simulated
    if total_apps and total_fail > 0.01 * total_apps:
        preview = "; ".join(all_messages[:5])
        raise StudyError(
            f"{total_fail} of {total_apps} test applications failed (> 1%): {preview}"
        )
    return SimReport(
        cells=cells,
        config=config,
        failure_messages=all_messages,
        runtime_s=time.perf_counter() - started,
    )
