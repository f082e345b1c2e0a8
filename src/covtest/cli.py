"""Command-line front end.

Subcommands: ``test`` (one test on a CSV file), ``simulate`` (Monte Carlo
size/power study), ``null-sim`` (precompute a null-distribution cache),
``report`` (re-render a study CSV as an aligned table). All randomness flows
from --seed; reruns with identical flags produce byte-identical result files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cusum_test import cumulative_process, multiplier_null, multiplier_processes, sup_test
from .data_io import ColumnMap, Dataset, load_csv, summarize
from .errors import ConfigError, CovtestError
from .exact_lrt import (
    attach_pvalue,
    default_lambda_grid,
    observed_statistic,
    simulate_null_cached,
    spectral_decompose,
)
from .null_fit import fit_ols, fit_reml_random_intercept, reml_projection
from .score_test import run_score_test
from .sim_study import SimCell, SimConfig, run_study
from .spline_basis import NATURAL_SPLINE, PENALIZED_GRAM, build_design, place_knots

_KERNELS = {"natural": NATURAL_SPLINE, "penalized": PENALIZED_GRAM}

_DEFAULTS = {
    "method": "rlrt",
    "degree": 1,
    "h": 0,
    "knots": 20,
    "kernel": "natural",
    "nsims": 10000,
    "resamples": 1000,
    "seed": 0,
    "level": 0.05,
    "out": ".",
    "threads": 1,
    "rescale_t": False,
    "y_col": "y",
    "t_col": "t",
    "s_cols": None,
    "cluster_col": None,
    "ordering": "t",
    "emit_processes": 0,
    "grid_points": 200,
    "grid_span": "1e-6,1e8",
    "m": "50,100",
    "sigma": "0.25,0.5",
    "c": "0,1,2,3,4",
    "runs": 1000,
    "tests": "lrt1,lrt2,rlrt,score",
    "levels": "0.05,0.1",
    "input": None,
    "config": None,
}


def _add_common(sub: argparse.ArgumentParser, *names: str) -> None:
    spec = {
        "input": dict(type=str, help="input CSV path"),
        "method": dict(choices=["lrt", "rlrt", "score", "cusum"], help="test to run"),
        "degree": dict(type=int, help="spline degree d"),
        "h": dict(type=int, help="top polynomial coefficients dropped under the null"),
        "knots": dict(type=int, help="number of quantile knots"),
        "kernel": dict(choices=list(_KERNELS), help="smoother kernel for the score test"),
        "nsims": dict(type=int, help="null-distribution simulation draws"),
        "resamples": dict(type=int, help="multiplier resamples for the cusum test"),
        "seed": dict(type=int, help="master seed; the only entropy source"),
        "level": dict(type=float, help="nominal level for the decision line"),
        "out": dict(type=str, help="output directory"),
        "threads": dict(type=int, help="worker count (results are identical for any value)"),
        "config": dict(type=str, help="flat key = value config file; flags win"),
        "rescale-t": dict(action="store_const", const=True, help="affinely map t to [0, 1] at load"),
        "y-col": dict(type=str, help="response column name"),
        "t-col": dict(type=str, help="smooth covariate column name"),
        "s-cols": dict(type=str, help="comma-separated covariate columns (default: all others)"),
        "cluster-col": dict(type=str, help="cluster label column"),
        "ordering": dict(choices=["t", "fitted"], help="ordering variable for the cusum process"),
        "emit-processes": dict(type=int, help="also write this many resampled cusum paths as CSV"),
        "grid-points": dict(type=int, help="log-spaced smoothing-grid points after 0"),
        "grid-span": dict(type=str, help="smoothing-grid span as LO,HI (scaled by the design)"),
        "m": dict(type=str, help="comma-separated sample sizes"),
        "sigma": dict(type=str, help="comma-separated noise standard deviations"),
        "c": dict(type=str, help="comma-separated departure levels"),
        "runs": dict(type=int, help="Monte Carlo replicates"),
        "tests": dict(type=str, help="comma-separated tests: lrt1,lrt2,rlrt,score,cusum"),
        "levels": dict(type=str, help="comma-separated nominal levels"),
    }
    for name in names:
        sub.add_argument(f"--{name}", default=None, **spec[name])


def _read_config_file(path: str) -> dict:
    values: dict = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _coerce(key: str, value):
    if value is None or not isinstance(value, str):
        return value
    caster = {
        "degree": int, "h": int, "knots": int, "nsims": int, "resamples": int,
        "seed": int, "threads": int, "runs": int, "emit_processes": int,
        "grid_points": int, "level": float,
        "rescale_t": lambda s: s.lower() in ("1", "true", "yes", "on"),
    }.get(key)
    return caster(value) if caster else value


def _effective(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        for key, value in _read_config_file(args.config).items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = _coerce(key, value)
    for key, value in vars(args).items():
        if key in cfg and value is not None:
            cfg[key] = value
    return cfg


def _echo_lines(cfg: dict, keys: list[str]) -> list[str]:
    return [f"{key.replace('_', '-')} = {cfg[key]}" for key in keys if cfg[key] is not None]


def _load_dataset(cfg: dict) -> Dataset:
    if not cfg["input"]:
        raise ConfigError("--input is required")
    s_cols = tuple(cfg["s_cols"].split(",")) if cfg["s_cols"] else None
    dataset = load_csv(
        cfg["input"],
        ColumnMap(y=cfg["y_col"], t=cfg["t_col"], s=s_cols, cluster=cfg["cluster_col"]),
    )
    if cfg["rescale_t"]:
        dataset = dataset.with_rescaled_t()
    return dataset


def _grid_for(cfg: dict, cache):
    text = str(cfg["grid_span"])
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"--grid-span must be two numbers LO,HI, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise ConfigError(f"--grid-span needs finite 0 < LO < HI, got {text!r}")
    return default_lambda_grid(cache, n_points=int(cfg["grid_points"]), span=(lo, hi))


def _require_independent(cfg: dict) -> None:
    if cfg["cluster_col"]:
        raise ConfigError(
            "the LRT and RLRT support independent data only; "
            "use --method score or cusum for clustered data"
        )


def _cache_dir(cfg: dict) -> Path:
    env = os.environ.get("COVTEST_CACHE_DIR")
    return Path(env) if env else Path(cfg["out"]) / "null_cache"


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


_ECHO_TEST_KEYS = [
    "input", "method", "degree", "h", "knots", "kernel", "nsims", "resamples",
    "seed", "level", "out", "threads", "rescale_t", "y_col", "t_col", "s_cols",
    "cluster_col", "ordering",
]


def _cmd_test(args: argparse.Namespace) -> int:
    cfg = _effective(args)
    if cfg["method"] in ("lrt", "rlrt"):
        _require_independent(cfg)
    dataset = _load_dataset(cfg)
    method = cfg["method"]
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    info = summarize(dataset)
    record: dict = {
        "method": method,
        "n": info.n,
        "p": info.p,
        "effective_config": _echo_lines(cfg, _ECHO_TEST_KEYS),
    }
    if method in ("lrt", "rlrt"):
        knots = place_knots(dataset.t, cfg["knots"], cfg["degree"])
        design = build_design(dataset, knots)
        cache = spectral_decompose(design)
        grid = _grid_for(cfg, cache)
        null = simulate_null_cached(
            cache, method, cfg["h"], grid, cfg["nsims"],
            seed=(cfg["seed"], 1), cache_dir=_cache_dir(cfg),
        )
        result = attach_pvalue(
            observed_statistic(dataset, design, method, cfg["h"], grid), null
        )
        record.update(
            statistic=result.statistic,
            p_value=result.p_value,
            lambda_hat=result.lambda_hat,
            nuisance=result.nuisance,
            null_zero_mass=null.zero_mass_fraction,
            null_provenance=result.null_provenance,
        )
    elif method == "score":
        knots = place_knots(dataset.t, cfg["knots"], cfg["degree"]) if cfg["kernel"] == "penalized" else None
        result = run_score_test(
            dataset, degree=cfg["degree"], kernel_kind=_KERNELS[cfg["kernel"]], knots=knots
        )
        record.update(
            statistic=result.u_score,
            u_quad=result.u_quad,
            null_mean=result.null_mean,
            p_value=result.p_value,
            moments={
                "mean": result.moments.mean,
                "variance": result.moments.variance,
                "scale": result.moments.scale,
                "df": result.moments.df,
            },
        )
    else:  # cusum
        knots = place_knots(dataset.t, cfg["knots"], cfg["degree"])
        design = build_design(dataset, knots)
        if dataset.cluster is not None and dataset.n_units >= 2:
            fit = fit_reml_random_intercept(dataset, design)
        else:
            fit = fit_ols(dataset, design)
        proj = reml_projection(fit, design.X)
        ordering = dataset.t if cfg["ordering"] == "t" else fit.fitted
        process = cumulative_process(fit, ordering)
        sups = multiplier_null(fit, proj, ordering, cfg["resamples"], seed=(cfg["seed"], 2))
        result = sup_test(process, sups, process=cfg["ordering"])
        record.update(
            statistic=result.observed_sup,
            p_value=result.p_value,
            n_resamples=result.n_resamples,
            process=result.process,
        )
        if cfg["emit_processes"]:
            points, paths = multiplier_processes(
                fit, proj, ordering, cfg["emit_processes"], seed=(cfg["seed"], 2)
            )
            lines = ["point,observed," + ",".join(f"resample_{k+1}" for k in range(paths.shape[0]))]
            for j, point in enumerate(points):
                lines.append(
                    f"{point!r},{process.values[j]!r},"
                    + ",".join(repr(float(v)) for v in paths[:, j])
                )
            (out_dir / f"cusum_process_{cfg['ordering']}.csv").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )
    record["reject_at_level"] = bool(record["p_value"] < cfg["level"])
    record["level"] = cfg["level"]
    result_path = out_dir / f"result_{method}.json"
    _write_json(result_path, record)
    print(
        f"{method}: statistic = {record['statistic']:.6g}, "
        f"p = {record['p_value']:.6g} "
        f"({'reject' if record['reject_at_level'] else 'no rejection'} at level {cfg['level']:g})"
    )
    print(f"wrote {result_path}")
    return 0


_ECHO_SIM_KEYS = [
    "m", "sigma", "c", "levels", "tests", "runs", "knots", "nsims", "resamples",
    "seed", "threads", "out",
]


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _effective(args)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    config = SimConfig(
        m_values=tuple(int(v) for v in str(cfg["m"]).split(",")),
        sigma_values=tuple(float(v) for v in str(cfg["sigma"]).split(",")),
        c_values=tuple(int(v) for v in str(cfg["c"]).split(",")),
        levels=tuple(float(v) for v in str(cfg["levels"]).split(",")),
        tests=tuple(str(cfg["tests"]).split(",")),
        n_runs=int(cfg["runs"]),
        n_knots=int(cfg["knots"]),
        n_sims_null=int(cfg["nsims"]),
        cusum_resamples=int(cfg["resamples"]),
        seed=int(cfg["seed"]),
        threads=int(cfg["threads"]),
        cache_dir=str(_cache_dir(cfg)),
    )
    report = run_study(config)
    (out_dir / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    (out_dir / "report.txt").write_text(report.to_table(), encoding="utf-8")
    (out_dir / "effective_config.txt").write_text(
        "\n".join(config.lines()) + "\n", encoding="utf-8"
    )
    if report.failure_messages:
        (out_dir / "failures.txt").write_text(
            "\n".join(report.failure_messages) + "\n", encoding="utf-8"
        )
    print(report.to_table())
    print(f"wrote {out_dir / 'report.csv'}")
    print(f"runtime: {report.runtime_s:.1f}s", file=sys.stderr)
    return 0


def _cmd_null_sim(args: argparse.Namespace) -> int:
    cfg = _effective(args)
    if cfg["method"] not in ("lrt", "rlrt"):
        raise ConfigError("null-sim applies to --method lrt or rlrt")
    _require_independent(cfg)
    dataset = _load_dataset(cfg)
    knots = place_knots(dataset.t, cfg["knots"], cfg["degree"])
    design = build_design(dataset, knots)
    cache = spectral_decompose(design)
    grid = _grid_for(cfg, cache)
    cache_dir = _cache_dir(cfg)
    null = simulate_null_cached(
        cache, cfg["method"], cfg["h"], grid, cfg["nsims"],
        seed=(cfg["seed"], 1), cache_dir=cache_dir,
    )
    out_dir = Path(cfg["out"])
    summary_path = out_dir / f"null_summary_{cfg['method']}.json"
    _write_json(
        summary_path,
        {
            "cache_dir": str(cache_dir),
            "zero_mass_fraction": null.zero_mass_fraction,
            "n_sims": null.n_sims,
            "quantiles": {
                "q90": float(np.quantile(null.samples, 0.90)),
                "q95": float(np.quantile(null.samples, 0.95)),
                "q99": float(np.quantile(null.samples, 0.99)),
            },
            "provenance": null.provenance,
            "effective_config": _echo_lines(cfg, _ECHO_TEST_KEYS),
        },
    )
    print(
        f"{cfg['method']} null: {null.n_sims} draws, zero mass "
        f"{null.zero_mass_fraction:.3f}; wrote {summary_path}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    cfg = _effective(args)
    if not cfg["input"]:
        raise ConfigError("--input is required")
    lines = Path(cfg["input"]).read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    expected = "test,m,sigma,c,level,n_runs,failures,rejections,fraction,se".split(",")
    if header != expected:
        raise ConfigError(f"{cfg['input']}: not a study report CSV (header {header})")
    cells = []
    for line in lines[1:]:
        f = line.split(",")
        cells.append(
            SimCell(
                test=f[0], m=int(f[1]), sigma=float(f[2]), c=int(f[3]), level=float(f[4]),
                n_runs=int(f[5]), failures=int(f[6]), rejections=int(f[7]),
            )
        )

    def ordered(values):
        seen = []
        for v in values:
            if v not in seen:
                seen.append(v)
        return tuple(seen)

    config = SimConfig(
        m_values=ordered(c.m for c in cells),
        sigma_values=ordered(c.sigma for c in cells),
        c_values=ordered(c.c for c in cells),
        levels=ordered(c.level for c in cells),
        tests=ordered(c.test for c in cells),
        n_runs=max(c.n_runs for c in cells),
    )
    from .sim_study import SimReport

    table = SimReport(cells=cells, config=config).to_table()
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text(table, encoding="utf-8")
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covtest",
        description="Lack-of-fit tests for polynomial covariate effects against spline alternatives.",
    )
    parser.add_argument("--version", action="version", version=f"covtest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run one test on a data file")
    _add_common(
        p_test, "input", "method", "degree", "h", "knots", "kernel", "nsims",
        "resamples", "seed", "level", "out", "threads", "config", "rescale-t",
        "y-col", "t-col", "s-cols", "cluster-col", "ordering", "emit-processes",
        "grid-points", "grid-span",
    )
    p_test.set_defaults(func=_cmd_test)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo size/power study")
    _add_common(
        p_sim, "m", "sigma", "c", "levels", "tests", "runs", "knots", "nsims",
        "resamples", "seed", "out", "threads", "config",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_null = sub.add_parser("null-sim", help="precompute a null-distribution cache")
    _add_common(
        p_null, "input", "method", "degree", "h", "knots", "nsims", "seed", "out",
        "config", "rescale-t", "y-col", "t-col", "s-cols", "cluster-col",
        "grid-points", "grid-span",
    )
    p_null.set_defaults(func=_cmd_null_sim)

    p_rep = sub.add_parser("report", help="render a study report CSV as a table")
    _add_common(p_rep, "input", "out", "config")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CovtestError as exc:
        print(f"{exc.category} error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
