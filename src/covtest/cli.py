"""Command-line front end.

Subcommands: ``test`` (one test on a CSV file), ``simulate`` (Monte Carlo
size/power study), ``null-sim`` (precompute a null-distribution cache),
``report`` (re-render a study CSV as an aligned table). All randomness flows
from --seed; reruns with identical flags produce byte-identical result files.

Each option is declared once, in ``_OPTIONS``. A ``--config`` file becomes
``--key=value`` tokens placed right after the subcommand name, so one parser
checks flags and config values alike, and flags given later win.

At module level this file imports only the standard library, numpy,
``errors`` and ``__version__``: parsing the command line loads no test
engine. Each handler imports the covtest functions it calls inside its own
body, so a ``score`` call never loads the exact-LRT engine, an ``rlrt`` call
never loads the score or cusum tests, and only ``simulate`` and ``report``
load the study harness.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, CovtestError, check_seed, sized_by


def _list_of(cast, what: str):
    """Argparse type for a comma-separated list, parsed into a tuple."""

    def parse(text: str) -> tuple:
        try:
            return tuple(cast(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}"
            ) from None

    return parse


_NUMBERS = _list_of(float, "numbers")

_OPTIONS = {
    "input": dict(help="input CSV path"),
    "method": dict(default="rlrt", choices=["lrt", "rlrt", "score", "cusum"], help="test to run"),
    "degree": dict(type=int, default=1, help="spline degree d"),
    "h": dict(type=int, default=0, help="top polynomial coefficients dropped under the null"),
    "knots": dict(type=int, default=20, help="number of quantile knots"),
    "kernel": dict(default="natural", choices=["natural", "penalized"],
                   help="smoother kernel for the score test"),
    "nsims": dict(type=int, default=10000, help="null-distribution simulation draws"),
    "resamples": dict(type=int, default=1000, help="multiplier resamples for the cusum test"),
    "seed": dict(type=int, default=0, help="master seed; the only entropy source"),
    "level": dict(type=float, default=0.05, help="nominal level for the decision line"),
    "out": dict(default=".", help="output directory"),
    "threads": dict(type=int, default=1, help="worker count (results are identical for any value)"),
    "config": dict(help="flat key = value config file; flags win"),
    "y-col": dict(default="y", help="response column name"),
    "t-col": dict(default="t", help="smooth covariate column name"),
    "s-cols": dict(help="comma-separated covariate columns (default: all others)"),
    "cluster-col": dict(help="cluster label column"),
    "ordering": dict(default="t", choices=["t", "fitted"],
                     help="ordering variable for the cusum process"),
    "emit-processes": dict(type=int, default=0,
                           help="also write this many resampled cusum paths as CSV"),
    "m": dict(type=_list_of(int, "integers"), default="50,100",
              help="comma-separated sample sizes"),
    "sigma": dict(type=_NUMBERS, default="0.25,0.5",
                  help="comma-separated noise standard deviations"),
    "c": dict(type=_NUMBERS, default="0,1,2,3,4", help="comma-separated departure levels"),
    "runs": dict(type=int, default=1000, help="Monte Carlo replicates"),
    "tests": dict(type=_list_of(str, "names"), default="lrt1,lrt2,rlrt,score",
                  help="comma-separated tests: lrt1,lrt2,rlrt,score,cusum"),
    "levels": dict(type=_NUMBERS, default="0.05,0.1", help="comma-separated nominal levels"),
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose every failure is a ConfigError, not exit code 2."""

    def error(self, message):
        raise ConfigError(message)


def _config_tokens(path: str, command: str) -> list[str]:
    """Turn a flat ``key = value`` file into ``--key=value`` tokens.

    Keys are long flag names with ``_`` or ``-``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    tokens = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        name = key.replace("_", "-")
        if name not in _COMMANDS[command][2] or name == "config":
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r} for covtest {command}")
        tokens.append(f"--{name}={value}")
    return tokens


def _load_dataset(cfg: dict):
    from .data_io import ColumnMap, load_csv

    if not cfg["input"]:
        raise ConfigError("--input is required")
    s_cols = tuple(cfg["s_cols"].split(",")) if cfg["s_cols"] else None
    return load_csv(
        cfg["input"],
        ColumnMap(y=cfg["y_col"], t=cfg["t_col"], s=s_cols, cluster=cfg["cluster_col"]),
    )


def _lrt_null(cfg: dict, dataset):
    """Design, lambda grid and (cached) simulated null of an LRT/RLRT run."""
    from .exact_lrt import default_lambda_grid, simulate_null_cached, spectral_decompose
    from .spline_basis import build_design, place_knots

    if cfg["knots"] == 0:  # before the design, whose rank check would answer first
        raise ConfigError("spectral decomposition needs at least one knot")
    design = build_design(dataset, place_knots(dataset.t, cfg["knots"], cfg["degree"]))
    cache = spectral_decompose(design)
    grid = default_lambda_grid(cache)
    with sized_by("nsims", cfg["nsims"]):
        null = simulate_null_cached(
            cache, cfg["method"], cfg["h"], grid, cfg["nsims"],
            seed=(cfg["seed"], 1), cache_dir=_cache_dir(cfg),
        )
    return design, grid, null


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


# Options of `covtest test` that a method does not read, left out of its
# effective_config echo. The score test reads knots only for the penalized kernel.
_UNREAD_BY = {
    "lrt": "kernel resamples ordering emit-processes",
    "rlrt": "kernel resamples ordering emit-processes",
    "score": "h nsims resamples seed ordering emit-processes",
    "cusum": "h knots kernel nsims",
}


def _echo_lines(cfg: dict, command: str) -> list[str]:
    """'option = value' for each set option of ``command`` the method reads."""
    unread = _UNREAD_BY[cfg["method"]].split() + ["config"]
    if cfg["method"] == "score" and cfg["kernel"] != "penalized":
        unread.append("knots")
    values = {name: cfg[name.replace("-", "_")] for name in _COMMANDS[command][2]}
    return [f"{name} = {v}" for name, v in values.items() if name not in unread and v is not None]


def _cmd_test(cfg: dict) -> int:
    method = cfg["method"]
    if method in ("lrt", "rlrt"):
        _require_independent(cfg)
    if not 0.0 < cfg["level"] < 1.0:
        raise ConfigError(f"--level must lie in (0, 1), got {cfg['level']!r}")
    if cfg["emit_processes"] < 0:
        raise ConfigError(f"--emit-processes must be >= 0 (0 writes none), got {cfg['emit_processes']}")
    dataset = _load_dataset(cfg)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    record: dict = {
        "method": method,
        "n": dataset.n,
        "p": dataset.p,
        "effective_config": _echo_lines(cfg, "test"),
    }
    if method in ("lrt", "rlrt"):
        from .exact_lrt import attach_pvalue, observed_statistic

        design, grid, null = _lrt_null(cfg, dataset)
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
        from dataclasses import asdict

        from .score_test import run_score_test
        from .spline_basis import NATURAL_SPLINE, PENALIZED_GRAM, place_knots

        if cfg["kernel"] == "penalized":
            kind, knots = PENALIZED_GRAM, place_knots(dataset.t, cfg["knots"], cfg["degree"])
        else:
            kind, knots = NATURAL_SPLINE, None
        result = run_score_test(dataset, degree=cfg["degree"], kernel_kind=kind, knots=knots)
        record.update(
            statistic=result.u_score,
            u_quad=result.u_quad,
            null_mean=result.null_mean,
            p_value=result.p_value,
            moments=asdict(result.moments),
        )
    else:  # cusum: X = [S | A] does not depend on the knots, so place none
        from .cusum_test import cumulative_process, multiplier_null, multiplier_processes, sup_test
        from .null_fit import fit_null
        from .spline_basis import KnotSet, build_design

        design = build_design(dataset, KnotSet(np.empty(0), cfg["degree"]))
        fit, proj = fit_null(dataset, design)
        ordering = dataset.t if cfg["ordering"] == "t" else fit.fitted
        process = cumulative_process(fit, ordering)
        with sized_by("resamples", cfg["resamples"]):
            sups = multiplier_null(fit, proj, ordering, cfg["resamples"], seed=(cfg["seed"], 2))
        result = sup_test(process, sups, process=cfg["ordering"])
        record.update(
            statistic=result.observed_sup,
            p_value=result.p_value,
            n_resamples=result.n_resamples,
            process=result.process,
        )
        if cfg["emit_processes"]:
            with sized_by("emit-processes", cfg["emit_processes"]):
                points, paths = multiplier_processes(
                    fit, proj, ordering, cfg["emit_processes"], seed=(cfg["seed"], 2)
                )
            header = ["point", "observed", *(f"resample_{k + 1}" for k in range(paths.shape[0]))]
            table = np.column_stack([points, process.values, paths.T])  # one row per jump point
            lines = [",".join(header), *(",".join(map(repr, row.tolist())) for row in table)]
            (out_dir / f"cusum_process_{cfg['ordering']}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
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


def _cmd_simulate(cfg: dict) -> int:
    from .sim_study import SimConfig, run_study

    config = SimConfig(
        m_values=cfg["m"],
        sigma_values=cfg["sigma"],
        c_values=cfg["c"],
        levels=cfg["levels"],
        tests=cfg["tests"],
        n_runs=cfg["runs"],
        n_knots=cfg["knots"],
        n_sims_null=cfg["nsims"],
        cusum_resamples=cfg["resamples"],
        seed=cfg["seed"],
        threads=cfg["threads"],
        cache_dir=str(_cache_dir(cfg)),
    )
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    report = run_study(config)
    table = report.to_table()
    (out_dir / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    (out_dir / "report.txt").write_text(table, encoding="utf-8")
    (out_dir / "effective_config.txt").write_text(
        "\n".join(config.lines()) + "\n", encoding="utf-8"
    )
    if report.failure_messages:
        (out_dir / "failures.txt").write_text(
            "\n".join(report.failure_messages) + "\n", encoding="utf-8"
        )
    print(table)
    print(f"wrote {out_dir / 'report.csv'}")
    print(f"runtime: {report.runtime_s:.3f}s", file=sys.stderr)
    return 0


def _cmd_null_sim(cfg: dict) -> int:
    if cfg["method"] not in ("lrt", "rlrt"):
        raise ConfigError("null-sim applies to --method lrt or rlrt")
    _require_independent(cfg)
    _, _, null = _lrt_null(cfg, _load_dataset(cfg))
    out_dir = Path(cfg["out"])
    summary_path = out_dir / f"null_summary_{cfg['method']}.json"
    _write_json(
        summary_path,
        {
            "cache_dir": str(_cache_dir(cfg)),
            "zero_mass_fraction": null.zero_mass_fraction,
            "n_sims": null.n_sims,
            "quantiles": {f"q{q}": float(np.quantile(null.samples, q / 100)) for q in (90, 95, 99)},
            "provenance": null.provenance,
            "effective_config": _echo_lines(cfg, "null-sim"),
        },
    )
    print(
        f"{cfg['method']} null: {null.n_sims} draws, zero mass "
        f"{null.zero_mass_fraction:.3f}; wrote {summary_path}"
    )
    return 0


def _cmd_report(cfg: dict) -> int:
    from .sim_study import SimReport

    if not cfg["input"]:
        raise ConfigError("--input is required")
    try:
        text = Path(cfg["input"]).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {cfg['input']}: {exc}") from None
    table = SimReport.from_csv(text, cfg["input"]).to_table()
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text(table, encoding="utf-8")
    print(table)
    return 0


# Subcommand -> (handler, help, the _OPTIONS it takes).
_COMMANDS = {
    "test": (_cmd_test, "run one test on a data file", (
        "input", "method", "degree", "h", "knots", "kernel", "nsims", "resamples",
        "seed", "level", "out", "config", "y-col", "t-col", "s-cols", "cluster-col",
        "ordering", "emit-processes",
    )),
    "simulate": (_cmd_simulate, "run the Monte Carlo size/power study", (
        "m", "sigma", "c", "levels", "tests", "runs", "knots", "nsims", "resamples",
        "seed", "out", "threads", "config",
    )),
    "null-sim": (_cmd_null_sim, "precompute a null-distribution cache", (
        "input", "method", "degree", "h", "knots", "nsims", "seed", "out", "config",
        "y-col", "t-col", "s-cols", "cluster-col",
    )),
    "report": (_cmd_report, "render a study report CSV as a table", ("input", "out", "config")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="covtest",
        description="Lack-of-fit tests for polynomial covariate effects against spline alternatives.",
    )
    parser.add_argument("--version", action="version", version=f"covtest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names) in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=help_text)
        for name in names:
            p_cmd.add_argument(f"--{name}", **_OPTIONS[name])
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv, splicing in the ``--config`` file's options if one is given.
    The seed is checked here, before any command makes its output paths."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        at = argv.index(args.command) + 1
        tokens = _config_tokens(args.config, args.command)
        try:
            args = parser.parse_args(argv[:at] + tokens + argv[at:])
        except ConfigError as exc:
            raise ConfigError(f"{args.config}: {exc}") from None
    check_seed(vars(args).get("seed", 0))
    return args


def _one_line_warning(message, *_) -> str:
    """A warning as one ``warning: <message>`` line, like an error's line."""
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _one_line_warning
    try:
        args = _parse_args(argv)
        try:
            return _COMMANDS[args.command][0](vars(args))
        except OSError as exc:  # inputs are read by code that raises CovtestError
            raise ConfigError(f"cannot write to the output or null-cache directory: {exc}") from None
    except CovtestError as exc:
        print(f"{exc.category} error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
