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

Every output file is whole, closed and renamed into place
(:func:`covtest.data_io.atomic_write`) before :func:`main` returns its exit
code. :func:`run`, the entry point of ``covtest`` and ``python -m
covtest.cli``, then flushes stdout and stderr and ends the process with
``os._exit``: the interpreter's teardown (its last garbage collections,
module clearing and C destructors) would only spend time on a process whose
work is done. A process with a trace or profile hook set, as under coverage
or cProfile, exits normally instead, so the hook can write its file. Nothing
runs after :func:`main` returns, so any new output sink (a trace file, a log
handler) must be flushed and closed before it returns. A closed stdout pipe
(``covtest report ... | head -1``) is the reader having gone: stdout is
pointed at ``os.devnull`` and the command ends with code 1 and no error line.
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


def _lrt_design(cfg: dict, dataset):
    """Design, spectra and lambda grid of an LRT/RLRT run."""
    from .exact_lrt import default_lambda_grid, spectral_decompose
    from .spline_basis import build_design, place_knots

    if cfg["knots"] == 0:  # before the design, whose rank check would answer first
        raise ConfigError("spectral decomposition needs at least one knot")
    design = build_design(dataset, place_knots(dataset.t, cfg["knots"], cfg["degree"]))
    cache = spectral_decompose(design)
    return design, cache, default_lambda_grid(cache)


def _lrt_null(cfg: dict, cache, grid):
    """The (cached) simulated null of an LRT/RLRT run."""
    from .exact_lrt import simulate_null_cached

    with sized_by("nsims", cfg["nsims"]):
        return simulate_null_cached(
            cache, cfg["method"], cfg["h"], grid, cfg["nsims"],
            seed=(cfg["seed"], 1), cache_dir=_cache_dir(cfg),
        )


def _require_independent(cfg: dict) -> None:
    if cfg["cluster_col"]:
        raise ConfigError(
            "the LRT and RLRT support independent data only; "
            "use --method score or cusum for clustered data"
        )


def _cache_dir(cfg: dict) -> Path:
    env = os.environ.get("COVTEST_CACHE_DIR")
    return Path(env) if env else Path(cfg["out"]) / "null_cache"


def _check_dirs(cfg: dict) -> None:
    """Refuse, before any work, an output or null-cache directory that cannot
    be made because a file is at or above it. The cache is checked where an
    LRT variant reads it: simulate's tests, or the method of test and null-sim."""
    dirs = [Path(cfg["out"])]
    if not {"lrt", "rlrt", "lrt1", "lrt2"}.isdisjoint(cfg.get("tests") or (cfg.get("method"),)):
        dirs.append(_cache_dir(cfg))
    for path in dirs:
        blocker = next(a for a in (path, *path.parents) if a.exists())
        if not blocker.is_dir():
            raise ConfigError(f"cannot write to the output or null-cache directory: "
                              f"{path}: {blocker} is not a directory")


def _write(cfg: dict, name: str, text: str) -> Path:
    """Write ``text`` to the file ``name`` of --out, whole; return its path."""
    from .data_io import atomic_write

    path = Path(cfg["out"]) / name
    with atomic_write(path) as fh:
        fh.write(text)
    return path


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
    record: dict = {
        "method": method,
        "n": dataset.n,
        "p": dataset.p,
        "effective_config": _echo_lines(cfg, "test"),
    }
    if method in ("lrt", "rlrt"):
        from .exact_lrt import attach_pvalue, observed_statistic

        design, cache, grid = _lrt_design(cfg, dataset)
        # the statistic before the null, whose cache entry would outlive a refusal
        observed = observed_statistic(dataset, design, method, cfg["h"], grid)
        null = _lrt_null(cfg, cache, grid)
        result = attach_pvalue(observed, null)
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
        result = sup_test(process, sups)
        record.update(
            statistic=result.observed_sup,
            p_value=result.p_value,
            n_resamples=cfg["resamples"],
            process=cfg["ordering"],
        )
        if cfg["emit_processes"]:
            with sized_by("emit-processes", cfg["emit_processes"]):
                points, paths = multiplier_processes(
                    fit, proj, ordering, cfg["emit_processes"], seed=(cfg["seed"], 2)
                )
            header = ["point", "observed", *(f"resample_{k + 1}" for k in range(paths.shape[0]))]
            table = np.column_stack([points, process.values, paths.T])  # one row per jump point
            lines = [",".join(header), *(",".join(map(repr, row.tolist())) for row in table)]
            _write(cfg, f"cusum_process_{cfg['ordering']}.csv", "\n".join(lines) + "\n")
    record["reject_at_level"] = bool(record["p_value"] < cfg["level"])
    record["level"] = cfg["level"]
    result_path = _write(cfg, f"result_{method}.json", json.dumps(record, sort_keys=True, indent=2) + "\n")
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
    report = run_study(config)
    table = report.to_table()
    csv_path = _write(cfg, "report.csv", report.to_csv())
    _write(cfg, "report.txt", table)
    _write(cfg, "effective_config.txt", "".join(f"{line}\n" for line in config.lines()))
    _write(cfg, "failures.txt", "".join(f"{line}\n" for line in report.failure_messages))
    print(table)
    print(f"wrote {csv_path}")
    print(f"runtime: {report.runtime_s:.3f}s", file=sys.stderr)
    return 0


def _cmd_null_sim(cfg: dict) -> int:
    if cfg["method"] not in ("lrt", "rlrt"):
        raise ConfigError("null-sim applies to --method lrt or rlrt")
    _require_independent(cfg)
    _, cache, grid = _lrt_design(cfg, _load_dataset(cfg))
    null = _lrt_null(cfg, cache, grid)
    summary_path = _write(cfg, f"null_summary_{cfg['method']}.json", json.dumps({
        "cache_dir": str(_cache_dir(cfg)),
        "zero_mass_fraction": null.zero_mass_fraction,
        "n_sims": null.n_sims,
        "quantiles": {f"q{q}": float(np.quantile(null.samples, q / 100)) for q in (90, 95, 99)},
        "provenance": null.provenance,
        "effective_config": _echo_lines(cfg, "null-sim"),
    }, sort_keys=True, indent=2) + "\n")
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
    _write(cfg, "report.txt", table)
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


def _reader_gone() -> int:
    """Point stdout at ``os.devnull`` after a write to it met a closed pipe, so
    that no later flush meets it again (the Python docs' note on SIGPIPE); the
    command's exit code, 1."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _one_line_warning
    try:
        args = _parse_args(argv)
        try:
            _check_dirs(vars(args))
            return _COMMANDS[args.command][0](vars(args))
        except BrokenPipeError:  # the reader of stdout has gone, as under `| head -1`
            return _reader_gone()
        except OSError as exc:  # inputs are read by code that raises CovtestError
            raise ConfigError(f"cannot write to the output or null-cache directory: {exc}") from None
    except CovtestError as exc:
        print(f"{exc.category} error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


def _hooked() -> bool:
    """Whether a tracer or profiler watches this process: a ``sys.settrace`` or
    ``sys.setprofile`` hook, or from Python 3.12 a ``sys.monitoring`` tool."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or (monitoring is not None and any(monitoring.get_tool(i) for i in range(6))))


def run() -> None:
    """Run :func:`main` as the process, then end it with main's exit code and no
    interpreter teardown, unless a trace or profile hook is set. An exception
    out of main (``--help``, ``--version``, a traceback, Ctrl-C) ends the
    process as it would without this function."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _reader_gone()
    if _hooked():
        sys.exit(code)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
