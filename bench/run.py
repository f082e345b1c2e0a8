#!/usr/bin/env python3
"""covtest benchmark: one-shot `covtest test` calls and the size/power study.

Run from the root of a covtest source checkout:

    python3 bench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists):

* ``cli-small``: eight ``covtest test`` subprocess calls at n = 100;
* ``cli-large``: the same eight calls at n = 2000;
* ``study``: one ``covtest simulate`` subprocess call on the paper's grid.

The loop is closed: one program call at a time, in whole rounds, stopping
before a round would end past ``--seconds``. Every output is checked by the
independent computations in ``checks.py``. With ``--trace 0`` the metrics are
the end-to-end ones. With ``--trace 1`` one round of program calls gives the
call times; the same round is then replayed in this process twice, plainly
and under the span recorder in ``tracer.py``, for the per-layer metrics and
the tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# The BLAS thread count is fixed before numpy loads, here and in every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("COVTEST_CACHE_DIR", None)

import argparse
import contextlib
import io
import json
import math
import platform
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
import inputs
from tracer import Tracer

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 165.0
SETUP_REPEATS = 5
NSIMS = 10000
RESAMPLES = 1000
KNOTS = 20


@dataclass(frozen=True)
class CliWorkload:
    name: str
    n: int
    clusters: int


@dataclass(frozen=True)
class StudyWorkload:
    name: str
    m: tuple = (50, 100)
    sigma: tuple = (0.25, 0.5)
    c: tuple = (0, 1, 2, 3, 4)
    tests: tuple = ("lrt1", "lrt2", "rlrt", "score")
    levels: tuple = (0.05, 0.1)
    runs: int = 40

    def grid(self) -> dict:
        return {k: getattr(self, k) for k in ("m", "sigma", "c", "tests", "levels", "runs")}


WORKLOADS = {
    "cli-small": CliWorkload("cli-small", 100, 50),
    "cli-large": CliWorkload("cli-large", 2000, 100),
    "study": StudyWorkload("study"),
}

# (call name, input file, method arguments). rlrt_cached repeats rlrt exactly,
# on the null cache the cold call has just filled.
CLI_CALLS = (
    ("rlrt", "independent", ("--method", "rlrt")),
    ("rlrt_cached", "independent", ("--method", "rlrt")),
    ("lrt", "independent", ("--method", "lrt")),
    ("lrt_h1", "independent", ("--method", "lrt", "--degree", "2", "--h", "1")),
    ("score", "independent", ("--method", "score")),
    ("cusum", "independent", ("--method", "cusum")),
    ("score_ri", "clustered", ("--method", "score", "--cluster-col", "cluster")),
    ("cusum_ri", "clustered", ("--method", "cusum", "--cluster-col", "cluster")),
)


@dataclass
class Call:
    """One program call of a round: what ran, how long, and what it wrote."""

    name: str
    argv: list
    out: Path
    seconds: float = 0.0
    sample: Sample | None = None
    failed: str = ""
    check: str = ""
    raw: bytes = b""


class SpeedProbe:
    """A fixed few milliseconds of interpreter and BLAS work, none of it covtest's.

    ``slowdown()`` reads how fast this CPU runs right now: 1.0 at the
    reference speed, 1.3 when the same work takes 30 % longer, as it does on a
    shared host whose neighbours are busy. It counts the thread's CPU time, so
    a reading taken while a program call shares the CPU is not stretched by
    the time the call runs instead.
    """

    PY_REF_S = 0.0020
    BLAS_REF_S = 0.0018

    def __init__(self):
        a = np.random.default_rng(0).standard_normal((80, 80))
        self.matrix = a + a.T

    def slowdown(self) -> float:
        started = time.thread_time()
        total = 0
        for i in range(20_000):
            total += i * i
        table = {str(i): i for i in range(5_000)}
        middle = time.thread_time()
        for _ in range(3):
            np.linalg.eigh(self.matrix)
        ended = time.thread_time()
        del table
        return math.sqrt((middle - started) / self.PY_REF_S * (ended - middle) / self.BLAS_REF_S)

    def readings(self, count: int) -> list[float]:
        return [self.slowdown() for _ in range(count)]


@dataclass
class Sample:
    """One program call as the spawner saw it, with the CPU's slowdown during it."""

    seconds: float
    cpu_s: float
    rss_mb: float
    code: int
    slowdown: float

    @property
    def ref_s(self) -> float:
        """Wall seconds at the probe's reference speed."""
        return self.seconds / self.slowdown


class Runner:
    """Starts one program call at a time, through spawn.py, and waits for it.

    The benchmark, the spawner and every call share one CPU. While a call
    runs, this process wakes every PROBE_EVERY_S and reads the speed probe;
    it also takes BOUNDARY_READINGS before the first call and after each
    call. A call's slowdown is the median of the readings from the boundary
    before it to the boundary after it. Nothing runs past the deadline;
    :meth:`close` stops the spawner.
    """

    PROBE_EVERY_S = 0.25
    BOUNDARY_READINGS = 3

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.probe = SpeedProbe()
        self.boundary: list[float] | None = None
        self.spawner = subprocess.Popen(
            [sys.executable, str(BENCH / "spawn.py")], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()

    def run(self, argv: list, log: Path) -> Sample:
        """Wall and CPU seconds, peak RSS and exit code of one child interpreter."""
        log.parent.mkdir(parents=True, exist_ok=True)
        readings = list(self.boundary or self.probe.readings(self.BOUNDARY_READINGS))
        request = {
            "argv": [sys.executable, *argv], "log": str(log),
            "timeout": max(self.deadline - time.monotonic(), 1.0),
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        while not select.select([self.spawner.stdout], [], [], self.PROBE_EVERY_S)[0]:
            readings.append(self.probe.slowdown())
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended")
        reply = json.loads(line)
        self.boundary = self.probe.readings(self.BOUNDARY_READINGS)
        return Sample(
            reply["seconds"], reply["cpu_s"], reply["rss_mb"], reply["code"],
            statistics.median(readings + self.boundary),
        )

    def setup_samples(self, work: Path, repeats: int) -> list[Sample]:
        """Fresh interpreters importing covtest.cli, after one untimed warm-up."""
        argv = ["-c", "import covtest.cli"]
        log = work / "setup.log"
        if self.run(argv, log).code != 0:   # the warm-up also writes the bytecode cache
            raise SystemExit(f"covtest does not import: {log.read_text(errors='replace')}")
        return [self.run(argv, log) for _ in range(repeats)]


# ---------------------------------------------------------------------------
# Rounds


def cli_calls(data: inputs.Inputs, seed: int, round_dir: Path) -> list[Call]:
    calls = []
    for name, which, method_args in CLI_CALLS:
        out = round_dir / ("rlrt" if name == "rlrt_cached" else name)
        argv = [
            "-m", "covtest.cli", "test", "--input", str(getattr(data, which)),
            "--out", str(out), "--seed", str(seed), "--level", str(checks.LEVEL),
            "--knots", str(KNOTS), "--nsims", str(NSIMS), "--resamples", str(RESAMPLES),
            *method_args,
        ]
        calls.append(Call(name, argv, out))
    return calls


def study_calls(wl: StudyWorkload, seed: int, round_dir: Path) -> list[Call]:
    out = round_dir / "study"
    argv = [
        "-m", "covtest.cli", "simulate",
        "--m", ",".join(map(str, wl.m)), "--sigma", ",".join(map(str, wl.sigma)),
        "--c", ",".join(map(str, wl.c)), "--tests", ",".join(wl.tests),
        "--levels", ",".join(map(str, wl.levels)), "--runs", str(wl.runs),
        "--knots", str(KNOTS), "--nsims", str(NSIMS), "--seed", str(seed), "--out", str(out),
    ]
    return [Call("study", argv, out)]


def result_path(call: Call) -> Path:
    if call.name == "study":
        return call.out / "report.csv"
    method = call.argv[call.argv.index("--method") + 1]
    return call.out / f"result_{method}.json"


def check_call(call: Call, data: inputs.Inputs | None, state: dict, wl) -> None:
    """Run the independent checks for one finished call; raises CheckError."""
    raw = call.raw = result_path(call).read_bytes()
    if call.name == "study":
        checks.check_study(raw.decode("utf-8"), wl.grid())
        checks.check_same_bytes(state.setdefault("report", raw), raw, "report.csv of a repeated study")
        return
    record = json.loads(raw)
    checks.check_reject(record)
    cols = data.independent_cols
    if call.name == "rlrt":
        state["rlrt"] = raw
        checks.check_lrt(record, cols, "rlrt", 1, 0, NSIMS)
    elif call.name == "rlrt_cached":
        if "rlrt" in state:
            checks.check_same_bytes(state.pop("rlrt"), raw, "rlrt result on the filled null cache")
    elif call.name == "lrt":
        checks.check_lrt(record, cols, "lrt", 1, 0, NSIMS)
    elif call.name == "lrt_h1":
        checks.check_lrt(record, cols, "lrt", 2, 1, NSIMS)
    elif call.name == "score":
        checks.check_score(record, cols)
    elif call.name == "cusum":
        checks.check_cusum(record, cols, RESAMPLES)
    elif call.name == "cusum_ri":
        checks.check_cusum(record, None, RESAMPLES)
    elif not 0.0 < record["p_value"] <= 1.0:
        raise checks.CheckError(f"{call.name}: p-value {record['p_value']!r} outside (0, 1]")


def finish(call: Call, code: int, data, state: dict, wl) -> None:
    """Classify a finished call: failed (no usable output) or checked."""
    if code != 0 or not result_path(call).exists():
        call.failed = f"exit code {code}"
        return
    try:
        check_call(call, data, state, wl)
    except (checks.CheckError, KeyError, ValueError) as exc:
        call.check = f"{call.name}: {exc}"


def plan_round(wl, data, seed: int, round_dir: Path) -> list[Call]:
    if isinstance(wl, StudyWorkload):
        return study_calls(wl, seed, round_dir)
    return cli_calls(data, seed, round_dir)


def run_round(runner: Runner, wl, data, seed: int, round_dir: Path, state: dict) -> list[Call]:
    calls = plan_round(wl, data, seed, round_dir)
    for call in calls:
        call.sample = runner.run(call.argv, call.out.parent / f"{call.name}.log")
        call.seconds = call.sample.seconds
        finish(call, call.sample.code, data, state, wl)
    return calls


def replay_round(wl, data, seed: int, round_dir: Path, state: dict, tracer: Tracer,
                 traced: bool) -> list[Call]:
    """The same round in this process, each call under a ``cli.main`` span.

    With ``traced`` the layers' public calls get spans too; without, the
    round gives the in-process baseline the tracing overhead is taken from.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import covtest.cli

    calls = plan_round(wl, data, seed, round_dir)
    if traced:
        tracer.install()
    try:
        for call in calls:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with tracer.span("cli.main", call=call.name) as span:
                    code = covtest.cli.main(call.argv[2:])
            call.seconds = span.seconds
            finish(call, code, data, state, wl)
    finally:
        tracer.restore()
    return calls


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(setup: list[Sample], rounds: list[list[Call]]) -> dict:
    """Times in seconds at the probe's reference speed; see README, "Noise"."""
    return {
        "setup_s": (statistics.median(x.ref_s for x in setup), "s"),
        "round_s": (statistics.median(sum(c.sample.ref_s for c in r) for r in rounds), "s"),
        "peak_rss_mb": (max(c.sample.rss_mb for r in rounds for c in r), "MB"),
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# Per-layer timings: metric name -> span name, with or without a peak.
TIMED = {
    "data_io.load_csv": False,
    "spline_basis.build_design": False,
    "spline_basis.smoother_kernel": True,
    "exact_lrt.observed_statistic": True,
    "exact_lrt.ProfileSolver.__init__": False,
    "exact_lrt.ProfileSolver.statistics": False,
    "exact_lrt.simulate_null": False,
    "null_fit.fit_ols": True,
    "null_fit.reml_projection": True,
    "null_fit.fit_reml_random_intercept": True,
    "score_test.score_statistic": False,
    "cusum_test.cumulative_process": False,
    "cusum_test.multiplier_null": True,
    "sim_study.generate_dataset": False,
}


def per_layer(untraced: list[Call], baseline: list[Call], tracer: Tracer) -> dict:
    spans = tracer.spans
    out = {}
    wall = {c.name: c.seconds for c in untraced}
    for name, _, _ in CLI_CALLS:
        out[f"cli_s.{name}"] = (wall.get(name, 0.0), "s")
    out["study_s"] = (wall.get("study", 0.0), "s")
    out["machine.slowdown"] = (statistics.median(c.sample.slowdown for c in untraced), "ratio")
    for name, with_peak in TIMED.items():
        mine = [s for s in spans if s.name == name]
        out[f"{name}.s"] = (_median(s.seconds for s in mine), "s")
        if with_peak:
            out[f"{name}.peak_mb"] = (max((s.peak_bytes for s in mine), default=0) / 2**20, "MB")
    cache = [s.info.get("cache") for s in spans if s.name == "exact_lrt.simulate_null_cached"]
    out["exact_lrt.null_cache.hits"] = (cache.count("hit"), "count")
    out["exact_lrt.null_cache.misses"] = (cache.count("miss"), "count")
    out["exact_lrt.simulate_null.draws"] = (
        sum(s.info["draws"] for s in spans if s.name == "exact_lrt.simulate_null"), "count")
    out["cusum_test.multiplier_null.resamples"] = (
        sum(s.info["resamples"] for s in spans if s.name == "cusum_test.multiplier_null"), "count")
    replicates = {json.dumps(s.info["replicate"]) for s in spans if s.name == "sim_study.generate_dataset"}
    out["sim_study.replicates"] = (len(replicates), "count")

    # Each call's top-level layers are the direct children of its cli.main
    # span; what main spends outside them is the CLI's own work.
    roots = {i: s for i, s in enumerate(spans) if s.name == "cli.main"}
    layer_s = {i: 0.0 for i in roots}
    for s in spans:
        if s.parent in layer_s:
            layer_s[s.parent] += s.seconds
    main_s = sum(s.seconds for s in roots.values())
    out["cli.unaccounted.s"] = (_median(roots[i].seconds - layer_s[i] for i in roots), "s")
    out["trace.coverage"] = (sum(layer_s.values()) / main_s, "ratio")
    out["trace.coverage.base_s"] = (main_s, "s")
    out["trace.overhead"] = (main_s / sum(c.seconds for c in baseline) - 1.0, "ratio")
    return out


# ---------------------------------------------------------------------------
# Driver


def machine_info() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


def run_workload(wl, seed: int, seconds: float, trace: bool, started: float) -> dict:
    """Measure one workload; returns the result object, plus its calls and inputs."""
    runner = Runner(started + RUN_LIMIT_S)
    work = WORK / f"{wl.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup = runner.setup_samples(work, 0 if trace else SETUP_REPEATS)
        data = None
        if isinstance(wl, CliWorkload):
            data = inputs.make_inputs(seed, wl.n, wl.clusters, work / "inputs")
        state: dict = {}
        rounds: list[list[Call]] = []
        measure_start = time.monotonic()
        while True:
            rounds.append(run_round(runner, wl, data, seed, work / f"round{len(rounds)}", state))
            elapsed = time.monotonic() - measure_start
            per_round = elapsed / len(rounds)
            if trace or elapsed + per_round > seconds or time.monotonic() + 2 * per_round > runner.deadline:
                break
        calls = [c for r in rounds for c in r]
        if trace:
            baseline = replay_round(wl, data, seed, work / "replay", state, Tracer(), False)
            tracer = Tracer(frozenset(name for name, peak in TIMED.items() if peak))
            replayed = replay_round(wl, data, seed, work / "traced", state, tracer, True)
            calls += baseline + replayed
            metrics = per_layer(rounds[0], baseline, tracer)
            trace_file = WORK / "traces" / f"{wl.name}-seed{seed}.json"
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            trace_file.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
        else:
            metrics = end_to_end(setup, rounds)
        problems = [c.failed or c.check for c in calls if c.failed or c.check]
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
        return {
            "correct": not any(c.check for c in calls),
            "attempted": len(calls),
            "failed": sum(1 for c in calls if c.failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "_calls": calls,
            "_rounds": len(rounds),
            "_data": data,
        }
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "covtest" / "cli.py").is_file():
        print(f"no covtest source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(machine_info(), sort_keys=True), file=sys.stderr)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), started)
    calls = result.pop("_calls")
    rounds = result.pop("_rounds")
    result.pop("_data")
    print(f"{args.workload}: {rounds} round(s), {len(calls)} call(s)", file=sys.stderr)
    for call in calls:
        x = call.sample
        extra = f" {x.cpu_s:8.3f} cpu-s {x.slowdown:6.3f} slowdown {x.rss_mb:8.1f} MB" if x else " (in process)"
        print(f"  {call.name:<12} {call.seconds:8.3f} s{extra}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
