#!/usr/bin/env python3
"""Self-test of the benchmark.

Runs every workload once at small sizes with all its checks (and the traced
mode once), then feeds each check a perturbed copy of a real output and
requires the check to reject it, which shows the checks are live. Run from
the root of a covtest source checkout:

    python3 bench/selftest.py

Exits 0 when everything behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import sys
import time

import run  # sets the BLAS thread count before numpy loads
import checks

SMALL = {
    "cli-small": run.WORKLOADS["cli-small"],
    "cli-large": run.CliWorkload("cli-large", 400, 40),
    "study": run.StudyWorkload("study", runs=4),
}
SEED = 11


def run_once(wl, trace: bool = False) -> dict:
    result = run.run_workload(wl, SEED, 0.0, trace, time.monotonic())
    calls = result["_calls"]
    if not result["correct"] or result["failed"]:
        problems = [c.failed or c.check for c in calls if c.failed or c.check]
        raise SystemExit(f"{wl.name}: the unperturbed run failed: {problems}")
    print(f"ok   {wl.name}{' (traced)' if trace else ''}: {result['attempted']} calls pass their checks")
    return result


def perturbed(record: dict, path: tuple, factor: float = 1.0 + 1e-3, value=None) -> dict:
    out = copy.deepcopy(record)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value if value is not None else target[path[-1]] * factor
    return out


def report_with(rows: list[dict], edit) -> str:
    rows = copy.deepcopy(rows)
    edit(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def main() -> int:
    for name, wl in SMALL.items():
        result = run_once(wl)
        if name == "cli-small":
            cli = result
        elif name == "study":
            study = result
    traced = run_once(SMALL["cli-small"], trace=True)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = [m["name"] for m in declared["per_layer"] if m["name"] not in traced["metrics"]]
    if missing:
        raise SystemExit(f"traced run lacks per-layer metrics {missing}")

    cols = cli["_data"].independent_cols
    rec = {c.name: json.loads(c.raw) for c in cli["_calls"] if c.name != "rlrt_cached"}
    draws, resamples = run.NSIMS, run.RESAMPLES
    off_lattice = rec["rlrt"]["p_value"] + 0.3 / (draws + 1)

    cases = {
        "rlrt statistic +1e-3": lambda: checks.check_lrt(
            perturbed(rec["rlrt"], ("statistic",)), cols, "rlrt", 1, 0, draws),
        "lrt statistic +1e-3": lambda: checks.check_lrt(
            perturbed(rec["lrt"], ("statistic",)), cols, "lrt", 1, 0, draws),
        "lrt h=1 statistic +1e-3": lambda: checks.check_lrt(
            perturbed(rec["lrt_h1"], ("statistic",)), cols, "lrt", 2, 1, draws),
        "rlrt on another grid": lambda: checks.check_lrt(
            perturbed(rec["rlrt"], ("nuisance", "grid_sha"), value="0" * 16), cols, "rlrt", 1, 0, draws),
        "rlrt p off the add-one lattice": lambda: checks.check_lrt(
            perturbed(rec["rlrt"], ("p_value",), value=off_lattice), cols, "rlrt", 1, 0, draws),
        "cusum p below 1 / (B + 1)": lambda: checks.check_cusum(
            perturbed(rec["cusum"], ("p_value",), value=1e-300), cols, resamples),
        "clustered cusum p off the lattice": lambda: checks.check_cusum(
            perturbed(rec["cusum_ri"], ("p_value",), factor=1.3), None, resamples),
        "cusum observed sup +1e-3": lambda: checks.check_cusum(
            perturbed(rec["cusum"], ("statistic",)), cols, resamples),
        "score u_quad +1e-3": lambda: checks.check_score(perturbed(rec["score"], ("u_quad",)), cols),
        "score tr(PM) +1e-3": lambda: checks.check_score(
            perturbed(rec["score"], ("moments", "mean")), cols),
        "score tr((PM)^2) +1e-3": lambda: checks.check_score(
            perturbed(rec["score"], ("moments", "variance")), cols),
        "score p-value +1e-3": lambda: checks.check_score(perturbed(rec["score"], ("p_value",)), cols),
        "no rejection at 0.01": lambda: checks.check_reject(
            perturbed(perturbed(rec["score"], ("p_value",), value=0.02), ("reject_at_level",), value=False)),
        "cached result differs": lambda: checks.check_same_bytes(
            next(c.raw for c in cli["_calls"] if c.name == "rlrt"), b"{}", "cached rlrt"),
    }

    # The study report: a real one from the small run, rescaled to 40 runs so
    # the size window is informative; the rescaled copy must itself pass.
    report = study["_calls"][0].raw.decode("utf-8")
    rows = list(csv.DictReader(io.StringIO(report)))
    grid = dict(SMALL["study"].grid(), runs=40)

    def rescale(rows):
        for row in rows:
            row["n_runs"] = "40"
            row["rejections"] = "2" if row["c"] == "0" else "40"

    checks.check_study(report_with(rows, rescale), grid)

    def edit_first(column, value, c="0"):
        def edit(rows):
            rescale(rows)
            next(r for r in rows if r["c"] == c)[column] = value
        return edit

    lo, hi = checks.binomial_window(40, float(rows[0]["level"]))
    cases.update({
        "study cell with a failure": lambda: checks.check_study(
            report_with(rows, edit_first("failures", "1")), grid),
        "study size above its window": lambda: checks.check_study(
            report_with(rows, edit_first("rejections", str(hi + 1))), grid),
        "study power below size": lambda: checks.check_study(
            report_with(rows, edit_first("rejections", "1", c=str(max(grid["c"])))), grid),
        "study cell missing": lambda: checks.check_study(
            report_with(rows, lambda r: (rescale(r), r.pop())), grid),
        "study report differs between repetitions": lambda: checks.check_same_bytes(
            report.encode("utf-8"), report.replace("\n", "\r\n").encode("utf-8"), "study report"),
    })

    dead = []
    for label, case in cases.items():
        try:
            case()
        except checks.CheckError:
            print(f"ok   rejected: {label}")
        else:
            print(f"FAIL accepted: {label}")
            dead.append(label)
    if dead:
        print(f"{len(dead)} check(s) did not reject a perturbed output", file=sys.stderr)
        return 1
    print(f"all {len(cases)} perturbations rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
