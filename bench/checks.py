"""Correctness checks computed apart from the program.

Each check recomputes a published number from the generated inputs with the
benchmark's own linear algebra, or tests a property every valid output has,
and raises :class:`CheckError` on a mismatch. Nothing is compared against
stored outputs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

import numpy as np
from scipy.stats import chi2

STAT_RTOL = 1e-6
CUSUM_RTOL = 1e-9
LEVEL = 0.01
WINDOW_TAIL = 1e-6
TINY = np.finfo(float).tiny


class CheckError(AssertionError):
    """A program output failed a benchmark check."""


def _close(name: str, got: float, want: float, rtol: float) -> None:
    if not abs(got - want) <= rtol * max(abs(want), 1e-300):
        raise CheckError(f"{name}: program {got!r}, benchmark {want!r} (rtol {rtol:g})")


# ---------------------------------------------------------------------------
# Design pieces, rebuilt from the CSV columns


def fixed_effects(cols: dict, degree: int) -> np.ndarray:
    """[s1 | s2 | 1, t, ..., t^degree], the column order the CLI uses."""
    t = cols["t"]
    return np.column_stack([cols["s1"], cols["s2"]] + [t**k for k in range(degree + 1)])


def quantile_knots(t: np.ndarray, count: int) -> np.ndarray:
    """Knot k at the ceil(k D / (count + 1))-th of the D sorted distinct t."""
    distinct = np.unique(t)
    idx = np.ceil(np.arange(1, count + 1) * distinct.size / (count + 1)).astype(int)
    return distinct[idx - 1]


def spline_basis(t: np.ndarray, knots: np.ndarray, degree: int) -> np.ndarray:
    return np.maximum(t[:, None] - knots[None, :], 0.0) ** degree


def lambda_grid(B: np.ndarray, points: int = 200, span=(1e-6, 1e8)) -> np.ndarray:
    """{0} and log-spaced ratios over the mean eigenvalue of B'B.

    The grid is a convention shared with the program, so it is rebuilt the
    way the program documents it and compared by hash.
    """
    gram = B.T @ B
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))[::-1].copy()
    eigs[eigs < 1e-12 * max(eigs[0], 0.0)] = 0.0
    ratios = np.logspace(math.log10(span[0]), math.log10(span[1]), points)
    return np.concatenate([[0.0], ratios / float(eigs.mean())])


def grid_sha(grid: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(grid, dtype="<f8").tobytes()).hexdigest()[:16]


def _residual(Q: np.ndarray, v: np.ndarray) -> np.ndarray:
    return v - Q @ (Q.T @ v)


# ---------------------------------------------------------------------------
# Independent recomputations


def spectral_statistic(cols: dict, kind: str, degree: int, h: int, knots: int = 20):
    """LRT/RLRT by thin QR + SVD: profile over the grid in the spline eigenbasis.

    Returns (statistic, grid sha). Independent of the program's dense GLS
    sweep; the two agree to rounding when both are right.
    """
    y, t = cols["y"], cols["t"]
    X = fixed_effects(cols, degree)
    B = spline_basis(t, quantile_knots(t, knots), degree)
    grid = lambda_grid(B)
    n, p = X.shape
    Q, _ = np.linalg.qr(X)
    U, sv, _ = np.linalg.svd(_residual(Q, B), full_matrices=False)
    proj = sv**2
    r0 = _residual(Q, y)
    head = (U.T @ r0) ** 2
    tail = max(float(r0 @ r0 - head.sum()), 0.0)
    lam = grid[:, None]
    shrink = 1.0 + lam * proj
    ratio = ((lam * proj / shrink) * head).sum(axis=1) / ((head / shrink).sum(axis=1) + tail)
    if kind == "rlrt":
        path = (n - p) * np.log1p(ratio) - np.log1p(lam * proj).sum(axis=1)
    else:
        raw = np.linalg.svd(B, compute_uv=False) ** 2
        path = n * np.log1p(ratio) - np.log1p(lam * raw).sum(axis=1)
        if h:
            Q0, _ = np.linalg.qr(X[:, :-h])
            r_null = _residual(Q0, y)
            path = path + n * math.log(float(r_null @ r_null) / float(r0 @ r0))
    return max(float(path.max()), 0.0), grid_sha(grid)


def natural_kernel(t: np.ndarray) -> np.ndarray:
    """Cubic smoothing-spline kernel min^2 (3 max - min) / 6 on t mapped to [0, 1]."""
    u = (t - t.min()) / (t.max() - t.min())
    lo = np.minimum.outer(u, u)
    hi = np.maximum.outer(u, u)
    return lo * lo * (3.0 * hi - lo) / 6.0


def ols_score(cols: dict) -> dict:
    """Score quadratic form, its two null moments and the chi-square p-value (OLS null)."""
    y = cols["y"]
    X = fixed_effects(cols, 1)
    n, p = X.shape
    Q, _ = np.linalg.qr(X)
    r = _residual(Q, y)
    sigma2 = float(r @ r) / (n - p)
    M = natural_kernel(cols["t"])
    u = r / sigma2
    u_quad = 0.5 * float(u @ M @ u)
    RM = M - Q @ (Q.T @ M)                      # (I - H) M
    mean = 0.5 * float(np.trace(RM)) / sigma2   # tr(PM) / 2
    variance = 0.5 * float((RM * RM.T).sum()) / sigma2**2
    scale = variance / (2.0 * mean)
    df = 2.0 * mean**2 / variance
    p_value = max(float(chi2.sf(u_quad / scale, df)), TINY)
    return {"u_quad": u_quad, "mean": mean, "variance": variance, "p_value": p_value}


def ols_cusum_sup(cols: dict) -> float:
    """Sup of the OLS residual partial sums ordered by t, over sqrt(n)."""
    X = fixed_effects(cols, 1)
    Q, _ = np.linalg.qr(X)
    r = _residual(Q, cols["y"])
    t = cols["t"]
    order = np.argsort(t, kind="stable")
    _, first = np.unique(t[order], return_index=True)
    sums = np.cumsum(np.add.reduceat(r[order], first))
    return float(np.abs(sums).max()) / math.sqrt(t.size)


# ---------------------------------------------------------------------------
# Checks on one `covtest test` result record


def check_add_one(p_value: float, draws: int) -> None:
    """A resampled p-value is (1 + #exceedances) / (draws + 1)."""
    k = p_value * (draws + 1)
    if not (abs(k - round(k)) <= 1e-6 and 1 <= round(k) <= draws + 1):
        raise CheckError(f"p = {p_value!r} is not on the add-one lattice of {draws} draws")


def check_reject(record: dict) -> None:
    if not (record["p_value"] < LEVEL and record["reject_at_level"] and record["level"] == LEVEL):
        raise CheckError(
            f"{record['method']}: p = {record['p_value']!r} does not reject at {LEVEL}"
        )


def check_lrt(record: dict, cols: dict, kind: str, degree: int, h: int, draws: int) -> None:
    stat, sha = spectral_statistic(cols, kind, degree, h)
    if record["nuisance"]["grid_sha"] != sha:
        raise CheckError(f"grid sha {record['nuisance']['grid_sha']} != benchmark grid {sha}")
    _close(f"{kind} statistic", record["statistic"], stat, STAT_RTOL)
    check_add_one(record["p_value"], draws)


def check_score(record: dict, cols: dict) -> None:
    want = ols_score(cols)
    _close("score u_quad", record["u_quad"], want["u_quad"], STAT_RTOL)
    _close("score tr(PM)/2", record["moments"]["mean"], want["mean"], STAT_RTOL)
    _close("score tr((PM)^2)/2", record["moments"]["variance"], want["variance"], STAT_RTOL)
    _close("score p-value", max(record["p_value"], TINY), want["p_value"], STAT_RTOL)


def check_cusum(record: dict, cols: dict | None, draws: int) -> None:
    """OLS cusum (``cols`` given): the observed sup; every cusum: add-one p."""
    if cols is not None:
        _close("cusum observed sup", record["statistic"], ols_cusum_sup(cols), CUSUM_RTOL)
    check_add_one(record["p_value"], draws)


def check_same_bytes(first: bytes, again: bytes, what: str) -> None:
    """A rerun with the same flags writes the same bytes."""
    if first != again:
        raise CheckError(f"{what} differs from the first one's bytes")


# ---------------------------------------------------------------------------
# Checks on a `covtest simulate` report


def binomial_window(runs: int, level: float, tail: float = WINDOW_TAIL) -> tuple[int, int]:
    """Smallest [lo, hi] holding Binomial(runs, level) but for `tail` on each side."""
    pmf = [math.comb(runs, k) * level**k * (1 - level) ** (runs - k) for k in range(runs + 1)]
    lo, acc = 0, pmf[0]
    while acc < tail:
        lo += 1
        acc += pmf[lo]
    hi, acc = runs, pmf[runs]
    while acc < tail:
        hi -= 1
        acc += pmf[hi]
    return lo, hi


def check_study(report_csv: str, study: dict) -> None:
    """Full grid present, no failures, sizes in their windows, power >= size."""
    rows = list(csv.DictReader(io.StringIO(report_csv)))
    cells = {(r["test"], int(r["m"]), float(r["sigma"]), int(r["c"]), float(r["level"])): r for r in rows}
    expected = {
        (test, m, sigma, c, level)
        for test in study["tests"] for m in study["m"] for sigma in study["sigma"]
        for c in study["c"] for level in study["levels"]
    }
    if set(cells) != expected or len(rows) != len(expected):
        raise CheckError(f"report has {len(rows)} cells, expected the {len(expected)} of the grid")
    runs = study["runs"]
    for key, row in cells.items():
        if int(row["n_runs"]) != runs or int(row["failures"]) != 0:
            raise CheckError(f"cell {key}: {row['failures']} failures in {row['n_runs']} runs")
    for test in study["tests"]:
        for m in study["m"]:
            for sigma in study["sigma"]:
                for level in study["levels"]:
                    size = int(cells[(test, m, sigma, 0, level)]["rejections"])
                    power = int(cells[(test, m, sigma, max(study["c"]), level)]["rejections"])
                    lo, hi = binomial_window(runs, level)
                    if not lo <= size <= hi:
                        raise CheckError(
                            f"{test} m={m} sigma={sigma:g} level={level:g}: size "
                            f"{size}/{runs} outside [{lo}, {hi}]"
                        )
                    if power < size:
                        raise CheckError(
                            f"{test} m={m} sigma={sigma:g} level={level:g}: power "
                            f"{power}/{runs} below size {size}/{runs}"
                        )
