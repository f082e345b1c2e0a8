"""Benchmark inputs, generated from a seed with numpy alone.

Two kinds of CSV file, both with the header ``y,t,s1,s2`` (plus ``cluster``
for clustered data):

* independent partially linear data,
  ``y = 1.0 s1 - 0.5 s2 + f(t) + SIGMA e``;
* random-intercept data, the same model plus ``b[cluster]`` with
  ``b ~ N(0, TAU^2)``; rows are dealt to clusters in turn, so every cluster
  has ``n / clusters`` rows spread over the whole t range.

``t`` is the equally spaced grid ``i / (n - 1)`` of the paper's design, in a
random row order, so every seed presents the same spline and kernel matrices
up to a permutation and costs the same dense work; ``s1``, ``s2`` and ``e``
are standard normal. The departure ``f(t) = 0.5 - t + AMPLITUDE * 4 (t - 1/2)^2``
is far from any straight line at this noise level, so every test in the
benchmark rejects linearity at 0.01 on every seed: a non-rejection is a fault
in the program, not bad luck.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

AMPLITUDE = 2.0
SIGMA = 0.25
TAU = 0.25
COEF = (1.0, -0.5)


@dataclass(frozen=True)
class Inputs:
    """The two CSV files of one CLI round, with the columns written to them."""

    independent: Path
    clustered: Path
    independent_cols: dict
    clustered_cols: dict


def departure(t: np.ndarray) -> np.ndarray:
    return 0.5 - t + AMPLITUDE * 4.0 * (t - 0.5) ** 2


def make_columns(rng: np.random.Generator, n: int, clusters: int | None) -> dict:
    t = rng.permutation(n) / (n - 1)
    s1 = rng.standard_normal(n)
    s2 = rng.standard_normal(n)
    y = COEF[0] * s1 + COEF[1] * s2 + departure(t) + SIGMA * rng.standard_normal(n)
    cols = {"y": y, "t": t, "s1": s1, "s2": s2}
    if clusters is not None:
        if n % clusters:
            raise ValueError(f"n = {n} is not a multiple of {clusters} clusters")
        label = np.arange(n) % clusters
        cols["y"] = y + TAU * rng.standard_normal(clusters)[label]
        cols["cluster"] = label
    return cols


def write_csv(path: Path, cols: dict) -> None:
    """One row per observation; floats as repr, so the program reads back the same bits."""
    names = list(cols)
    lines = [",".join(names)]
    for row in zip(*(cols[k].tolist() for k in names)):
        lines.append(",".join(repr(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_inputs(seed: int, n: int, clusters: int, out_dir: Path) -> Inputs:
    """Write the independent and the clustered file for one seed and size."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, n])
    independent = out_dir / f"indep_n{n}.csv"
    clustered = out_dir / f"ri_n{n}_k{clusters}.csv"
    indep_cols = make_columns(rng, n, None)
    ri_cols = make_columns(rng, n, clusters)
    write_csv(independent, indep_cols)
    write_csv(clustered, ri_cols)
    return Inputs(independent, clustered, indep_cols, ri_cols)
