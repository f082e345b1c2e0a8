"""Input data loading, validation, and the canonical dataset record.

A :class:`Dataset` bundles a response vector ``y``, an ``n x p`` matrix ``S``
of parametric covariates (no intercept column), a scalar smooth covariate
``t``, and optional integer cluster labels. All tests in the package consume
this record.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "Dataset",
    "ColumnMap",
    "load_csv",
    "save_csv",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _normalize_cluster(labels) -> np.ndarray:
    """Remap arbitrary labels to 0..m-1 in first-appearance order."""
    index: dict = {}
    return np.array([index.setdefault(lab, len(index)) for lab in labels], dtype=np.int64)


@dataclass(frozen=True)
class Dataset:
    """Immutable input record for all tests.

    Invariants enforced at construction: equal lengths, finite entries,
    cluster labels (if any) remapped to a contiguous 0..m-1 range in
    first-appearance order. Missing values are rejected, never imputed.
    """

    y: np.ndarray
    S: np.ndarray
    t: np.ndarray
    cluster: np.ndarray | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        t = np.asarray(self.t, dtype=float)
        S = np.asarray(self.S, dtype=float)
        if S.ndim == 1:
            S = S.reshape(len(S), -1) if S.size else S.reshape(len(y), 0)
        if y.ndim != 1 or t.ndim != 1 or S.ndim != 2:
            raise DataError("y and t must be vectors and S a 2-d matrix")
        n = y.shape[0]
        if n < 1:
            raise DataError("dataset has zero rows")
        if t.shape[0] != n or S.shape[0] != n:
            raise DataError(
                f"length mismatch: y has {n} rows, t has {t.shape[0]}, S has {S.shape[0]}"
            )
        for name, arr in (("y", y), ("t", t), ("S", S)):
            if not np.all(np.isfinite(arr)):
                bad = np.argwhere(~np.isfinite(arr))[0]
                raise DataError(f"non-finite value in {name} at row {int(bad[0]) + 1}")
        cluster = self.cluster
        if cluster is not None:
            cluster = np.asarray(cluster)
            if cluster.shape[0] != n:
                raise DataError(f"cluster has {cluster.shape[0]} rows, expected {n}")
            cluster = _readonly(_normalize_cluster(cluster))
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "t", _readonly(t))
        object.__setattr__(self, "S", _readonly(S))
        object.__setattr__(self, "cluster", cluster)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.S.shape[1]

    @property
    def n_units(self) -> int:
        """Number of independent units: clusters if present, rows otherwise."""
        if self.cluster is None:
            return self.n
        return int(self.cluster.max()) + 1

    def with_rescaled_t(self) -> "Dataset":
        """Affinely map t onto [0, 1]. Knot and kernel constructions are
        range-sensitive, so this is opt-in rather than automatic."""
        lo, hi = float(self.t.min()), float(self.t.max())
        if hi == lo:
            raise DataError("cannot rescale constant t")
        return Dataset(self.y, self.S, (self.t - lo) / (hi - lo), self.cluster)


@dataclass(frozen=True)
class ColumnMap:
    """Names of the CSV columns holding each model variable.

    ``s`` may be None, in which case every column not otherwise mapped is
    taken as a parametric covariate, in header order.
    """

    y: str = "y"
    t: str = "t"
    s: tuple[str, ...] | None = None
    cluster: str | None = None


def load_csv(path: str | Path, columns: ColumnMap = ColumnMap()) -> Dataset:
    """Load a dataset from a UTF-8 CSV file with a header row.

    Comma delimiter, '.' decimal separator. Row order is preserved.
    Raises ConfigError for a missing file or column, and DataError for a file
    that cannot be read or decoded and for unusable cells, naming the
    offending row and column.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"input file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [row for row in reader if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: file is empty")
    header = [h.strip() for h in header]

    def col_index(name: str) -> int:
        try:
            return header.index(name)
        except ValueError:
            raise ConfigError(f"{path}: column {name!r} not found in header {header}") from None

    iy = col_index(columns.y)
    it = col_index(columns.t)
    icl = col_index(columns.cluster) if columns.cluster is not None else None
    if columns.s is not None:
        i_s = [col_index(name) for name in columns.s]
    else:
        taken = {iy, it} | ({icl} if icl is not None else set())
        i_s = [i for i in range(len(header)) if i not in taken]

    if not rows:
        raise DataError(f"{path}: no data rows")

    cols = [iy, it, *i_s]
    values = None
    if all(len(row) == len(header) for row in rows):
        try:
            values = np.array([[float(row[i].strip()) for row in rows] for i in cols])
        except ValueError:
            pass
    if values is None or not np.isfinite(values).all():
        raise DataError(f"{path}: {_first_fault(rows, header, cols)}")
    cluster = [row[icl].strip() for row in rows] if icl is not None else None
    return Dataset(y=values[0], S=values[2:].T, t=values[1], cluster=cluster)


def _first_fault(rows: list[list[str]], header: list[str], cols: list[int]) -> str:
    """The first ragged row or unusable cell of ``cols``, in row-major order."""
    for r, row in enumerate(rows, start=1):
        if len(row) != len(header):
            return f"data row {r} has {len(row)} cells, expected {len(header)}"
        for idx in cols:
            cell = row[idx].strip()
            try:
                v = float(cell)
            except ValueError:
                return f"non-numeric value {cell!r} in column {header[idx]!r} at data row {r}"
            if not np.isfinite(v):
                return f"non-finite value {cell!r} in column {header[idx]!r} at data row {r}"
    raise AssertionError("no unusable cell found")


def save_csv(dataset: Dataset, path: str | Path, columns: ColumnMap = ColumnMap()) -> None:
    """Write a dataset back to CSV; finite doubles round-trip bit-exactly."""
    s_names = columns.s if columns.s is not None else tuple(f"s{k + 1}" for k in range(dataset.p))
    if len(s_names) != dataset.p:
        raise ConfigError(f"{len(s_names)} covariate names for {dataset.p} covariate columns")
    header = [columns.y, columns.t, *s_names]
    if dataset.cluster is not None:
        header.append(columns.cluster or "cluster")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(dataset.y[i])), repr(float(dataset.t[i]))]
            row += [repr(float(v)) for v in dataset.S[i]]
            if dataset.cluster is not None:
                row.append(str(int(dataset.cluster[i])))
            writer.writerow(row)

