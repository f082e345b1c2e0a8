"""Input data loading, validation, and the canonical dataset record.

A :class:`Dataset` bundles a response vector ``y``, an ``n x p`` matrix ``S``
of parametric covariates (no intercept column), a scalar smooth covariate
``t``, and optional integer cluster labels. All tests in the package consume
this record.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "Dataset",
    "ColumnMap",
    "load_csv",
    "save_csv",
]

_QUOTED_CHARS = 32  # of a cell in an error line: more than any double's repr (24)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise DataError(f"non-finite value in {name} at row {int(bad[0]) + 1}")


def _normalize_cluster(labels: np.ndarray) -> np.ndarray:
    """Remap arbitrary labels to 0..m-1 in first-appearance order. Integer
    labels already in that order, as :func:`load_csv` codes them, are kept
    without a sort: each is at least 0 and a new one is the largest so far plus 1."""
    if labels.dtype.kind in "iu":
        seen = np.maximum.accumulate(labels)
        if labels.min() >= 0 and seen[0] == 0 and (np.diff(seen) <= 1).all():
            return labels.astype(np.int64)
    order = np.argsort(labels, kind="stable")  # not np.unique, which imports numpy.ma
    ordered = labels[order]
    starts = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    first = order[starts]  # each label's first row, in sorted label order
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    out = np.empty(labels.size, dtype=np.int64)
    out[order] = rank[np.cumsum(starts) - 1]
    return out


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
            _check_finite(name, arr)
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

    @cached_property
    def cluster_order(self) -> np.ndarray | None:
        """The stable argsort of the cluster labels, taken on first use and
        kept: every cluster's rows in row order, cluster by cluster. None
        without clusters."""
        return None if self.cluster is None else np.argsort(self.cluster, kind="stable")


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

    Comma delimiter, '.' decimal separator, an optional byte-order mark. Row
    order is preserved. Raises ConfigError for a missing file or column, a
    header that names a column twice and a column given two of the roles y, t,
    s and cluster, and DataError for a file that cannot be
    read or decoded and for unusable cells, naming the offending row and
    column; an empty cluster label is unusable. Data row r is the r-th line
    after the header, blank lines included.

    numpy's parser reads the rows (:func:`_read_rows`); a file it rejects, or
    whose rows it reads as unusable, is read again by the csv module
    (:func:`_read_cells`), which accepts what Python's ``float`` accepts (such
    as ``1_0``) and names the first fault.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"input file not found: {path}")
    try:
        dataset = _read_rows(path, columns)
    except (ConfigError, OSError, ValueError, csv.Error):
        dataset = None  # the csv read raises the same error, or the read error before it
    return _read_cells(path, columns) if dataset is None else dataset


def _roles(path: Path, header: list[str], columns: ColumnMap) -> tuple[list[str], list[int], int | None]:
    """The stripped header, the columns of y, t and each s in that order, and
    the cluster column."""
    header = [h.strip() for h in header]
    repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
    if repeated is not None:
        raise ConfigError(f"{path}: column {repeated!r} appears more than once in the header")

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
    used = [iy, it, *i_s, *([] if icl is None else [icl])]
    shared = next((i for k, i in enumerate(used) if i in used[:k]), None)
    if shared is not None:
        raise ConfigError(f"{path}: column {header[shared]!r} is given more than one of the roles "
                          "y, t, s and cluster")
    return header, [iy, it, *i_s], icl


def _unread(cell: str) -> float:
    """A cell of a column no role reads: NaN, so unusable, only if it holds a NUL,
    which the csv module of some Python versions rejects."""
    return math.nan if "\0" in cell else 0.0


def _read_rows(path: Path, columns: ColumnMap) -> Dataset | None:
    """The dataset as numpy's parser reads it, or None when a row is not the
    header's width or a cell is unusable. One n x (columns) float array holds
    the file: a cluster label is coded by first appearance as it is read, and
    a column no role reads is read as 0. Without ``usecols`` numpy rejects a
    row whose width differs from the first row's."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            return None
        header, cols, icl = _roles(path, header, columns)
        codes: dict = {}

        def code(cell: str) -> float:
            label = cell.strip()
            return codes.setdefault(label, len(codes)) if label and "\0" not in label else math.nan

        converters = {i: code if i == icl else _unread for i in range(len(header)) if i not in cols}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a file without rows; the csv read names it
            values = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2,
                                converters=converters)
    if values.shape[1] != len(header) or not values.size or not np.isfinite(values).all():
        return None
    return Dataset(y=values[:, cols[0]], S=values[:, cols[2:]], t=values[:, cols[1]],
                   cluster=None if icl is None else values[:, icl].astype(np.int64))


def _read_cells(path: Path, columns: ColumnMap) -> Dataset:
    """The dataset as the csv module and Python's ``float`` read it, one
    ``str`` per cell; raises the error of a file that cannot be read, of its
    header, or of its first unusable row or cell."""
    limit = csv.field_size_limit()
    try:  # no cell is longer than the file: under this limit a long cell is judged like any other
        csv.field_size_limit(max(limit, path.stat().st_size))
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            top = last = reader.line_num
            rows = []
            for row in reader:
                if row:
                    rows.append((last + 1 - top, row))
                last = reader.line_num
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    finally:
        csv.field_size_limit(limit)
    if header is None:
        raise DataError(f"{path}: file is empty")
    header, cols, icl = _roles(path, header, columns)
    if not rows:
        raise DataError(f"{path}: no data rows")
    fault = _first_fault(rows, header, cols, icl)
    if fault is not None:
        raise DataError(f"{path}: {fault}")
    values = np.array([[float(row[i].strip()) for _, row in rows] for i in cols])
    cluster = None if icl is None else [row[icl].strip() for _, row in rows]
    return Dataset(y=values[0], S=values[2:].T, t=values[1], cluster=cluster)


def _first_fault(rows: list[tuple[int, list[str]]], header: list[str], cols: list[int],
                 icl: int | None) -> str | None:
    """The first ragged row, unusable cell of ``cols`` or empty cluster label
    (column ``icl``), in row-major order, of rows given with their data row
    numbers; None if there is none. A cell longer than _QUOTED_CHARS is
    quoted by its first _QUOTED_CHARS characters and its length."""
    for r, row in rows:
        if len(row) != len(header):
            return f"data row {r} has {len(row)} cells, expected {len(header)}"
        for idx in cols:
            cell = row[idx].strip()
            try:
                fault = None if math.isfinite(float(cell)) else "non-finite"
            except ValueError:
                fault = "non-numeric"
            if fault is not None:
                quoted = repr(cell[:_QUOTED_CHARS])
                quoted += f"... ({len(cell)} characters)" if len(cell) > _QUOTED_CHARS else ""
                return f"{fault} value {quoted} in column {header[idx]!r} at data row {r}"
        if icl is not None and not row[icl].strip():
            return f"empty value in column {header[icl]!r} at data row {r}"
    return None


@contextmanager
def atomic_write(path: str | Path, binary: bool = False):
    """A handle on ``.<name>.<pid>.tmp`` beside ``path`` (UTF-8 text, no newline
    translation, or bytes), renamed onto ``path`` when the block ends and removed
    if it raises; the parent directory is made first. Every file covtest writes
    goes through here, so each appears whole and a directory only with its first file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8",
                  newline=None if binary else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset to CSV under the header y,t,s1..sp[,cluster]; finite
    doubles round-trip bit-exactly."""
    header = ["y", "t", *(f"s{k + 1}" for k in range(dataset.p))]
    if dataset.cluster is not None:
        header.append("cluster")
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(dataset.y[i])), repr(float(dataset.t[i]))]
            row += [repr(float(v)) for v in dataset.S[i]]
            if dataset.cluster is not None:
                row.append(str(int(dataset.cluster[i])))
            writer.writerow(row)

