"""Input data loading, validation, and the canonical dataset record.

A :class:`Dataset` bundles a response vector ``y``, an ``n x p`` matrix ``S``
of parametric covariates (no intercept column), a scalar smooth covariate
``t``, and optional cluster labels, laid out once as a :class:`Clusters`
record. All tests in the package consume this record.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "Clusters",
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
class Clusters:
    """The layout of Z, the cluster indicators of V = I + ratio ZZ'.

    Built from a non-empty vector of finite numbers or of text; the one place labels
    are coded, counted and sorted. ``labels`` are the codes 0..m-1 in first-appearance
    order, ``sizes`` each cluster's row count and ``order`` the codes' stable argsort.
    """

    labels: np.ndarray
    sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or not labels.size:
            raise DataError(f"cluster labels must be a non-empty vector, got shape {labels.shape}")
        if labels.dtype.kind in "fc":
            _check_finite("cluster", labels)
        labels = _readonly(_normalize_cluster(labels))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sizes", _readonly(np.bincount(labels)))

    @cached_property
    def order(self) -> np.ndarray:
        """The labels' stable argsort, taken on first use and kept: the rows cluster by cluster."""
        return _readonly(np.argsort(self.labels, kind="stable"))

    @property
    def n_units(self) -> int:
        return self.sizes.size

    def sums(self, a) -> np.ndarray:
        """Z'a: sums of ``a`` within each cluster along its observation axis: a vector's
        only one, else the second to last (the rows of a matrix or of each matrix of a stack)."""
        axis = 0 if np.ndim(a) == 1 else -2
        starts = np.concatenate([[0], np.cumsum(self.sizes)[:-1]])
        return np.add.reduceat(np.take(a, self.order, axis=axis), starts, axis=axis)

    def whiten(self, a, ratio: float) -> np.ndarray:
        """(I + ratio ZZ')^-1/2 a along the observation axis: a - d[labels] * mean_cluster(a).

        On a cluster of size n_i, I + ratio 11' has eigenvalue 1 + ratio n_i
        along 1 and 1 elsewhere, so its inverse square root shrinks the cluster
        mean by d_i = 1 - (1 + ratio n_i)^-1/2: the identity at ratio 0. ``a`` is
        never written to.
        """
        out = np.asarray(a, dtype=float)
        if ratio > 0.0:
            shrink = (1.0 - 1.0 / np.sqrt(1.0 + ratio * self.sizes)) / self.sizes
            sums = self.sums(out) * shrink.reshape((-1,) + (1,) * min(out.ndim - 1, 1))
            out = out - np.take(sums, self.labels, axis=0 if out.ndim == 1 else -2)
        return out


@dataclass(frozen=True)
class Dataset:
    """Immutable input record for all tests.

    Invariants enforced at construction: equal lengths, finite entries,
    cluster labels (if any) remapped to a contiguous 0..m-1 range in
    first-appearance order. Missing values are rejected, never imputed.
    ``clusters`` is the labels' :class:`Clusters` record, ``cluster`` its codes.
    """

    y: np.ndarray
    S: np.ndarray
    t: np.ndarray
    cluster: np.ndarray | None = None
    clusters: Clusters | None = field(init=False, repr=False, compare=False)

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
        clusters = None if self.cluster is None else Clusters(self.cluster)
        if clusters is not None and clusters.labels.size != n:
            raise DataError(f"cluster has {clusters.labels.size} rows, expected {n}")
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "t", _readonly(t))
        object.__setattr__(self, "S", _readonly(S))
        object.__setattr__(self, "cluster", None if clusters is None else clusters.labels)
        object.__setattr__(self, "clusters", clusters)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.S.shape[1]

    @property
    def n_units(self) -> int:
        """Number of independent units: clusters if present, rows otherwise."""
        return self.n if self.clusters is None else self.clusters.n_units


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

