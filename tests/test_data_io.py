"""Dataset loading and validation."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covtest import (
    Clusters,
    ColumnMap,
    DataError,
    ConfigError,
    Dataset,
    generate_dataset,
    load_csv,
    save_csv,
)
from covtest.errors import CovtestError
from oracles import csv_load, first_appearance


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_minimal_two_column_file(self, tmp_path):
        path = write(tmp_path, "y,t\n1.0,0.1\n2.0,0.2\n3.0,0.3\n")
        ds = load_csv(path)
        assert ds.n == 3
        assert ds.p == 0
        np.testing.assert_array_equal(ds.y, [1.0, 2.0, 3.0])

    def test_nan_in_response_names_row(self, tmp_path):
        path = write(tmp_path, "y,t\n1.0,0.1\nNaN,0.2\n")
        with pytest.raises(DataError, match=r"row 2"):
            load_csv(path)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "y,t,s1\n1.0,0.1,2.0\n2.0,oops,3.0\n")
        with pytest.raises(DataError, match=r"'t'.*row 2"):
            load_csv(path)

    def test_missing_column_is_config_error(self, tmp_path):
        path = write(tmp_path, "resp,t\n1.0,0.1\n")
        with pytest.raises(ConfigError, match="'y'"):
            load_csv(path)

    def test_zero_rows_is_data_error(self, tmp_path):
        path = write(tmp_path, "y,t\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path)

    @pytest.mark.parametrize("columns, name", [
        (ColumnMap(y="y", t="y"), "y"),
        (ColumnMap(s=("y",)), "y"),
        (ColumnMap(s=("t",)), "t"),
        (ColumnMap(s=("s1", "s1")), "s1"),
        (ColumnMap(cluster="y"), "y"),
        (ColumnMap(t="g", cluster="g"), "g"),
    ])
    def test_column_fills_one_role(self, tmp_path, columns, name):
        """y, t, each s column and the cluster column are distinct header columns."""
        path = write(tmp_path, "y,t,s1,g\n1.0,0.1,2.0,1\n2.0,0.2,3.0,2\n")
        with pytest.raises(ConfigError) as info:
            load_csv(path, columns)
        assert str(info.value) == (f"{path}: column {name!r} is given more than one of the roles "
                                   "y, t, s and cluster")

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_csv(tmp_path / "nope.csv")

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "y,t\n1.0,0.1\n2.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_simulated_file_shape(self, tmp_path):
        """Oracle: independent header parse and row count of the raw file."""
        ds = generate_dataset(50, 0.25, 0, seed=(3, 0))
        path = tmp_path / "sim.csv"
        save_csv(ds, path)
        raw = path.read_text().strip().splitlines()
        assert raw[0].split(",") == ["y", "t", "s1", "s2"]
        assert len(raw) - 1 == 50
        loaded = load_csv(path)
        assert loaded.n == 50
        assert loaded.p == 2

    def test_s_columns_default_to_all_remaining(self, tmp_path):
        path = write(tmp_path, "a,y,t,b\n1,2,3,4\n")
        ds = load_csv(path)
        assert ds.p == 2
        np.testing.assert_array_equal(ds.S[0], [1.0, 4.0])

    def test_explicit_column_map(self, tmp_path):
        path = write(tmp_path, "resp,time,x\n1.0,0.5,9.0\n2.0,0.7,8.0\n")
        ds = load_csv(path, ColumnMap(y="resp", t="time", s=("x",)))
        assert ds.p == 1
        np.testing.assert_array_equal(ds.t, [0.5, 0.7])

    def test_round_trip_bit_exact(self, tmp_path, rng):
        y = rng.standard_normal(17) * 1e3
        t = rng.standard_normal(17)
        S = rng.standard_normal((17, 3)) * 1e-7
        ds = Dataset(y=y, S=S, t=t)
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path, ColumnMap(s=("s1", "s2", "s3")))
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.t, ds.t)
        assert np.array_equal(back.S, ds.S)

    def test_cluster_column_round_trip(self, tmp_path):
        path = write(tmp_path, "y,t,g\n1,0.1,b\n2,0.2,a\n3,0.3,b\n4,0.4,c\n")
        ds = load_csv(path, ColumnMap(cluster="g"))
        np.testing.assert_array_equal(ds.cluster, [0, 1, 0, 2])


    @pytest.mark.parametrize(
        "text, message",
        [
            ("y,t,s1\n1,0.1,2\n2,oops,3\n3,0.3\n",
             "non-numeric value 'oops' in column 't' at data row 2"),
            ("y,t,s1\n1,0.1,2\n2,0.2\n3,oops,3\n", "data row 2 has 2 cells, expected 3"),
            ("y,t\n1,0.1\n2,0.2,9\n", "data row 2 has 3 cells, expected 2"),
            ("s1,y,t\nbad,inf,0.1\n", "non-finite value 'inf' in column 'y' at data row 1"),
            ("y,t\n1,0.1\n nan ,0.2\n", "non-finite value 'nan' in column 'y' at data row 2"),
            ("y,t,s1\n1,0.1,-Infinity\n", "non-finite value '-Infinity' in column 's1' at data row 1"),
            ("y,t\n1,\n", "non-numeric value '' in column 't' at data row 1"),
        ],
    )
    def test_first_fault_in_row_major_order(self, tmp_path, text, message):
        """Rows in file order; within a row, its length, then y, t and the
        covariates, whatever their place in the header."""
        path = write(tmp_path, text)
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: {message}"

    def test_cells_are_stripped_before_parsing(self, tmp_path):
        """Spaces, tabs and the separator characters str.strip removes (but
        float does not) surround a number; signs and exponents parse as float."""
        path = write(tmp_path, "y,t,s1,g\n +1e3 ,\t0.5 ,\x1c-2.5e-3\x1c, a\n1,0.1,2,a \n")
        ds = load_csv(path, ColumnMap(cluster="g"))
        assert ds.y.tolist() == [1000.0, 1.0]
        assert ds.t.tolist() == [0.5, 0.1]
        assert ds.S.tolist() == [[-0.0025], [2.0]]
        assert ds.cluster.tolist() == [0, 0]

    def test_long_cell_does_not_hide_a_later_fault(self, tmp_path):
        """A 140 000-digit cell, longer than the csv module's default field
        limit (131 072), is read like any other: the file's fault is its later
        non-numeric cell, as without the long cell, the limit is left as
        found, and without the fault the file loads."""
        long = "0." + "1" * 139_998
        limit = csv.field_size_limit()
        for t in (long, "0.1"):
            path = write(tmp_path, f"y,t\n1.0,{t}\n2.0,0.5\nabc,0.7\n")
            with pytest.raises(DataError) as err:
                load_csv(path)
            assert str(err.value) == f"{path}: non-numeric value 'abc' in column 'y' at data row 3"
            assert csv.field_size_limit() == limit
        path = write(tmp_path, f"y,t\n1.0,{long}\n2.0,0.5\n3.0,0.7\n")
        assert load_csv(path).t.tolist() == [float(long), 0.5, 0.7]

    @pytest.mark.parametrize("cell, fault", [("x" * 140_000, "non-numeric"), ("1" * 140_000, "non-finite")])
    def test_long_unusable_cell_makes_a_short_line(self, tmp_path, cell, fault):
        """An error line quotes the first 32 characters of a long unusable cell
        and its length, so a 140 000-character cell makes a line under 200
        bytes that still names the column and the data row."""
        path = write(tmp_path, f"y,t\n1.0,0.5\n2.0,{cell}\n")
        with pytest.raises(DataError) as err:
            load_csv(path)
        line = f"data error: {err.value}\n"
        assert str(err.value) == (f"{path}: {fault} value {cell[:32]!r}... (140000 characters) "
                                  "in column 't' at data row 2")
        assert len(line.encode()) < 200

# Header and column map of each generated file: y, t and s1 alone; with a
# cluster column; and with the columns shuffled around an unread column x.
LAYOUTS = [
    ("y,t,s1", ColumnMap()),
    ("y,t,s1,g", ColumnMap(cluster="g")),
    ("g,t,x,y,s1", ColumnMap(s=("s1",), cluster="g")),
]
# Cells numpy's parser and Python's float may read differently: padding,
# quotes and separators str.strip removes, which both read; underscores and
# non-ASCII digits, which only Python reads; and unusable cells: a leading
# '#', non-finite and out-of-range values, empty cells and a NUL.
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([" 1.5 ", '"2.5"', '" -3 "', '"1"5', "\t3\t", "-0", "+.5", "1e-400",
                     "\x1c7", "\u30008"]),
)
PYTHON_ONLY = st.sampled_from(["1_0", "\u0661\u0662"])
UNUSABLE = st.sampled_from(["#1", "nan", "inf", "-Infinity", "1e400", "", " ", '"1,5"', '"1""5"',
                            "0x10", "abc", "1.5e", "4\x00"])
# Cluster labels, most of them spellings of one label that differ only in
# padding and quotes, and the unusable ones.
LABELS = st.sampled_from(["a", " a ", '"a"', '" a"', "\u3000a", "b", '"a,b"', "#c", "1", "01"])
BAD_LABELS = st.sampled_from(["", " ", "a\x00"])
FAULTS = ["python-only cell", "unusable cell", "bad label", "short row", "long row",
          "whitespace line"]


@st.composite
def data_files(draw):
    """A data CSV of 1 to 3 rows, blank lines between them, CRLF or LF, with or
    without a byte-order mark, and zero to two faults from FAULTS (cell faults
    first, so a shortened row keeps every cell index in range)."""
    header, columns = draw(st.sampled_from(LAYOUTS))
    names = header.split(",")
    cell = {"g": LABELS, "x": st.one_of(LABELS, NUMBERS)}
    rows = [[draw(cell.get(name, NUMBERS)) for name in names] for _ in range(draw(st.integers(1, 3)))]
    before = [draw(st.sampled_from([[], [], [""]])) for _ in rows]
    for fault in sorted(draw(st.lists(st.sampled_from(FAULTS), max_size=2)), key=FAULTS.index):
        r = draw(st.integers(0, len(rows) - 1))
        numeric = [j for j, name in enumerate(names) if name != "g"]
        if fault == "bad label" and "g" in names:
            rows[r][names.index("g")] = draw(BAD_LABELS)
        elif fault in ("python-only cell", "unusable cell", "bad label"):
            rows[r][draw(st.sampled_from(numeric))] = draw(
                PYTHON_ONLY if fault == "python-only cell" else UNUSABLE)
        elif fault == "short row":
            rows[r] = rows[r][:-1]
        elif fault == "long row":
            rows[r] = rows[r] + [draw(NUMBERS)]
        else:
            before[r] = before[r] + [draw(st.sampled_from([" ", "\t"]))]
    lines = [line for gap, row in zip(before, rows) for line in [*gap, ",".join(row)]]
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    text = sep.join([header, *lines]) + draw(st.sampled_from([sep, ""]))
    return draw(st.sampled_from(["", "\ufeff"])) + text, columns


def read_outcome(read, path, columns):
    """A reader's dataset as (y, t, S, cluster) bytes, or its error's category and text."""
    try:
        ds = read(path, columns)
    except CovtestError as exc:
        return type(exc).__name__, str(exc)
    return tuple(None if a is None else (a.dtype.str, a.shape, a.tobytes())
                 for a in (ds.y, ds.t, ds.S, ds.cluster))


class TestLoadCsvFuzz:
    @settings(max_examples=300)
    @given(case=data_files())
    def test_same_dataset_or_error_as_csv_module(self, tmp_path_factory, case):
        """numpy's read, with the csv module's read of what it rejects, gives
        the csv module's dataset bit for bit, or its error word for word."""
        text, columns = case
        path = tmp_path_factory.mktemp("data") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert read_outcome(load_csv, path, columns) == read_outcome(csv_load, path, columns)


class TestMemory:
    @pytest.mark.parametrize("clusters", [0, 500])
    def test_large_file_peak(self, tmp_path, clusters):
        """n = 20 000 rows of y, t, s1, s2 (and a cluster label): numpy's parser
        holds the file as one float array, under 3 MB at the peak, where one
        str per cell took 10.6 MB (12.3 MB with 500 clusters)."""
        n = 20_000
        rng = np.random.default_rng(clusters)
        cols = [rng.standard_normal(n), rng.permutation(n) / (n - 1), *rng.standard_normal((2, n))]
        names = ["y", "t", "s1", "s2"]
        if clusters:
            cols.append(np.arange(n) % clusters)
            names.append("cluster")
        path = tmp_path / "large.csv"
        rows = (",".join(map(repr, row)) for row in zip(*(c.tolist() for c in cols)))
        path.write_text(",".join(names) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        columns = ColumnMap(cluster="cluster" if clusters else None)
        tracemalloc.start()
        try:
            ds = load_csv(path, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.y.tobytes() == cols[0].tobytes() and ds.S.shape == (n, 2)
        if clusters:
            np.testing.assert_array_equal(ds.cluster, cols[4])
        assert peak < 3 * 2**20


class TestDataset:
    def test_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            Dataset(y=[1.0, 2.0], S=np.empty((2, 0)), t=[0.1])

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            Dataset(y=[1.0, np.inf], S=np.empty((2, 0)), t=[0.1, 0.2])

    def test_zero_rows_rejected(self):
        with pytest.raises(DataError, match="zero rows"):
            Dataset(y=[], S=np.empty((0, 0)), t=[])

    def test_cluster_remap_first_appearance(self):
        ds = Dataset(y=[1, 2, 3, 4], S=np.empty((4, 0)), t=[1, 2, 3, 4], cluster=[7, 3, 7, 9])
        np.testing.assert_array_equal(ds.cluster, [0, 1, 0, 2])
        assert ds.n_units == 3

    @given(st.lists(st.one_of(st.integers(-3, 3), st.sampled_from("abc")), min_size=1, max_size=60))
    def test_cluster_remap_matches_dict_remap(self, labels):
        """Integer, string and mixed labels, in or out of first-appearance
        order, as a dict lookup per label remaps them."""
        n = len(labels)
        ds = Dataset(y=np.ones(n), S=np.empty((n, 0)), t=np.arange(n), cluster=labels)
        assert ds.cluster.dtype == np.int64
        np.testing.assert_array_equal(ds.cluster, first_appearance(np.asarray(labels).tolist()))

    def test_arrays_are_immutable(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.y[0] = 99.0

    @pytest.mark.parametrize("labels,row", [([np.nan, np.nan, 1, 1], 1), ([1, 2, 3, np.inf], 4)])
    def test_missing_cluster_label_rejected(self, labels, row):
        """A NaN label is a missing value, rejected like one in y, not a cluster of its own."""
        with pytest.raises(DataError) as info:
            Dataset(y=[1, 2, 3, 4], S=np.empty((4, 0)), t=[1, 2, 3, 4], cluster=labels)
        assert str(info.value) == f"non-finite value in cluster at row {row}"

    @pytest.mark.parametrize("labels", [np.zeros((4, 2)), np.array(4), np.array([])])
    def test_cluster_labels_not_a_vector_rejected(self, labels):
        with pytest.raises(DataError, match="cluster labels must be a non-empty vector"):
            Dataset(y=[1, 2, 3, 4], S=np.empty((4, 0)), t=[1, 2, 3, 4], cluster=labels)


@st.composite
def cluster_layouts(draw):
    """Labels of one cluster, of singletons or of clusters of 1-40 rows, n <= 300;
    integers with gaps and negatives or text, rows in any order."""
    shape = draw(st.sampled_from(["mixed", "one", "singletons"]))
    if shape == "one":
        sizes = [draw(st.integers(1, 300))]
    elif shape == "singletons":
        sizes = [1] * draw(st.integers(1, 300))
    else:
        sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=30))
        sizes = sizes[:max(1, int(np.searchsorted(np.cumsum(sizes), 300, side="right")))]
    values = draw(st.sampled_from([st.integers(-10**6, 10**6), st.integers(-3, 400),
                                   st.text("abxyz09", min_size=1, max_size=4)]))
    names = draw(st.lists(values, min_size=len(sizes), max_size=len(sizes), unique=True))
    labels = np.repeat(np.asarray(names), sizes)
    return labels[np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(labels.size)]


class TestClusters:
    @given(labels=cluster_layouts())
    @example(labels=np.array([0, -2, 1, -2, 2]))  # new labels rise by at most 1, but one is negative
    def test_layout_and_methods_match_dense_z(self, labels):
        """The coding, sizes and order against a brute-force first-appearance
        coding, and sums(a) = Z'a and whiten(a, rho) = (I + rho ZZ')^-1/2 a
        against a dense Z and one eigh of ZZ', for a vector, a matrix and a stack."""
        clusters = Clusters(labels)
        coded = first_appearance(labels.tolist())
        n, m = coded.size, int(coded.max()) + 1
        np.testing.assert_array_equal(clusters.labels, coded)
        assert clusters.sizes.tolist() == [coded.tolist().count(k) for k in range(m)]
        assert clusters.order.tolist() == sorted(range(n), key=lambda i: coded[i])
        assert clusters.n_units == m
        Z = (coded[:, None] == np.arange(m)).astype(float)
        eigs, U = np.linalg.eigh(Z @ Z.T)
        eigs = np.round(eigs)  # ZZ''s eigenvalues are the cluster sizes and 0, exactly
        rng = np.random.default_rng(n)
        for a in (rng.standard_normal(n), rng.standard_normal((n, 3)), rng.standard_normal((2, n, 3))):
            want = Z.T @ a
            assert np.abs(clusters.sums(a) - want).max() <= 1e-12 * np.abs(want).max()
            for rho in (0.0, 1e-3, 1.0, 1e4):
                want = (U / np.sqrt(1.0 + rho * eigs)) @ U.T @ a
                assert np.abs(clusters.whiten(a, rho) - want).max() <= 1e-12 * np.abs(want).max()
