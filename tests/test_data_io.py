"""Dataset loading and validation."""

import numpy as np
import pytest

from covtest import (
    ColumnMap,
    DataError,
    ConfigError,
    Dataset,
    generate_dataset,
    load_csv,
    save_csv,
)


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

    def test_arrays_are_immutable(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.y[0] = 99.0

