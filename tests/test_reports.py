import numpy as np

from softspin.reports import write_columns


def test_write_columns_equals_cell_by_cell_table(tmp_path):
    # every column kind the pipeline writes, with the special values
    columns = {
        "unit_id": np.array(["a", "b", "c", "d"]),
        "label": ["x", None, "z", 3],
        "iteration": range(0, 40, 10),
        "energy": np.array([1.5, np.nan, -0.0, np.inf]),
        "low": np.array([-np.inf, 0.0, -1e-320, 2.0**-1074]),
        "small": np.array([0.1, 1e-300, np.nan, -2.5], dtype=np.float32),
        "count": np.array([0, -3, 7, 2**40]),
        "unsigned": np.array([1, 2, 3, 4], dtype=np.uint8),
        "covered": np.array([True, False, True, False]),
        "mixed": [1.0, float("nan"), True, np.float64(2.25)],
    }
    # as lists of numpy scalars every value goes through the per-cell formatter
    per_cell = {name: list(values) for name, values in columns.items()}
    assert isinstance(per_cell["small"][0], np.float32)
    vectorized = write_columns(tmp_path / "vectorized.csv", columns)
    cell_by_cell = write_columns(tmp_path / "cells.csv", per_cell)
    assert vectorized.read_bytes() == cell_by_cell.read_bytes()
    rows = vectorized.read_text(encoding="utf-8").splitlines()
    assert rows[2].split(",")[3] == "NA" and rows[1].split(",")[8] == "1"
    assert rows[3].split(",")[3] == "-0.0" and rows[4].split(",")[6] == str(2**40)


def test_numpy_columns_write_the_bytes_of_their_list_form(tmp_path):
    # a numpy column is formatted through its tolist(), a list of numpy scalars
    # value by value; both must give the same cells
    columns = {
        "iteration": range(0, 60, 10),
        "energy": np.array([1.5, np.nan, -0.0, np.inf, -np.inf, 0.1]),
        "tiny": np.array([-1e-320, 2.0**-1074, 5e-324, -0.0, 1e308, -2.5]),
        "small": np.array([0.1, 1e-40, np.nan, -0.0, np.inf, -2.5], dtype=np.float32),
        "count": np.array([0, -3, 7, 2**40, -(2**62), 1]),
        "unsigned": np.array([1, 2, 3, 4, 255, 0], dtype=np.uint8),
        "covered": np.array([True, False, True, False, False, True]),
    }
    tables = {"full": columns, "empty": {name: v[:0] for name, v in columns.items()}}
    expected = {name: write_columns(tmp_path / f"{name}_cells.csv",
                                    {k: list(v) for k, v in table.items()}).read_bytes()
                for name, table in tables.items()}
    for name, table in tables.items():
        assert write_columns(tmp_path / f"{name}.csv", table).read_bytes() == expected[name]
    rows = expected["full"].decode().splitlines()
    assert rows[2:4] == ["10,NA,5e-324,9.99994610111476e-41,-3,2,0", "20,-0.0,5e-324,NA,7,3,1"]
