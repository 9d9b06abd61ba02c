import numpy as np

from softspin.reports import write_columns, write_table


def test_write_columns_equals_cell_by_cell_table(tmp_path):
    # every column kind the pipeline writes, with the special values
    columns = {
        "unit_id": np.array(["a", "b", "c", "d"]),
        "label": ["x", None, "z", 3],
        "iteration": range(0, 40, 10),
        "energy": np.array([1.5, np.nan, -0.0, np.inf]),
        "small": np.array([0.1, 1e-300, np.nan, -2.5], dtype=np.float32),
        "count": np.array([0, -3, 7, 2**40]),
        "unsigned": np.array([1, 2, 3, 4], dtype=np.uint8),
        "covered": np.array([True, False, True, False]),
        "mixed": [1.0, float("nan"), True, np.float64(2.25)],
    }
    new = write_columns(tmp_path / "new.csv", columns)
    old = write_table(tmp_path / "old.csv", list(columns), zip(*columns.values()))
    assert new.read_bytes() == old.read_bytes()
    rows = new.read_text(encoding="utf-8").splitlines()
    assert rows[2].split(",")[3] == "NA" and rows[1].split(",")[7] == "1"
