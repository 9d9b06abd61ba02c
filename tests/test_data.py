import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softspin.data import (
    DEFAULT_INDICATORS,
    IndicatorSpec,
    SynthParams,
    load_dataset,
    save_dataset,
    scale_target,
    synth_dataset,
)
from softspin.errors import DataError
from softspin.sampler import Engine

SPEC = [IndicatorSpec("A", 1, "G1"), IndicatorSpec("B", -1, "G1")]
HEADER = "unit_id,ALT,POP,SUP,CLITO,DEGURB,A,B,target"


def write_csv(tmp_path, rows, header=HEADER):
    path = tmp_path / "data.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


class TestLoad:
    def test_well_formed_file(self, tmp_path):
        path = write_csv(tmp_path, [
            "u1,1,1,1,0,1,10.5,3.2,5.0",
            "u2,2,1,2,0,2,11.0,2.9,7.5",
            "u3,3,2,3,1,3,9.8,3.6,12.0",
        ])
        result = load_dataset(path, SPEC)
        assert result.dataset.n == 3
        assert result.rejected_rows == []
        assert result.dataset.unit_ids == ("u1", "u2", "u3")
        assert result.dataset.profiles[1].tolist() == [2, 1, 2, 0, 2]

    def test_bad_category_names_row(self, tmp_path):
        path = write_csv(tmp_path, [
            "u1,1,1,1,0,1,10.5,3.2,5.0",
            "u2,4,1,2,0,2,11.0,2.9,7.5",
        ])
        with pytest.raises(DataError, match="^row 2: column 'ALT' has value '4' outside its domain$"):
            load_dataset(path, SPEC)

    def test_blank_cell_rejects_row(self, tmp_path):
        rows = [
            "u1,1,1,1,0,1,10.5,3.2,5.0",
            "u2,2,1,2,0,2,,2.9,7.5",
            "u3,3,2,3,1,3,9.8,3.6,12.0",
        ]
        path = write_csv(tmp_path, rows)
        result = load_dataset(path, SPEC)
        # row-by-row oracle: rows with any empty required cell
        expected_rejects = [
            i + 1 for i, r in enumerate(rows) if "" in r.split(",")
        ]
        assert result.rejected_rows == expected_rejects
        assert len(result.rejected_rows) == 1
        assert result.dataset.n == 2

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, ["u1,1,1,1,0,1,10.5,5.0"],
                         header="unit_id,ALT,POP,SUP,CLITO,DEGURB,A,target")
        with pytest.raises(DataError, match="^missing required column 'B'$"):
            load_dataset(path, SPEC)

    def test_target_out_of_range(self, tmp_path):
        path = write_csv(tmp_path, ["u1,1,1,1,0,1,10.5,3.2,105.0"])
        with pytest.raises(DataError, match=r"^row 1: target value 105\.0 outside \[0, 100\]$"):
            load_dataset(path, SPEC)

    def test_duplicate_unit_id(self, tmp_path):
        path = write_csv(tmp_path, [
            "u1,1,1,1,0,1,10.5,3.2,5.0",
            "u1,2,1,2,0,2,11.0,2.9,7.5",
        ])
        with pytest.raises(DataError, match="^duplicate unit id 'u1'$"):
            load_dataset(path, SPEC)

    def test_row_longer_than_header_names_row(self, tmp_path):
        # an unquoted delimiter shifts the row's cells; its 77 must not be dropped
        path = write_csv(tmp_path, [
            "u1,1,1,1,0,1,10.5,3.2,5.0",
            "u2,2,1,2,0,2,11.0,2.9,7.5,77",
            "u3,3,2,3,1,3,9.8,3.6,12.0",
        ])
        with pytest.raises(DataError, match="row 2 has more cells than the header"):
            load_dataset(path, SPEC)

    def test_non_numeric_indicator(self, tmp_path):
        path = write_csv(tmp_path, ["u1,1,1,1,0,1,abc,3.2,5.0"])
        with pytest.raises(DataError):
            load_dataset(path, SPEC)

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text(
            "unit_id;ALT;POP;SUP;CLITO;DEGURB;A;B;target\n"
            "u1;1;1;1;0;1;10.5;3.2;5.0\n",
            encoding="utf-8",
        )
        result = load_dataset(path, SPEC, delimiter=";")
        assert result.dataset.n == 1
        assert result.dataset.indicators[0, 0] == 10.5

    def test_center_periph_column(self, tmp_path):
        header = HEADER + ",center_periph"
        path = write_csv(tmp_path, [
            "u1,1,1,1,0,1,10.5,3.2,5.0,CentrHub",
            "u2,2,1,2,0,2,11.0,2.9,7.5,",
        ], header=header)
        d = load_dataset(path, SPEC).dataset
        assert d.center_periph == ("CentrHub", None)
        assert d.center_periph_labels() == ["CentrHub", "All"]


class TestRoundTrip:
    def test_save_load_preserves_order_and_values(self, tmp_path):
        d = synth_dataset(40, seed=5)
        p1 = save_dataset(d, tmp_path / "a.csv")
        back = load_dataset(p1, d.spec).dataset
        assert back.unit_ids == d.unit_ids
        np.testing.assert_array_equal(back.target, d.target)
        np.testing.assert_array_equal(back.indicators, d.indicators)
        # byte-identical re-serialization of the accepted rows
        p2 = save_dataset(back, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()


class TestScaling:
    def test_endpoints_and_midpoint(self):
        assert Engine.ISING.scale([0.0])[0] == -1.0
        assert Engine.ISING.scale([50.0])[0] == 0.0
        assert Engine.ISING.scale([100.0])[0] == 1.0

    def test_observed_mean_value(self):
        # direct affine evaluation: 2 * 7.9339 / 100 - 1
        got = Engine.ISING.scale([7.9339])[0]
        assert got == pytest.approx(-0.841322, abs=1e-9)

    def test_raw_identity(self):
        y = np.array([0.0, 7.5, 100.0])
        np.testing.assert_array_equal(Engine.LANGEVIN.scale(y), y)

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, ys):
        y = np.array(ys)
        for engine in Engine:
            back = engine.unscale_inplace(engine.scale(y))
            assert np.max(np.abs(back - y)) <= 1e-12

    @pytest.mark.parametrize("engine", list(Engine))
    def test_bounds_are_the_image_of_the_percent_range(self, engine):
        y = np.array([0.0, 100.0])
        scaled = engine.scale(y)
        assert engine.bounds == tuple(scaled)
        scaled += 1.0
        np.testing.assert_array_equal(y, [0.0, 100.0])  # scale returned a new array

    def test_scale_target_uses_dataset_target(self):
        d = synth_dataset(10, seed=2)
        np.testing.assert_array_equal(
            scale_target(d, Engine.ISING),
            Engine.ISING.scale(d.target),
        )


class TestSynth:
    def test_deterministic(self):
        a = synth_dataset(10, seed=1)
        b = synth_dataset(10, seed=1)
        assert a.unit_ids == b.unit_ids
        np.testing.assert_array_equal(a.target, b.target)
        np.testing.assert_array_equal(a.indicators, b.indicators)
        np.testing.assert_array_equal(a.profiles, b.profiles)

    def test_paper_scale_invariants(self):
        d = synth_dataset(1383, seed=7)
        assert d.n == 1383
        assert len(set(d.unit_ids)) == 1383
        t = d.target
        assert np.all((t >= 0) & (t <= 100))
        profiles = d.profiles
        assert set(np.unique(profiles[:, 3])) <= {0, 1}
        for col in (0, 1, 2, 4):
            assert set(np.unique(profiles[:, col])) <= {1, 2, 3}

    def test_correlation_knob_unity(self):
        params = SynthParams(group_correlation=1.0, mirror_groups=())
        d = synth_dataset(1000, seed=3, params=params)
        x = d.indicators
        # PERC_NEET (-1) and PERC_LAUREATI (+1) share the MPI2 factor
        names = d.indicator_names
        i, j = names.index("PERC_NEET"), names.index("PERC_LAUREATI")
        r = np.corrcoef(x[:, i], x[:, j])[0, 1]
        assert abs(r) >= 0.99

    def test_mirrored_groups_have_identical_composites(self):
        from softspin.indices import build_composites

        d = synth_dataset(300, seed=9)
        values, names = build_composites(d)
        k1 = names.index("MPI1")
        k6 = names.index("MPI6")
        np.testing.assert_allclose(values[:, k1], values[:, k6], atol=1e-12)

    def test_columns_are_read_only(self):
        d = synth_dataset(10, seed=2)
        for column in (d.profiles, d.indicators, d.target):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_rejects_tiny_n(self):
        with pytest.raises(DataError):
            synth_dataset(1, seed=0)

    def test_default_indicator_table_shape(self):
        groups = {}
        for item in DEFAULT_INDICATORS:
            groups.setdefault(item.group, []).append(item)
        assert sorted(groups) == [f"MPI{i}" for i in range(1, 7)]
        assert all(len(v) >= 1 for v in groups.values())
