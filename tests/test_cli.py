import codecs
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from softspin import pipeline
from softspin.cli import main
from softspin.config import DEFAULT_CONFIG, config_hash, load_config
from softspin.conformal import batch_means, repeat_splits, six_number
from softspin.data import DEFAULT_PROFILE_WEIGHTS, load_dataset
from softspin.energy import EnergyModel, SpinConfiguration
from softspin.errors import ConfigError
from softspin.graph import build_graph
from softspin.reports import read_column, read_table
from softspin.sampler import Engine, run_chain

TINY = {
    "seed": 777,
    "workers": 1,
    "synth": {"n_units": 60},
    "ising": {"n_iters": 800, "thin": 2, "retain_last": 150, "k_chains": 2},
    "langevin": {"n_iters": 800, "thin": 2, "retain_last": 150, "k_chains": 2},
    "conformal": {
        "n_total": 300, "n_batches": 200, "batch_size": 40,
        "repeats": 5, "estimate_last_n": 200,
    },
}

# Langevin steps so large that the first chain step leaves the domain guard
DIVERGING = dict(
    TINY,
    engines=["langevin"],
    langevin=dict(TINY["langevin"],
                  schedule={"t0": 1.0, "cooling": 0.999, "t_min": 0.001, "dt0": 1e9}),
)


def write_config(tmp_path, tree=None, **extra):
    tree = dict(tree or TINY)
    tree.update(extra)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(tree), encoding="utf-8")
    return path


def read_bytes_map(out_dir, names):
    return {name: (out_dir / name).read_bytes() for name in names}


def _leaves(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value, (*path, key))
        else:
            yield ".".join((*path, key))


# every default-tree leaf that must hold a number, enum name or structure;
# the output directory, the dataset path and the column names are free text
_TYPED_LEAVES = [
    key for key in _leaves(DEFAULT_CONFIG)
    if key not in ("out", "dataset.path", "dataset.unit_id_column",
                   "dataset.target_column", "dataset.center_periph_column")
]


def assert_fails_at_load(tmp_path, tree, *flags):
    cfg_path = write_config(tmp_path, tree)
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out), *flags]) == 2
    assert not out.exists() or not any(out.iterdir())


def _weights(**columns):
    table = {k: list(v) for k, v in DEFAULT_PROFILE_WEIGHTS.items()}
    table.update(columns)
    return table


def _section(name, **values):
    return dict(TINY, **{name: dict(TINY.get(name, {}), **values)})


# (tree, extra CLI flags) that are in range for their type but not for the run
_OUT_OF_RANGE = {
    "estimate_last_n=0": (_section("conformal", estimate_last_n=0), ()),
    "estimate_last_n=-500": (_section("conformal", estimate_last_n=-500), ()),
    "truncate_components=0": (_section("indices", truncate_components=0), ()),
    "truncate_components=9": (_section("indices", truncate_components=9), ()),
    "--seed=-1000": (TINY, ("--seed", "-1000")),
    "synth.seed=-3": (_section("synth", seed=-3), ()),
    "ising.seed=-1": (_section("ising", seed=-1), ()),
    "ising.seed+k_chains>2**128": (_section("ising", seed=2**128 - 1), ()),
    "conformal.seed+repeats>2**128": (_section("conformal", seed=2**128 - 4), ()),
    "profile_weights_length": (_section("synth", profile_weights=_weights(ALT=[0.5, 0.5])), ()),
    "profile_weights_partial": (_section("synth", profile_weights={"ALT": [0.5, 0.3, 0.2]}), ()),
    "profile_weights_zero": (_section("synth", profile_weights=_weights(POP=[0, 0, 0])), ()),
    "group_correlation=1.5": (_section("synth", group_correlation=1.5), ()),
    "cross_correlation=1.5": (_section("synth", cross_correlation=1.5), ()),
    "target_base_percent=120": (_section("synth", target_base_percent=120), ()),
    "mirror_unknown_group": (_section("synth", mirror_groups=[["MPI9", "MPI1"]]), ()),
    # with a dataset path the synth section, which would also reject the table, is not read
    "polarity=2": (dict(TINY, dataset={"path": "absent.csv"},
                        indicators=[{"name": "A", "polarity": 2, "group": "G1"}]), ()),
    "directions_unknown_group": (_section("indices", directions={"MPI7": "positive"}), ()),
    "group_correlation_unknown_group": (_section("synth", group_correlation={"MPI9": 0.9}), ()),
    # integer keys take YAML integers only: a fraction is not truncated, a bool is not 1
    "ising.k_chains=2.5": (_section("ising", k_chains=2.5), ()),
    "workers=1.5": (dict(TINY, workers=1.5), ()),
    "ising.n_iters=10000.7": (_section("ising", n_iters=10000.7), ()),
    "conformal.n_batches=100.5": (_section("conformal", n_batches=100.5), ()),
    "ising.k_chains=true": (_section("ising", k_chains=True, retain_last=300), ()),
    # too few units for the linear-model baseline; no calibration unit in the split
    "synth.n_units=7": (_section("synth", n_units=7), ()),
    "conformal.calib_frac=0.01": (_section("conformal", calib_frac=0.01), ()),
    # float keys take finite numbers only: a bool is not 1.0, NaN and infinities fail
    "ising.lambda_reg=true": (_section("ising", lambda_reg=True), ()),
    "ising.lambda_reg=.inf": (_section("ising", lambda_reg=math.inf), ()),
    "model.temperature=.inf": (_section("model", temperature=math.inf), ()),
    "langevin.schedule.dt0=.inf": (_section("langevin", schedule={"dt0": math.inf}), ()),
    "synth.target_slope=.nan": (_section("synth", target_slope=math.nan), ()),
    "target_noise_sd=-0.1": (_section("synth", target_noise_sd=-0.1), ()),
    "center_hub_frac=1.5": (_section("synth", center_hub_frac=1.5), ()),
    # standardize documents the population (0) and sample (1) conventions only
    "indices.ddof=-1": (_section("indices", ddof=-1), ()),
    "indices.ddof=2": (_section("indices", ddof=2), ()),
    "workers=0": (dict(TINY, workers=0), ()),
    "engines=[]": (dict(TINY, engines=[]), ()),
    "ising.thin=0": (_section("ising", thin=0), ()),
    "ising.energy_stride=0": (_section("ising", energy_stride=0), ()),
    "ising.n_iters=-1": (_section("ising", n_iters=-1), ()),
    "ising.burn_in_frac=1.0": (_section("ising", burn_in_frac=1.0), ()),
    "ising.retain_last=-1": (_section("ising", retain_last=-1), ()),
    "langevin.schedule.dt0=0": (_section("langevin", schedule={"dt0": 0}), ()),
    "conformal.repeats=0": (_section("conformal", repeats=0), ()),
    "conformal.calib_frac=0": (_section("conformal", calib_frac=0), ()),
    "conformal.n_batches=0": (_section("conformal", n_batches=0), ()),
}

_CSV_WRITER, _NP_SAVE = csv.writer, np.save


class _HalfCsvWriter:
    """A csv writer that writes the header and one row, then fails."""

    def __init__(self, fh, **kwargs):
        self._writer, self._rows_left = _CSV_WRITER(fh, **kwargs), 2

    def writerow(self, row):
        if not self._rows_left:
            raise OSError("injected write failure")
        self._rows_left -= 1
        self._writer.writerow(row)

    def writerows(self, rows):
        for row in rows:
            self.writerow(row)


def _half_write_text(path, text, **kwargs):
    with path.open("w", **kwargs) as fh:
        fh.write(text[: len(text) // 2])
    raise OSError("injected write failure")


def _half_save(file, arr, **kwargs):
    """np.save, to a file name or a handle, that writes half its bytes and fails."""
    buf = io.BytesIO()
    _NP_SAVE(buf, arr, **kwargs)
    with open(file, "wb") if isinstance(file, (str, Path)) else file as fh:
        fh.write(buf.getvalue()[: buf.tell() // 2])
    raise OSError("injected write failure")


# one writer of each kind: (stages run first, failing stage, artifact,
# patched writer, a later stage that needs the artifact)
_FAULTS = {
    "dataset.csv": ((), "synth", "dataset.csv",
                    (csv, "writer", _HalfCsvWriter), "validate"),
    "write_columns": (("synth",), "field", "composites.csv",
                      (csv, "writer", _HalfCsvWriter), "analyze"),
    "write_lines": (("synth",), "validate", "validation.txt",
                    (Path, "write_text", _half_write_text), "report"),
    "write_json": (("synth", "field"), "simulate", "retained_ising.json",
                   (Path, "write_text", _half_write_text), "conformal"),
    "energies.npy": (("synth", "field"), "simulate", "retained_ising_energies.npy",
                     (np, "save", _half_save), "conformal"),
}


class TestPipeline:
    def test_smoke_all_artifacts_and_manifest(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
        expected = [
            "dataset.csv", "validation.txt", "composites.csv", "external_field.csv",
            "field_diagnostics.txt", "groups.csv", "graph_summary.txt",
            "trace_ising.npy", "trace_langevin.npy",
            "retained_ising_configs.npy", "retained_langevin_configs.npy",
            "retained_ising.json", "retained_langevin.json",
            "uncertainty_ising.csv", "uncertainty_langevin.csv",
            "unit_results_ising.csv", "unit_results_langevin.csv",
            "coverage_adaptivity_ising.csv", "coverage_adaptivity_langevin.csv",
            "calibration_ising.csv", "calibration_langevin.csv",
            "comparison_ising.csv", "comparison_langevin.csv",
            "residual_mpi_ising.csv", "ols_ising.csv", "energy_ratio_ising.csv",
            "group_summary_ising_ALT.csv", "group_mpi_langevin_DEGURB.csv",
            "benchmark.csv", "report.txt", "manifest.json",
        ]
        for name in expected:
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        traces = [a for a in manifest["artifacts"] if a.startswith("trace_")]
        assert len(traces) == 2  # one table per engine
        assert manifest["config_sha256"]
        assert manifest["config"]["seed"] == 777

    def test_engine_flag_restricts(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out),
                     "--engine", "ising"]) == 0
        assert (out / "trace_ising.npy").exists()
        assert not (out / "trace_langevin.npy").exists()

    def test_engine_flag_both_runs_both(self, tmp_path):
        cfg_path = write_config(tmp_path, engines=["ising"])
        out = tmp_path / "run"
        for stage in ("synth", "field"):
            assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--engine", "both"]) == 0
        assert (out / "trace_ising.npy").exists()
        assert (out / "trace_langevin.npy").exists()

    def test_repeated_engine_fails_at_load(self, tmp_path):
        assert_fails_at_load(tmp_path, dict(TINY, engines=["ising", "ising"]))

    def test_engine_flag_restricts_stages(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        for stage in ("synth", "validate", "field", "graph"):
            assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0, stage
        for stage in ("simulate", "conformal", "analyze", "report"):
            assert main([stage, "--config", str(cfg_path), "--out", str(out),
                         "--engine", "langevin"]) == 0, stage
        assert (out / "trace_langevin.npy").exists()
        assert (out / "report.txt").exists()
        assert not list(out.glob("*ising*"))

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_stage_composition_equals_pipeline(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out1, out2 = tmp_path / "full", tmp_path / "staged"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out1)]) == 0
        for stage in ("synth", "validate", "field", "graph", "simulate",
                      "conformal", "analyze", "report"):
            assert main([stage, "--config", str(cfg_path), "--out", str(out2)]) == 0, stage
        for path in out1.iterdir():
            if path.name == "manifest.json":  # only the full pipeline writes it
                continue
            assert (out2 / path.name).read_bytes() == path.read_bytes(), path.name

    def test_batchspec_validation_precedes_simulation(self, tmp_path):
        tree = dict(TINY)
        tree["conformal"] = dict(TINY["conformal"], n_total=10_000)
        cfg_path = write_config(tmp_path, tree)
        out = tmp_path / "run"
        code = main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert not list(out.glob("trace_*"))

    @pytest.mark.parametrize("value", [-1, "abc", None])
    def test_bad_lambda_reg_fails_at_load(self, tmp_path, value):
        assert_fails_at_load(tmp_path, dict(TINY, ising=dict(TINY["ising"], lambda_reg=value)))

    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_temperature_fails_at_load(self, tmp_path, value):
        assert_fails_at_load(tmp_path, dict(TINY, model={"temperature": value}))

    @pytest.mark.parametrize("name", ["unit_id", "type", "class", "y_ref"])
    def test_group_named_as_fixed_column_fails_at_load(self, tmp_path, name):
        # its composite column would overwrite that column of composites.csv
        # or group_mpi_*.csv; the same table with an ordinary name loads
        tree = dict(TINY, synth=dict(TINY["synth"], mirror_groups=[]),
                    indicators=[{"name": "A", "polarity": 1, "group": "G1"},
                                {"name": "B", "polarity": -1, "group": "G2"}])
        load_config(write_config(tmp_path, tree))
        tree["indicators"][0]["group"] = name
        assert_fails_at_load(tmp_path, tree)

    @pytest.mark.parametrize("name, dataset", [
        ("A", {}), ("target", {}), ("unit_id", {}), ("DEGURB", {}), ("center_periph", {}),
        ("y", {"target_column": "y"}),
    ])
    def test_indicator_named_twice_or_as_dataset_column_fails_at_load(self, tmp_path, name,
                                                                       dataset):
        # in the dataset file the two columns would share a name, and loading
        # would keep only the last; the same table with a fresh name loads
        tree = dict(TINY, synth=dict(TINY["synth"], mirror_groups=[]), dataset=dataset,
                    indicators=[{"name": "A", "polarity": 1, "group": "G1"},
                                {"name": "B", "polarity": -1, "group": "G2"}])
        load_config(write_config(tmp_path, tree))
        tree["indicators"][1]["name"] = name
        assert_fails_at_load(tmp_path, tree)

    @pytest.mark.parametrize("tree, flags", _OUT_OF_RANGE.values(), ids=list(_OUT_OF_RANGE))
    def test_out_of_range_value_fails_at_load(self, tmp_path, tree, flags):
        assert_fails_at_load(tmp_path, tree, *flags)

    def test_non_mapping_config_file_fails_at_load(self, tmp_path):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text("- seed\n- 777\n", encoding="utf-8")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("key", _TYPED_LEAVES)
    def test_non_numeric_value_fails_at_load(self, tmp_path, key):
        tree = json.loads(json.dumps(TINY))
        *sections, leaf = key.split(".")
        node = tree
        for name in sections:
            node = node.setdefault(name, {})
        node[leaf] = "abc"
        assert_fails_at_load(tmp_path, tree)

    def test_sweep_covers_every_typed_leaf(self):
        assert {"ising.n_iters", "conformal.alpha", "langevin.k_chains", "workers",
                "indices.ddof", "model.temperature", "seed", "synth.group_correlation",
                "indices.directions", "synth.profile_weights"} <= set(_TYPED_LEAVES)

    @pytest.mark.parametrize("engine", ["ising", "langevin"])
    def test_zero_temperature_floor_fails_at_load(self, tmp_path, engine):
        tree = dict(TINY, **{engine: dict(TINY[engine],
                                          schedule={"cooling": 0.9, "t_min": 0})})
        assert_fails_at_load(tmp_path, tree)

    @pytest.mark.parametrize("dataset", [
        {"delimiter": ";;"}, {"path": 123}, {"unit_id_column": 5},
    ], ids=["delimiter", "path", "unit_id_column"])
    def test_malformed_dataset_option_fails_at_load(self, tmp_path, dataset):
        assert_fails_at_load(tmp_path, dict(TINY, dataset=dataset))

    def test_simulate_artifacts_independent_of_workers(self, tmp_path):
        cfg_path = write_config(tmp_path)
        one, two = tmp_path / "one", tmp_path / "two"
        for stage in ("synth", "field"):
            assert main([stage, "--config", str(cfg_path), "--out", str(one)]) == 0
        shutil.copytree(one, two)
        for out, workers in ((one, "1"), (two, "2")):
            for stage in ("simulate", "conformal"):  # workers are conformal threads too
                assert main([stage, "--config", str(cfg_path), "--out", str(out),
                             "--workers", workers]) == 0
        prefixes = ("retained_", "trace_", "calibration_", "uncertainty_", "unit_results_",
                    "coverage_adaptivity_")
        names = sorted(p.name for p in one.iterdir() if p.name.startswith(prefixes))
        # per engine: the trace table, json, configs, energies and 4 conformal tables
        assert len(names) == 2 * (1 + 3 + 4)
        assert names == sorted(p.name for p in two.iterdir() if p.name.startswith(prefixes))
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_trace_columns_are_the_chains_energies(self, tmp_path, workers):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        args = ["--config", str(cfg_path), "--out", str(out)]
        for stage in ("synth", "field"):
            assert main([stage, *args]) == 0
        assert main(["simulate", *args, "--workers", workers]) == 0
        cfg = load_config(cfg_path)
        dataset = pipeline._load_dataset(cfg, out).dataset
        graph = build_graph(dataset)
        field = read_column(out / "external_field.csv", "h")
        for engine in cfg.engines:
            meta = json.loads((out / f"retained_{engine.value}.json").read_text())
            model = EnergyModel(graph, field, lambda_reg=meta["lambda_reg"])
            ref = SpinConfiguration(engine.scale(dataset.target), engine)
            chain_cfg = cfg.chain_config(engine)
            trace = np.load(out / f"trace_{engine.value}.npy")
            assert trace.shape[1] == cfg.k_chains(engine)
            for c in range(trace.shape[1]):
                solo = run_chain(model, replace(chain_cfg, seed=chain_cfg.seed + c), ref)
                np.testing.assert_array_equal(trace[:, c], solo.energies)

    def test_divergence_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path, DIVERGING)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 4

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_divergence_leaves_no_pool(self, tmp_path, workers):
        cfg_path = write_config(tmp_path, DIVERGING)
        out = tmp_path / "run"
        for stage in ("synth", "validate", "field"):
            assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--workers", workers]) == 4
        assert not list(out.glob("retained_langevin_configs*"))
        assert not list(out.glob("trace_langevin*"))  # the table and its .tmp
        assert main(["conformal", "--config", str(cfg_path), "--out", str(out)]) == 3

    def test_failed_trace_write_exits_1_and_writes_no_metadata(self, tmp_path, capsys):
        # an OSError is no data error: exit 1, and without the metadata the
        # next stage finds the run unfinished
        cfg_path = write_config(tmp_path, engines=["ising"])
        out = tmp_path / "run"
        args = ["--config", str(cfg_path), "--out", str(out)]
        for stage in ("synth", "field"):
            assert main([stage, *args]) == 0
        (out / "trace_ising.npy.tmp").mkdir()  # the trace table cannot be opened
        capsys.readouterr()
        assert main(["simulate", *args]) == 1
        assert capsys.readouterr().err.startswith("[simulate] IsADirectoryError: ")
        assert not (out / "trace_ising.npy").exists()
        assert not (out / "retained_ising.json").exists()
        assert main(["conformal", *args]) == 3
        assert "missing artifact for stage 'simulate'" in capsys.readouterr().err

    def test_one_dataset_parse_per_pipeline(self, tmp_path, parses):
        cfg_path = write_config(tmp_path)
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        assert parses == [tmp_path / "run" / "dataset.csv"]

    def test_rewritten_dataset_of_the_same_size_is_parsed_again(self, tmp_path, parses):
        header, rows = _units_table()
        cfg_path, write_data = _units_config(tmp_path)
        cfg = load_config(cfg_path)
        data = Path(cfg.dataset_path)
        write_data(header, rows)
        first = pipeline._load_dataset(cfg, tmp_path)
        assert pipeline._load_dataset(cfg, tmp_path) is first
        assert len(parses) == 1
        size = data.stat().st_size
        rows[1][header.index("A")] = "2.5"  # was 2.0: same size, other bytes
        write_data(header, rows)
        assert data.stat().st_size == size
        second = pipeline._load_dataset(cfg, tmp_path)
        assert len(parses) == 2
        assert second.dataset.indicators[1, 0] == 2.5 and first.dataset.indicators[1, 0] == 2.0


    @pytest.mark.parametrize("before, stage, name, patch, reader", _FAULTS.values(),
                             ids=list(_FAULTS))
    def test_failed_write_leaves_no_artifact(self, tmp_path, monkeypatch, capsys,
                                             before, stage, name, patch, reader):
        cfg_path = write_config(tmp_path, engines=["ising"])
        out = tmp_path / "run"
        args = ["--config", str(cfg_path), "--out", str(out)]
        for earlier in before:
            assert main([earlier, *args]) == 0
        with monkeypatch.context() as m:
            m.setattr(*patch)
            assert main([stage, *args]) != 0
        assert not (out / name).exists()
        assert not list(out.glob("*.tmp"))
        capsys.readouterr()
        assert main([reader, *args]) == 3
        assert "missing artifact for stage" in capsys.readouterr().err

    def test_failed_rerun_removes_previous_pool(self, tmp_path):
        out = tmp_path / "run"
        finished = write_config(tmp_path, DIVERGING, langevin=TINY["langevin"])
        assert main(["pipeline", "--config", str(finished), "--out", str(out)]) == 0
        diverging = write_config(tmp_path, DIVERGING)
        assert main(["simulate", "--config", str(diverging), "--out", str(out)]) == 4
        assert not list(out.glob("retained_langevin*"))
        assert not list(out.glob("trace_langevin*"))
        assert main(["conformal", "--config", str(diverging), "--out", str(out)]) == 3

    def test_rerun_with_fewer_chains_removes_stale_traces(self, tmp_path):
        out = tmp_path / "run"
        three = write_config(tmp_path, _section("ising", k_chains=3, retain_last=100))
        assert main(["pipeline", "--config", str(three), "--out", str(out)]) == 0
        assert np.load(out / "trace_ising.npy").shape[1] == 3
        assert main(["pipeline", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(p.name for p in out.glob("trace_*")) == [
            "trace_ising.npy", "trace_langevin.npy"]
        assert np.load(out / "trace_ising.npy").shape[1] == 2
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*manifest["artifacts"], "manifest.json"])

    def test_rerun_removes_artifacts_the_new_manifest_does_not_list(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path)
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out),
                     "--engine", "ising"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert not list(out.glob("*langevin*"))
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*manifest["artifacts"], "manifest.json"])

    def test_rerun_keeps_a_dataset_path_inside_out(self, tmp_path):
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        data = out / "dataset.csv"
        synthesized = data.read_bytes()
        cfg_path = write_config(tmp_path, dataset={"path": str(data)})
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "dataset.csv" not in manifest["artifacts"]
        assert data.read_bytes() == synthesized
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*manifest["artifacts"], "manifest.json", "dataset.csv"])



class TestStages:
    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
    def test_conformal_unmaps_the_pool_before_the_splits(self, tmp_path, monkeypatch):
        # the batches are gathered through the mapping of the pool file, and
        # the mapping is gone, its pages out of the resident set, before
        # repeat_splits sorts a copy of the batches
        cfg_path = write_config(tmp_path, engines=["ising"])
        out = tmp_path / "run"
        for stage in ("synth", "field", "simulate"):
            assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
        mapped = []

        def watching(fn):
            def call(*args, **kwargs):
                maps = Path("/proc/self/maps").read_text()
                mapped.append((fn.__name__, "retained_ising_configs.npy" in maps))
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(pipeline, "batch_means", watching(pipeline.batch_means))
        monkeypatch.setattr(pipeline, "repeat_splits", watching(pipeline.repeat_splits))
        assert main(["conformal", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert mapped == [("batch_means", True), ("repeat_splits", False)]

    def test_report_requires_upstream(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 3

    def test_conformal_requires_simulate(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        for stage in ("synth", "validate", "field"):
            assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["conformal", "--config", str(cfg_path), "--out", str(out)]) == 3

    def test_field_on_three_unit_fixture(self, tmp_path):
        data = tmp_path / "three.csv"
        data.write_text(
            "unit_id,ALT,POP,SUP,CLITO,DEGURB,A,B,target\n"
            "u1,1,1,1,0,1,1.0,9.0,5.0\n"
            "u2,2,2,2,0,2,2.0,7.0,6.0\n"
            "u3,3,3,3,1,3,4.0,4.0,7.0\n",
            encoding="utf-8",
        )
        tree = {
            "dataset": {"path": str(data)},
            "indicators": [
                {"name": "A", "polarity": 1, "group": "G1"},
                {"name": "B", "polarity": -1, "group": "G2"},
            ],
        }
        cfg_path = write_config(tmp_path, tree)
        out = tmp_path / "run"
        assert main(["field", "--config", str(cfg_path), "--out", str(out)]) == 0
        text = (out / "field_diagnostics.txt").read_text()
        # one value per component on the variance-proportion line
        line = [l for l in text.splitlines() if l.startswith("Proportion of Variance")][0]
        assert len(line.split()[3:]) == 2
        header, rows = read_table(out / "composites.csv")
        assert header == ["unit_id", "G1", "G2"]
        assert len(rows) == 3

    def test_simulate_then_conformal_keeps_unit_order(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        for stage in ("synth", "validate", "field", "graph", "simulate", "conformal"):
            assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
        _, data_rows = read_table(out / "dataset.csv")
        dataset_ids = [r[0] for r in data_rows]
        _, unc_rows = read_table(out / "uncertainty_ising.csv")
        assert [r[0] for r in unc_rows] == dataset_ids

    def test_validate_reports_rejects(self, tmp_path):
        data = tmp_path / "holes.csv"
        data.write_text(
            "unit_id,ALT,POP,SUP,CLITO,DEGURB,A,B,target\n"
            "u1,1,1,1,0,1,1.0,9.0,5.0\n"
            "u2,2,2,2,0,2,,7.0,6.0\n"
            "u3,3,3,3,1,3,4.0,4.0,7.0\n",
            encoding="utf-8",
        )
        tree = {
            "dataset": {"path": str(data)},
            "indicators": [
                {"name": "A", "polarity": 1, "group": "G1"},
                {"name": "B", "polarity": -1, "group": "G2"},
            ],
        }
        cfg_path = write_config(tmp_path, tree)
        out = tmp_path / "run"
        assert main(["validate", "--config", str(cfg_path), "--out", str(out)]) == 0
        text = (out / "validation.txt").read_text()
        assert "accepted records: 2" in text
        assert "rejected records: 1" in text
        assert "rejected rows: 2" in text

    def test_repeated_header_column_fails_before_any_artifact(self, tmp_path):
        # a second column named A, 999 in every row, would replace the first;
        # unnamed columns, such as those of a trailing delimiter, may repeat
        data = tmp_path / "units.csv"
        tree = {"dataset": {"path": str(data)},
                "indicators": [{"name": "A", "polarity": 1, "group": "G1"},
                               {"name": "B", "polarity": -1, "group": "G2"}]}
        cfg_path = write_config(tmp_path, tree)
        rows = ["u1,1,1,1,0,1,1.0,9.0,5.0", "u2,2,2,2,0,2,2.0,7.0,6.0",
                "u3,3,3,3,1,3,4.0,4.0,7.0"]
        header = "unit_id,ALT,POP,SUP,CLITO,DEGURB,A,B,target"
        data.write_text("\n".join([header + ",,", *(r + ",," for r in rows), ""]),
                        encoding="utf-8")
        assert main(["validate", "--config", str(cfg_path), "--out", str(tmp_path / "ok")]) == 0
        data.write_text("\n".join([header + ",A", *(r + ",999" for r in rows), ""]),
                        encoding="utf-8")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 3
        assert not out.exists() or not any(out.iterdir())

    # a cell of row 2 replaced, or a column dropped (cell None), and the message
    # the failed stage prints after its class name
    @pytest.mark.parametrize("column, cell, message", [
        ("ALT", "abc", "row 2: column 'ALT' has value 'abc' outside its domain"),
        ("A", "nan", "row 2: column 'A' is not finite: 'nan'"),
        ("A", "inf", "row 2: column 'A' is not finite: 'inf'"),
        ("center_periph", "Foo", "row 2: column 'center_periph' has value 'Foo' outside its domain"),
        ("target", "105.0", "row 2: target value 105.0 outside [0, 100]"),
        ("unit_id", "u1", "duplicate unit id 'u1'"),
        ("B", None, "missing required column 'B'"),
    ], ids=["ALT-abc", "A-nan", "A-inf", "center_periph-Foo", "target-105.0", "unit_id-u1",
            "B-dropped"])
    def test_bad_cell_fails_before_any_artifact(self, tmp_path, capsys, column, cell, message):
        header, rows = _units_table()
        cfg_path, write_data = _units_config(tmp_path)
        write_data(header, rows)
        assert main(["validate", "--config", str(cfg_path), "--out", str(tmp_path / "ok")]) == 0
        j = header.index(column)
        if cell is None:
            for r in (header, *rows):
                del r[j]
        else:
            rows[1][j] = cell
        write_data(header, rows)
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 3
        assert f": {message}\n" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_byte_order_marked_dataset_loads(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts the file with a byte-order mark
        out = tmp_path / "run"
        assert main(["synth", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + (out / "dataset.csv").read_bytes())
        plain, bom = (load_dataset(path).dataset for path in (out / "dataset.csv", marked))
        for name in ("unit_ids", "profiles", "indicators", "target", "center_periph", "spec"):
            np.testing.assert_array_equal(getattr(bom, name), getattr(plain, name))
        cfg_path = write_config(tmp_path, TINY, dataset={"path": str(marked)})
        assert main(["validate", "--config", str(cfg_path), "--out", str(tmp_path / "bom")]) == 0

    def test_too_few_units_in_a_file_stop_before_the_chains(self, tmp_path, capsys):
        # K = 6 composite groups: the linear-model baseline needs N >= 8
        out = tmp_path / "run"
        assert main(["synth", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        lines = (out / "dataset.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        seven = tmp_path / "seven.csv"
        seven.write_text("".join(lines[:8]), encoding="utf-8")
        cfg_path = write_config(tmp_path, TINY, dataset={"path": str(seven)})
        run = tmp_path / "seven"
        capsys.readouterr()
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(run)]) == 3
        assert capsys.readouterr().err == (
            "[pipeline] DataError: dataset: n_units must be >= 8, the groups plus 2\n")
        assert (run / "external_field.csv").exists()
        assert not list(run.glob("retained_*")) and not list(run.glob("trace_*"))

    def test_validate_rejects_a_constant_indicator(self, tmp_path, capsys):
        header, rows = _units_table()
        for r in rows:
            r[header.index("A")] = "3.0"
        cfg_path, write_data = _units_config(tmp_path)
        write_data(header, rows)
        out = tmp_path / "run"
        assert main(["validate", "--config", str(cfg_path), "--out", str(out)]) == 3
        assert "[validate] DataError: zero variance in 'A'\n" in capsys.readouterr().err
        assert not (out / "validation.txt").exists()

    def test_one_row_dataset_names_the_column(self, tmp_path, capsys):
        header, rows = _units_table()
        cfg_path, write_data = _units_config(tmp_path)
        write_data(header, rows[:1])
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert ": too few values in 'A': 1, need more than ddof=1\n" in err

    def test_constant_indicator_fails_with_data_exit(self, tmp_path, capsys):
        header, rows = _units_table()
        for r in rows:
            r[header.index("A")] = "3.0"
        cfg_path, write_data = _units_config(tmp_path)
        write_data(header, rows)
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 3
        assert ": zero variance in 'A'\n" in capsys.readouterr().err


def _units_table():
    header = ["unit_id", "ALT", "POP", "SUP", "CLITO", "DEGURB", "A", "B", "target",
              "center_periph"]
    rows = [
        ["u1", "1", "1", "1", "0", "1", "1.0", "9.0", "5.0", "CentrHub"],
        ["u2", "2", "2", "2", "0", "2", "2.0", "7.0", "6.0", "PeriphArea"],
        ["u3", "3", "3", "3", "1", "3", "4.0", "4.0", "7.0", "PeriphArea"],
    ]
    return header, rows


def _units_config(tmp_path):
    """A TINY config over units.csv with indicators A (G1) and B (G2), and the
    function that writes a header and rows to that file."""
    data = tmp_path / "units.csv"
    tree = dict(TINY, dataset={"path": str(data)},
                indicators=[{"name": "A", "polarity": 1, "group": "G1"},
                            {"name": "B", "polarity": -1, "group": "G2"}])

    def write_data(header, rows):
        data.write_text("".join(",".join(r) + "\n" for r in [header, *rows]), encoding="utf-8")

    return write_config(tmp_path, tree), write_data


@pytest.fixture
def parses(monkeypatch):
    """The paths ``pipeline`` parses from now on, with its memo emptied."""
    calls = []
    load_dataset = pipeline.load_dataset

    def counted(path, *args, **kwargs):
        calls.append(path)
        return load_dataset(path, *args, **kwargs)

    monkeypatch.setattr(pipeline, "load_dataset", counted)
    monkeypatch.setattr(pipeline, "_last_load", (None, None))
    return calls


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("layout")
    cfg_path = write_config(tmp)
    out = tmp / "run"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


class TestArtifactLayouts:
    """Column orders of the emitted tables are part of the contract."""

    def test_uncertainty_table_columns(self, run_dir):
        header, rows = read_table(run_dir / "uncertainty_ising.csv")
        assert header == ["unit_id", "y_ref", "y_est", "lo", "hi", "width", "covered"]
        assert {r[6] for r in rows} <= {"0", "1"}
        for r in rows[:10]:
            assert float(r[3]) <= float(r[4])
            assert float(r[5]) == pytest.approx(float(r[4]) - float(r[3]), abs=1e-9)

    def test_group_summary_columns(self, run_dir):
        header, rows = read_table(run_dir / "group_summary_ising_ALT.csv")
        assert header == ["type", "class", "n", "coverage", "adaptivity",
                          "y_ref", "y_est", "delta_pct"]
        assert sum(int(r[2]) for r in rows) == 60  # group counts sum to N
        # lexical (type, class) ordering
        keys = [(r[0], int(r[1])) for r in rows]
        assert keys == sorted(keys)

    def test_group_mpi_columns(self, run_dir):
        header, _ = read_table(run_dir / "group_mpi_ising_ALT.csv")
        assert header == ["type", "class", "y_ref",
                          "MPI1", "MPI2", "MPI3", "MPI4", "MPI5", "MPI6"]

    def test_coverage_adaptivity_layout(self, run_dir):
        header, rows = read_table(run_dir / "coverage_adaptivity_ising.csv")
        assert header == ["metric", "min", "q1", "median", "mean", "q3", "max"]
        assert [r[0] for r in rows] == ["coverage", "adaptivity"]

    @pytest.mark.parametrize("engine", ["ising", "langevin"])
    def test_calibration_layout(self, run_dir, engine):
        # one row per split, with the values the conformal stage computes from
        # the pool: float32 rows on the engine's scale, averaged, then unscaled
        cfg = load_config(run_dir.parent / "config.yaml")
        spec = cfg.batch_spec()
        unscale = Engine(engine).unscale_inplace
        pool = np.load(run_dir / f"retained_{engine}_configs.npy")[-spec.n_total:]
        assert pool.dtype == np.float32
        y_obs = read_column(run_dir / "dataset.csv", "target")
        splits = repeat_splits(unscale(batch_means(pool, spec)), y_obs, spec)
        header, rows = read_table(run_dir / f"calibration_{engine}.csv")
        assert header == ["seed", "q_hat", "degenerate", "test_coverage"]
        assert [int(r[0]) for r in rows] == list(range(spec.seed, spec.seed + spec.repeats))
        assert [float(r[1]) for r in rows] == splits.q_hat.tolist()
        assert [r[2] for r in rows] == [str(int(d)) for d in splits.degenerate]
        assert [float(r[3]) for r in rows] == splits.test_coverage.tolist()
        # the primary split, row 0, is the one uncertainty_<engine>.csv holds
        np.testing.assert_array_equal(
            read_column(run_dir / f"uncertainty_{engine}.csv", "lo"), splits.lo[0])
        y_est = pool[-cfg.estimate_last_n:].mean(axis=0, dtype=np.float64)
        np.testing.assert_array_equal(
            read_column(run_dir / f"uncertainty_{engine}.csv", "y_est"),
            unscale(y_est))

    def test_report_gives_raw_band_and_offset(self, run_dir):
        text = (run_dir / "report.txt").read_text()
        lines = [l for l in text.splitlines() if l.startswith("median raw band q_hi-q_lo: ")]
        assert len(lines) == 2  # one per engine
        for engine, line in zip(("ising", "langevin"), lines):
            q_hat = read_column(run_dir / f"calibration_{engine}.csv", "q_hat")[0]
            width = read_column(run_dir / f"uncertainty_{engine}.csv", "width")
            band = float(line.split()[4])
            assert float(line.split()[6]) == pytest.approx(q_hat, abs=5e-5)
            assert band == pytest.approx(np.median(width) - 2.0 * q_hat, abs=5e-5)
            assert band >= 0.0

    def test_benchmark_layout(self, run_dir):
        header, rows = read_table(run_dir / "benchmark.csv")
        assert header == ["model", "rmse", "mae"]
        assert [r[0] for r in rows] == [
            "Linear Regression (LM)", "Continuous Ising", "Langevin dynamics"
        ]

    def test_ols_na_for_collinear_composite(self, run_dir):
        header, rows = read_table(run_dir / "ols_ising.csv")
        assert header == ["index", "beta_std"]
        na = [r[0] for r in rows if r[1] == "NA"]
        assert len(na) == 1 and na[0] in ("MPI1", "MPI6")

    def test_energy_trace_layout(self, run_dir):
        # row j is iteration j * energy_stride, column c is chain c; row 0 is h_ref
        for engine in ("ising", "langevin"):
            meta = json.loads((run_dir / f"retained_{engine}.json").read_text())
            trace = np.load(run_dir / f"trace_{engine}.npy")
            assert trace.dtype == np.float64
            assert trace.shape == (meta["n_iters"] // meta["energy_stride"] + 1,
                                   meta["k_chains"])
            assert (trace[0] == meta["h_ref"]).all()

    @pytest.mark.parametrize("engine", ["ising", "langevin"])
    def test_retained_json_gives_bounds(self, run_dir, engine):
        meta = json.loads((run_dir / f"retained_{engine}.json").read_text())
        assert meta["bounds"] == list(Engine(engine).bounds)
        assert "domain" not in meta

    def test_pooled_rows_labelled_from_json(self, run_dir, tmp_path):
        # row i of the pooled arrays is chain i % k_chains, whose final
        # temperature scales that row's log-likelihood ratio, unless
        # model.temperature sets one temperature for every row
        meta = json.loads((run_dir / "retained_ising.json").read_text())
        energies = np.load(run_dir / "retained_ising_energies.npy")
        configs = np.load(run_dir / "retained_ising_configs.npy")
        k = meta["k_chains"]
        assert configs.shape == (k * meta["retain_last"], 60) == (energies.size, 60)
        temps = np.asarray(meta["final_temperatures"])[np.arange(energies.size) % k]
        fixed = tmp_path / "run"
        shutil.copytree(run_dir, fixed)
        cfg_path = write_config(tmp_path, model={"temperature": 0.25})
        assert main(["analyze", "--config", str(cfg_path), "--out", str(fixed)]) == 0
        for out, t in ((run_dir, temps), (fixed, 0.25)):
            expected = six_number(-(energies - meta["h_ref"]) / t)
            _, rows = read_table(out / "energy_ratio_ising.csv")
            assert rows[1][0] == "log_likelihood_ratio"
            assert [float(v) for v in rows[1][1:]] == pytest.approx(list(expected), rel=1e-12)

    def test_group_table_layout(self, run_dir):
        header, rows = read_table(run_dir / "groups.csv")
        assert header == ["group_id", "ALT", "POP", "SUP", "CLITO", "DEGURB",
                          "size", "member_ids"]
        assert sum(int(r[6]) for r in rows) == 60

    def test_residual_association_layout(self, run_dir):
        header, rows = read_table(run_dir / "residual_mpi_ising.csv")
        assert header == ["index", "pearson", "spearman"]
        assert [r[0] for r in rows] == [f"MPI{i}" for i in range(1, 7)]


class TestConfig:
    def test_print_config(self, capsys):
        assert main(["--print-config"]) == 0
        tree = yaml.safe_load(capsys.readouterr().out)
        assert tree == DEFAULT_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, {"sneed": 1})
        assert main(["pipeline", "--config", str(cfg_path)]) == 2

    def test_nested_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="ising.tempo"):
            load_config(write_config(tmp_path, {"ising": {"tempo": 3}}))

    def test_seed_offsets_resolved(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.raw["synth"]["seed"] == 777 + 1
        assert cfg.raw["ising"]["seed"] == 777 + 101
        assert cfg.raw["langevin"]["seed"] == 777 + 202
        assert cfg.raw["conformal"]["seed"] == 777 + 307

    def test_cli_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path)
        cfg = load_config(cfg_path, {"seed": 9, "out": "elsewhere"})
        assert cfg.seed == 9
        assert str(cfg.out) == "elsewhere"
        assert cfg.raw["ising"]["seed"] == 9 + 101

    def test_hash_stable_and_sensitive(self, tmp_path):
        cfg1 = load_config(write_config(tmp_path))
        cfg2 = load_config(write_config(tmp_path))
        assert config_hash(cfg1) == config_hash(cfg2)
        cfg3 = load_config(write_config(tmp_path), {"seed": 1})
        assert config_hash(cfg1) != config_hash(cfg3)

    def test_defaults_pass_validation(self):
        cfg = load_config(None)
        assert cfg.seed == DEFAULT_CONFIG["seed"]
        assert [e.value for e in cfg.engines] == ["ising", "langevin"]

    def test_range_edges_run(self, tmp_path):
        # the largest seeds in range (k_chains 2, repeats 5) and the end points
        # of estimate_last_n and truncate_components pass load and run
        tree = dict(
            _section("conformal", seed=2**128 - 5, estimate_last_n=1),
            ising=dict(TINY["ising"], seed=2**128 - 2),
            synth=dict(TINY["synth"], seed=0),
            indices={"truncate_components": 6},
        )
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(write_config(tmp_path, tree)),
                     "--out", str(out)]) == 0
        assert json.loads((out / "retained_ising.json").read_text())["seeds"][-1] == 2**128 - 1

    def test_estimate_last_n_guard(self, tmp_path):
        tree = dict(TINY)
        tree["conformal"] = dict(TINY["conformal"], estimate_last_n=100_000)
        with pytest.raises(ConfigError, match="estimate_last_n"):
            load_config(write_config(tmp_path, tree))

    @pytest.mark.parametrize("engine, key", [("ising", "dt0"), ("langevin", "proposal_sd")])
    def test_other_engines_step_key_rejected(self, tmp_path, engine, key):
        with pytest.raises(ConfigError, match=f"{engine}.schedule.{key}"):
            load_config(write_config(tmp_path, {engine: {"schedule": {key: 0.1}}}))

    def test_float_written_without_dot_loads(self, tmp_path):
        # PyYAML reads 1e-6 as the string '1e-6'; float keys still take it
        path = tmp_path / "config.yaml"
        path.write_text("langevin:\n  schedule:\n    dt0: 1e-6\nconformal:\n  alpha: 1e-1\n")
        cfg = load_config(path)
        assert cfg.schedule(Engine.LANGEVIN).dt0 == 1e-6
        assert cfg.batch_spec().alpha == 0.1

    def test_import_leaves_scipy_stats_and_special_out(self):
        # scipy.special and scipy.linalg are imported lazily by the t-test and
        # the pivoted least squares; scipy.stats never
        code = ("import sys, softspin.cli; print(sorted(m for m in "
                "('scipy.stats', 'scipy.special', 'scipy.linalg') if m in sys.modules))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
        assert done.stdout.strip() == "[]"
