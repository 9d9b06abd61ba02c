"""Stage orchestration: ingest, field, graph, simulate, conformal, analysis.

Every stage reads its inputs from disk and writes plain delimited or .npy
artifacts, so the full pipeline and the stage subcommands composed in order
produce identical bytes, and any run can be resumed or inspected mid-way.
The manifest written by the full pipeline records the resolved
configuration, its hash and the library versions, which together determine
every numeric output.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analysis import (
    baseline_lm,
    compare,
    group_summaries,
    ols_standardized,
    residual_associations,
)
from .conformal import batch_means, repeat_splits, six_number
from .config import RunConfig, check_unit_count, config_hash, manifest_config
from .data import (
    PROFILE_COLUMNS,
    LoadResult,
    load_dataset,
    replaced,
    save_dataset,
    synth_dataset,
)
from .energy import (
    EnergyModel,
    SpinConfiguration,
    energy_ratio,
    log_likelihood_ratio,
)
from .errors import ConfigError, DataError
from .graph import build_graph, spectrum_extremes
from .indices import build_composites, external_field, nonzero_sd, pca
from .reports import (
    read_column,
    read_table,
    write_columns,
    write_field_diagnostics,
    write_graph_summary,
    write_group_table,
    write_json,
    write_lines,
    write_six_number_table,
)
from .sampler import Engine, run_parallel


def _require(path: Path, stage: str) -> Path:
    if not path.exists():
        raise DataError(f"missing artifact for stage {stage!r}: {path} "
                        "(run the earlier stages first)")
    return path


def _dataset_path(cfg: RunConfig, out: Path) -> Path:
    if cfg.dataset_path is not None:
        return _require(Path(cfg.dataset_path), "dataset")
    return _require(out / "dataset.csv", "synth")


_last_load: tuple = (None, None)  # (key, LoadResult) of this process's last parse


def _load_dataset(cfg: RunConfig, out: Path) -> LoadResult:
    """The dataset file, parsed again only when its bytes (by sha256), spec
    or options differ from the last parse's; its arrays are read-only."""
    global _last_load
    path = _dataset_path(cfg, out)
    content = path.read_bytes()
    spec, options = cfg.indicator_spec(), cfg.dataset_options
    key = (hashlib.sha256(content).digest(), spec, options)
    if _last_load[0] != key:
        _last_load = key, load_dataset(path, spec, content=content, **options)
    return _last_load[1]


def _read_composites(out: Path):
    path = _require(out / "composites.csv", "field")
    header, rows = read_table(path)
    names = tuple(header[1:])
    values = np.array([[float(v) for v in row[1:]] for row in rows])
    return values, names


def _read_field(out: Path) -> np.ndarray:
    path = _require(out / "external_field.csv", "field")
    return read_column(path, "h")


def _resolve_lambda(cfg: RunConfig, engine: Engine, graph) -> float:
    lam = cfg.lambda_override(engine)
    if lam is None:
        lam_max, _ = spectrum_extremes(graph)
        lam = lam_max + 1.0
    return lam


# ---------------------------------------------------------------------------
# Stages

def stage_synth(cfg: RunConfig, out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    if cfg.dataset_path is not None:
        raise ConfigError("synth: dataset.path is set; nothing to synthesize")
    dataset = synth_dataset(cfg.synth_units, cfg.synth_seed, cfg.synth_params())
    return [save_dataset(dataset, out / "dataset.csv", **cfg.dataset_options)]


def stage_validate(cfg: RunConfig, out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    result = _load_dataset(cfg, out)
    d = result.dataset
    for j, name in enumerate(d.indicator_names):  # as the field stage will standardize them
        nonzero_sd(d.indicators[:, j], cfg.indices_ddof, name)
    lines = [
        f"source: {_dataset_path(cfg, out).name}",
        f"accepted records: {d.n}",
        f"rejected records: {len(result.rejected_rows)}",
        f"rejected rows: {','.join(map(str, result.rejected_rows)) or '-'}",
        f"indicators: {len(d.spec)}",
        f"composite groups: {len({s.group for s in d.spec})}",
    ]
    return [write_lines(out / "validation.txt", lines)]


def stage_field(cfg: RunConfig, out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    dataset = _load_dataset(cfg, out).dataset
    values, names = build_composites(dataset, directions=cfg.directions(), ddof=cfg.indices_ddof)
    summary = pca(values, names, ddof=cfg.indices_ddof)
    h = external_field(summary, cfg.truncate_components)
    return [
        write_columns(out / "composites.csv",
                      {"unit_id": dataset.unit_ids, **dict(zip(names, values.T))}),
        write_columns(out / "external_field.csv", {"unit_id": dataset.unit_ids, "h": h}),
        write_field_diagnostics(out / "field_diagnostics.txt", summary),
    ]


def stage_graph(cfg: RunConfig, out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    dataset = _load_dataset(cfg, out).dataset
    graph = build_graph(dataset)
    lam_max, lam_min = spectrum_extremes(graph)
    return [
        write_group_table(out / "groups.csv", dataset, graph),
        write_graph_summary(out / "graph_summary.txt", graph, lam_max, lam_min),
    ]


def stage_simulate(cfg: RunConfig, out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    dataset = _load_dataset(cfg, out).dataset
    check_unit_count(cfg, dataset.n, "dataset", DataError)  # a file's N is known only now
    field = _read_field(out)
    graph = build_graph(dataset)
    written: list[Path] = []
    for engine in cfg.engines:
        written += _simulate_engine(cfg, out, dataset, field, graph, engine)
    return written


def _simulate_engine(cfg: RunConfig, out: Path, dataset, field, graph,
                     engine: Engine) -> list[Path]:
    """Run one engine's chains and write its artifacts.

    The engine's ``retained_<engine>*`` and ``trace_<engine>*`` files from an
    earlier run are deleted first. ``run_parallel`` writes
    ``retained_<engine>_configs.npy`` only once every chain has finished, and
    the rest is written after it, so a failed run leaves no pool, no trace
    and no metadata behind.
    """
    for pattern in (f"retained_{engine.value}*", f"trace_{engine.value}*"):
        for stale in out.glob(pattern):
            stale.unlink()
    lam = _resolve_lambda(cfg, engine, graph)
    model = EnergyModel(graph, field, lambda_reg=lam)
    s_ref = SpinConfiguration(engine.scale(dataset.target), engine)
    chain_cfg = cfg.chain_config(engine)
    k = cfg.k_chains(engine)
    configs_path = out / f"retained_{engine.value}_configs.npy"
    traces = run_parallel(model, chain_cfg, s_ref, k, configs_path, workers=cfg.workers)
    written = [
        configs_path,
        # row j * k + c is chain c's snapshot j, as in the configs file
        _save(out / f"retained_{engine.value}_energies.npy",
              np.stack([t.retained_energies for t in traces], axis=1).reshape(-1)),
        # row j is iteration j * energy_stride, column c is chain c
        _save(out / f"trace_{engine.value}.npy", np.stack([t.energies for t in traces], axis=1)),
    ]
    meta = {
        "engine": engine.value,
        "bounds": list(engine.bounds),
        "n_units": dataset.n,
        "k_chains": k,
        "base_seed": chain_cfg.seed,
        "seeds": [t.config.seed for t in traces],
        "n_iters": chain_cfg.n_iters,
        "burn_in": chain_cfg.burn_in(),
        "thin": chain_cfg.thin,
        "retain_last": chain_cfg.retain_last,
        "retained_first_iteration": chain_cfg.retained_iterations().start,
        "energy_stride": chain_cfg.energy_stride,
        "lambda_reg": lam,
        "schedule": {
            "t0": chain_cfg.schedule.t0,
            "cooling": chain_cfg.schedule.cooling,
            "t_min": chain_cfg.schedule.t_min,
            engine.step_parameter: getattr(chain_cfg.schedule, engine.step_parameter),
        },
        "h_ref": float(traces[0].energies[0]),  # row 0 of every trace: H(s_ref)
        "final_temperatures": [t.final_temperature for t in traces],
        "accept_counts": [t.accept_count for t in traces],
    }
    if engine is Engine.LANGEVIN:  # the chains are not clamped: count what left the bounds
        meta.update(flow_time=traces[0].flow_time,
                    retained_outside_bounds=[t.outside_bounds for t in traces])
    written.append(write_json(out / f"retained_{engine.value}.json", meta))
    return written


def _save(path: Path, array: np.ndarray) -> Path:
    with replaced(path) as tmp, tmp.open("wb") as fh:
        np.save(fh, array)  # to a handle: np.save appends .npy to a path
    return path


def _read_retained(out: Path, engine: Engine, names: tuple[str, ...], mmap_mode=None):
    """The retained metadata plus only the named arrays of ``engine``."""
    meta_path = _require(out / f"retained_{engine.value}.json", "simulate")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    arrays = {}
    for name in names:
        path = _require(out / f"retained_{engine.value}_{name}.npy", "simulate")
        arrays[name] = np.load(path, mmap_mode=mmap_mode)
    return meta, arrays


def stage_conformal(cfg: RunConfig, out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    dataset = _load_dataset(cfg, out).dataset
    written: list[Path] = []
    for engine in cfg.engines:
        written += _conformal_engine(cfg, out, dataset, engine)
    return written


def _conformal_engine(cfg: RunConfig, out: Path, dataset, engine: Engine) -> list[Path]:
    """Intervals of one engine; its pool is freed before the next one loads."""
    spec = cfg.batch_spec()
    y_obs = dataset.target
    _, arrays = _read_retained(out, engine, ("configs",), mmap_mode="r")
    mapped = arrays.pop("configs")
    if mapped.shape[0] < spec.n_total:
        raise ConfigError(
            f"conformal: retained pool {mapped.shape[0]} of engine "
            f"{engine.value} is smaller than n_total={spec.n_total}"
        )
    # only the last n_total rows are used, so only their pages are read; they
    # stay float32 on the engine's scale, and the float64 means are unscaled
    # (an affine map, so it commutes with the mean)
    pool = mapped[-spec.n_total:]
    y_est = engine.unscale_inplace(pool[-cfg.estimate_last_n:].mean(axis=0, dtype=np.float64))
    batches = engine.unscale_inplace(batch_means(pool, spec, workers=cfg.workers))
    del pool, mapped  # unmapped, its touched pages leave the RSS before repeat_splits sorts
    splits = repeat_splits(batches, y_obs, spec, workers=cfg.workers)
    lo, hi, width, covered = splits.lo, splits.hi, splits.width, splits.covered
    # a unit's coverage is the share of splits that cover it; its adaptivity
    # is its mean calibrated width
    coverage, adaptivity = covered.mean(axis=0), width.mean(axis=0)
    return [
        write_columns(out / f"calibration_{engine.value}.csv", {
            "seed": range(spec.seed, spec.seed + spec.repeats),
            "q_hat": splits.q_hat, "degenerate": splits.degenerate,
            "test_coverage": splits.test_coverage,
        }),
        write_columns(out / f"uncertainty_{engine.value}.csv", {  # row 0, the primary split
            "unit_id": dataset.unit_ids, "y_ref": y_obs, "y_est": y_est,
            "lo": lo[0], "hi": hi[0], "width": width[0], "covered": covered[0],
        }),
        write_columns(out / f"unit_results_{engine.value}.csv", {
            "unit_id": dataset.unit_ids, "coverage": coverage, "adaptivity": adaptivity,
        }),
        write_six_number_table(
            out / f"coverage_adaptivity_{engine.value}.csv",
            {"coverage": six_number(coverage), "adaptivity": six_number(adaptivity)},
        ),
    ]


def stage_analyze(cfg: RunConfig, out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    dataset = _load_dataset(cfg, out).dataset
    comp_values, comp_names = _read_composites(out)
    y_ref = dataset.target
    written: list[Path] = []
    benchmark = [("Linear Regression (LM)", *baseline_lm(y_ref, comp_values))]
    for engine in cfg.engines:
        unc_path = _require(out / f"uncertainty_{engine.value}.csv", "conformal")
        y_est = read_column(unc_path, "y_est")
        report = compare(y_ref, y_est)
        written.append(write_columns(out / f"comparison_{engine.value}.csv",
                                     {"statistic": list(report), "value": list(report.values())}))
        residuals = y_ref - y_est
        written.append(write_columns(out / f"residual_mpi_{engine.value}.csv",
                                     residual_associations(residuals, comp_values, comp_names)))
        written.append(write_columns(out / f"ols_{engine.value}.csv",
                                     ols_standardized(residuals, comp_values, comp_names)))

        meta, arrays = _read_retained(out, engine, ("energies",))
        h_ref = float(meta["h_ref"])
        energies = arrays["energies"]
        temps = np.asarray(meta["final_temperatures"], dtype=float)
        t_like = cfg.likelihood_temperature
        per_snapshot_t = (  # pooled row j * k_chains + c belongs to chain c
            np.full(energies.shape[0], t_like) if t_like is not None
            else np.tile(temps, meta["retain_last"])
        )
        table = {
            # the ratio is undefined at zero reference energy
            "energy_ratio": six_number(
                energy_ratio(energies, h_ref) if h_ref != 0.0 else [np.nan]
            ),
            "log_likelihood_ratio": six_number(
                log_likelihood_ratio(energies, h_ref, per_snapshot_t)
            ),
        }
        written.append(
            write_six_number_table(out / f"energy_ratio_{engine.value}.csv", table)
        )

        res_path = _require(out / f"unit_results_{engine.value}.csv", "conformal")
        coverage = read_column(res_path, "coverage")
        adaptivity = read_column(res_path, "adaptivity")
        for attribute in PROFILE_COLUMNS:
            columns, comp_means = group_summaries(dataset, attribute, y_ref, y_est,
                                                  coverage, adaptivity, comp_values)
            written.append(write_columns(
                out / f"group_summary_{engine.value}_{attribute}.csv", columns))
            written.append(write_columns(out / f"group_mpi_{engine.value}_{attribute}.csv", {
                "type": columns["type"], "class": columns["class"], "y_ref": columns["y_ref"],
                **dict(zip(comp_names, comp_means.T)),
            }))
        benchmark.append(("Continuous Ising" if engine is Engine.ISING else "Langevin dynamics",
                          report["rmse"], report["mae"]))
    written.append(write_columns(out / "benchmark.csv",
                                 dict(zip(("model", "rmse", "mae"), zip(*benchmark)))))
    return written


def stage_report(cfg: RunConfig, out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    lines = ["run report", "=" * 60, ""]
    validation = _require(out / "validation.txt", "validate")
    lines += ["[dataset]", validation.read_text(encoding="utf-8").rstrip(), ""]
    graph_summary = _require(out / "graph_summary.txt", "graph")
    lines += ["[similarity graph]", graph_summary.read_text(encoding="utf-8").rstrip(), ""]
    field_diag = _require(out / "field_diagnostics.txt", "field")
    lines += ["[external field]", field_diag.read_text(encoding="utf-8").rstrip(), ""]
    for engine in cfg.engines:
        meta, _ = _read_retained(out, engine, ())
        comp_path = _require(out / f"comparison_{engine.value}.csv", "analyze")
        cov_path = _require(out / f"coverage_adaptivity_{engine.value}.csv", "conformal")
        cal_path = _require(out / f"calibration_{engine.value}.csv", "conformal")
        unc_path = _require(out / f"uncertainty_{engine.value}.csv", "conformal")
        _, rows = read_table(comp_path)
        comp = {name: math.nan if value == "NA" else float(value) for name, value in rows}
        lines.append(f"[{engine.value}]")
        lines.append(
            f"chains: {meta['k_chains']} x {meta['n_iters']} iterations "
            f"(burn-in {meta['burn_in']}, thin {meta['thin']})"
        )
        lines.append(f"lambda: {meta['lambda_reg']!r}  reference energy: {meta['h_ref']!r}")
        if "flow_time" in meta:
            lines.append(f"flow time: {meta['flow_time']!r}  retained values outside "
                         f"{meta['bounds']} per chain: {meta['retained_outside_bounds']}")
        lines.append(
            "initial mean: {:.4f}  estimated mean: {:.4f}".format(
                comp["initial_mean"], comp["estimated_mean"]
            )
        )
        lines.append(
            "mae: {:.4f}  rmse: {:.4f}  correlation: {:.4f}".format(
                comp["mae"], comp["rmse"], comp["correlation"]
            )
        )
        # the primary split's interval is the raw band widened by q_hat on each side
        q_hat = float(read_column(cal_path, "q_hat")[0])
        band = float(np.median(read_column(unc_path, "width"))) - 2.0 * q_hat
        lines.append(f"median raw band q_hi-q_lo: {band:.4f}  q_hat: {q_hat:.4f}")
        header, rows = read_table(cov_path)
        for row in rows:
            lines.append(
                "{}: ".format(row[0])
                + "  ".join(f"{h}={float(v):.4f}" for h, v in zip(header[1:], row[1:]))
            )
        lines.append("")
    bench = _require(out / "benchmark.csv", "analyze")
    lines += ["[benchmark]"]
    header, rows = read_table(bench)
    for row in rows:
        lines.append(f"{row[0]}: rmse={float(row[1]):.4f} mae={float(row[2]):.4f}")
    return [write_lines(out / "report.txt", lines)]


def run_pipeline(cfg: RunConfig, out: Path) -> list[Path]:
    """Execute every stage in order and write the manifest.

    Files the previous manifest in ``out`` listed and this run did not
    write are deleted after the new manifest is written, except the
    configured dataset file.
    """
    out = Path(out)
    manifest_path = out / "manifest.json"
    listed = (json.loads(manifest_path.read_text(encoding="utf-8"))["artifacts"]
              if manifest_path.exists() else [])
    written: list[Path] = []
    if cfg.dataset_path is None:
        written += stage_synth(cfg, out)
    written += stage_validate(cfg, out)
    written += stage_field(cfg, out)
    written += stage_graph(cfg, out)
    written += stage_simulate(cfg, out)
    written += stage_conformal(cfg, out)
    written += stage_analyze(cfg, out)
    written += stage_report(cfg, out)
    manifest = {
        "config": manifest_config(cfg),
        "config_sha256": config_hash(cfg),
        "versions": {
            "softspin": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "artifacts": sorted(p.name for p in written),
    }
    write_json(manifest_path, manifest)
    keep = {p.name for p in written}
    for name in set(listed) - keep:
        path = out / name
        if cfg.dataset_path is None or path.resolve() != Path(cfg.dataset_path).resolve():
            path.unlink(missing_ok=True)
    return written + [manifest_path]
