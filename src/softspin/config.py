"""Run configuration: defaults, YAML loading, validation, hashing.

Every tunable of every stage appears in the default tree with an explicit
value, so a resolved configuration (and the manifest derived from it) always
records the constants that produced a run. User files are deep-merged onto
the defaults; unknown keys are rejected to catch typos early.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .conformal import BatchSpec
from .data import (DEFAULT_INDICATORS, PROFILE_COLUMNS, IndicatorSpec, SynthParams,
                   indicator_groups)
from .errors import ConfigError, DataError
from .indices import Direction
from .sampler import AnnealingSchedule, ChainConfig, Engine

DEFAULT_CONFIG: dict = {
    "seed": 20240810,
    "out": "runs/default",
    "workers": 1,
    "engines": ["ising", "langevin"],
    "dataset": {
        "path": None,  # null -> synthesize from the synth section
        "delimiter": ",",
        "unit_id_column": "unit_id",
        "target_column": "target",
        "center_periph_column": "center_periph",
    },
    "synth": {
        "n_units": 400,
        "seed": None,  # null -> derived from the global seed
        "profile_weights": None,
        "group_correlation": 0.45,
        "cross_correlation": 0.2,
        "mirror_groups": [["MPI6", "MPI1"]],
        "target_base_percent": 8.0,
        "target_slope": 0.9,
        "target_noise_sd": 0.35,
        "center_hub_frac": 0.85,
    },
    "indicators": None,  # null -> built-in indicator table
    "indices": {
        "ddof": 1,                    # sample-sd convention everywhere
        "directions": {},             # per-index override; default negative
        "truncate_components": None,  # null keeps all components
    },
    "model": {
        "temperature": None,  # null -> final chain temperature in likelihood ratios
    },
    "ising": {
        "n_iters": 10000,
        "burn_in_frac": 0.10,
        "thin": 5,
        "retain_last": 1200,
        "k_chains": 2,
        "seed": None,
        "lambda_reg": 1.0,  # quadratic penalty in the [-1, 1] domain
        "energy_stride": 10,
        "schedule": {
            "t0": 1.0,
            "cooling": 0.999,
            "t_min": 0.001,
            # small steps keep the annealed exploration local to the
            # reference configuration at the desk-scale iteration budget
            "proposal_sd": 0.005,
        },
    },
    "langevin": {
        "n_iters": 20000,
        "burn_in_frac": 0.10,
        "thin": 10,
        "retain_last": 1500,
        "k_chains": 2,
        "seed": None,
        # "auto" -> largest clique eigenvalue + 1, which keeps the raw-domain
        # energy bounded below and the Euler-Maruyama step stable
        "lambda_reg": "auto",
        "energy_stride": 10,
        "schedule": {
            "t0": 1.0,
            "cooling": 0.9995,
            "t_min": 0.001,
            # smaller than the library default on purpose: keeps the
            # annealed trajectories local to the reference configuration
            "dt0": 1e-06,
        },
    },
    "conformal": {
        "n_total": 2000,
        "n_batches": 1000,
        "batch_size": 100,
        "alpha": 0.05,
        "calib_frac": 0.5,
        "seed": None,
        "repeats": 20,
        "estimate_last_n": None,  # null -> n_total
    },
}

# sections whose values are free-form and not key-checked against defaults
_OPEN_SECTIONS = {
    ("synth", "profile_weights"),
    ("indices", "directions"),
}

_SEED_OFFSETS = {"synth": 1, "ising": 101, "langevin": 202, "conformal": 307}

# columns written beside one column per composite group: composites.csv and
# group_mpi_<engine>_<attribute>.csv
_FIXED_COLUMNS = ("unit_id", "type", "class", "y_ref")


def _merge(base: dict, override: dict, path: tuple = ()) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            dotted = ".".join((*path, str(key)))
            raise ConfigError(f"unknown configuration key {dotted!r}")
        if (
            isinstance(base[key], dict)
            and isinstance(value, dict)
            and (*path, key) not in _OPEN_SECTIONS
        ):
            out[key] = _merge(base[key], value, (*path, key))
        else:
            out[key] = copy.deepcopy(value)
    return out


def _integer(value, name: str) -> int:
    """``value`` if it is an integer, bools excluded; a ConfigError otherwise,
    so a fractional value is never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, not {value!r}")
    return value


def _number(value, name: str) -> float:
    """``value`` as a finite float; a bool, NaN or infinity is a ConfigError.
    Numeric strings are read, as YAML reads a float like ``1e-3`` as one."""
    number = math.nan if isinstance(value, bool) else float(value)
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, not {value!r}")
    return number


@dataclass
class RunConfig:
    """A fully-resolved configuration tree with typed accessors."""

    raw: dict

    # -- plain fields ------------------------------------------------------
    @property
    def seed(self) -> int:
        return _integer(self.raw["seed"], "seed")

    @property
    def out(self) -> Path:
        return Path(self.raw["out"])

    @property
    def workers(self) -> int:
        return _integer(self.raw["workers"], "workers")

    @property
    def engines(self) -> list[Engine]:
        names = self.raw["engines"]
        if not isinstance(names, list):
            raise ConfigError(f"engines must be a list of engine names, not {names!r}")
        return [Engine(e) for e in names]

    @property
    def dataset_path(self):
        return self.raw["dataset"]["path"]

    @property
    def dataset_options(self) -> dict:
        d = self.raw["dataset"]
        return {
            "delimiter": d["delimiter"],
            "unit_id_column": d["unit_id_column"],
            "target_column": d["target_column"],
            "center_periph_column": d["center_periph_column"],
        }

    # -- typed sections ----------------------------------------------------
    def indicator_spec(self) -> list[IndicatorSpec]:
        table = self.raw["indicators"]
        if table is None:
            return list(DEFAULT_INDICATORS)
        return [
            IndicatorSpec(str(row["name"]), _integer(row["polarity"], "indicators.polarity"),
                          str(row["group"]))
            for row in table
        ]

    def synth_params(self) -> SynthParams:
        s = self.raw["synth"]
        weights, corr = s["profile_weights"], s["group_correlation"]
        if weights is not None:
            weights = {k: tuple(_number(x, f"synth.profile_weights.{k}") for x in v)
                       for k, v in weights.items()}
        return SynthParams(
            indicators=tuple(self.indicator_spec()),
            profile_weights=weights,
            group_correlation=({k: _number(v, f"synth.group_correlation.{k}")
                                for k, v in corr.items()}
                               if isinstance(corr, dict)
                               else _number(corr, "synth.group_correlation")),
            mirror_groups=tuple((str(a), str(b)) for a, b in s["mirror_groups"]),
            **{key: _number(s[key], f"synth.{key}")
               for key in ("cross_correlation", "target_base_percent", "target_slope",
                           "target_noise_sd", "center_hub_frac")},
        )

    @property
    def synth_units(self) -> int:
        return _integer(self.raw["synth"]["n_units"], "synth.n_units")

    @property
    def synth_seed(self) -> int:
        return _integer(self.raw["synth"]["seed"], "synth.seed")

    def directions(self) -> dict[str, Direction]:
        return {k: Direction(v) for k, v in self.raw["indices"]["directions"].items()}

    @property
    def indices_ddof(self) -> int:
        return _integer(self.raw["indices"]["ddof"], "indices.ddof")

    @property
    def truncate_components(self):
        value = self.raw["indices"]["truncate_components"]
        return None if value is None else _integer(value, "indices.truncate_components")

    def domain(self, engine: Engine) -> Engine:
        """The engine itself, which owns its scale; perfbench/child.py calls this."""
        return engine

    def schedule(self, engine: Engine) -> AnnealingSchedule:
        """Cooling plus the engine's own ``Engine.step_parameter``."""
        s = self.raw[engine.value]["schedule"]
        return AnnealingSchedule(**{
            key: _number(s[key], f"schedule.{key}")
            for key in ("t0", "cooling", "t_min", engine.step_parameter)
        })

    def chain_config(self, engine: Engine) -> ChainConfig:
        e = self.raw[engine.value]
        return ChainConfig(
            engine=engine,
            n_iters=_integer(e["n_iters"], "n_iters"),
            burn_in_frac=_number(e["burn_in_frac"], "burn_in_frac"),
            thin=_integer(e["thin"], "thin"),
            retain_last=_integer(e["retain_last"], "retain_last"),
            seed=_integer(e["seed"], "seed"),
            schedule=self.schedule(engine),
            energy_stride=_integer(e["energy_stride"], "energy_stride"),
        )

    def k_chains(self, engine: Engine) -> int:
        return _integer(self.raw[engine.value]["k_chains"], f"{engine.value}.k_chains")

    def lambda_override(self, engine: Engine):
        """Regularization weight for an engine; None means resolve at runtime.

        A number is used as is; the string "auto" requests the
        clique-spectrum rule resolved against the actual graph (largest
        clique eigenvalue + 1).
        """
        value = self.raw[engine.value]["lambda_reg"]
        if value == "auto":
            return None
        return _number(value, f"{engine.value}.lambda_reg")

    @property
    def likelihood_temperature(self):
        value = self.raw["model"]["temperature"]
        return None if value is None else _number(value, "model.temperature")

    def batch_spec(self) -> BatchSpec:
        c = self.raw["conformal"]
        return BatchSpec(
            n_total=_integer(c["n_total"], "n_total"),
            n_batches=_integer(c["n_batches"], "n_batches"),
            batch_size=_integer(c["batch_size"], "batch_size"),
            alpha=_number(c["alpha"], "alpha"),
            calib_frac=_number(c["calib_frac"], "calib_frac"),
            seed=_integer(c["seed"], "seed"),
            repeats=_integer(c["repeats"], "repeats"),
        )

    @property
    def estimate_last_n(self) -> int:
        value = self.raw["conformal"]["estimate_last_n"]
        if value is None:
            return self.batch_spec().n_total
        return _integer(value, "conformal.estimate_last_n")


def resolve_config(tree: dict) -> RunConfig:
    """Fill derived values (per-stage seeds) and validate every section.

    Every typed value is read here once, so one of the wrong type fails as a
    ConfigError before any stage writes an artifact.
    """
    cfg = RunConfig(copy.deepcopy(tree))
    try:
        for section, offset in _SEED_OFFSETS.items():
            if cfg.raw[section].get("seed") is None:
                cfg.raw[section]["seed"] = cfg.seed + offset
        _validate(cfg)
    except (AttributeError, KeyError, TypeError, ValueError, DataError) as exc:
        raise ConfigError(f"malformed configuration value: {exc}") from exc
    return cfg


def _validate(cfg: RunConfig) -> None:
    engines = cfg.engines
    if not engines:
        raise ConfigError("engines: at least one engine must be enabled")
    if len(set(engines)) != len(engines):
        raise ConfigError("engines: each engine may be listed only once")
    indicators = cfg.indicator_spec()
    if not indicators:
        raise ConfigError("indicators: at least one indicator must be listed")
    groups = indicator_groups(indicators)
    n_groups = len(groups)
    if clash := [name for name in _FIXED_COLUMNS if name in groups]:
        raise ConfigError(f"indicators: composite group names {clash} are reserved "
                          f"table columns")
    if unknown := set(cfg.directions()) - set(groups):
        raise ConfigError(f"indices: directions names unknown composite groups {sorted(unknown)}")
    cfg.out  # read only for its type; the stages use it later
    if cfg.indices_ddof not in (0, 1):
        raise ConfigError("indices: ddof must be 0 (population) or 1 (sample)")
    for name, seed in (("seed", cfg.seed),
                       *((f"{s}.seed", _integer(cfg.raw[s]["seed"], f"{s}.seed"))
                         for s in _SEED_OFFSETS)):
        if seed < 0:
            raise ConfigError(f"{name} must be >= 0")
    if cfg.truncate_components is not None and not 1 <= cfg.truncate_components <= n_groups:
        raise ConfigError(f"indices: truncate_components must be in 1..{n_groups}, "
                          f"the number of composite groups")
    t_like = cfg.likelihood_temperature
    if t_like is not None and not t_like > 0:
        raise ConfigError("model: temperature must be > 0")
    try:
        spec = cfg.batch_spec()
    except ConfigError as exc:
        raise ConfigError(f"conformal: {exc}") from exc
    # every stream seed lies in softspin's range [0, 2**128); SeedSequence
    # itself would hash any non-negative int
    if spec.seed + spec.repeats - 1 >= 2**128:
        raise ConfigError("conformal: seed + repeats - 1 must be < 2**128")
    if not 1 <= cfg.estimate_last_n <= spec.n_total:
        raise ConfigError(f"conformal: estimate_last_n={cfg.estimate_last_n} is outside "
                          f"1..n_total={spec.n_total}, the rows the estimate averages")
    for engine in engines:
        try:
            chain = cfg.chain_config(engine)
        except ConfigError as exc:
            raise ConfigError(f"{engine.value}: {exc}") from exc
        if not chain.schedule.t_min > 0:
            raise ConfigError(f"{engine.value}: schedule.t_min must be > 0")
        if cfg.k_chains(engine) < 1:
            raise ConfigError(f"{engine.value}: k_chains must be >= 1")
        if chain.seed + cfg.k_chains(engine) - 1 >= 2**128:
            raise ConfigError(f"{engine.value}: seed + k_chains - 1 must be < 2**128")
        pooled = chain.retain_last * cfg.k_chains(engine)
        if spec.n_total > pooled:
            raise ConfigError(
                f"conformal: BatchSpec n_total={spec.n_total} exceeds the pooled "
                f"retained pool {pooled} of engine {engine.value} "
                f"(k_chains x retain_last)"
            )
        lam = cfg.lambda_override(engine)
        if lam is not None and not lam > 0:
            raise ConfigError(f"{engine.value}: lambda_reg must be > 0")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    if cfg.dataset_path is not None and not isinstance(cfg.dataset_path, str):
        raise ConfigError("dataset: path must be a string or null")
    options = cfg.dataset_options
    delimiter = options.pop("delimiter")
    if not (isinstance(delimiter, str) and len(delimiter) == 1) or delimiter in "\r\n":
        raise ConfigError("dataset: delimiter must be one character, not a line break")
    for key, name in options.items():
        if not isinstance(name, str):
            raise ConfigError(f"dataset: {key} must be a string")
    columns = list(options.values())
    if len(set(columns)) < len(columns) or set(columns) & set(PROFILE_COLUMNS):
        raise ConfigError(f"dataset: the id, target and center/periphery columns {columns} "
                          f"must differ from one another and from the profile columns")
    names = [item.name for item in indicators]
    if repeated := sorted({name for name in names if names.count(name) > 1}):
        raise ConfigError(f"indicators: names {repeated} are listed more than once")
    if clash := sorted(set(names) & {*options.values(), *PROFILE_COLUMNS}):
        raise ConfigError(f"indicators: names {clash} are the dataset's id, profile, "
                          f"target or center/periphery columns")
    if cfg.dataset_path is None:  # the synth section is read only to synthesize
        check_unit_count(cfg, cfg.synth_units, "synth")
        cfg.synth_params()


def check_unit_count(cfg: RunConfig, n_units: int, source: str, error=ConfigError) -> None:
    """Raise ``error`` unless ``n_units`` units leave the linear-model baseline
    more units than its K + 1 coefficients and the conformal stage at least
    one calibration unit. ``source`` names where N comes from."""
    need = len(indicator_groups(cfg.indicator_spec())) + 2
    if n_units < need:
        raise error(f"{source}: n_units must be >= {need}, the groups plus 2")
    calib_frac = cfg.batch_spec().calib_frac
    if int(calib_frac * n_units) < 1:
        raise error(f"conformal: calib_frac={calib_frac} leaves no calibration "
                    f"unit at n_units={n_units}")


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Load a YAML file (optional), merge onto defaults, resolve and validate.

    ``overrides`` maps top-level keys (seed, out, engines, workers) supplied
    on the command line over the file values.
    """
    tree = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        user = yaml.safe_load(text)
        if user is None:
            user = {}
        if not isinstance(user, dict):
            raise ConfigError(f"config file {path} must contain a mapping")
        tree = _merge(tree, user)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in tree:
            raise ConfigError(f"unknown override {key!r}")
        tree[key] = value
    return resolve_config(tree)


def manifest_config(cfg: RunConfig) -> dict:
    """The resolved tree without the output directory, which determines
    every numeric artifact (the directory itself is environmental)."""
    tree = copy.deepcopy(cfg.raw)
    tree.pop("out", None)
    return tree


def config_hash(cfg: RunConfig) -> str:
    """Stable digest of the numeric-output-determining configuration."""
    canonical = json.dumps(manifest_config(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def dump_default_config() -> str:
    """The full default configuration as a YAML document."""
    return yaml.safe_dump(DEFAULT_CONFIG, sort_keys=False)
