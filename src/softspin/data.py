"""Unit-level dataset: loading, validation, synthetic generation.

Each territorial unit has an opaque id, a five-attribute categorical profile
(ALT, POP, SUP, CLITO, DEGURB), a set of real-valued base indicators grouped
into composite indices, and an observed target expressed as a percentage in
[0, 100]. A dataset holds these as columns, one entry per unit. Rows with
any missing required value are rejected at load time, never imputed. The row
order of the input file is the canonical unit ordering used by every
downstream vector and matrix.
"""

from __future__ import annotations

import csv
import io
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError

PROFILE_COLUMNS = ("ALT", "POP", "SUP", "CLITO", "DEGURB")

PROFILE_DOMAINS: Mapping[str, tuple[int, ...]] = {
    "ALT": (1, 2, 3),
    "POP": (1, 2, 3),
    "SUP": (1, 2, 3),
    "CLITO": (0, 1),
    "DEGURB": (1, 2, 3),
}

CENTER_PERIPH_LABELS = ("CentrHub", "PeriphArea")


@contextmanager
def replaced(path) -> Iterator[Path]:
    """Yield ``<path>.tmp`` to write; rename it onto ``path`` when the block
    succeeds, delete it when the block raises.

    Every artifact is written through this, so a file at ``path`` is always
    complete: a failed or killed writer leaves the previous file or none.
    """
    tmp = Path(f"{path}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@dataclass(frozen=True)
class IndicatorSpec:
    """One base indicator: its name, polarity (+1/-1) and composite group."""

    name: str
    polarity: int
    group: str

    def __post_init__(self):
        if self.polarity not in (1, -1):
            raise DataError(f"indicator {self.name!r}: polarity must be +1 or -1")


# Default indicator table: six composite groups covering demography,
# education, income, employment, attractiveness and mobility.
DEFAULT_INDICATORS: tuple[IndicatorSpec, ...] = (
    IndicatorSpec("PERC_ANZIANI", -1, "MPI1"),
    IndicatorSpec("PERC_GIOVANI", +1, "MPI1"),
    IndicatorSpec("PERC_FAMIGLIE_MINORI", +1, "MPI1"),
    IndicatorSpec("PERC_FAM_UNIPERSONALI_ANZIANI", -1, "MPI1"),
    IndicatorSpec("PERC_NEET", -1, "MPI2"),
    IndicatorSpec("PERC_LAUREATI", +1, "MPI2"),
    IndicatorSpec("PERC_DIPLOMATI", +1, "MPI2"),
    IndicatorSpec("REDDITO_MEDIANO_EQUIVALENTE", +1, "MPI3"),
    IndicatorSpec("PERC_WORKINGPOOR", -1, "MPI3"),
    IndicatorSpec("PERC_PRECARI", -1, "MPI4"),
    IndicatorSpec("PERC_OCCUPATI", +1, "MPI4"),
    IndicatorSpec("PERC_FAM_BASSA_INTLAV", -1, "MPI4"),
    IndicatorSpec("I_ATTRAZIONE", +1, "MPI5"),
    IndicatorSpec("I_AUTOCONTENIMENTO", +1, "MPI5"),
    IndicatorSpec("I_COESISTENZA", +1, "MPI5"),
    IndicatorSpec("STA", -1, "MPI6"),
    IndicatorSpec("D_INT", -1, "MPI6"),
    IndicatorSpec("D_EST_USCITA", +1, "MPI6"),
    IndicatorSpec("D_EST_ENTRATA", +1, "MPI6"),
)


def indicator_groups(spec: Sequence[IndicatorSpec]) -> dict[str, list[IndicatorSpec]]:
    """Group the indicator table by composite index, in first-appearance order."""
    groups: dict[str, list[IndicatorSpec]] = {}
    for item in spec:
        groups.setdefault(item.group, []).append(item)
    return groups


@dataclass(frozen=True)
class Dataset:
    """Per-unit columns in file order, plus the indicator table.

    ``profiles`` is N x 5 in ``PROFILE_COLUMNS`` order, ``indicators`` is
    N x M in ``spec`` order and ``target`` holds raw percents; each engine
    maps them onto its own scale (``Engine.scale``). Every reader
    shares the three arrays, so they are read-only.
    """

    unit_ids: tuple[str, ...]
    profiles: np.ndarray
    indicators: np.ndarray
    target: np.ndarray
    center_periph: tuple[str | None, ...]
    spec: tuple[IndicatorSpec, ...]

    def __post_init__(self):
        for name, dtype in (("profiles", int), ("indicators", float), ("target", float)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        seen = set()
        for unit_id in self.unit_ids:
            if unit_id in seen:
                raise DataError(f"duplicate unit id {unit_id!r}")
            seen.add(unit_id)

    @property
    def n(self) -> int:
        return len(self.unit_ids)

    @property
    def indicator_names(self) -> list[str]:
        return [item.name for item in self.spec]

    def profile_column(self, attribute: str) -> np.ndarray:
        if attribute not in PROFILE_COLUMNS:
            raise DataError(f"unknown territorial attribute {attribute!r}")
        return self.profiles[:, PROFILE_COLUMNS.index(attribute)]

    def center_periph_labels(self) -> list[str]:
        """Descriptive type label per unit; 'All' when the column is absent."""
        return [label or "All" for label in self.center_periph]


@dataclass
class LoadResult:
    """A validated dataset plus the rows rejected from it."""

    dataset: Dataset
    rejected_rows: list[int]


def _is_missing(value) -> bool:
    return value is None or str(value).strip() == ""


def _bad_category(row, column, value) -> DataError:
    return DataError(f"row {row}: column {column!r} has value {value!r} outside its domain")


def _parse_category(raw, row, column):
    try:
        value = int(str(raw).strip())
    except ValueError:
        raise _bad_category(row, column, raw) from None
    if value not in PROFILE_DOMAINS[column]:
        raise _bad_category(row, column, raw)
    return value


def _parse_float(raw, row, column):
    try:
        value = float(str(raw).strip())
    except ValueError:
        raise DataError(f"row {row}: column {column!r} is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise DataError(f"row {row}: column {column!r} is not finite: {raw!r}")
    return value


def load_dataset(
    path,
    spec: Sequence[IndicatorSpec] = DEFAULT_INDICATORS,
    *,
    delimiter: str = ",",
    unit_id_column: str = "unit_id",
    target_column: str = "target",
    center_periph_column: str = "center_periph",
    content: bytes | None = None,
) -> LoadResult:
    """Load a delimited text file of unit records.

    The header must name the unit id column, the five profile columns, every
    indicator of ``spec`` and the target column, and no column twice
    (unnamed columns may repeat); a center/periphery column is optional. Rows
    with an empty required cell are rejected (counted, not fatal); rows with
    extra cells, out-of-domain categories, out-of-range targets or duplicate
    ids raise. Row numbers in errors are 1-based data rows. ``content``, if
    given, is the file's bytes, already read; a leading UTF-8 byte-order
    mark, as spreadsheet exports write, is skipped, and a byte that is not
    UTF-8, as a Latin-1 export writes, raises.
    """
    spec = tuple(spec)
    path = Path(path)
    raw = path.read_bytes() if content is None else content
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        row = raw.count(b"\n", 0, exc.start)  # the header is line 0
        raise DataError(f"{path.name}: {f'row {row}' if row else 'the header'} is not UTF-8 "
                        f"text: byte 0x{raw[exc.start]:02x}") from None
    with io.StringIO(text, newline="") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        header = reader.fieldnames or []
        if repeated := sorted({name for name in header if name and header.count(name) > 1}):
            raise DataError(f"{path.name}: header names columns {repeated} more than once")
        required = [unit_id_column, *PROFILE_COLUMNS]
        required += [item.name for item in spec]
        required.append(target_column)
        for name in required:
            if name not in header:
                raise DataError(f"missing required column {name!r}")
        has_type = center_periph_column in header

        ids, profiles, indicators, targets, labels = [], [], [], [], []
        rejected: list[int] = []
        for row_no, row in enumerate(reader, start=1):
            if None in row:  # DictReader files the cells beyond the header under None
                raise DataError(f"{path.name}: row {row_no} has more cells than the header")
            if any(_is_missing(row.get(name)) for name in required):
                rejected.append(row_no)
                continue
            ids.append(str(row[unit_id_column]).strip())
            profiles.append([_parse_category(row[col], row_no, col) for col in PROFILE_COLUMNS])
            indicators.append([_parse_float(row[item.name], row_no, item.name) for item in spec])
            target = _parse_float(row[target_column], row_no, target_column)
            if not 0.0 <= target <= 100.0:
                raise DataError(f"row {row_no}: target value {target!r} outside [0, 100]")
            targets.append(target)
            label = None
            if has_type and not _is_missing(row.get(center_periph_column)):
                label = str(row[center_periph_column]).strip()
                if label not in CENTER_PERIPH_LABELS:
                    raise _bad_category(row_no, center_periph_column, label)
            labels.append(label)

    dataset = Dataset(tuple(ids), profiles, indicators, targets, tuple(labels), spec)
    return LoadResult(dataset, rejected)


def save_dataset(
    dataset: Dataset,
    path,
    *,
    delimiter: str = ",",
    unit_id_column: str = "unit_id",
    target_column: str = "target",
    center_periph_column: str = "center_periph",
) -> Path:
    """Write a dataset back to delimited text at full float precision."""
    names = dataset.indicator_names
    with replaced(path) as tmp, tmp.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(
            [unit_id_column, *PROFILE_COLUMNS, *names, target_column, center_periph_column]
        )
        # .tolist() gives Python floats, whose repr is the bare shortest digits
        for unit_id, profile, values, target, label in zip(
            dataset.unit_ids, dataset.profiles.tolist(), dataset.indicators.tolist(),
            dataset.target.tolist(), dataset.center_periph,
        ):
            writer.writerow([unit_id, *profile, *map(repr, values), repr(target), label or ""])
    return Path(path)


def scale_target(dataset: Dataset, engine) -> np.ndarray:
    """The target on ``engine``'s scale; perfbench/child.py still calls it."""
    return engine.scale(dataset.target)


# ---------------------------------------------------------------------------
# Synthetic generation

DEFAULT_PROFILE_WEIGHTS: Mapping[str, tuple[float, ...]] = {
    "ALT": (0.62, 0.20, 0.18),
    "POP": (0.75, 0.23, 0.02),
    "SUP": (0.17, 0.66, 0.17),
    "CLITO": (0.97, 0.03),
    "DEGURB": (0.02, 0.37, 0.61),
}


@dataclass(frozen=True)
class SynthParams:
    """Knobs of the synthetic dataset generator.

    ``group_correlation`` sets the common correlation of indicators within a
    composite group (a scalar, or a per-group mapping; 1.0 makes the group's
    indicators perfectly correlated). ``mirror_groups`` lists (copy, source)
    pairs of groups whose indicators are exact sign-matched copies, which
    makes the two composite columns identical; the default reproduces the
    exact collinearity between the first and last composite that drives the
    rank-deficiency handling downstream. The target is a logistic transform
    of a latent factor common to all groups plus noise, so it is a noisy
    monotone function of the latent socio-economic signal.
    """

    indicators: tuple[IndicatorSpec, ...] = DEFAULT_INDICATORS
    profile_weights: Mapping[str, tuple[float, ...]] | None = None
    group_correlation: float | Mapping[str, float] = 0.45
    cross_correlation: float = 0.2
    mirror_groups: tuple[tuple[str, str], ...] = (("MPI6", "MPI1"),)
    target_base_percent: float = 8.0
    target_slope: float = 0.9
    target_noise_sd: float = 0.35
    center_hub_frac: float = 0.85

    def __post_init__(self):
        table = self.profile_weights
        if table is not None and set(table) != set(PROFILE_COLUMNS):
            raise ConfigError(f"synth: profile_weights must list exactly {PROFILE_COLUMNS}")
        for column, weights in (table or {}).items():
            w = np.asarray(weights, dtype=float)
            if w.shape != (len(PROFILE_DOMAINS[column]),) or not (
                    (w >= 0).all() and 0 < w.sum() < np.inf):
                raise ConfigError(f"synth: profile_weights.{column} needs one weight >= 0 "
                                  f"per category and a positive finite sum")
        groups = indicator_groups(self.indicators)
        corr = self.group_correlation
        if isinstance(corr, Mapping) and not set(corr) <= set(groups):
            raise ConfigError(f"synth: group_correlation names unknown groups "
                              f"{sorted(set(corr) - set(groups))}")
        corrs = [*(corr.values() if isinstance(corr, Mapping) else [corr]), self.cross_correlation]
        if not all(0.0 <= c <= 1.0 for c in corrs):
            raise ConfigError("synth: group_correlation and cross_correlation must be in [0, 1]")
        if not 0.0 < self.target_base_percent < 100.0:
            raise ConfigError("synth: target_base_percent must be in (0, 100)")
        if not self.target_noise_sd >= 0.0:
            raise ConfigError("synth: target_noise_sd must be >= 0")
        if not 0.0 <= self.center_hub_frac <= 1.0:
            raise ConfigError("synth: center_hub_frac must be in [0, 1]")
        copies = {dst for dst, _ in self.mirror_groups}
        for dst, src in self.mirror_groups:
            if (dst not in groups or src not in groups or src in copies
                    or len(groups[dst]) != len(groups[src])):
                raise ConfigError(f"synth: cannot mirror group {dst!r} from {src!r}")

    def weights_for(self, column: str) -> tuple[float, ...]:
        w = np.asarray((self.profile_weights or DEFAULT_PROFILE_WEIGHTS)[column], dtype=float)
        return tuple(w / w.sum())

    def correlation_for(self, group: str) -> float:
        if isinstance(self.group_correlation, Mapping):
            return float(self.group_correlation.get(group, 0.45))
        return float(self.group_correlation)


def synth_dataset(
    n_units: int, seed: int, params: SynthParams = SynthParams()
) -> Dataset:
    """Generate a deterministic synthetic dataset of ``n_units`` units.

    Pure function of (n_units, seed, params): profiles are drawn from the
    configured category frequencies, indicators from a one-factor-per-group
    model with a shared latent factor across groups, and the observed target
    from a logistic link on that latent signal.
    """
    if n_units < 2:
        raise DataError("n_units must be >= 2")
    rng = np.random.default_rng(seed)
    spec = tuple(params.indicators)
    groups = indicator_groups(spec)

    profiles = {
        col: rng.choice(PROFILE_DOMAINS[col], size=n_units, p=params.weights_for(col))
        for col in PROFILE_COLUMNS
    }

    shared = rng.standard_normal(n_units)
    cc = math.sqrt(params.cross_correlation)
    cres = math.sqrt(1.0 - params.cross_correlation)
    factors = {
        g: cc * shared + cres * rng.standard_normal(n_units) for g in groups
    }

    mirrored = {dst: src for dst, src in params.mirror_groups}
    columns: dict[str, np.ndarray] = {}
    for g, items in groups.items():
        if g in mirrored:
            continue
        c = params.correlation_for(g)
        load, res = math.sqrt(c), math.sqrt(1.0 - c)
        for k, item in enumerate(items):
            base = item.polarity * (load * factors[g]) + res * rng.standard_normal(n_units)
            loc = 20.0 + 7.0 * k
            scale = 3.0 + 0.5 * k
            columns[item.name] = loc + scale * base
    for dst, src in mirrored.items():
        for s_item, d_item in zip(groups[src], groups[dst]):
            # sign-matched copy keeps the standardized columns identical
            columns[d_item.name] = (
                s_item.polarity * d_item.polarity * columns[s_item.name]
            )

    latent = sum(factors[g] for g in groups) / len(groups)
    latent = (latent - latent.mean()) / (latent.std() + 1e-12)
    b0 = math.log(params.target_base_percent / (100.0 - params.target_base_percent))
    logit = b0 + params.target_slope * latent
    logit = logit + params.target_noise_sd * rng.standard_normal(n_units)
    target = 100.0 / (1.0 + np.exp(-logit))

    hub = rng.random(n_units) < params.center_hub_frac
    width = len(str(n_units))
    return Dataset(
        unit_ids=tuple(f"U{i + 1:0{width}d}" for i in range(n_units)),
        profiles=np.column_stack([profiles[col] for col in PROFILE_COLUMNS]),
        indicators=np.column_stack([columns[item.name] for item in spec]),
        target=target,
        center_periph=tuple(np.where(hub, *CENTER_PERIPH_LABELS).tolist()),
        spec=spec,
    )
