"""Delimited-text writers for every on-disk artifact.

Machine tables carry full repr precision so values round-trip exactly
through the stage boundaries; diagnostic summaries use a fixed 4-decimal
layout. All output is deterministic byte for byte given the same inputs.
Missing values are written as NA.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .conformal import SixNumber
from .data import PROFILE_COLUMNS, Dataset, replaced
from .graph import InteractionGraph
from .indices import PCASummary


def _cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return "NA" if math.isnan(v) else repr(v)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_columns(path, columns: dict) -> Path:
    """A table with one column per entry of ``columns`` (header -> values)."""
    cells = [map(_cell, v.tolist() if isinstance(v, np.ndarray) else v)
             for v in columns.values()]
    with replaced(path) as tmp, tmp.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(columns))
        writer.writerows(zip(*cells))
    return Path(path)


def write_lines(path, lines) -> Path:
    """A text file of ``lines``, each ended by a newline."""
    with replaced(path) as tmp:
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Path(path)


def read_table(path) -> tuple[list[str], list[list[str]]]:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def read_column(path, name) -> np.ndarray:
    header, rows = read_table(path)
    j = header.index(name)
    return np.array([float(row[j]) for row in rows])


# ---------------------------------------------------------------------------
# Field diagnostics (correlation matrix + PCA summary)

def write_field_diagnostics(path, summary: PCASummary) -> Path:
    corr = summary.correlation
    names = summary.index_names
    k = len(names)
    width = max(8, max(len(n) for n in names) + 2)
    lines = ["Correlation matrix of the composite indices", ""]
    lines.append(" " * width + "".join(f"{n:>{width}}" for n in names))
    for i, name in enumerate(names):
        lines.append(
            f"{name:<{width}}" + "".join(f"{corr[i, j]:>{width}.4f}" for j in range(k))
        )
    lines += ["", "Principal components summary", ""]
    comp = [f"PC{j + 1}" for j in range(k)]
    label_w = 24
    lines.append(" " * label_w + "".join(f"{c:>{width}}" for c in comp))
    for label, values in (
        ("Standard deviation", summary.standard_deviations),
        ("Proportion of Variance", summary.proportions),
        ("Cumulative Proportion", summary.cumulative),
    ):
        lines.append(
            f"{label:<{label_w}}" + "".join(f"{v:>{width}.4f}" for v in values)
        )
    return write_lines(path, lines)


# ---------------------------------------------------------------------------
# Graph exports

def write_group_table(path, dataset: Dataset, graph: InteractionGraph) -> Path:
    ids = dataset.unit_ids
    return write_columns(path, {
        "group_id": range(graph.n_groups),
        **dict(zip(PROFILE_COLUMNS, zip(*graph.profile_keys))),
        "size": graph.group_sizes,
        "member_ids": [";".join(ids[i] for i in members) for members in graph.members],
    })


def write_graph_summary(path, graph: InteractionGraph, lam_max: float, lam_min: float) -> Path:
    lines = [
        f"units: {graph.n}",
        f"groups: {graph.n_groups}",
        f"largest group: {int(graph.group_sizes.max())}",
        f"edges: {int((graph.group_sizes * (graph.group_sizes - 1)).sum()) // 2}",
        f"coupling spectrum extremes: lambda_max={lam_max!r} lambda_min={lam_min!r}",
    ]
    return write_lines(path, lines)


# ---------------------------------------------------------------------------
# JSON documents (retained-pool metadata, manifest)

def write_json(path, payload: dict) -> Path:
    return write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


# ---------------------------------------------------------------------------
# Six-number summary tables (coverage/adaptivity, energy ratios)

def write_six_number_table(path, rows: dict[str, SixNumber]) -> Path:
    data = [[name, *summary] for name, summary in rows.items()]
    return write_columns(path, dict(zip(("metric", *SixNumber._fields), zip(*data))))
