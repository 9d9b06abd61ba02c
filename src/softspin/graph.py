"""Similarity network of units sharing an identical territorial profile.

Units with the same five-attribute profile form a clique with unit coupling
weight; the graph is therefore a disjoint union of cliques and is stored as
a partition, never as a dense matrix. Per-group running sums give O(1)
neighbor sums during sampling, and the coupling spectrum follows in closed
form from the group sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError


@dataclass
class InteractionGraph:
    """Partition of unit indices into identical-profile groups.

    Implied coupling: J_ij = 1 iff i != j and group_of[i] == group_of[j],
    else 0 (symmetric, zero diagonal).
    """

    group_of: np.ndarray                 # unit index -> group id
    group_sizes: np.ndarray              # group id -> member count
    members: tuple[np.ndarray, ...]      # group id -> member indices
    profile_keys: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return int(self.group_of.shape[0])

    @property
    def n_groups(self) -> int:
        return int(self.group_sizes.shape[0])

    def degree(self, i: int) -> int:
        return int(self.group_sizes[self.group_of[i]]) - 1

    def degrees(self) -> np.ndarray:
        return self.group_sizes[self.group_of] - 1


def build_graph(dataset: Dataset) -> InteractionGraph:
    """Group units by exact equality of all five profile attributes."""
    ids: dict[tuple[int, ...], int] = {}  # group ids in order of first appearance
    group_of = np.array(
        [ids.setdefault(tuple(p), len(ids)) for p in dataset.profiles.tolist()],
        dtype=np.int64,
    )
    n_groups = len(ids)
    sizes = np.bincount(group_of, minlength=n_groups)
    members = tuple(np.nonzero(group_of == g)[0] for g in range(n_groups))
    keys = tuple(ids)  # insertion order matches group ids
    return InteractionGraph(group_of, sizes, members, keys)


class GroupSums:
    """Chain-local cache of per-group spin sums.

    ``sums[g]`` is the spin sum of group ``g``, so the neighbor sum of unit
    ``i`` is ``sums[group_of[i]] - s[i]``. Samplers add each accepted
    single-site change to ``sums`` in place; call :meth:`recompute`
    periodically to cancel floating-point accumulation drift.

    For a (k, N) stack of configurations ``sums`` is (k, n_groups), one row
    per configuration, and ``index`` holds each unit's position in the
    flattened sums, ``group_of + c * n_groups`` in row ``c``: one bincount
    sums every row, and one ``take`` gathers every unit's group sum.
    """

    __slots__ = ("index", "sums", "_flat", "_shape")

    def __init__(self, graph: InteractionGraph, s):
        s = np.asarray(s, dtype=float)
        if s.ndim == 1:
            self.index = graph.group_of
        else:
            offsets = graph.n_groups * np.arange(s.shape[0])
            self.index = graph.group_of + offsets[:, None]
        self._flat = self.index.ravel()
        self._shape = (*s.shape[:-1], graph.n_groups)
        self.recompute(s)

    def recompute(self, s) -> None:
        self.sums = np.bincount(
            self._flat, weights=np.asarray(s, dtype=float).ravel(),
            minlength=math.prod(self._shape),
        ).reshape(self._shape)


def spectrum_extremes(graph: InteractionGraph) -> tuple[float, float]:
    """Extreme eigenvalues of the implied coupling matrix.

    A clique of size m contributes eigenvalues {m-1, -1 x (m-1)}, so for a
    disjoint union of cliques the extremes follow from the group sizes alone.
    Both extremes are nonzero as soon as any group has two members, which is
    what makes the energy non-convex.
    """
    if graph.n < 2:
        raise DataError("spectrum needs at least two units")
    largest = int(graph.group_sizes.max())
    lam_max = float(largest - 1)
    lam_min = -1.0 if largest >= 2 else 0.0
    return lam_max, lam_min
