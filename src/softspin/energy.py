"""Soft-spin Hamiltonian: full evaluation, O(1) increments, gradient, ratios.

The energy of a configuration combines a pairwise coupling term over the
profile cliques (counting ordered pairs), an external-field alignment term
and a quadratic penalty that keeps spins bounded:

    H(s) = -1/2 sum_ij J_ij s_i s_j - sum_i h_i s_i + lambda/2 sum_i s_i^2

For a disjoint union of cliques the double sum reduces to per-group sums,
so the full evaluation is O(N) and a single-spin increment is O(1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graph import GroupSums, InteractionGraph


@dataclass
class EnergyModel:
    """Immutable bundle of graph, external field and regularization weight."""

    graph: InteractionGraph
    field: np.ndarray
    lambda_reg: float = 1.0

    def __post_init__(self):
        self.field = np.asarray(self.field, dtype=float)
        if self.field.shape != (self.graph.n,):
            raise DataError(
                f"field length {self.field.shape} does not match N={self.graph.n}"
            )
        if not np.all(np.isfinite(self.field)):
            raise DataError("field must be finite")
        if not self.lambda_reg > 0:
            raise DataError("lambda_reg must be > 0")


@dataclass
class SpinConfiguration:
    """A spin vector together with the ``Engine`` whose scale it is on."""

    s: np.ndarray
    engine: object  # a sampler.Engine; energy cannot import sampler

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        if not np.all(np.isfinite(self.s)):
            raise DataError("spin configuration must be finite")


def _rowdot(a, b):
    """Row-wise dot products over the last axis, bit-equal to ``a @ b`` per row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def hamiltonian(model: EnergyModel, s, sums: GroupSums | None = None):
    """Total energy of a configuration, or of each row of a (k, N) stack.

    O(N) per row from the group sums, read from ``sums``, the chain's cache
    of ``s``, or else from a new :class:`~softspin.graph.GroupSums`. Returns
    a float for one configuration and a (k,) array for a stack.
    """
    x = np.asarray(s, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != model.graph.n:
        raise DataError("configuration length does not match the graph")
    if sums is None:
        sums = GroupSums(model.graph, x)
    xx = _rowdot(x, x)
    pair = _rowdot(sums.sums, sums.sums) - xx  # ordered pairs within groups
    energy = -0.5 * pair - _rowdot(model.field, x) + 0.5 * model.lambda_reg * xx
    return float(energy) if x.ndim == 1 else energy


def delta_h(model: EnergyModel, s, i: int, s_new: float, sums: GroupSums | None = None) -> float:
    """Energy change of setting spin ``i`` to ``s_new``, in O(1).

    The neighbor sum is one lookup in ``sums``, the group-sum cache of
    ``s``, or in a new one when none is given.
    """
    x = np.asarray(s, dtype=float)
    if sums is None:
        sums = GroupSums(model.graph, x)
    s_i = float(x[i])
    nb = float(sums.sums[model.graph.group_of[i]]) - s_i
    diff = s_new - s_i
    return (
        -diff * nb
        - float(model.field[i]) * diff
        + 0.5 * model.lambda_reg * (s_new * s_new - s_i * s_i)
    )


def grad(model: EnergyModel, s, sums: GroupSums | None = None) -> np.ndarray:
    """Gradient of the energy: (grad H)_i = -sum_j J_ij s_j - h_i + lambda s_i.

    ``s`` is one configuration or a (k, N) stack of them, with ``sums`` its
    cache; each row gets its own gradient.
    """
    x = np.asarray(s, dtype=float)
    if sums is None:
        sums = GroupSums(model.graph, x)
    out = x - np.take(sums.sums, sums.index)  # minus the neighbour sums
    out -= model.field
    out += model.lambda_reg * x
    return out


def energy_ratio(h, h_ref: float):
    """Ratio of configuration energies (a scalar or an array) to the
    reference energy."""
    if h_ref == 0.0:
        raise ZeroDivisionError("reference energy is zero")
    return h / h_ref


def log_likelihood_ratio(h, h_ref: float, temperature):
    """Log of the Boltzmann probability ratio at fixed temperature.

    Positive when the sampled state is more probable than the reference;
    the intractable normalizing constant cancels in the ratio. ``h`` and
    ``temperature`` may be scalars or arrays of matching length.
    """
    if not np.all(temperature > 0):
        raise DataError("temperature must be > 0")
    return -(h - h_ref) / temperature
