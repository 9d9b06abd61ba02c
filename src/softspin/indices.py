"""Composite indices and the PCA-derived external field.

Base indicators are standardized to mean 100 / sd 10 with their polarity,
aggregated per group into a dispersion-penalizing composite, and the
composite matrix is reduced through correlation-matrix PCA. The external
field driving the spin system is the eigenvalue-weighted sum of component
scores, with weights normalized to one so that rank-deficient components
contribute nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np

from .data import Dataset, indicator_groups
from .errors import DataError


class Direction(str, Enum):
    """Sign of the dispersion penalty of a composite index."""

    POSITIVE = "positive"  # mean + dispersion penalty
    NEGATIVE = "negative"  # mean - dispersion penalty (default)


def _column_sd(x: np.ndarray, ddof: int, name: str = "column") -> float:
    if x.shape[0] <= ddof:
        raise DataError(f"too few values in {name!r}: {x.shape[0]}, need more than ddof={ddof}")
    if np.ptp(x) == 0.0:  # constant column, exact zero regardless of rounding
        return 0.0
    return float(np.std(x, ddof=ddof))


def nonzero_sd(x: np.ndarray, ddof: int, name: str) -> float:
    """The sd of the column ``name``; a constant column raises."""
    sd = _column_sd(x, ddof, name)
    if sd == 0.0:
        raise DataError(f"zero variance in {name!r}")
    return sd


def standardize(column, polarity: int, *, ddof: int = 1, name: str = "column") -> np.ndarray:
    """Polarity-signed z-scores rescaled to mean 100 and sd 10.

    ``ddof=1`` (sample convention) is the package-wide default; ``ddof=0``
    selects the population convention.
    """
    x = np.asarray(column, dtype=float)
    if polarity not in (1, -1):
        raise DataError(f"{name!r}: polarity must be +1 or -1")
    sd = nonzero_sd(x, ddof, name)
    return 10.0 * polarity * (x - x.mean()) / sd + 100.0


def mpi(z_block, direction: Direction = Direction.NEGATIVE, *, ddof: int = 1) -> np.ndarray:
    """Dispersion-penalized composite of a standardized indicator block.

    Each unit's score is the row mean of its standardized profile, shifted
    by the squared row dispersion divided by the mean; the sign of the shift
    is the index direction. A single-indicator block has zero dispersion and
    the composite equals the z-score column.
    """
    z = np.atleast_2d(np.asarray(z_block, dtype=float))
    if z.ndim != 2 or z.shape[1] < 1:
        raise DataError("z block must be an N x M matrix with M >= 1")
    m = z.mean(axis=1)
    bad = np.nonzero(m == 0.0)[0]
    if bad.size:
        raise DataError(f"standardized profile mean is zero at row {int(bad[0])}")
    if z.shape[1] == 1:
        s2 = np.zeros_like(m)
    else:
        s2 = np.var(z, axis=1, ddof=ddof)
    penalty = s2 / m
    if direction is Direction.POSITIVE:
        return m + penalty
    return m - penalty


def build_composites(
    dataset: Dataset,
    *,
    directions: dict[str, Direction] | None = None,
    ddof: int = 1,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Standardize the base indicators and aggregate them group by group.

    Returns the N x K composite matrix and the K group names, in the order
    the groups first appear in the indicator table.
    """
    directions = directions or {}
    x = dataset.indicators
    spec = dataset.spec
    groups = indicator_groups(spec)
    names = dataset.indicator_names
    z = {
        item.name: standardize(x[:, names.index(item.name)], item.polarity,
                               ddof=ddof, name=item.name)
        for item in spec
    }
    values = np.column_stack([
        mpi(np.column_stack([z[item.name] for item in members]),
            directions.get(g, Direction.NEGATIVE), ddof=ddof)
        for g, members in groups.items()
    ])
    return values, tuple(groups)


def _standardized(x: np.ndarray, names: tuple[str, ...], ddof: int) -> np.ndarray:
    sd = np.array([nonzero_sd(x[:, j], ddof, name) for j, name in enumerate(names)])
    return (x - x.mean(axis=0)) / sd


def _correlation(z: np.ndarray, ddof: int) -> np.ndarray:
    r = z.T @ z / (z.shape[0] - ddof)
    r = np.clip((r + r.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return r


@dataclass
class PCASummary:
    """Correlation-matrix PCA of the composite indices.

    ``correlation`` is the Pearson correlation matrix that was decomposed,
    ``loadings`` columns are orthonormal components, ``eigenvalues`` descend,
    ``proportions`` are the eigenvalues normalized to sum one, and ``scores``
    are the projections of the column-standardized composites. Components are
    sign-fixed so the largest-magnitude loading of each column is positive.
    """

    correlation: np.ndarray
    loadings: np.ndarray
    eigenvalues: np.ndarray
    proportions: np.ndarray
    scores: np.ndarray
    index_names: tuple[str, ...]

    @property
    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.proportions)

    @property
    def standard_deviations(self) -> np.ndarray:
        return np.sqrt(self.eigenvalues)


def pca(x, names=None, *, ddof: int = 1) -> PCASummary:
    """PCA on the column-standardized N x K composite matrix ``x``.

    Columns are named ``names``, or else C1..Ck. Rank deficiency is not an
    error: an exactly collinear column pair yields one zero eigenvalue,
    carried along with zero weight. Requires N > K.
    """
    x = np.asarray(x, dtype=float)
    n, k = x.shape
    names = tuple(f"C{j + 1}" for j in range(k)) if names is None else tuple(names)
    if n <= k:
        raise DataError(f"PCA needs more rows than columns (N={n}, K={k})")
    z = _standardized(x, names, ddof)
    r = _correlation(z, ddof)
    w, v = np.linalg.eigh(r)
    w = np.where(w < 0.0, 0.0, w)  # clip rounding noise below zero
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    lead = np.argmax(np.abs(v), axis=0)  # sign-fix: each column's largest loading positive
    v *= np.where(v[lead, np.arange(k)] < 0.0, -1.0, 1.0)

    proportions = w / w.sum()
    scores = z @ v
    return PCASummary(r, v, w, proportions, scores, names)


def external_field(summary: PCASummary, n_components: int | None = None) -> np.ndarray:
    """Per-unit field h: the eigenvalue-weighted sum of the component scores,
    with weights that sum to one.

    All components are kept by default; zero-eigenvalue components carry
    zero weight anyway. ``n_components`` truncates to the leading components,
    renormalizing the weights over the kept ones.
    """
    w = summary.eigenvalues.copy()
    if n_components is not None:
        if not 1 <= n_components <= w.shape[0]:
            raise DataError("n_components out of range")
        w[n_components:] = 0.0
    return summary.scores @ (w / w.sum())
