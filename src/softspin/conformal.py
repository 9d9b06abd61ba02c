"""Split-conformal prediction intervals over MCMC batch replicates.

Stationary configurations are resampled into batches whose per-unit means
form an empirical predictive distribution. Raw interval bounds are plain
order-statistic quantiles of those batch means; a calibration subset of
units supplies nonconformity scores whose upper quantile widens every
interval symmetrically, giving distribution-free marginal coverage on the
test units under exchangeability.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError
from .sampler import make_rng


@dataclass(frozen=True)
class BatchSpec:
    """Batching, significance and split settings.

    Field defaults mirror the full-scale experiment (50000 stationary
    configurations, 10000 batches of 200 at alpha 0.05); desk-scale runs
    override them through configuration. ``repeats`` is the number of
    repeated calibration/test splits used to give each unit a coverage
    frequency rather than a single flag.
    """

    n_total: int = 50_000
    n_batches: int = 10_000
    batch_size: int = 200
    alpha: float = 0.05
    calib_frac: float = 0.5
    seed: int = 0
    repeats: int = 50

    def __post_init__(self):
        if self.n_total < 1 or self.n_batches < 1:
            raise ConfigError("BatchSpec: n_total and n_batches must be >= 1")
        if not 1 <= self.batch_size <= self.n_total:
            raise ConfigError("BatchSpec: need 1 <= batch_size <= n_total")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("BatchSpec: alpha must be in (0, 1)")
        if not 0.0 < self.calib_frac < 1.0:
            raise ConfigError("BatchSpec: calib_frac must be in (0, 1)")
        if self.repeats < 1:
            raise ConfigError("BatchSpec: repeats must be >= 1")


def batch_means(pool, spec: BatchSpec, workers: int = 1) -> np.ndarray:
    """B x N matrix of per-unit means over seeded bootstrap batches.

    Each batch draws ``batch_size`` configurations uniformly with
    replacement from the pool and averages them per unit. All batches'
    indices are drawn first, in batch order from one stream; contiguous
    ranges of batches are then averaged on ``workers`` threads (numpy's
    gather and reduction release the GIL). Each row is computed the same way
    on any thread, so the result is bit-identical for every ``workers``.
    A float32 pool is read as it is, never copied whole: each batch is
    summed in float64, so the result equals that of the pool upcast first.
    """
    pool = np.asarray(pool)
    if pool.ndim != 2:
        raise ConfigError("pool must be a (configs x units) matrix")
    p = pool.shape[0]
    if p < spec.batch_size:
        raise DataError(f"pool of {p} configs < batch size {spec.batch_size}")
    idx = make_rng(spec.seed).integers(0, p, size=(spec.n_batches, spec.batch_size))
    out = np.empty((spec.n_batches, pool.shape[1]))

    def fill(start: int, stop: int) -> None:
        for b in range(start, stop):  # the sum and divide of .mean, with no temporary
            np.add.reduce(pool[idx[b]], axis=0, dtype=np.float64, out=out[b])
        out[start:stop] /= spec.batch_size

    workers = max(1, min(workers, spec.n_batches))
    _on_threads(fill, np.linspace(0, spec.n_batches, workers + 1).astype(int), workers)
    return out


def _on_threads(fn, bounds, workers: int) -> None:
    """Call ``fn(start, stop)`` for each pair of consecutive ``bounds`` on up
    to ``workers`` threads, reading every result so an error raises."""
    with ThreadPoolExecutor(max_workers=max(1, min(workers, len(bounds) - 1))) as threads:
        list(threads.map(fn, bounds[:-1], bounds[1:]))


def _order_index(p: float, n: int) -> int:
    """1-based order-statistic index ceil(p*n), robust to float fuzz."""
    k = math.ceil(p * n - 1e-9)
    return min(max(k, 1), n)


def _raw_bounds(batches: np.ndarray, alpha: float,
                workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Order-statistic quantiles along the first axis (per column of B x N).

    Blocks of columns are sorted on ``workers`` threads (numpy's sort
    releases the GIL). A column's order statistics depend on no other
    column, so the result is the same for any ``workers``.
    """
    b, n = batches.shape
    block = 16  # columns: 1.3 MB of scratch per thread at B=10,000
    rows = [_order_index(alpha / 2.0, b) - 1, _order_index(1.0 - alpha / 2.0, b) - 1]
    out = np.empty((2, n))

    def take(start: int, stop: int) -> None:
        out[:, start:stop] = np.sort(batches[:, start:stop], axis=0)[rows]

    _on_threads(take, range(0, n + block, block), workers)
    return out[0], out[1]


def nonconformity(y, q_lo, q_hi):
    """Signed exceedance of y beyond [q_lo, q_hi]; zero inside the interval."""
    y = np.asarray(y, dtype=float)
    return np.maximum.reduce([q_lo - y, y - q_hi, np.zeros_like(y)])


def calibrate(scores, alpha: float) -> tuple[float, bool]:
    """Conformal offset: the ceil((n+1)(1-alpha))-th smallest score.

    Returns (q_hat, degenerate). When that index exceeds n (too few
    calibration points for the level) the maximum score is used and flagged
    as degenerate rather than failing.
    """
    x = np.sort(np.asarray(scores, dtype=float))
    n = x.shape[0]
    if n < 1:
        raise DataError("no calibration scores")
    k = _order_index(1.0 - alpha, n + 1)
    if k > n:
        return float(x[-1]), True
    return float(x[k - 1]), False


@dataclass(frozen=True)
class Splits:
    """Repeated calibration/test splits of N units over one pair of raw bounds.

    ``q_lo``, ``q_hi`` and ``y_obs`` are ``(N,)``; ``q_hat`` and
    ``degenerate`` hold one calibration per split, ``(R,)``; ``calib`` is the
    ``(R, N)`` mask of each split's calibration units, the others being its
    test units. Split r widens every raw interval by ``q_hat[r]`` on each
    side, so ``lo``, ``hi``, ``width`` and ``covered`` are ``(R, N)``. The
    marginal-coverage guarantee applies to each split's test units only.
    """

    q_lo: np.ndarray
    q_hi: np.ndarray
    y_obs: np.ndarray
    q_hat: np.ndarray
    degenerate: np.ndarray
    calib: np.ndarray

    @property
    def lo(self) -> np.ndarray:
        return self.q_lo - self.q_hat[:, None]

    @property
    def hi(self) -> np.ndarray:
        return self.q_hi + self.q_hat[:, None]

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def covered(self) -> np.ndarray:
        return (self.y_obs >= self.lo) & (self.y_obs <= self.hi)

    @property
    def test_coverage(self) -> np.ndarray:
        """``(R,)``: the share of each split's test units that it covers."""
        test = ~self.calib
        return (self.covered & test).sum(axis=1) / test.sum(axis=1)


def repeat_splits(batches, y_obs, spec: BatchSpec, workers: int = 1) -> Splits:
    """Calibrated prediction intervals for every unit, over ``spec.repeats``
    calibration/test splits.

    The raw quantiles are computed once. Split r permutes the units with
    seed ``spec.seed + r`` and takes the first ``int(calib_frac * N)`` as its
    calibration set, whose scores give its offset ``q_hat[r]``. Row 0, seeded
    with ``spec.seed``, is the primary split. ``workers`` threads take the
    raw quantiles; the result is bit-identical for every ``workers``.
    """
    batches = np.asarray(batches, dtype=float)
    y_obs = np.asarray(y_obs, dtype=float)
    if batches.ndim != 2 or y_obs.ndim != 1 or batches.shape[1] != y_obs.shape[0]:
        raise ConfigError("batches must be (B x N) matching y_obs length")
    n = y_obs.shape[0]
    n_cal = int(spec.calib_frac * n)
    if n_cal < 1 or n_cal >= n:
        raise DataError(
            f"calib_frac {spec.calib_frac} leaves an empty calibration or test set at N={n}"
        )
    q_lo, q_hi = _raw_bounds(batches, spec.alpha, workers)
    scores = nonconformity(y_obs, q_lo, q_hi)  # a unit's score is the same in every split
    calib = np.zeros((spec.repeats, n), dtype=bool)
    q_hat = np.empty(spec.repeats)
    degenerate = np.empty(spec.repeats, dtype=bool)
    for r, row in enumerate(calib):
        row[make_rng(spec.seed + r).permutation(n)[:n_cal]] = True
        q_hat[r], degenerate[r] = calibrate(scores[row], spec.alpha)
    return Splits(q_lo, q_hi, y_obs, q_hat, degenerate, calib)


class SixNumber(NamedTuple):
    """Minimum, quartiles, mean and maximum, in summary-table order."""

    min: float
    q1: float
    median: float
    mean: float
    q3: float
    max: float


def six_number(values) -> SixNumber:
    x = np.asarray(values, dtype=float)
    q1, med, q3 = np.quantile(x, [0.25, 0.5, 0.75])
    return SixNumber(float(x.min()), float(q1), float(med), float(x.mean()),
                     float(q3), float(x.max()))
