"""Observed-vs-estimated comparison, residual associations, group summaries.

Includes the paired t-test, rank-based Spearman association, and a
pivoted-QR least-squares path that gives exactly-collinear composite columns
a NaN coefficient instead of failing. Each function returns the columns (or
values) of the artifact it feeds, under that artifact's names.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset
from .errors import AllCollinear, DataError

_PIVOT_TOL = 1e-10


# ---------------------------------------------------------------------------
# Distribution comparison

def compare(y_ref, y_est) -> dict:
    """Compare an estimated distribution against the observed reference.

    d = y_est - y_ref drives MAE, RMSE, the paired t statistic
    mean(d) / (sd(d)/sqrt(N)) with N-1 degrees of freedom, and the 95%
    confidence interval of the mean difference. Returns statistic -> value
    in the row order of ``comparison_<engine>.csv``. The t entries are None
    when the paired differences have zero variance (the test is undefined;
    the error metrics still apply) and ``correlation`` is None when either
    side is constant.
    """
    ref = np.asarray(y_ref, dtype=float)
    est = np.asarray(y_est, dtype=float)
    if ref.shape != est.shape or ref.ndim != 1 or ref.shape[0] < 2:
        raise DataError("compare needs two equal-length vectors with N >= 2")
    n = ref.shape[0]
    d = est - ref

    pearson = None
    if ref.std() > 0 and est.std() > 0:
        pearson = float(np.corrcoef(ref, est)[0, 1])

    mean_diff = float(d.mean())
    sd = float(d.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        t_stat = p = lo = hi = None
    else:
        from scipy.special import stdtr, stdtrit  # deferred: keeps the CLI import light

        se = sd / math.sqrt(n)
        t_stat = mean_diff / se
        p = float(2.0 * stdtr(df, -abs(t_stat)))
        half = float(stdtrit(df, 0.975)) * se
        lo, hi = mean_diff - half, mean_diff + half
    return {
        "n": n, "initial_mean": float(ref.mean()), "estimated_mean": float(est.mean()),
        "mae": float(np.mean(np.abs(d))), "rmse": float(math.sqrt(np.mean(d * d))),
        "correlation": pearson, "mean_diff": mean_diff, "t_stat": t_stat, "t_df": df,
        "t_pvalue": p, "ci95_lo": lo, "ci95_hi": hi,
    }


# ---------------------------------------------------------------------------
# Residual associations

def average_ranks(x) -> np.ndarray:
    """Ranks 1..n with ties replaced by their average rank."""
    _, inverse, counts = np.unique(np.asarray(x, dtype=float),
                                   return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)  # 1-based rank of the last member of each tie run
    return (upper - 0.5 * (counts - 1))[inverse]


def residual_associations(residuals, x, names) -> dict:
    """Linear and rank association of the residuals with every composite.

    ``x`` is the N x K composite matrix and ``names`` its K column names.
    Returns the columns index, pearson and spearman of
    ``residual_mpi_<engine>.csv``, one row per composite. Spearman is Pearson
    on average ranks; undefined associations (constant input) come back as
    NaN, reported downstream as missing.
    """
    r = np.asarray(residuals, dtype=float)
    x = np.asarray(x, dtype=float)
    if r.shape[0] != x.shape[0] or r.shape[0] < 3:
        raise DataError("residual associations need matching vectors with N >= 3")
    x_ranks = np.column_stack([average_ranks(col) for col in x.T])
    with np.errstate(divide="ignore", invalid="ignore"):
        pearson = np.corrcoef(r, x, rowvar=False)[0, 1:]
        spearman = np.corrcoef(average_ranks(r), x_ranks, rowvar=False)[0, 1:]
    # a constant side, detected exactly: its rounded sd need not be zero
    pearson[(np.ptp(x, axis=0) == 0.0) | (np.ptp(r) == 0.0)] = math.nan
    return {"index": tuple(names), "pearson": pearson, "spearman": spearman}


# ---------------------------------------------------------------------------
# Least squares with collinearity flags

def _zscore_columns(x: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=0)
    sd = x.std(axis=0, ddof=1)
    out = np.zeros_like(x)
    ok = np.ptp(x, axis=0) > 0.0  # constant columns exactly, as indices._column_sd
    out[:, ok] = (x[:, ok] - mean[ok]) / sd[ok]
    return out


def _pivoted_lstsq(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares keeping only columns whose pivot survives the filter.

    A dropped column's coefficient is NaN; every kept one is finite.
    """
    from scipy.linalg import qr  # deferred: keeps the CLI import light
    _, r, piv = qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    lead = diag[0] if diag.size else 0.0
    if lead <= 0.0:
        raise AllCollinear("design matrix is identically zero")
    rank = int(np.sum(diag >= _PIVOT_TOL * lead))
    if rank == 0:
        raise AllCollinear("no column survives the collinearity filter")
    kept = np.sort(piv[:rank])
    beta_kept, *_ = np.linalg.lstsq(design[:, kept], y, rcond=None)
    beta = np.full(design.shape[1], math.nan)
    beta[kept] = beta_kept
    return beta


def ols_standardized(residuals, x, names) -> dict:
    """Standardized least-squares coefficients of residuals on composites.

    Returns the columns index and beta_std of ``ols_<engine>.csv``. Response
    and regressors are z-standardized; the solve uses QR with column
    pivoting, and any column whose pivot falls below ``_PIVOT_TOL`` times the
    leading pivot gets a NaN coefficient, mirroring how an exactly duplicated
    composite drops out of the fit.
    """
    y = np.asarray(residuals, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape[0] != x.shape[0] or y.shape[0] <= x.shape[1]:
        raise DataError("need more observations than regressors")
    zy = _zscore_columns(y.reshape(-1, 1))[:, 0]
    zx = _zscore_columns(x)
    return {"index": tuple(names), "beta_std": _pivoted_lstsq(zx, zy)}


def baseline_lm(y, x) -> tuple[float, float]:
    """In-sample (RMSE, MAE) of the target regressed on the composites ``x``.

    Least squares with an intercept, using the same pivoted-QR collinearity
    handling as the standardized fit; a dropped column contributes nothing.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape[0] != x.shape[0] or y.shape[0] <= x.shape[1] + 1:
        raise DataError("need more observations than coefficients")
    design = np.column_stack([np.ones(y.shape[0]), x])
    beta = _pivoted_lstsq(design, y)
    resid = y - design @ np.where(np.isnan(beta), 0.0, beta)
    return float(math.sqrt(np.mean(resid * resid))), float(np.mean(np.abs(resid)))


# ---------------------------------------------------------------------------
# Group summaries by territorial attribute

def group_summaries(dataset: Dataset, attribute: str, y_ref, y_est, coverage, adaptivity,
                    composite=None) -> tuple[dict, np.ndarray | None]:
    """Aggregate per-unit results by (center/periphery type, attribute class).

    Returns the columns type, class, n, the group means of ``coverage``,
    ``adaptivity``, ``y_ref`` and ``y_est`` under those names, and
    ``delta_pct`` = 100 * (y_est mean / y_ref mean - 1), NaN where the y_ref
    mean is zero; then the (groups x K) group means of ``composite``, or
    None without one. Rows are groups in lexical (type, class) order.
    """
    classes = dataset.profile_column(attribute)
    types = np.array(dataset.center_periph_labels())
    keys = sorted(set(zip(types.tolist(), classes.tolist())))
    masks = [(types == t) & (classes == c) for t, c in keys]

    def means(values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        return np.array([values[mask].mean(axis=0) for mask in masks])

    ref, est = means(y_ref), means(y_est)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(ref == 0.0, math.nan, 100.0 * (est / ref - 1.0))
    columns = {
        "type": [t for t, _ in keys], "class": [c for _, c in keys],
        "n": np.array([mask.sum() for mask in masks]),
        "coverage": means(coverage), "adaptivity": means(adaptivity),
        "y_ref": ref, "y_est": est, "delta_pct": delta,
    }
    return columns, None if composite is None else means(composite)
