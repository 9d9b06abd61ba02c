import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_dataset
from softspin.analysis import (
    average_ranks,
    baseline_lm,
    compare,
    group_summaries,
    ols_standardized,
    residual_associations,
)
from softspin.errors import AllCollinear, DataError


def _paired(df, t):
    """Reference/estimate pair of length df + 1 whose paired t statistic is t."""
    d = np.linspace(-1.0, 1.0, df + 1)
    d = d / d.std(ddof=1) + t / math.sqrt(df + 1)  # sd 1, so mean / se = t
    return np.zeros(df + 1), d


class TestStudentT:
    def test_two_sided_p_against_scipy(self):
        for df in (2, 5, 30, 1382):
            for t in (0.0, 0.5, 1.96, 8.63, 27.5):
                rep = compare(*_paired(df, t))
                assert rep["t_stat"] == pytest.approx(t, rel=1e-9, abs=1e-12)
                ref = 2.0 * scipy.stats.t.sf(abs(rep["t_stat"]), df)
                assert rep["t_pvalue"] == pytest.approx(ref, rel=1e-9, abs=1e-300)

    def test_quantile_against_scipy(self):
        for df in (2, 10, 100, 1382):
            rep = compare(*_paired(df, 1.0))
            se = 1.0 / math.sqrt(df + 1)
            half = scipy.stats.t.ppf(0.975, df) * se
            assert rep["ci95_hi"] - rep["mean_diff"] == pytest.approx(half, rel=1e-9)
            assert rep["mean_diff"] - rep["ci95_lo"] == pytest.approx(half, rel=1e-9)


class TestCompare:
    def test_identical_vectors(self):
        y = np.array([1.0, 2.0, 3.0])
        rep = compare(y, y)
        assert rep["mae"] == rep["rmse"] == 0.0
        assert rep["t_stat"] is None and rep["t_pvalue"] is None
        assert rep["correlation"] == pytest.approx(1.0)

    def test_alternating_differences(self):
        y_ref = np.zeros(4)
        y_est = np.array([1.0, -1.0, 1.0, -1.0])
        rep = compare(y_ref, y_est)
        assert rep["mae"] == 1.0
        assert rep["rmse"] == 1.0
        assert rep["mean_diff"] == 0.0
        assert rep["t_stat"] == 0.0
        assert rep["t_pvalue"] == pytest.approx(1.0)

    def test_against_scipy_paired_t(self, rng):
        a = rng.normal(10, 2, size=60)
        b = a + rng.normal(0.3, 0.5, size=60)
        rep = compare(a, b)
        t_ref, p_ref = scipy.stats.ttest_rel(b, a)
        assert rep["t_stat"] == pytest.approx(t_ref, rel=1e-10)
        assert rep["t_pvalue"] == pytest.approx(p_ref, rel=1e-9)
        assert rep["t_df"] == 59
        lo, hi = scipy.stats.t.interval(
            0.95, 59, loc=(b - a).mean(), scale=scipy.stats.sem(b - a)
        )
        assert rep["ci95_lo"] == pytest.approx(lo, abs=1e-9)
        assert rep["ci95_hi"] == pytest.approx(hi, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            compare(np.zeros(3), np.zeros(4))

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=40),
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_mae_bounded_by_rmse(self, xs, ys):
        n = min(len(xs), len(ys))
        rep = compare(np.array(xs[:n]), np.array(ys[:n]))
        assert rep["mae"] <= rep["rmse"] + 1e-12


def _names(x):
    return tuple(f"C{j + 1}" for j in range(x.shape[1]))


class TestAssociations:
    def test_ranks_match_scipy(self, rng):
        x = rng.integers(0, 5, size=30).astype(float)  # plenty of ties
        np.testing.assert_allclose(
            average_ranks(x), scipy.stats.rankdata(x), atol=1e-12
        )

    def test_self_correlation(self, rng):
        comp = rng.normal(size=(50, 6))
        table = residual_associations(comp[:, 0], comp, _names(comp))
        assert table["pearson"][0] == pytest.approx(1.0, abs=1e-12)
        assert table["spearman"][0] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_cubic(self, rng):
        comp = rng.normal(size=(80, 2))
        residuals = comp[:, 1] ** 3  # strictly monotone, nonlinear
        table = residual_associations(residuals, comp, _names(comp))
        assert table["spearman"][1] == pytest.approx(1.0, abs=1e-12)
        assert table["pearson"][1] < 1.0 - 1e-6

    @pytest.mark.parametrize("value", [0.0, 0.1, 7.3])
    def test_constant_residuals_missing(self, rng, value):
        # a nonzero constant's rounded sd need not be exactly zero
        comp = rng.normal(size=(40, 3))
        table = residual_associations(np.full(40, value), comp, _names(comp))
        assert np.all(np.isnan(table["pearson"]))
        assert np.all(np.isnan(table["spearman"]))

    def test_constant_composite_missing(self, rng):
        comp = np.column_stack([rng.normal(size=40), np.full(40, 0.1)])
        table = residual_associations(rng.normal(size=40), comp, _names(comp))
        assert not np.isnan(table["pearson"][0]) and np.isnan(table["pearson"][1])

    def test_against_scipy(self, rng):
        comp = rng.normal(size=(70, 4))
        residuals = rng.normal(size=70)
        table = residual_associations(residuals, comp, _names(comp))
        for j in range(4):
            pr = scipy.stats.pearsonr(residuals, comp[:, j]).statistic
            sr = scipy.stats.spearmanr(residuals, comp[:, j]).statistic
            assert table["pearson"][j] == pytest.approx(pr, abs=1e-10)
            assert table["spearman"][j] == pytest.approx(sr, abs=1e-10)

    def test_spearman_invariant_to_monotone_transform(self, rng):
        comp = rng.normal(size=(60, 1))
        residuals = rng.normal(size=60)
        names = _names(comp)
        base = residual_associations(residuals, comp, names)["spearman"][0]
        transformed = residual_associations(np.exp(residuals / 10), comp, names)["spearman"][0]
        assert base == pytest.approx(transformed, abs=1e-12)


class TestOLS:
    def test_single_regressor_identity(self, rng):
        x = rng.normal(size=(30, 1))
        res = ols_standardized(x[:, 0], x, _names(x))
        assert res["beta_std"][0] == pytest.approx(1.0, abs=1e-10)

    def test_duplicate_column_flagged_once(self, rng):
        x = rng.normal(size=(50, 3))
        x = np.column_stack([x, x[:, 0]])
        res = ols_standardized(rng.normal(size=50), x, _names(x))
        flagged = np.isnan(res["beta_std"]).nonzero()[0]
        assert len(flagged) == 1
        assert flagged[0] in (0, 3)

    def test_normal_equations_oracle(self, rng):
        x = rng.normal(size=(100, 5))
        y = rng.normal(size=100)
        res = ols_standardized(y, x, _names(x))
        zx = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
        zy = (y - y.mean()) / y.std(ddof=1)
        beta_ref = np.linalg.solve(zx.T @ zx, zx.T @ zy)
        np.testing.assert_allclose(res["beta_std"], beta_ref, atol=1e-8)

    def test_orthonormal_regressors_give_correlations(self, rng):
        raw = rng.normal(size=(200, 3))
        q, _ = np.linalg.qr(raw - raw.mean(axis=0))
        x = q  # orthogonal, zero-mean columns
        y = rng.normal(size=200)
        res = ols_standardized(y, x, _names(x))
        for j in range(3):
            r = np.corrcoef(y, x[:, j])[0, 1]
            assert res["beta_std"][j] == pytest.approx(r, abs=1e-10)

    @pytest.mark.parametrize("value", [0.0, 0.1, 7.3])
    def test_constant_residuals_give_zero_betas(self, rng, value):
        # at N=1383 the rounded sd of a column of 0.1 is about 4e-17, not 0
        x = rng.normal(size=(1383, 3))
        res = ols_standardized(np.full(1383, value), x, _names(x))
        np.testing.assert_array_equal(res["beta_std"], np.zeros(3))

    def test_all_collinear(self):
        x = np.zeros((20, 2))
        with pytest.raises(AllCollinear):
            ols_standardized(np.arange(20.0), x, _names(x))

    def test_needs_enough_rows(self, rng):
        with pytest.raises(DataError):
            ols_standardized(np.zeros(3), rng.normal(size=(3, 4)), ("C1", "C2", "C3", "C4"))


class TestBaselineLM:
    def test_exact_linear_fit(self, rng):
        x = rng.normal(size=(60, 4))
        beta = np.array([1.0, -2.0, 0.5, 3.0])
        y = 4.0 + x @ beta
        rmse, mae = baseline_lm(y, x)
        assert rmse == pytest.approx(0.0, abs=1e-9)
        assert mae == pytest.approx(0.0, abs=1e-9)

    def test_intercept_only_signal(self, rng):
        x = rng.normal(size=(200, 3))
        y = 5.0 + rng.normal(0, 0.1, size=200)
        rmse, _ = baseline_lm(y, x)
        assert rmse <= y.std()

    def test_duplicate_column_does_not_break_fit(self, rng):
        x = rng.normal(size=(50, 2))
        y = 1.0 + x[:, 0] - x[:, 1]
        dup = np.column_stack([x, x[:, 1]])
        rmse, _ = baseline_lm(y, dup)
        assert rmse == pytest.approx(0.0, abs=1e-8)
        # on a target the composites do not fit exactly, the duplicate column
        # moves the errors by rounding only (the fitted product sums 4 columns)
        noisy = y + rng.normal(size=50)
        assert baseline_lm(noisy, dup) == pytest.approx(baseline_lm(noisy, x), rel=1e-12)


class TestGroupSummaries:
    def summarize(self, dataset, attribute, y_ref, y_est, composite=None):
        n = len(y_ref)
        return group_summaries(dataset, attribute, np.asarray(y_ref, dtype=float),
                               np.asarray(y_est, dtype=float), np.full(n, 0.95),
                               np.full(n, 2.0), composite)

    def test_single_group(self):
        d = tiny_dataset([(1, 1, 1, 0, 1)] * 4, [5, 6, 7, 8])
        cols, comp_means = self.summarize(d, "ALT", [5, 6, 7, 8], [5, 6, 7, 8])
        assert comp_means is None
        assert cols["n"].tolist() == [4]
        assert cols["delta_pct"][0] == pytest.approx(0.0)

    def test_delta_hand_value(self):
        profiles = [(1, 1, 1, 0, 1), (1, 1, 1, 0, 1), (2, 1, 1, 0, 1), (2, 1, 1, 0, 1)]
        d = tiny_dataset(profiles, [8, 8, 4, 4])
        cols, _ = self.summarize(d, "ALT", [8, 8, 4, 4], [8.08, 8.08, 4.04, 4.04])
        assert cols["class"] == [1, 2]
        np.testing.assert_allclose(cols["delta_pct"], [1.0, 1.0], atol=1e-9)

    def test_rows_lexical_order_and_counts(self):
        profiles = [
            (2, 1, 1, 0, 1), (1, 1, 1, 0, 1), (1, 1, 1, 0, 1), (3, 1, 1, 0, 1),
        ]
        d = tiny_dataset(profiles, [1, 2, 3, 4])
        cols, _ = self.summarize(d, "ALT", [1, 2, 3, 4], [1, 2, 3, 4])
        assert list(zip(cols["type"], cols["class"])) == [("All", 1), ("All", 2), ("All", 3)]
        assert cols["n"].sum() == 4
        assert list(cols) == ["type", "class", "n", "coverage", "adaptivity",
                              "y_ref", "y_est", "delta_pct"]

    def test_zero_reference_mean_gives_nan(self):
        d = tiny_dataset([(1, 1, 1, 0, 1)] * 2, [0, 0])
        cols, _ = self.summarize(d, "ALT", [0, 0], [1, 1])
        assert math.isnan(cols["delta_pct"][0])

    def test_mpi_means_attached(self, rng):
        d = tiny_dataset([(1, 1, 1, 0, 1)] * 3, [5, 5, 5])
        comp = rng.normal(size=(3, 6))
        _, comp_means = self.summarize(d, "ALT", [5, 5, 5], [5, 5, 5], comp)
        assert comp_means.shape == (1, 6)
        np.testing.assert_allclose(comp_means[0], comp.mean(axis=0), atol=1e-12)

    def test_unknown_attribute(self):
        d = tiny_dataset([(1, 1, 1, 0, 1)], [5])
        with pytest.raises(DataError):
            self.summarize(d, "NOPE", [5], [5])
