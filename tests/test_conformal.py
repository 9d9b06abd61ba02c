import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softspin.conformal import (
    BatchSpec,
    _raw_bounds,
    batch_means,
    calibrate,
    nonconformity,
    repeat_splits,
    six_number,
)
from softspin.errors import ConfigError, DataError
from softspin.sampler import make_rng


def column_bounds(column, alpha):
    """The raw (lo, hi) order statistics of one column of replicates."""
    lo, hi = _raw_bounds(np.asarray(column, dtype=float)[:, None], alpha)
    return lo[0], hi[0]


def exchangeable_fixture(n_units, b=800, seed=0):
    """Per-unit Gaussian batch replicates plus an exchangeable observation."""
    rng = np.random.default_rng(seed)
    mu = rng.normal(0.0, 2.0, size=n_units)
    sd = 0.1 + np.abs(rng.normal(0.5, 0.3, size=n_units))
    batches = mu + sd * rng.standard_normal((b, n_units))
    y_obs = mu + sd * rng.standard_normal(n_units)
    return batches, y_obs


class TestBatchMeans:
    def test_identical_pool(self):
        config = np.array([1.0, 2.0, 3.0])
        pool = np.tile(config, (50, 1))
        spec = BatchSpec(n_total=50, n_batches=20, batch_size=10, seed=1)
        out = batch_means(pool, spec)
        assert out.shape == (20, 3)
        np.testing.assert_allclose(out, np.tile(config, (20, 1)), atol=1e-12)

    def test_deterministic(self, rng):
        pool = rng.normal(size=(100, 4))
        spec = BatchSpec(n_total=100, n_batches=30, batch_size=20, seed=9)
        np.testing.assert_array_equal(batch_means(pool, spec), batch_means(pool, spec))

    def test_grand_mean_clt_bound(self, rng):
        pool = rng.normal(size=(500, 3))
        spec = BatchSpec(n_total=500, n_batches=400, batch_size=50, seed=3)
        out = batch_means(pool, spec)
        tol = 3.0 * pool.std(axis=0) / np.sqrt(400 * 50)
        assert np.all(np.abs(out.mean(axis=0) - pool.mean(axis=0)) <= 3 * tol + 1e-3)

    def test_bit_equal_for_any_worker_count(self, rng):
        # 101 batches: neither 2 nor 3 threads split them evenly
        spec = BatchSpec(n_total=300, n_batches=101, batch_size=25, seed=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for dtype in (np.float64, np.float32):
                pool = rng.normal(50.0, 30.0, size=(300, 5)).astype(dtype)
                stream = make_rng(spec.seed)  # draw, then average, one batch at a time
                serial = np.array([pool[stream.integers(0, 300, size=25)].mean(
                    axis=0, dtype=np.float64) for _ in range(101)])
                for workers in (1, 2, 3):
                    out = batch_means(pool, spec, workers=workers)
                    np.testing.assert_array_equal(out.view(np.uint64), serial.view(np.uint64))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_float32_pool_not_upcast(self, rng, workers):
        # the pool is gathered batch by batch and summed in float64, never
        # copied whole: the traced peak stays below one float64 copy of it
        pool = rng.normal(50.0, 30.0, size=(5000, 1383)).astype(np.float32)
        spec = BatchSpec(n_total=5000, n_batches=500, batch_size=200, seed=3)
        expected = batch_means(pool.astype(np.float64), spec)
        tracemalloc.start()
        try:
            out = batch_means(pool, spec, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pool.astype(np.float64).nbytes
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out.view(np.uint64), expected.view(np.uint64))

    def test_insufficient_pool(self, rng):
        spec = BatchSpec(n_total=100, n_batches=5, batch_size=50, seed=0)
        with pytest.raises(DataError, match="pool of 10 configs < batch size 50"):
            batch_means(rng.normal(size=(10, 2)), spec)


class TestEmpiricalQuantiles:
    def test_constant_column(self):
        lo, hi = column_bounds(np.full(40, 7.0), 0.1)
        assert lo == hi == 7.0

    def test_order_statistic_indices(self):
        lo, hi = column_bounds(np.arange(1, 101, dtype=float), 0.10)
        assert (lo, hi) == (5.0, 95.0)

    def test_small_alpha_uses_extremes(self):
        x = np.arange(1, 11, dtype=float)
        lo, hi = column_bounds(x, 1e-9)
        assert (lo, hi) == (1.0, 10.0)

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=60),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_ordering(self, xs, alpha):
        lo, hi = column_bounds(xs, alpha)
        assert lo <= hi


class TestRawBounds:
    @staticmethod
    def awkward_batches(rng):
        # 101 x 37: 16-column blocks leave a short last one, three blocks for three threads
        batches = rng.normal(size=(101, 37))
        batches[:, 3] = np.round(batches[:, 3])  # ties
        batches[:, 4] = 2.5  # a constant column
        batches[::2, 5], batches[1::2, 5] = 0.0, -0.0  # ties that differ in their bits
        batches[[0, 50, 99], 20] = np.nan  # NaN sorts last
        return batches

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equal_one_sort_of_the_whole_matrix(self, rng, workers):
        # B=101 at alpha 0.05: order statistics ceil(2.525) = 3 and ceil(98.475) = 99
        batches = self.awkward_batches(rng)
        whole = np.sort(batches, axis=0)
        spec = BatchSpec(n_total=101, n_batches=101, batch_size=1, alpha=0.05, repeats=4)
        y_obs = rng.normal(size=37)
        serial = repeat_splits(batches, y_obs, spec)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            lo, hi = _raw_bounds(batches, 0.05, workers)
            splits = repeat_splits(batches, y_obs, spec, workers=workers)
        finally:
            sys.setswitchinterval(interval)
        for got in (lo, splits.q_lo):
            np.testing.assert_array_equal(got.view(np.uint64), whole[2].view(np.uint64))
        for got in (hi, splits.q_hi):
            np.testing.assert_array_equal(got.view(np.uint64), whole[98].view(np.uint64))
        assert np.isnan(hi[20]) and not np.isnan(lo[20])
        np.testing.assert_array_equal(splits.q_hat.view(np.uint64),
                                      serial.q_hat.view(np.uint64))
        np.testing.assert_array_equal(splits.degenerate, serial.degenerate)

    def test_fewer_columns_than_threads(self, rng):
        batches = rng.normal(size=(40, 1))
        lo, hi = _raw_bounds(batches, 0.1, workers=2)  # order statistics 2 and 38
        whole = np.sort(batches, axis=0)
        assert lo.shape == hi.shape == (1,)
        assert (lo[0], hi[0]) == (whole[1, 0], whole[37, 0])

    @given(
        st.lists(st.sampled_from([-1.5, -0.0, 0.0, 2.0, 7.25]) | st.floats(-100, 100),
                 min_size=2, max_size=60),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_column_path_is_a_sort_of_the_column(self, xs, alpha):
        # _raw_bounds on one column: the k-th smallest, k = ceil(p * B)
        x = np.array(xs)
        b = x.shape[0]
        ordered = np.sort(x)
        lo = ordered[min(max(math.ceil(alpha / 2 * b - 1e-9), 1), b) - 1]
        hi = ordered[min(max(math.ceil((1 - alpha / 2) * b - 1e-9), 1), b) - 1]
        got = column_bounds(x, alpha)
        np.testing.assert_array_equal(np.array(got).view(np.uint64),
                                      np.array([lo, hi]).view(np.uint64))


class TestNonconformity:
    def test_inside_zero(self):
        assert nonconformity(3.0, 2.0, 5.0) == 0.0
        assert nonconformity(2.0, 2.0, 5.0) == 0.0
        assert nonconformity(5.0, 2.0, 5.0) == 0.0

    def test_hand_values(self):
        assert nonconformity(6.0, 2.0, 5.0) == 1.0
        assert nonconformity(0.0, 2.0, 5.0) == 2.0

    @given(
        st.floats(-50, 50, allow_nan=False),
        st.floats(-20, 0, allow_nan=False),
        st.floats(0, 20, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_zero_iff_inside(self, y, lo, hi):
        score = float(nonconformity(y, lo, hi))
        assert (score == 0.0) == (lo <= y <= hi)
        assert score >= 0.0


class TestCalibrate:
    def test_all_zero_scores(self):
        assert calibrate(np.zeros(50), 0.1) == (0.0, False)

    def test_order_index_99(self):
        scores = np.arange(1.0, 100.0)  # 1..99
        assert calibrate(scores, 0.10) == (90.0, False)  # the 90th smallest

    def test_order_index_ten(self):
        assert calibrate(np.arange(1.0, 11.0), 0.5) == (6.0, False)  # the 6th smallest

    def test_degenerate_small_sample(self):
        assert calibrate(np.array([1.0, 2.0, 3.0]), 0.05) == (3.0, True)

    @pytest.mark.parametrize("n, alpha, expected", [
        (19, 0.05, (19.0, False)),  # (n + 1)(1 - alpha) = 19.0: the largest score
        (18, 0.05, (18.0, True)),   # 18.05 rounds up past n
        (9, 0.7, (3.0, False)),     # 3.0000000000000004: the fuzz keeps k = 3
    ])
    def test_order_index_at_integer_boundaries(self, n, alpha, expected):
        assert calibrate(np.arange(1.0, n + 1.0), alpha) == expected

    def test_empty(self):
        with pytest.raises(DataError, match="no calibration scores"):
            calibrate(np.array([]), 0.1)


class TestConformalIntervals:
    def spec(self, **kw):
        base = dict(n_total=800, n_batches=800, batch_size=10, alpha=0.10,
                    calib_frac=0.5, seed=5, repeats=10)
        base.update(kw)
        return BatchSpec(**base)

    def test_additive_widening(self):
        batches, y = exchangeable_fixture(200)
        res = repeat_splits(batches, y, self.spec())
        q_hat = res.q_hat[:, None]
        np.testing.assert_allclose(res.lo, res.q_lo - q_hat, atol=1e-12)
        np.testing.assert_allclose(res.hi, res.q_hi + q_hat, atol=1e-12)
        np.testing.assert_allclose(
            res.width, (res.q_hi - res.q_lo) + 2.0 * q_hat, atol=1e-12
        )

    def test_deterministic(self):
        batches, y = exchangeable_fixture(150)
        a = repeat_splits(batches, y, self.spec())
        b = repeat_splits(batches, y, self.spec())
        np.testing.assert_array_equal(a.lo, b.lo)
        np.testing.assert_array_equal(a.covered, b.covered)
        np.testing.assert_array_equal(a.calib, b.calib)

    def test_split_partitions_units(self):
        # every split puts int(calib_frac * N) units in calibration, the rest in test
        batches, y = exchangeable_fixture(101)
        res = repeat_splits(batches, y, self.spec())
        assert res.calib.shape == (10, 101)
        np.testing.assert_array_equal(res.calib.sum(axis=1), np.full(10, 50))

    def test_marginal_coverage_sanity(self):
        batches, y = exchangeable_fixture(1000, seed=11)
        res = repeat_splits(batches, y, self.spec(alpha=0.10))
        assert res.test_coverage[0] >= 0.90 - 0.02

    def test_alpha_monotonicity_fixed_split(self):
        batches, y = exchangeable_fixture(300, seed=21)
        wide = repeat_splits(batches, y, self.spec(alpha=0.05))
        narrow = repeat_splits(batches, y, self.spec(alpha=0.10))
        assert np.all(wide.width >= narrow.width - 1e-12)

    def test_empty_calibration(self):
        batches, y = exchangeable_fixture(30)
        with pytest.raises(DataError, match="leaves an empty calibration or test set at N=30"):
            repeat_splits(batches, y, self.spec(calib_frac=0.01))

    def test_rows_equal_splits_rebuilt_by_hand(self):
        batches, y = exchangeable_fixture(120)
        spec = self.spec()
        res = repeat_splits(batches, y, spec)
        q_lo, q_hi = np.array([column_bounds(col, spec.alpha) for col in batches.T]).T
        np.testing.assert_array_equal(res.q_lo, q_lo)
        np.testing.assert_array_equal(res.q_hi, q_hi)
        n_cal = int(spec.calib_frac * 120)
        for r in range(spec.repeats):
            calib_idx = np.sort(make_rng(spec.seed + r).permutation(120)[:n_cal])
            test_idx = np.setdiff1d(np.arange(120), calib_idx)
            q_hat, degenerate = calibrate(
                nonconformity(y[calib_idx], q_lo[calib_idx], q_hi[calib_idx]), spec.alpha)
            lo, hi = q_lo - q_hat, q_hi + q_hat
            covered = (y >= lo) & (y <= hi)
            assert (res.q_hat[r], res.degenerate[r]) == (q_hat, degenerate)
            np.testing.assert_array_equal(np.flatnonzero(res.calib[r]), calib_idx)
            np.testing.assert_array_equal(res.lo[r], lo)
            np.testing.assert_array_equal(res.hi[r], hi)
            np.testing.assert_array_equal(res.width[r], hi - lo)
            np.testing.assert_array_equal(res.covered[r], covered)
            assert res.test_coverage[r] == np.mean(covered[test_idx])

    @pytest.mark.parametrize("n_units, alpha", [(120, 0.10), (30, 0.05)])
    def test_offsets_equal_per_split_scores_with_ties(self, n_units, alpha):
        # rounded replicates and observations tie many scores, zeros included;
        # at N=30 each split's 15 calibration units are too few for alpha 0.05
        batches, y = exchangeable_fixture(n_units)
        batches, y = np.round(batches), np.round(y)
        spec = self.spec(alpha=alpha)
        res = repeat_splits(batches, y, spec)
        q_lo, q_hi = _raw_bounds(batches, alpha)
        for r, row in enumerate(res.calib):
            q_hat, degenerate = calibrate(nonconformity(y[row], q_lo[row], q_hi[row]), alpha)
            assert (res.q_hat[r], res.degenerate[r]) == (q_hat, degenerate)
        assert res.degenerate.all() == (n_units == 30)

    def test_shape_mismatch_is_config_error(self):
        batches, y = exchangeable_fixture(50)
        with pytest.raises(ConfigError, match="matching y_obs length"):
            repeat_splits(batches, y[:-1], self.spec())
        with pytest.raises(ConfigError, match="matching y_obs length"):
            repeat_splits(batches[0], y, self.spec())


class TestCoverageAdaptivity:
    """Per-unit coverage is the share of splits that cover a unit, and its
    adaptivity the mean calibrated width, as the conformal stage writes them."""

    def test_all_covered(self):
        batches, y = exchangeable_fixture(80)
        res = repeat_splits(batches, y, BatchSpec(
            n_total=800, n_batches=800, batch_size=10, alpha=0.10,
            calib_frac=0.5, seed=5))
        res = replace(res, q_lo=np.full(80, y.min() - 1.0), q_hi=np.full(80, y.max() + 1.0))
        assert six_number(res.covered.mean(axis=0)) == six_number(np.ones(80))

    def test_constant_widths(self):
        y = np.zeros(10)
        batches = np.zeros((50, 10))
        res = repeat_splits(batches, y, BatchSpec(
            n_total=50, n_batches=50, batch_size=5, alpha=0.10,
            calib_frac=0.5, seed=5))
        summary = six_number(res.width.mean(axis=0))
        w = float(res.width[0, 0])
        assert summary.min == summary.max == w

    def test_repeats_give_fractional_coverage(self):
        batches, y = exchangeable_fixture(120, seed=2)
        spec = BatchSpec(n_total=800, n_batches=800, batch_size=10, alpha=0.10,
                         calib_frac=0.5, seed=3, repeats=8)
        splits = repeat_splits(batches, y, spec)
        assert splits.q_hat.shape == (8,)
        assert splits.covered.shape == (8, 120)
        coverage = splits.covered.mean(axis=0)
        assert np.all((coverage >= 0) & (coverage <= 1))
        multiples = np.round(coverage * 8)
        np.testing.assert_allclose(coverage * 8, multiples, atol=1e-12)

    def test_quantiles_match_sort_oracle(self, rng):
        values = rng.normal(size=41)
        got = six_number(values)
        # independent interpolation oracle
        x = np.sort(values)
        n = x.shape[0]

        def interp(p):
            pos = p * (n - 1)
            lo = int(np.floor(pos))
            hi = int(np.ceil(pos))
            frac = pos - lo
            return x[lo] * (1 - frac) + x[hi] * frac

        assert got.q1 == pytest.approx(interp(0.25), abs=1e-12)
        assert got.median == pytest.approx(interp(0.5), abs=1e-12)
        assert got.q3 == pytest.approx(interp(0.75), abs=1e-12)
        assert got.min == x[0] and got.max == x[-1]
        assert got.mean == pytest.approx(values.mean(), abs=1e-12)


class TestBatchSpecValidation:
    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            BatchSpec(alpha=0.0)

    def test_batch_size_exceeds_total(self):
        with pytest.raises(ConfigError):
            BatchSpec(n_total=10, batch_size=11)

    def test_defaults_are_full_scale(self):
        spec = BatchSpec()
        assert (spec.n_total, spec.n_batches, spec.batch_size) == (50_000, 10_000, 200)
        assert spec.alpha == 0.05
