import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softspin.conformal import (
    BatchSpec,
    batch_means,
    calibrate,
    conformal_intervals,
    coverage_adaptivity,
    empirical_quantiles,
    nonconformity,
    repeat_splits,
    six_number,
)
from softspin.errors import ConfigError, EmptyCalibration, InsufficientPool
from softspin.sampler import make_rng


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
        pool = rng.normal(size=(300, 5))
        spec = BatchSpec(n_total=300, n_batches=101, batch_size=25, seed=4)
        stream = make_rng(spec.seed)  # draw, then average, one batch at a time
        serial = np.array([pool[stream.integers(0, 300, size=25)].mean(axis=0)
                           for _ in range(101)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for workers in (1, 2, 3):
                out = batch_means(pool, spec, workers=workers)
                np.testing.assert_array_equal(out.view(np.uint64), serial.view(np.uint64))
        finally:
            sys.setswitchinterval(interval)

    def test_insufficient_pool(self, rng):
        spec = BatchSpec(n_total=100, n_batches=5, batch_size=50, seed=0)
        with pytest.raises(InsufficientPool):
            batch_means(rng.normal(size=(10, 2)), spec)


class TestEmpiricalQuantiles:
    def test_constant_column(self):
        lo, hi = empirical_quantiles(np.full(40, 7.0), 0.1)
        assert lo == hi == 7.0

    def test_order_statistic_indices(self):
        lo, hi = empirical_quantiles(np.arange(1, 101, dtype=float), 0.10)
        assert (lo, hi) == (5.0, 95.0)

    def test_small_alpha_uses_extremes(self):
        x = np.arange(1, 11, dtype=float)
        lo, hi = empirical_quantiles(x, 1e-9)
        assert (lo, hi) == (1.0, 10.0)

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=60),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_ordering(self, xs, alpha):
        lo, hi = empirical_quantiles(np.array(xs), alpha)
        assert lo <= hi


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
        assert calibrate(np.zeros(50), 0.1).q_hat == 0.0

    def test_order_index_99(self):
        scores = np.arange(1.0, 100.0)  # 1..99
        cal = calibrate(scores, 0.10)
        assert cal.order_index == 90
        assert cal.q_hat == 90.0
        assert not cal.degenerate

    def test_order_index_ten(self):
        cal = calibrate(np.arange(1.0, 11.0), 0.5)
        assert cal.order_index == 6
        assert cal.q_hat == 6.0

    def test_degenerate_small_sample(self):
        cal = calibrate(np.array([1.0, 2.0, 3.0]), 0.05)
        assert cal.degenerate
        assert cal.q_hat == 3.0

    def test_empty(self):
        with pytest.raises(EmptyCalibration):
            calibrate(np.array([]), 0.1)


class TestConformalIntervals:
    def spec(self, **kw):
        base = dict(n_total=800, n_batches=800, batch_size=10, alpha=0.10,
                    calib_frac=0.5, seed=5, repeats=10)
        base.update(kw)
        return BatchSpec(**base)

    def test_additive_widening(self):
        batches, y = exchangeable_fixture(200)
        res = conformal_intervals(batches, y, self.spec())
        np.testing.assert_allclose(res.lo, res.q_lo - res.q_hat, atol=1e-12)
        np.testing.assert_allclose(res.hi, res.q_hi + res.q_hat, atol=1e-12)
        np.testing.assert_allclose(
            res.width, (res.q_hi - res.q_lo) + 2.0 * res.q_hat, atol=1e-12
        )

    def test_deterministic(self):
        batches, y = exchangeable_fixture(150)
        a = conformal_intervals(batches, y, self.spec())
        b = conformal_intervals(batches, y, self.spec())
        np.testing.assert_array_equal(a.lo, b.lo)
        np.testing.assert_array_equal(a.covered, b.covered)
        np.testing.assert_array_equal(a.calib_idx, b.calib_idx)

    def test_split_partitions_units(self):
        batches, y = exchangeable_fixture(101)
        res = conformal_intervals(batches, y, self.spec())
        together = np.sort(np.concatenate([res.calib_idx, res.test_idx]))
        np.testing.assert_array_equal(together, np.arange(101))

    def test_marginal_coverage_sanity(self):
        batches, y = exchangeable_fixture(1000, seed=11)
        res = conformal_intervals(batches, y, self.spec(alpha=0.10))
        assert res.test_coverage >= 0.90 - 0.02

    def test_alpha_monotonicity_fixed_split(self):
        batches, y = exchangeable_fixture(300, seed=21)
        wide = conformal_intervals(batches, y, self.spec(alpha=0.05))
        narrow = conformal_intervals(batches, y, self.spec(alpha=0.10))
        assert np.all(wide.width >= narrow.width - 1e-12)

    def test_empty_calibration(self):
        batches, y = exchangeable_fixture(30)
        with pytest.raises(EmptyCalibration):
            conformal_intervals(batches, y, self.spec(calib_frac=0.01))

    def test_equals_first_repeated_split(self):
        batches, y = exchangeable_fixture(120)
        one = conformal_intervals(batches, y, self.spec())
        first = repeat_splits(batches, y, self.spec())[0]
        for name in ("q_lo", "q_hi", "lo", "hi", "covered", "calib_idx", "test_idx"):
            np.testing.assert_array_equal(getattr(one, name), getattr(first, name))
        assert (one.q_hat, one.degenerate, one.alpha) == (
            first.q_hat, first.degenerate, first.alpha)

    def test_shape_mismatch_is_config_error(self):
        batches, y = exchangeable_fixture(50)
        with pytest.raises(ConfigError, match="matching y_obs length"):
            repeat_splits(batches, y[:-1], self.spec())
        with pytest.raises(ConfigError, match="matching y_obs length"):
            repeat_splits(batches[0], y, self.spec())


class TestCoverageAdaptivity:
    def test_all_covered(self):
        batches, y = exchangeable_fixture(80)
        res = conformal_intervals(batches, y, BatchSpec(
            n_total=800, n_batches=800, batch_size=10, alpha=0.10,
            calib_frac=0.5, seed=5))
        res.lo[:] = y.min() - 1.0
        res.hi[:] = y.max() + 1.0
        summary = coverage_adaptivity(res)
        assert summary.coverage_summary == six_number(np.ones(80))

    def test_constant_widths(self):
        y = np.zeros(10)
        batches = np.zeros((50, 10))
        res = conformal_intervals(batches, y, BatchSpec(
            n_total=50, n_batches=50, batch_size=5, alpha=0.10,
            calib_frac=0.5, seed=5))
        summary = coverage_adaptivity(res)
        w = float(res.width[0])
        assert summary.adaptivity_summary.min == summary.adaptivity_summary.max == w

    def test_repeats_give_fractional_coverage(self):
        batches, y = exchangeable_fixture(120, seed=2)
        spec = BatchSpec(n_total=800, n_batches=800, batch_size=10, alpha=0.10,
                         calib_frac=0.5, seed=3, repeats=8)
        splits = repeat_splits(batches, y, spec)
        assert len(splits) == 8
        summary = coverage_adaptivity(splits)
        assert np.all((summary.coverage >= 0) & (summary.coverage <= 1))
        multiples = np.round(summary.coverage * 8)
        np.testing.assert_allclose(summary.coverage * 8, multiples, atol=1e-12)

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
