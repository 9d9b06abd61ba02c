import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softspin.data import synth_dataset
from softspin.errors import DataError
from softspin.indices import (
    Direction,
    build_composites,
    external_field,
    mpi,
    pca,
    standardize,
)


class TestStandardize:
    def test_mean_and_sd(self):
        out = standardize([1.0, 2.0, 3.0], 1)
        assert out.mean() == pytest.approx(100.0, abs=1e-9)
        assert out.std(ddof=1) == pytest.approx(10.0, abs=1e-9)

    def test_polarity_flip_reflects_around_100(self):
        x = [1.0, 2.0, 3.0]
        plus = standardize(x, 1)
        minus = standardize(x, -1)
        np.testing.assert_allclose(minus, 200.0 - plus, atol=1e-12)

    def test_population_sd_hand_values(self):
        # mu=5, sigma=sqrt(5): 10*(x-5)/sqrt(5) + 100
        out = standardize([2.0, 4.0, 6.0, 8.0], 1, ddof=0)
        expected = 10.0 * (np.array([2.0, 4.0, 6.0, 8.0]) - 5.0) / math.sqrt(5.0) + 100.0
        np.testing.assert_allclose(out, expected, atol=1e-12)
        np.testing.assert_allclose(
            out, [86.5836, 95.5279, 104.4721, 113.4164], atol=5e-5
        )

    def test_zero_variance(self):
        with pytest.raises(DataError, match="zero variance in 'column'"):
            standardize([3.0, 3.0, 3.0], 1)

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=30),
        st.floats(0.1, 50),
        st.floats(-100, 100, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_equivariance(self, xs, a, b):
        x = np.array(xs)
        if x.std(ddof=1) < 1e-6:
            return
        base = standardize(x, 1)
        shifted = standardize(a * x + b, 1)
        np.testing.assert_allclose(shifted, base, atol=1e-6)


class TestMPI:
    def test_single_indicator_equals_z(self):
        z = standardize([5.0, 7.0, 9.0, 4.0], 1)
        np.testing.assert_allclose(mpi(z.reshape(-1, 1)), z, atol=1e-12)

    def test_sample_sd_hand_value(self):
        # row (90, 110): mean 100, sample variance 200 -> 100 - 200/100 = 98
        out = mpi(np.array([[90.0, 110.0]]), Direction.NEGATIVE)
        assert out[0] == pytest.approx(98.0, abs=1e-12)
        out_pos = mpi(np.array([[90.0, 110.0]]), Direction.POSITIVE)
        assert out_pos[0] == pytest.approx(102.0, abs=1e-12)

    def test_balanced_row_is_direction_free(self):
        row = np.array([[105.0, 105.0, 105.0]])
        assert mpi(row, Direction.NEGATIVE)[0] == pytest.approx(105.0)
        assert mpi(row, Direction.POSITIVE)[0] == pytest.approx(105.0)

    def test_degenerate_row(self):
        with pytest.raises(DataError, match="standardized profile mean is zero at row 0"):
            mpi(np.array([[1.0, -1.0]]))

    def test_formula_oracle_random(self, rng):
        z = rng.normal(100, 10, size=(50, 4))
        got = mpi(z, Direction.NEGATIVE)
        m = z.mean(axis=1)
        s2 = z.var(axis=1, ddof=1)
        np.testing.assert_allclose(got, m - s2 / m, atol=1e-10)


class TestCorrelation:
    def test_diagonal_and_duplicates(self, rng):
        x = rng.normal(size=(100, 3))
        x = np.column_stack([x, x[:, 0]])  # duplicated column pair
        r = pca(x).correlation
        np.testing.assert_array_equal(np.diag(r), np.ones(4))
        assert r[0, 3] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(r, r.T, atol=0)

    def test_independent_columns_weak(self):
        x = np.random.default_rng(77).normal(size=(100, 2))
        r = pca(x).correlation
        assert abs(r[0, 1]) < 0.3

    def test_oracle_against_numpy(self, rng):
        x = rng.normal(size=(60, 5))
        np.testing.assert_allclose(
            pca(x).correlation, np.corrcoef(x, rowvar=False), atol=1e-12
        )

    def test_zero_variance_column(self, rng):
        x = rng.normal(size=(50, 2))
        x[:, 1] = 4.2
        with pytest.raises(DataError, match="zero variance in 'C2'"):
            pca(x)


def _random_composites(rng, n=200, k=6):
    base = rng.normal(size=(n, k))
    base[:, k - 1] = base[:, 0]  # exact collinearity
    return base


class TestPCA:
    def test_duplicated_column_gives_zero_eigenvalue(self, rng):
        x = _random_composites(rng)
        p = pca(x)
        assert p.eigenvalues[-1] <= 1e-8
        assert p.proportions[-1] <= 1e-8
        assert abs(p.proportions.sum() - 1.0) <= 1e-10

    def test_descending_order_and_nonnegative(self, rng):
        p = pca(rng.normal(size=(100, 5)))
        assert np.all(np.diff(p.eigenvalues) <= 1e-12)
        assert np.all(p.eigenvalues >= 0)

    def test_identity_covariance_proportions(self):
        x = np.random.default_rng(4).normal(size=(10000, 4))
        p = pca(x)
        np.testing.assert_allclose(p.proportions, 0.25, atol=0.05)

    def test_scores_centered_uncorrelated_reconstruct(self, rng):
        x = rng.normal(size=(150, 5)) @ rng.normal(size=(5, 5))
        p = pca(x)
        assert np.max(np.abs(p.scores.mean(axis=0))) <= 1e-9
        cov = p.scores.T @ p.scores / (x.shape[0] - 1)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 1e-8
        z = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
        np.testing.assert_allclose(p.scores @ p.loadings.T, z, atol=1e-8)
        # score variances match eigenvalues
        np.testing.assert_allclose(np.diag(cov), p.eigenvalues, atol=1e-8)

    def test_sign_convention(self, rng):
        p = pca(rng.normal(size=(80, 4)))
        for j in range(4):
            lead = np.argmax(np.abs(p.loadings[:, j]))
            assert p.loadings[lead, j] >= 0

    def test_matches_numpy_eigh_oracle(self, rng):
        x = rng.normal(size=(120, 6))
        p = pca(x)
        z = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
        r = np.corrcoef(x, rowvar=False)
        w_ref = np.sort(np.linalg.eigvalsh(r))[::-1]
        np.testing.assert_allclose(p.eigenvalues, w_ref, atol=1e-9)

    def test_needs_more_rows_than_columns(self, rng):
        with pytest.raises(DataError):
            pca(rng.normal(size=(4, 6)))


class TestExternalField:
    def test_equal_eigenvalues_average_scores(self, rng):
        p = pca(np.random.default_rng(11).normal(size=(5000, 4)))
        # force exactly equal eigenvalues to isolate the weighting rule
        p.eigenvalues = np.ones(4)
        h = external_field(p)
        np.testing.assert_allclose(h, p.scores.mean(axis=1), atol=1e-12)

    def test_single_nonzero_eigenvalue(self, rng):
        p = pca(rng.normal(size=(50, 3)))
        p.eigenvalues = np.array([2.5, 0.0, 0.0])
        h = external_field(p)
        np.testing.assert_allclose(h, p.scores[:, 0], atol=1e-12)

    def test_weights_sum_to_one(self, rng):
        p = pca(rng.normal(size=(60, 5)))
        # untruncated, the weights are the eigenvalue proportions
        np.testing.assert_allclose(external_field(p), p.scores @ p.proportions, atol=1e-12)

    def test_reported_proportions_from_component_sds(self):
        # weights from the published component standard deviations:
        # squared sds normalized over K=6 reproduce the reported proportions
        sds = np.array([1.7000, 1.0864, 0.9722, 0.8103, 0.5725, 0.0000])
        eig = sds**2
        proportions = eig / eig.sum()
        np.testing.assert_allclose(
            proportions, [0.4817, 0.1967, 0.1575, 0.1094, 0.0546, 0.0000], atol=1e-4
        )

    def test_truncation_renormalizes(self, rng):
        p = pca(rng.normal(size=(60, 5)))
        h = external_field(p, n_components=2)
        w = p.eigenvalues[:2] / p.eigenvalues[:2].sum()
        np.testing.assert_allclose(h, p.scores[:, :2] @ w, atol=1e-12)

    def test_zero_weight_component_contributes_nothing(self, rng):
        x = _random_composites(rng)
        p = pca(x)
        h = external_field(p)
        # dropping the zero-eigenvalue component changes nothing
        w = p.eigenvalues[:-1] / p.eigenvalues.sum()
        np.testing.assert_allclose(h, p.scores[:, :-1] @ w, atol=1e-8)


class TestBuildComposites:
    def test_group_structure_and_directions(self):
        d = synth_dataset(120, seed=21)
        values, names = build_composites(d)
        assert values.shape == (120, 6)
        assert names == ("MPI1", "MPI2", "MPI3", "MPI4", "MPI5", "MPI6")
        # every group defaults to the negative direction
        negative, _ = build_composites(d, directions={g: Direction.NEGATIVE for g in names})
        np.testing.assert_array_equal(values, negative)

    def test_direction_override(self):
        d = synth_dataset(80, seed=22)
        neg, names = build_composites(d)
        pos, _ = build_composites(d, directions={"MPI5": Direction.POSITIVE})
        k = names.index("MPI5")
        m = np.column_stack(
            [neg[:, k], pos[:, k]]
        )
        # positive direction adds the penalty instead of subtracting it
        assert np.all(m[:, 1] >= m[:, 0] - 1e-12)
