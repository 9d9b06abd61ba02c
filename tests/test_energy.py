import numpy as np
import pytest

from conftest import dense_coupling, make_clique_graph
from softspin.energy import (
    EnergyModel,
    SpinConfiguration,
    delta_h,
    energy_ratio,
    grad,
    hamiltonian,
    log_likelihood_ratio,
)
from softspin.errors import DataError
from softspin.graph import GroupSums


def dense_hamiltonian(model, s):
    """Oracle: evaluate the energy from the explicit coupling matrix."""
    j = dense_coupling(model.graph)
    s = np.asarray(s, dtype=float)
    return (
        -0.5 * float(s @ j @ s)
        - float(model.field @ s)
        + 0.5 * model.lambda_reg * float(s @ s)
    )


def random_model(rng, sizes=None, lam=None):
    sizes = sizes if sizes is not None else rng.integers(1, 6, size=5).tolist()
    g = make_clique_graph(sizes)
    h = rng.normal(size=g.n)
    lam = lam if lam is not None else float(rng.uniform(0.5, 3.0))
    return EnergyModel(g, h, lambda_reg=lam)


class TestHamiltonian:
    def test_zero_configuration(self, rng):
        model = random_model(rng)
        assert hamiltonian(model, np.zeros(model.graph.n)) == 0.0

    def test_two_clique_hand_value(self):
        g = make_clique_graph([2])
        model = EnergyModel(g, np.array([1.0, -1.0]), lambda_reg=0.5)
        # ordered pairs: -1 ; field: 0 ; penalty: +0.5
        assert hamiltonian(model, np.array([1.0, 1.0])) == pytest.approx(-0.5)

    def test_edgeless_decoupled_quadratic(self, rng):
        g = make_clique_graph([1, 1, 1, 1])
        h = rng.normal(size=4)
        lam = 2.0
        model = EnergyModel(g, h, lambda_reg=lam)
        s = rng.normal(size=4)
        expected = float(np.sum(-h * s + 0.5 * lam * s * s))
        assert hamiltonian(model, s) == pytest.approx(expected, rel=1e-12)
        # minimized exactly at s = h / lambda
        s_star = h / lam
        assert np.max(np.abs(grad(model, s_star))) <= 1e-12
        assert hamiltonian(model, s_star) <= hamiltonian(model, s_star + 1e-3)

    def test_matches_dense_oracle(self, rng):
        for _ in range(20):
            model = random_model(rng)
            s = rng.normal(size=model.graph.n)
            assert hamiltonian(model, s) == pytest.approx(
                dense_hamiltonian(model, s), rel=1e-10, abs=1e-10
            )

    def test_group_permutation_invariance(self, rng):
        g = make_clique_graph([4, 3])
        model = EnergyModel(g, np.ones(7), lambda_reg=1.0)
        s = rng.normal(size=7)
        h0 = hamiltonian(model, s)
        perm = np.array([2, 0, 1, 3, 5, 6, 4])  # permutes within each clique
        assert hamiltonian(model, s[np.argsort(perm)]) == pytest.approx(h0, rel=1e-12)

    def test_accepts_spin_configuration(self, rng):
        model = random_model(rng)
        s = rng.normal(size=model.graph.n)
        cfg = SpinConfiguration(s)
        assert hamiltonian(model, cfg) == hamiltonian(model, s)

    def test_row_equals_plain_dot_products(self, rng):
        # the same operations, in the same order, as x @ x on one row
        model = random_model(rng, sizes=[9, 1, 40, 3, 17, 250, 1000])
        for _ in range(20):
            s = rng.normal(size=model.graph.n) * 30
            g = GroupSums(model.graph, s).sums
            pair = float(g @ g) - float(s @ s)
            expected = (-0.5 * pair - float(model.field @ s)
                        + 0.5 * model.lambda_reg * float(s @ s))
            assert hamiltonian(model, s) == expected

    @pytest.mark.parametrize("with_sums", [False, True], ids=["fresh", "cache"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stack_equals_each_row(self, rng, k, with_sums):
        model = random_model(rng, sizes=[9, 1, 40, 3, 17, 250, 1000])
        stack = rng.normal(size=(k, model.graph.n)) * 30
        energies = hamiltonian(model, stack,
                               GroupSums(model.graph, stack) if with_sums else None)
        assert energies.shape == (k,)
        for row, energy in zip(stack, energies):
            one = hamiltonian(model, row, GroupSums(model.graph, row) if with_sums else None)
            assert type(one) is float
            assert energy == one

    @pytest.mark.parametrize("shape", [(7,), (2, 7), (2, 2, 8)])
    def test_shape_checked(self, shape):
        model = EnergyModel(make_clique_graph([3, 5]), np.ones(8))
        with pytest.raises(DataError):
            hamiltonian(model, np.zeros(shape))


class TestDeltaH:
    def test_noop_is_zero(self, rng):
        model = random_model(rng)
        s = rng.normal(size=model.graph.n)
        assert delta_h(model, s, 2, float(s[2])) == 0.0

    def test_matches_full_recompute(self, rng):
        model = random_model(rng, sizes=[5, 3, 1, 8])
        n = model.graph.n
        s = rng.normal(size=n)
        sums = GroupSums(model.graph, s)
        for _ in range(1000):
            i = int(rng.integers(0, n))
            s_new = float(rng.normal())
            d = delta_h(model, s, i, s_new, sums)
            before = hamiltonian(model, s)
            s2 = s.copy()
            s2[i] = s_new
            after = hamiltonian(model, s2)
            assert d == pytest.approx(after - before, rel=1e-9, abs=1e-9)
            sums.sums[model.graph.group_of[i]] += s_new - s[i]
            s = s2

    def test_with_and_without_cache_agree_exactly(self, rng):
        # groups of 8 or more, where numpy's pairwise sum of the members
        # would round differently from the cache's running sum
        model = random_model(rng, sizes=[8, 13, 21, 9, 40])
        for _ in range(20):
            s = rng.normal(size=model.graph.n) * 30
            sums = GroupSums(model.graph, s)
            for i in range(model.graph.n):
                s_new = float(rng.normal()) * 30
                assert delta_h(model, s, i, s_new) == delta_h(model, s, i, s_new, sums)

    def test_edgeless_closed_form(self, rng):
        g = make_clique_graph([1, 1])
        h = np.array([0.7, -0.2])
        model = EnergyModel(g, h, lambda_reg=1.5)
        s = np.array([0.3, 0.4])
        s_new = 0.9
        expected = -h[0] * (s_new - 0.3) + 0.75 * (s_new**2 - 0.3**2)
        assert delta_h(model, s, 0, s_new) == pytest.approx(expected, rel=1e-12)

    def test_cumulative_drift_small(self, rng):
        # sum of increments vs full recompute after many accepted updates
        model = random_model(rng, sizes=[10, 20, 5, 1], lam=1.0)
        n = model.graph.n
        s = rng.uniform(-1, 1, size=n)
        sums = GroupSums(model.graph, s)
        energy = hamiltonian(model, s)
        for _ in range(10_000):
            i = int(rng.integers(0, n))
            s_new = float(rng.uniform(-1, 1))
            energy += delta_h(model, s, i, s_new, sums)
            sums.sums[model.graph.group_of[i]] += s_new - s[i]
            s[i] = s_new
        assert abs(energy - hamiltonian(model, s)) <= 1e-9


class TestGrad:
    def test_zero_configuration_gives_minus_field(self, rng):
        model = random_model(rng)
        np.testing.assert_allclose(
            grad(model, np.zeros(model.graph.n)), -model.field, atol=0
        )

    def test_stationarity_condition(self, rng):
        model = random_model(rng, sizes=[3, 2], lam=10.0)
        j = dense_coupling(model.graph)
        s_star = np.linalg.solve(
            model.lambda_reg * np.eye(model.graph.n) - j, model.field
        )
        assert np.max(np.abs(grad(model, s_star))) <= 1e-10

    def test_finite_differences(self, rng):
        model = random_model(rng, sizes=[4, 6, 2])
        n = model.graph.n
        s = rng.normal(size=n)
        g = grad(model, s)
        step = 1e-5
        for i in range(n):
            sp, sm = s.copy(), s.copy()
            sp[i] += step
            sm[i] -= step
            fd = (hamiltonian(model, sp) - hamiltonian(model, sm)) / (2 * step)
            assert abs(fd - g[i]) / max(1.0, abs(fd)) <= 1e-6

    def test_matches_dense_oracle(self, rng):
        model = random_model(rng)
        s = rng.normal(size=model.graph.n)
        j = dense_coupling(model.graph)
        expected = -j @ s - model.field + model.lambda_reg * s
        np.testing.assert_allclose(grad(model, s), expected, atol=1e-12)


class TestRatios:
    def test_energy_ratio(self):
        assert energy_ratio(5.0, 5.0) == 1.0
        assert energy_ratio(2.5, 5.0) == 0.5
        with pytest.raises(ZeroDivisionError):
            energy_ratio(1.0, 0.0)

    def test_log_likelihood_ratio(self):
        assert log_likelihood_ratio(5.0, 5.0, 1.0) == 0.0
        assert log_likelihood_ratio(8.0, 10.0, 2.0) == pytest.approx(1.0)
        assert log_likelihood_ratio(4.0, 10.0, 3.0) > 0  # lower energy, more probable
        with pytest.raises(DataError):
            log_likelihood_ratio(1.0, 2.0, 0.0)

    def test_ratios_on_arrays(self):
        h = np.array([8.0, 4.0])
        np.testing.assert_array_equal(energy_ratio(h, 10.0), [0.8, 0.4])
        np.testing.assert_array_equal(
            log_likelihood_ratio(h, 10.0, np.array([2.0, 3.0])), [1.0, 2.0]
        )
        with pytest.raises(DataError):  # one non-positive temperature is enough
            log_likelihood_ratio(h, 10.0, np.array([2.0, 0.0]))


class TestModelValidation:
    def test_field_length_checked(self):
        g = make_clique_graph([2])
        with pytest.raises(DataError):
            EnergyModel(g, np.array([1.0]), lambda_reg=1.0)

    def test_lambda_positive(self):
        g = make_clique_graph([2])
        with pytest.raises(DataError):
            EnergyModel(g, np.zeros(2), lambda_reg=0.0)

    def test_external_field_unwrapped(self, rng):
        from softspin.indices import external_field, pca

        p = pca(rng.normal(size=(30, 3)))
        h = external_field(p)
        g = make_clique_graph([10, 10, 10])
        model = EnergyModel(g, h, lambda_reg=1.0)
        np.testing.assert_array_equal(model.field, h)
