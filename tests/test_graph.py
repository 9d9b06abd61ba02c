import numpy as np
import pytest

from conftest import dense_coupling, make_clique_graph, tiny_dataset
from softspin.energy import EnergyModel, delta_h
from softspin.graph import GroupSums, build_graph, spectrum_extremes


class TestBuildGraph:
    def test_all_distinct_profiles_edgeless(self):
        profiles = [(1, 1, 1, 0, 1), (2, 1, 1, 0, 1), (3, 1, 1, 0, 1)]
        g = build_graph(tiny_dataset(profiles, [5, 6, 7]))
        assert g.n_groups == 3
        assert np.all(g.group_sizes == 1)
        assert np.all(g.degrees() == 0)

    def test_all_identical_single_clique(self):
        profiles = [(1, 2, 3, 0, 1)] * 5
        g = build_graph(tiny_dataset(profiles, [1] * 5))
        assert g.n_groups == 1
        assert np.all(g.degrees() == 4)

    def test_aab_exactly_one_edge(self):
        profiles = [(1, 1, 1, 0, 1), (1, 1, 1, 0, 1), (2, 2, 2, 1, 3)]
        d = tiny_dataset(profiles, [1, 2, 3])
        g = build_graph(d)
        # brute-force pairwise oracle over profile equality
        j_oracle = np.zeros((3, 3))
        for a in range(3):
            for b in range(3):
                if a != b and profiles[a] == profiles[b]:
                    j_oracle[a, b] = 1.0
        np.testing.assert_array_equal(dense_coupling(g), j_oracle)
        assert j_oracle.sum() == 2  # one undirected edge

    def test_degree_sum_identity(self):
        g = make_clique_graph([3, 5, 1, 2])
        total = (g.group_sizes * (g.group_sizes - 1)).sum()
        assert g.degrees().sum() == total
        for i in range(g.n):
            assert g.degree(i) == g.group_sizes[g.group_of[i]] - 1


class TestNeighborSum:
    """Neighbor sums read from the group-sum cache, against the dense oracle."""

    def test_singleton_zero(self):
        g = make_clique_graph([1, 2])
        s = np.array([4.0, 1.0, 2.0])
        sums = GroupSums(g, s)
        assert sums.sums[g.group_of[0]] - s[0] == 0.0

    def test_clique_hand_value(self):
        g = make_clique_graph([3])
        s = np.array([2.0, 3.0, 5.0])
        sums = GroupSums(g, s)
        assert sums.sums[g.group_of[0]] - s[0] == 8.0

    def test_cached_updates_match_bruteforce(self, rng):
        g = make_clique_graph([4, 7, 1, 12, 2])
        n = g.n
        j = dense_coupling(g)
        h = rng.normal(size=n)
        model = EnergyModel(g, h, lambda_reg=1.3)

        def dense_energy(x):
            return -0.5 * x @ j @ x - h @ x + 0.5 * model.lambda_reg * x @ x

        s = rng.normal(size=n)
        sums = GroupSums(g, s)
        for _ in range(1000):
            i = int(rng.integers(0, n))
            new = float(rng.normal())
            sums.sums[g.group_of[i]] += new - s[i]  # the samplers' in-place update
            s[i] = new
            q = int(rng.integers(0, n))
            s_new = float(rng.normal())
            moved = s.copy()
            moved[q] = s_new
            oracle = dense_energy(moved) - dense_energy(s)
            got = delta_h(model, s, q, s_new, sums)
            assert got == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_recompute_aligns_cache(self, rng):
        g = make_clique_graph([5, 5])
        s = rng.normal(size=g.n)
        sums = GroupSums(g, rng.normal(size=g.n))
        sums.recompute(s)
        np.testing.assert_allclose(
            sums.sums[g.group_of] - s, dense_coupling(g) @ s, rtol=1e-12, atol=1e-12
        )


class TestSpectrum:
    def test_single_clique(self):
        assert spectrum_extremes(make_clique_graph([4])) == (3.0, -1.0)

    def test_edgeless(self):
        assert spectrum_extremes(make_clique_graph([1, 1, 1])) == (0.0, 0.0)

    def test_two_cliques_with_dense_oracle(self):
        g = make_clique_graph([3, 5])
        lam_max, lam_min = spectrum_extremes(g)
        w = np.linalg.eigvalsh(dense_coupling(g))
        assert lam_max == pytest.approx(w.max(), abs=1e-10)
        assert lam_min == pytest.approx(w.min(), abs=1e-10)
        assert (lam_max, lam_min) == (4.0, -1.0)

    def test_nonconvexity_condition(self):
        g = make_clique_graph([2, 1, 1])
        lam_max, lam_min = spectrum_extremes(g)
        assert lam_min < 0 < lam_max

    def test_mixed_sizes_oracle(self, rng):
        sizes = [1, 2, 6, 3, 1]
        g = make_clique_graph(sizes)
        w = np.linalg.eigvalsh(dense_coupling(g))
        lam_max, lam_min = spectrum_extremes(g)
        assert lam_max == pytest.approx(w.max(), abs=1e-10)
        assert lam_min == pytest.approx(w.min(), abs=1e-10)
