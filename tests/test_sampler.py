import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2
from scipy.stats import f as f_dist

from conftest import dense_coupling, make_clique_graph
from softspin import sampler
from softspin.data import synth_dataset
from softspin.energy import EnergyModel, SpinConfiguration, grad, hamiltonian
from softspin.errors import ConfigError
from softspin.graph import GroupSums, build_graph, spectrum_extremes
from softspin.indices import build_composites, external_field, pca
from softspin.sampler import (
    METROPOLIS_BLOCK,
    AnnealingSchedule,
    ChainConfig,
    Engine,
    init_state,
    make_rng,
    metropolis_kernel,
    metropolis_step,
    run_chain,
    run_chains,
    run_parallel,
)


def quadratic_model(h=0.5, lam=1.0, n=1):
    g = make_clique_graph([1] * n)
    return EnergyModel(g, np.full(n, h), lambda_reg=lam)


def fixed_t(t, **kwargs):
    """Constant-temperature schedule (floor equals the start)."""
    return AnnealingSchedule(t0=t, cooling=0.5, t_min=t, **kwargs)


class FixedEtaRng:
    """Test double: fixed Gaussian perturbation, real uniforms and indices."""

    def __init__(self, eta, seed=0):
        self.eta = eta
        self.inner = make_rng(seed)

    def integers(self, lo, hi):
        return self.inner.integers(lo, hi)

    def standard_normal(self, size=None):
        if size is None:
            return self.eta
        return np.full(size, self.eta)

    def random(self):
        return self.inner.random()


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ConfigError):
            AnnealingSchedule(t0=0.0)
        with pytest.raises(ConfigError):
            AnnealingSchedule(cooling=1.0)
        with pytest.raises(ConfigError):
            AnnealingSchedule(t_min=2.0, t0=1.0)
        with pytest.raises(ConfigError):
            AnnealingSchedule(proposal_sd=0.0)

    def test_fixed_temperature_allowed(self):
        s = fixed_t(0.7)
        assert s.cooled(0.7) == 0.7

    def test_cooling_floors_at_t_min(self):
        s = AnnealingSchedule(t0=1.0, cooling=0.5, t_min=0.4)
        assert s.cooled(1.0) == 0.5
        assert s.cooled(0.5) == 0.4
        assert s.cooled(0.4) == 0.4


def one_spin_step(start, z, u, temperature=1.0, bounds=None):
    """One metropolis_step of a lone spin (h = 0, lambda = 1, so
    dH = (s'^2 - s^2) / 2) at ``start``, proposing ``start + z`` with
    uniform ``u``; returns whether it was accepted and the spin after it."""
    model = quadratic_model(h=0.0, lam=1.0)
    sched = fixed_t(1.0, proposal_sd=1.0)
    state = init_state(model, np.array([start]), sched, bounds)
    state.temperature = temperature
    accepted = metropolis_step(model, state, sched, ScriptedRng([(0, z, u)]))
    return accepted, state.s[0]


class TestReflect:
    def test_hand_cases(self):
        # u = 0 accepts every move whose dH is finite at T = 1
        assert one_spin_step(0.0, 1.2, 0.0, bounds=(-1.0, 1.0)) == (True, pytest.approx(0.8))
        assert one_spin_step(0.0, -1.3, 0.0, bounds=(-1.0, 1.0)) == (True, pytest.approx(-0.7))
        assert one_spin_step(0.0, 0.5, 0.0, bounds=(-1.0, 1.0)) == (True, 0.5)
        # 99 -> 103 -> 97 is downhill
        assert one_spin_step(99.0, 4.0, 0.0, bounds=(0.0, 100.0)) == (True, pytest.approx(97.0))

    @given(st.floats(-50, 50, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_lands_inside(self, x):
        accepted, y = one_spin_step(0.0, x, 0.0, bounds=(-1.0, 1.0))
        assert accepted and -1.0 <= y <= 1.0


class TestMetropolisStep:
    def test_downhill_always_accepted(self):
        model = quadratic_model(h=0.0, lam=1.0)
        sched = fixed_t(0.5, proposal_sd=0.3)
        # start far from the minimum; a move toward zero is downhill
        rng = FixedEtaRng(eta=-1.0, seed=4)
        state = init_state(model, np.array([2.0]), sched, None)
        accepted = metropolis_step(model, state, sched, rng)
        assert accepted
        assert state.s[0] == pytest.approx(1.7)  # 2.0 + (-1.0draw * 0.3)

    def test_accept_probability_contract(self):
        below_one = np.nextafter(1.0, 0.0)
        # dH = -1 and dH = 0: accepted whatever the uniform
        assert one_spin_step(1.5, -1.0, below_one, temperature=0.5) == (True, 0.5)
        assert one_spin_step(-0.5, 1.0, below_one, temperature=0.5) == (True, 0.5)
        # dH = ln 2 at T = 1: accepted with probability 0.5 (pytest.approx's 1e-6)
        z = math.sqrt(1.0 + 2.0 * math.log(2.0)) - 1.0
        assert one_spin_step(1.0, z, 0.5 * (1.0 - 1e-6))[0]
        assert not one_spin_step(1.0, z, 0.5 * (1.0 + 1e-6))[0]
        # dH = 1 at T = 0: rejected even with u = 0
        assert one_spin_step(0.5, 1.0, 0.0, temperature=0.0) == (False, 0.5)

    def test_acceptance_frequency_at_known_delta(self):
        # engineered proposal with dH = T ln 2 -> acceptance probability 1/2
        t = 1.0
        model = quadratic_model(h=0.0, lam=1.0)
        sched = fixed_t(t, proposal_sd=1.0)
        eta = math.sqrt(1.0 + 2.0 * t * math.log(2.0)) - 1.0
        rng = FixedEtaRng(eta=eta, seed=99)
        accepted = 0
        trials = 100_000
        for _ in range(trials):
            state = init_state(model, np.array([1.0]), sched, None)
            d_check = 0.5 * ((1.0 + eta) ** 2 - 1.0)
            assert d_check == pytest.approx(t * math.log(2.0))
            accepted += metropolis_step(model, state, sched, rng)
        assert accepted / trials == pytest.approx(0.5, abs=0.01)

    def test_deterministic_sequence(self):
        model = quadratic_model(n=5)
        sched = AnnealingSchedule(t0=1.0, cooling=0.99, t_min=1e-3, proposal_sd=0.3)

        def trajectory(seed):
            rng = make_rng(seed)
            state = init_state(model, np.zeros(5), sched, (-1.0, 1.0))
            out = []
            for _ in range(500):
                acc = metropolis_step(model, state, sched, rng)
                out.append((acc, state.s.copy(), state.temperature))
            return out

        a, b = trajectory(42), trajectory(42)
        for (acc1, s1, t1), (acc2, s2, t2) in zip(a, b):
            assert acc1 == acc2 and t1 == t2
            np.testing.assert_array_equal(s1, s2)

    def test_on_accept_cooling_only_on_acceptance(self):
        model = quadratic_model(h=0.0, lam=1.0)
        sched = AnnealingSchedule(t0=1.0, cooling=0.9, t_min=1e-6, proposal_sd=0.5)
        rng = make_rng(3)
        state = init_state(model, np.array([0.0]), sched, None)
        cools = 0
        for _ in range(200):
            before = state.temperature
            acc = metropolis_step(model, state, sched, rng)
            if acc:
                assert state.temperature == pytest.approx(
                    max(sched.t_min, sched.cooling * before)
                )
                cools += 1
            else:
                assert state.temperature == before
        assert cools > 0

    def test_reflection_keeps_state_in_bounds(self):
        model = quadratic_model(h=0.0, lam=1.0)
        sched = fixed_t(2.0, proposal_sd=1.5)
        rng = make_rng(8)
        state = init_state(model, np.array([0.9]), sched, (-1.0, 1.0))
        for _ in range(2000):
            metropolis_step(model, state, sched, rng)
            assert -1.0 <= state.s[0] <= 1.0


class ScriptedRng:
    """Test double: hands out given (site, normal, uniform) triples in turn."""

    def __init__(self, triples):
        self.values = iter([v for triple in triples for v in triple])

    def integers(self, lo, hi):
        return next(self.values)

    def standard_normal(self):
        return next(self.values)

    def random(self):
        return next(self.values)


class TestMetropolisKernel:
    @pytest.mark.parametrize("t0, bounds", [
        (1.0, (-1.0, 1.0)), (1.0, None), (0.0, (-1.0, 1.0)),
    ])
    def test_list_kernel_equals_metropolis_step(self, t0, bounds):
        # the chain's fast path (lists plus a numpy mirror, one call over all
        # variates) and the one-step reference see the same variates
        g = make_clique_graph([3, 1, 4, 2])
        rng = np.random.default_rng(6)
        model = EnergyModel(g, rng.normal(size=g.n), lambda_reg=1.5)
        sched = AnnealingSchedule(t0=max(t0, 1e-3), cooling=0.99,
                                  t_min=min(t0, 0.05), proposal_sd=0.4)
        s0 = rng.uniform(-0.9, 0.9, size=g.n)
        steps = 3000
        triples = list(zip(rng.integers(0, g.n, steps).tolist(),
                           (3.0 * rng.standard_normal(steps)).tolist(),
                           rng.random(steps).tolist()))

        state = init_state(model, s0, sched, bounds)
        state.temperature = t0
        scripted = ScriptedRng(triples)
        reference = []
        for _ in range(steps):
            accepted = metropolis_step(model, state, sched, scripted)
            reference.append((accepted, state.s.copy(), state.temperature, state.energy))

        fast = init_state(model, s0, sched, bounds)
        spins, sums = fast.s.tolist(), fast.sums.sums.tolist()
        series = np.full(steps + 1, np.nan)
        seen = []

        def on_stop(t, energy):
            seen.append((np.array(spins), fast.s.copy(), energy))
            return t + 1, energy

        temperature, energy, accepts = metropolis_kernel(
            spins, fast.s, sums, g.group_of.tolist(), model.field.tolist(),
            model.lambda_reg, sched, bounds, triples, t0, fast.energy,
            series, 1, 1, on_stop,
        )
        assert accepts == sum(acc for acc, *_ in reference)
        assert 0 < accepts < steps or t0 == 0.0
        assert temperature == reference[-1][2]
        assert energy == reference[-1][3]
        assert len(seen) == steps
        for (_, s_ref, _, e_ref), (s_list, mirror, e), e_series in zip(
                reference, seen, series[1:]):
            np.testing.assert_array_equal(s_list, s_ref)
            np.testing.assert_array_equal(mirror, s_ref)
            assert e == e_ref and e_series == e_ref

    def test_zero_temperature_rejects_uphill(self):
        model = quadratic_model(h=0.0, lam=1.0)
        sched = AnnealingSchedule(t0=1.0, cooling=0.5, t_min=0.0, proposal_sd=1.0)
        state = init_state(model, np.array([0.0]), sched, None)
        state.temperature = 0.0
        # away from the minimum at 0 is uphill; u = 0 still rejects it
        assert not metropolis_step(model, state, sched, ScriptedRng([(0, 0.5, 0.0)]))
        assert state.s[0] == 0.0 and state.energy == 0.0

    @pytest.mark.parametrize("n_iters", [
        METROPOLIS_BLOCK - 1, METROPOLIS_BLOCK, METROPOLIS_BLOCK + 1,
    ])
    def test_chain_is_prefix_across_block_boundary(self, n_iters):
        model = quadratic_model(n=5)
        sched = AnnealingSchedule(cooling=0.999, t_min=0.01, proposal_sd=0.3)
        ref = SpinConfiguration(np.full(5, 0.1), Engine.ISING)
        long_n = 2 * METROPOLIS_BLOCK + 3
        long = run_chain(model, ChainConfig(
            engine=Engine.ISING, n_iters=long_n, burn_in_frac=0.0, thin=1,
            retain_last=long_n, seed=13, schedule=sched, energy_stride=1,
        ), ref)
        short = run_chain(model, ChainConfig(
            engine=Engine.ISING, n_iters=n_iters, burn_in_frac=0.0, thin=1,
            retain_last=1, seed=13, schedule=sched, energy_stride=1,
        ), ref)
        np.testing.assert_array_equal(short.retained[0], long.retained[n_iters - 1])
        np.testing.assert_array_equal(short.energies, long.energies[:n_iters + 1])

    def test_strided_series_is_every_stride_th_energy(self):
        # 2 * 4096 + 6 steps is a multiple of neither 7 nor the block, and the
        # recompute stops (multiples of 1000) fall on and off the stride grid
        g = make_clique_graph([3, 5, 2])
        model = EnergyModel(g, np.linspace(-0.4, 0.6, g.n), lambda_reg=1.5)
        sched = AnnealingSchedule(cooling=0.999, t_min=0.01, proposal_sd=0.3)
        cfg = ChainConfig(engine=Engine.ISING, n_iters=2 * METROPOLIS_BLOCK + 6,
                          burn_in_frac=0.0, thin=5, retain_last=30, seed=13,
                          schedule=sched, energy_stride=1, recompute_every=1000)
        ref = SpinConfiguration(np.full(g.n, 0.1), Engine.ISING)
        every = run_chain(model, cfg, ref)
        strided = run_chain(model, replace(cfg, energy_stride=7), ref)
        assert strided.energies.shape == (len(range(0, cfg.n_iters + 1, 7)),)
        np.testing.assert_array_equal(strided.energies, every.energies[::7])
        np.testing.assert_array_equal(strided.retained, every.retained)


class TestLangevinStep:
    def test_grad_out_keeps_operation_order(self):
        g = make_clique_graph([3, 1, 5, 40])
        rng = np.random.default_rng(9)
        model = EnergyModel(g, rng.normal(size=g.n), lambda_reg=1.7)
        s = rng.uniform(-1, 1, size=g.n)
        nb = np.bincount(g.group_of, weights=s)[g.group_of] - s
        expected = -nb - model.field + model.lambda_reg * s  # bit for bit
        np.testing.assert_array_equal(grad(model, s), expected)
        np.testing.assert_array_equal(grad(model, s, GroupSums(g, s)), expected)

    def test_grad_of_stack_is_grad_of_each_row(self):
        g = make_clique_graph([3, 1, 5, 2])
        rng = np.random.default_rng(4)
        model = EnergyModel(g, rng.normal(size=g.n), lambda_reg=2.0)
        stack = rng.uniform(-1, 1, size=(3, g.n))
        sums = GroupSums(g, stack)
        assert sums.sums.shape == (3, g.n_groups)
        out = grad(model, stack, sums)
        for c in range(3):
            np.testing.assert_array_equal(sums.sums[c], GroupSums(g, stack[c]).sums)
            np.testing.assert_array_equal(out[c], grad(model, stack[c]))
        np.testing.assert_array_equal(grad(model, stack), out)

    @pytest.mark.parametrize("bounds, start, detail", [
        ((0.0, 100.0), 50.0, "state escaped the domain guard"),
        (None, 50.0, "unbounded state exceeded 1e12"),
        ((0.0, 100.0), np.nan, "non-finite state"),
    ])
    def test_divergence_detail_and_state_kept(self, bounds, start, detail):
        # the law check names the first grid point and how the state leaves the guard;
        # it draws nothing, so the reference and the output rows keep their values
        model = quadratic_model(h=0.0, lam=1.0)
        cfg = ChainConfig(engine=Engine.LANGEVIN, n_iters=5, energy_stride=1,
                          bounded=bounds is not None, schedule=fixed_t(1.0, dt0=1e30))
        ref = SpinConfiguration(np.array([50.0]), Engine.LANGEVIN)
        ref.s[0] = start  # a non-finite reference is refused at construction
        rows = np.full((cfg.retain_last, 1), -7.0)
        with pytest.raises(ConfigError, match=f"at iteration 1: {detail} "):
            run_chains(model, cfg, ref, [1], [rows])
        np.testing.assert_array_equal(ref.s, [start])
        assert (rows == -7.0).all()

    def test_frozen_at_stationary_point(self):
        # temperature ~ 0 at the decoupled minimum: zero drift, zero noise
        model = quadratic_model(h=0.5, lam=1.0)
        sched = AnnealingSchedule(t0=1e-300, cooling=0.5, t_min=0.0, dt0=1e-2)
        cfg = ChainConfig(engine=Engine.LANGEVIN, n_iters=1, burn_in_frac=0.0,
                          retain_last=1, bounded=False, schedule=sched)
        trace = run_chain(model, cfg, SpinConfiguration(np.array([0.5]), Engine.LANGEVIN))
        assert trace.retained[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_bit_identical_trajectory(self):
        model = quadratic_model(n=4)
        sched = AnnealingSchedule(t0=1.0, cooling=0.999, t_min=1e-3, dt0=1e-3)
        cfg = ChainConfig(engine=Engine.LANGEVIN, n_iters=300, burn_in_frac=0.0, thin=1,
                          retain_last=300, seed=7, bounded=False, schedule=sched)
        ref = SpinConfiguration(np.zeros(4), Engine.LANGEVIN)
        a, b = run_chain(model, cfg, ref), run_chain(model, cfg, ref)
        np.testing.assert_array_equal(a.retained, b.retained)
        np.testing.assert_array_equal(a.energies, b.energies)
        assert a.final_temperature == b.final_temperature

    def test_cools_every_step(self):
        model = quadratic_model(n=3)
        sched = AnnealingSchedule(t0=1.0, cooling=0.9, t_min=0.2, dt0=1e-3)
        ref = SpinConfiguration(np.zeros(3), Engine.LANGEVIN)
        expected = sched.t0
        for n_iters in range(1, 21):
            expected = max(sched.t_min, sched.cooling * expected)
            cfg = ChainConfig(engine=Engine.LANGEVIN, n_iters=n_iters, schedule=sched)
            assert run_chain(model, cfg, ref).final_temperature == expected
        assert expected == sched.t_min

    @pytest.mark.parametrize("sched", [
        AnnealingSchedule(cooling=0.9, t_min=0.2),  # at t_min from step 16 of 100
        AnnealingSchedule(cooling=0.999, t_min=0.2),  # above it to the end
        fixed_t(0.5),
        AnnealingSchedule(t0=1e-300, cooling=0.5, t_min=0.0),  # 0.0 after 79 steps
    ])
    def test_steps_equal_cooling_every_step(self, sched):
        temps, dts = sampler.langevin_steps(sched, 100)
        expected = [sched.t0]
        for _ in range(100):
            expected.append(sched.cooled(expected[-1]))
        np.testing.assert_array_equal(temps, expected)
        np.testing.assert_array_equal(dts, sched.dt0 * (np.array(expected[:-1]) / sched.t0))

    def test_divergence_guard(self):
        model = quadratic_model(h=0.0, lam=1.0)
        cfg = ChainConfig(engine=Engine.LANGEVIN, n_iters=50, seed=1,
                          schedule=fixed_t(1.0, dt0=1e6))
        with pytest.raises(ConfigError, match="at iteration 10: state escaped the domain guard"):
            run_chain(model, cfg, SpinConfiguration(np.array([50.0]), Engine.LANGEVIN))

    def test_ou_stationary_moments(self):
        # well-powered check of the stationary law at a larger step:
        # mean -> h/lambda, variance -> T/lambda (up to the O(dt) bias)
        model = quadratic_model(h=0.5, lam=1.0)
        t = 0.5
        dt = 0.01
        cfg = ChainConfig(engine=Engine.LANGEVIN, n_iters=150_000, burn_in_frac=5000 / 150_000,
                          thin=10, retain_last=14_500, bounded=False,
                          schedule=fixed_t(t, dt0=dt))
        traces = run_chains(model, cfg, SpinConfiguration(np.array([0.5]), Engine.LANGEVIN),
                            list(range(4)))
        pooled = np.concatenate([trace.retained[:, 0] for trace in traces])
        assert pooled.mean() == pytest.approx(0.5, abs=0.025)
        assert pooled.var(ddof=1) == pytest.approx(t / (1.0 - 0.5 * dt), rel=0.05)


def mode_law(rate, t, dt, k):
    """P, B and V of ``k`` Euler steps of one mode at a fixed temperature and
    step size, in closed form."""
    f = 1.0 - dt * rate
    return f**k, (1.0 - f**k) / rate, 2.0 * t * dt * (1.0 - f ** (2 * k)) / (1.0 - f * f)


class TestLawCheck:
    """A Langevin law that could leave the divergence guard, [-1000, 1100]
    about the domain [0, 100], is refused before any chain draws."""

    @staticmethod
    def case(kind, s):
        """A chain of one clique whose envelope, mean +- Z sd of a unit, has
        its far edge ``s`` of the way from the domain's centre to the guard
        at the last step; and the first step at which the envelope leaves
        the guard, from :func:`mode_law`."""
        z, reach = sampler.ENVELOPE_Z, 1050.0 * s
        if kind == "noise":  # one unit held at 50 by its field; the noise grows with T
            size, lam, dt, n, x0, h = 1, 1.0, 0.5, 40, 50.0, 50.0
            t = (reach / z) ** 2 / mode_law(lam, 1.0, dt, n)[2]
        elif kind == "mean":  # the field pulls one unit towards h / lambda beyond the guard
            size, lam, dt, n, x0, t = 1, 1.0, 0.5, 40, 50.0, 1e-12
            p, b, _ = mode_law(lam, t, dt, n)
            h = (50.0 + reach - p * x0) / b
        else:  # two units whose clique mean has rate lambda + 1 - 2 < 0: it falls from x0
            size, lam, dt, n, h, t = 2, 0.5, 0.01, 600, 0.0, 1e-12
            x0 = (50.0 - reach) / mode_law(lam + 1.0 - size, t, dt, n)[0]
        crossings = []
        for k in range(1, n + 1):
            p, b, v = mode_law(lam + 1.0 - size, t, dt, k)
            v0 = mode_law(lam + 1.0, t, dt, k)[2]  # the deviation mode: no mean, as d = e = 0
            mean, sd = p * x0 + b * h, math.sqrt((v + (size - 1) * v0) / size)
            if mean - z * sd < -1000.0 or mean + z * sd > 1100.0:
                crossings.append(k)
        model = EnergyModel(make_clique_graph([size]), np.full(size, h), lambda_reg=lam)
        cfg = ChainConfig(engine=Engine.LANGEVIN, n_iters=n, burn_in_frac=0.0, retain_last=n,
                          energy_stride=1, seed=4, schedule=fixed_t(t, dt0=dt))
        return model, SpinConfiguration(np.full(size, x0), Engine.LANGEVIN), cfg, crossings

    @pytest.mark.parametrize("kind", ["noise", "mean", "negative rate"])
    def test_just_inside_and_just_outside_the_guard(self, monkeypatch, kind):
        model, ref, cfg, crossings = self.case(kind, 0.99)
        assert crossings == []
        trace = run_chain(model, cfg, ref)
        assert np.all((trace.retained > -1000.0) & (trace.retained < 1100.0))
        model, ref, cfg, crossings = self.case(kind, 1.01)
        assert crossings[-1] == cfg.n_iters
        monkeypatch.setattr(sampler, "make_rng", None)  # refused before any stream is made
        with pytest.raises(ConfigError, match=f"iteration {crossings[0]}: state escaped"):
            run_chain(model, cfg, ref)


def grid_of(cfg):
    """The iterations at which a Langevin chain of ``cfg`` is sampled."""
    return sorted(set(cfg.energy_iterations()[1:]).union(cfg.retained_iterations()))


def stepped_law(model, cfg, s0):
    """The Euler chain of ``cfg`` from ``s0``, stepped densely on ``grad``.

    Per grid point: the noise-free iterate, and the linear map and the
    covariance of the steps since the previous grid point, from
    M = I - dt (lambda I - J) and Sigma <- M Sigma M^T + 2 T dt I.
    """
    sched, n = cfg.schedule, model.graph.n
    a = model.lambda_reg * np.eye(n) - dense_coupling(model.graph)
    x, temperature, t, out = np.array(s0, dtype=float), sched.t0, 0, []
    for stop in grid_of(cfg):
        step_map, cov = np.eye(n), np.zeros((n, n))
        for _ in range(t, stop):
            dt = sched.dt0 * temperature / sched.t0
            x = x - dt * grad(model, x)
            m = np.eye(n) - dt * a
            step_map, cov = m @ step_map, m @ cov @ m.T + 2.0 * temperature * dt * np.eye(n)
            temperature = sched.cooled(temperature)
        out.append((x, step_map, cov))
        t = stop
    return out


class TestEulerLaw:
    """The law of :func:`sampler.euler_law` against the Euler chain stepped densely."""

    GRAPH = [4, 1, 3, 2]

    def make_case(self):
        g = make_clique_graph(self.GRAPH)
        rng = np.random.default_rng(23)
        # a field large against the noise, so that its gains show in the mean
        model = EnergyModel(g, 5.0 * rng.normal(size=g.n), lambda_reg=5.0)
        # T reaches t_min at step 14 of 40; t0 != 1, so dt = dt0 T/t0 differs from dt0 T
        sched = AnnealingSchedule(t0=2.0, cooling=0.8, t_min=0.1, dt0=0.05)
        cfg = ChainConfig(engine=Engine.LANGEVIN, n_iters=40, burn_in_frac=0.1, thin=3,
                          retain_last=6, energy_stride=7, bounded=False, schedule=sched)
        return model, cfg, rng.uniform(-1, 1, size=g.n)

    def test_law_equals_dense_euler_steps(self):
        model, cfg, s0 = self.make_case()
        g = model.graph
        same = g.group_of[:, None] == g.group_of[None, :]
        mean_of = same / g.group_sizes[g.group_of][:, None]  # row i averages i's clique
        h, x = model.field, s0.copy()
        temps, dts = sampler.langevin_steps(cfg.schedule, cfg.n_iters)
        laws = list(sampler.euler_law(model, temps, dts, grid_of(cfg)))
        assert temps[-1] == cfg.schedule.t_min and len(laws) == len(grid_of(cfg)) == 10
        for (p, b, v), (x_ref, _, cov_ref) in zip(laws, stepped_law(model, cfg, s0)):
            by_unit = [q[1:][g.group_of] for q in (p, b, v)]
            m, hm = mean_of @ x, mean_of @ h
            x = p[0] * (x - m) + by_unit[0] * m + b[0] * (h - hm) + by_unit[1] * hm
            np.testing.assert_allclose(x, x_ref, rtol=1e-10)
            cov = v[0] * (np.eye(g.n) - mean_of) + by_unit[2][:, None] * mean_of
            np.testing.assert_allclose(cov, cov_ref, rtol=1e-10)

    def test_sampled_moments_match_the_law(self):
        # one stack of 2,000 chains against the moments at iteration 40 from
        # the dense steps: the mean's squared Mahalanobis distance, times k,
        # is chi-square with N degrees of freedom, and each covariance within
        # a clique lies within 5 standard errors
        model, cfg, s0 = self.make_case()
        cfg = replace(cfg, burn_in_frac=0.0, thin=1, retain_last=1, energy_stride=20)
        k = 2000
        traces = run_chains(model, cfg, SpinConfiguration(s0, Engine.LANGEVIN), list(range(k)))
        samples = np.array([trace.retained[0] for trace in traces])
        total = np.zeros((model.graph.n,) * 2)
        for x_ref, step_map, cov in stepped_law(model, cfg, s0):
            total = step_map @ total @ step_map.T + cov
        gap = samples.mean(axis=0) - x_ref
        assert k * gap @ np.linalg.solve(total, gap) <= chi2.ppf(1.0 - 1e-6, model.graph.n)
        var = np.diag(total)
        same = model.graph.group_of[:, None] == model.graph.group_of[None, :]
        cov_se = np.sqrt((np.outer(var, var) + total**2) / k)
        assert np.all(np.abs(np.cov(samples.T) - total)[same] <= 5.0 * cov_se[same])


def stepped_chains(model, cfg, s0, k, rng):
    """k Euler chains of ``cfg`` from ``s0``, stepped on ``grad`` as a
    (k, N) stack with normals from ``rng``: their states at the retained
    iterations, (retain_last, k, N)."""
    sched, x, temperature, kept = cfg.schedule, np.tile(s0, (k, 1)), cfg.schedule.t0, []
    for t in range(1, cfg.n_iters + 1):
        dt = sched.dt0 * temperature / sched.t0
        x = x - dt * grad(model, x) + np.sqrt(2.0 * temperature * dt) * rng.standard_normal(x.shape)
        temperature = sched.cooled(temperature)
        if t in cfg.retained_iterations():
            kept.append(x)
    return np.array(kept)


def hotelling_p(a, b):
    """The p-value of the two-sample Hotelling T^2 test that the rows of
    ``a`` and ``b`` have one mean."""
    (na, dim), nb = a.shape, len(b)
    gap = a.mean(axis=0) - b.mean(axis=0)
    pooled = ((na - 1) * np.cov(a.T) + (nb - 1) * np.cov(b.T)) / (na + nb - 2)
    t2 = na * nb / (na + nb) * gap @ np.linalg.solve(pooled, gap)
    return f_dist.sf((na + nb - dim - 1) / (dim * (na + nb - 2)) * t2, dim, na + nb - dim - 1)


class TestTwoSample:
    """The sampled grid against chains stepped densely, at N=61 over 10 seeds."""

    def test_sampled_grid_matches_stepped_chains(self):
        # at an annealing and a floor iteration, the first two moments of each
        # unit (x and its squared distance from the pooled mean) in one
        # Hotelling test per seed and iteration; stretches of 1 to 5 steps
        g = make_clique_graph([12, 1, 8, 5, 1, 10, 3, 7, 2, 6, 1, 4, 1])
        rng = np.random.default_rng(41)
        model = EnergyModel(g, 2.0 * rng.normal(size=g.n), lambda_reg=12.0)
        s0 = rng.uniform(-1, 1, size=g.n)
        # T reaches t_min at step 32 of 40
        cfg = ChainConfig(engine=Engine.LANGEVIN, n_iters=40, burn_in_frac=0.0, thin=8,
                          retain_last=5, energy_stride=5, bounded=False,
                          schedule=AnnealingSchedule(cooling=0.95, t_min=0.2, dt0=0.05))
        k, p_values = 400, []
        for seed in range(10):
            traces = run_chains(model, cfg, SpinConfiguration(s0, Engine.LANGEVIN),
                                [1000 * seed + c for c in range(k)])
            sampled = np.stack([trace.retained for trace in traces], axis=1)
            stepped = stepped_chains(model, cfg, s0, k, np.random.default_rng(seed))
            for j in (1, 4):  # iterations 16 and 40
                a, b = sampled[j], stepped[j]
                center = np.concatenate([a, b]).mean(axis=0)
                p_values.append(hotelling_p(np.hstack([a, (a - center) ** 2]),
                                            np.hstack([b, (b - center) ** 2])))
        assert min(p_values) > 1e-4
        assert chi2.sf(-2.0 * np.log(p_values).sum(), 2 * len(p_values)) > 1e-3


class TestLangevinOracle:
    """The law's moments at N=1383, the closed-form oracle of a Langevin run."""

    def test_pool_moments_match_the_oracle(self):
        dataset = synth_dataset(1383, seed=20240811)  # the benchmark's dataset
        graph = build_graph(dataset)
        model = EnergyModel(graph, external_field(pca(*build_composites(dataset))),
                            lambda_reg=spectrum_extremes(graph)[0] + 1.0)
        s0 = Engine.LANGEVIN.scale(dataset.target)
        cfg = ChainConfig(engine=Engine.LANGEVIN, n_iters=300, burn_in_frac=0.0, thin=100,
                          retain_last=3, energy_stride=100)
        k = 400
        traces = run_chains(model, cfg, SpinConfiguration(s0, Engine.LANGEVIN), list(range(k)))
        pool = np.stack([trace.retained for trace in traces], axis=1)  # (3, k, N)
        # the oracle: the mean and the per-unit variance at each retained iteration
        g, sizes, h = graph.group_of, graph.group_sizes[graph.group_of], model.field
        h_mean = np.bincount(g, h)[g] / sizes
        mean, modes, means, variances = s0, 0.0, [], []
        temps, dts = sampler.langevin_steps(cfg.schedule, cfg.n_iters)
        for p, b, v in sampler.euler_law(model, temps, dts, grid_of(cfg)):
            m = np.bincount(g, mean)[g] / sizes
            mean = p[0] * (mean - m) + p[1:][g] * m + b[0] * (h - h_mean) + b[1:][g] * h_mean
            modes = p * p * modes + v
            means.append(mean)
            variances.append(modes[0] * (1.0 - 1.0 / sizes) + modes[1:][g] / sizes)
        means, variances = np.array(means), np.array(variances)
        # a mean of correlated snapshots varies by at most their largest variance
        gap = np.abs(pool.mean(axis=(0, 1)) - means.mean(axis=0))
        assert np.all(gap <= 5.0 * np.sqrt(variances.max(axis=0) / k))
        # the squared distance from the oracle's mean, per unit, over 1,200
        # draws: its relative sd is 0.04 for independent snapshots, 0.07 at most
        spread = ((pool - means[:, None]) ** 2).mean(axis=(0, 1))
        np.testing.assert_allclose(spread, variances.mean(axis=0), rtol=0.25)


class TestRunChain:
    def make_ref(self, n=6, engine=Engine.ISING, value=0.1):
        return SpinConfiguration(np.full(n, value), engine)

    def test_zero_iterations(self):
        model = quadratic_model(n=6)
        cfg = ChainConfig(engine=Engine.ISING, n_iters=0, seed=1)
        trace = run_chain(model, cfg, self.make_ref())
        assert trace.retained.shape == (0, 6)
        assert len(trace.energies) == 1
        assert trace.energies[0] == pytest.approx(
            hamiltonian(model, self.make_ref().s)
        )

    def test_burn_in_arithmetic(self):
        cfg = ChainConfig(engine=Engine.ISING, n_iters=600_000, burn_in_frac=0.10,
                          thin=10, retain_last=100, seed=0)
        assert cfg.burn_in() == 60_000

    def test_retention_is_pure_function_of_config(self):
        model = quadratic_model(n=6)
        cfg = ChainConfig(engine=Engine.ISING, n_iters=2000, burn_in_frac=0.1,
                          thin=7, retain_last=120, seed=5)
        t1 = run_chain(model, cfg, self.make_ref())
        t2 = run_chain(model, cfg, self.make_ref())
        np.testing.assert_array_equal(t1.retained, t2.retained)
        assert t1.retained.shape[0] == 120
        # thinned post-burn-in iterations, most recent kept
        burn = cfg.burn_in()
        grid = np.asarray(cfg.retained_iterations())
        assert grid.shape == (120,)
        assert grid[-1] == burn + ((2000 - burn) // 7) * 7
        assert np.all(np.diff(grid) == 7)

    # a Langevin chain is sampled on its own grid, so a shorter chain has another
    @pytest.mark.parametrize("engine, sched", [
        (Engine.ISING, AnnealingSchedule(cooling=0.99, proposal_sd=0.3)),
    ])
    def test_snapshot_j_is_state_at_grid_j(self, engine, sched):
        model = quadratic_model(n=6)
        cfg = ChainConfig(engine=engine, n_iters=400, burn_in_frac=0.15, thin=7,
                          retain_last=12, seed=5, schedule=sched)
        ref = self.make_ref(engine=engine)
        trace = run_chain(model, cfg, ref)
        for j, t in enumerate(cfg.retained_iterations()):
            short = replace(cfg, n_iters=t, thin=1, burn_in_frac=0.0, retain_last=1)
            last = run_chain(model, short, ref)
            np.testing.assert_array_equal(trace.retained[j], last.retained[0])
            assert trace.retained_energies[j] == last.retained_energies[0]

    def test_retain_capacity_validated(self):
        with pytest.raises(ConfigError):
            ChainConfig(engine=Engine.ISING, n_iters=100, burn_in_frac=0.5,
                        thin=10, retain_last=6, seed=0)

    def test_energy_series_stride(self):
        model = quadratic_model(n=4)
        cfg = ChainConfig(engine=Engine.ISING, n_iters=100, seed=2, energy_stride=10)
        trace = run_chain(model, cfg, self.make_ref(4))
        assert cfg.energy_iterations() == range(0, 101, 10)
        assert trace.energies.shape == (11,)

    def test_temperature_never_increases(self):
        model = quadratic_model(n=4)
        sched = AnnealingSchedule(t0=1.0, cooling=0.995, t_min=0.01)
        cfg = ChainConfig(engine=Engine.ISING, n_iters=3000, seed=3, schedule=sched)
        trace = run_chain(model, cfg, self.make_ref(4))
        assert trace.final_temperature >= sched.t_min - 1e-15
        assert trace.final_temperature <= sched.t0

    def test_reference_on_the_other_scale_rejected(self):
        # the chain's engine alone sets the bounds, so a reference tagged
        # with the other engine is on the wrong scale
        model = quadratic_model(n=6)
        for engine, other in ((Engine.ISING, Engine.LANGEVIN), (Engine.LANGEVIN, Engine.ISING)):
            cfg = ChainConfig(engine=engine, n_iters=10, seed=1)
            with pytest.raises(ConfigError, match="own scale"):
                run_chain(model, cfg, self.make_ref(engine=other))

    def test_langevin_divergence_reports_iteration(self):
        model = quadratic_model(n=3)
        sched = AnnealingSchedule(t0=1.0, cooling=0.999, t_min=1e-3, dt0=1e8)
        cfg = ChainConfig(engine=Engine.LANGEVIN, n_iters=100, seed=1, schedule=sched)
        with pytest.raises(ConfigError, match="divergence guard at iteration 10: "):
            run_chain(model, cfg, self.make_ref(3, Engine.LANGEVIN, 50.0))

    def test_incremental_energy_consistency_along_chain(self):
        # running energy carried by the chain matches a recompute at the end
        model = quadratic_model(n=8)
        cfg = ChainConfig(engine=Engine.ISING, n_iters=5000, seed=11,
                          recompute_every=10**9)  # disable drift control
        trace = run_chain(model, cfg, self.make_ref(8))
        final = trace.energies[-1]
        cfg2 = ChainConfig(engine=Engine.ISING, n_iters=5000, seed=11, thin=1,
                           retain_last=1, burn_in_frac=0.0,
                           recompute_every=10**9)
        trace2 = run_chain(model, cfg2, self.make_ref(8))
        recomputed = hamiltonian(model, trace2.retained[-1])
        assert final == pytest.approx(recomputed, abs=1e-8)

    def test_metropolis_recompute_stops_equal_hamiltonian(self):
        # every recompute_every steps the running energy is replaced by
        # hamiltonian of the state; between those stops it carries increments
        # (with a stride of 10 too: the series takes the energy after the recompute)
        g = make_clique_graph([3, 5, 2])
        model = EnergyModel(g, np.linspace(-0.4, 0.6, g.n), lambda_reg=1.5)
        sched = AnnealingSchedule(cooling=0.99, proposal_sd=0.3)
        for stride in (1, 10):
            cfg = ChainConfig(engine=Engine.ISING, n_iters=400, burn_in_frac=0.0, thin=1,
                              retain_last=400, seed=13, schedule=sched,
                              energy_stride=stride, recompute_every=50)
            trace = run_chain(model, cfg, self.make_ref(g.n))
            assert cfg.retained_iterations() == range(1, 401)
            for t in range(stride, 401, stride):  # snapshot t - 1 is the state after step t
                exact = hamiltonian(model, trace.retained[t - 1])
                energy = trace.energies[t // stride]
                assert trace.retained_energies[t - 1] == energy
                if t % 50 == 0:
                    assert energy == exact, (stride, t)
                else:
                    assert energy == pytest.approx(exact, abs=1e-12), (stride, t)


class TestLangevinStack:
    """Langevin chains sampled together as the rows of one (k, N) stack."""

    GRAPH = [4, 1, 3, 2, 1]

    def make_case(self, bounded):
        g = make_clique_graph(self.GRAPH)
        rng = np.random.default_rng(17)
        model = EnergyModel(g, rng.normal(size=g.n), lambda_reg=6.0)
        ref = SpinConfiguration(rng.uniform(20, 80, size=g.n), Engine.LANGEVIN)
        cfg = ChainConfig(engine=Engine.LANGEVIN, n_iters=400, burn_in_frac=0.1, thin=3,
                          retain_last=50, seed=30, energy_stride=7, bounded=bounded,
                          schedule=AnnealingSchedule(cooling=0.995, t_min=0.05, dt0=0.02))
        return model, ref, cfg

    @pytest.mark.parametrize("bounded", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rows_equal_chains_run_alone(self, k, bounded):
        model, ref, cfg = self.make_case(bounded)
        stacked = run_chains(model, cfg, ref, [cfg.seed + c for c in range(k)])
        for c, trace in enumerate(stacked):
            assert trace.config == replace(cfg, seed=cfg.seed + c)
            solo = run_chain(model, trace.config, ref)
            np.testing.assert_array_equal(trace.retained, solo.retained)
            np.testing.assert_array_equal(trace.energies, solo.energies)
            np.testing.assert_array_equal(trace.retained_energies, solo.retained_energies)
            assert trace.final_temperature == solo.final_temperature
            assert trace.accept_count == cfg.n_iters
            # nothing is clamped: the chains leave [0, 100], and each counts that
            outside = np.count_nonzero((trace.retained < 0.0) | (trace.retained > 100.0))
            assert trace.outside_bounds == solo.outside_bounds == outside > 0

    def test_one_hamiltonian_call_per_stop(self, monkeypatch):
        model, ref, cfg = self.make_case(True)
        shapes = []

        def counting(model, s, sums=None):
            shapes.append(np.shape(s))
            return hamiltonian(model, s, sums)

        monkeypatch.setattr(sampler, "hamiltonian", counting)
        run_chains(model, cfg, ref, [cfg.seed + c for c in range(3)])
        # the reference, then stacks of whole blocks of grid points that score
        # each of the 3 chains once at each grid point
        assert shapes[0] == (model.graph.n,)
        assert all(n == model.graph.n and rows % 3 == 0 for rows, n in shapes[1:])
        assert sum(rows for rows, _ in shapes[1:]) == 3 * len(grid_of(cfg))

    def test_block_size_invariance(self, monkeypatch):
        # blocks of one grid point, of three and of the default length (100
        # points: the last block is short) give the same bits
        model, ref, cfg = self.make_case(True)
        assert len(grid_of(cfg)) == 100
        runs = []
        for size in (1, 3, sampler.LANGEVIN_BLOCK):
            monkeypatch.setattr(sampler, "LANGEVIN_BLOCK", size)
            runs.append(run_chains(model, cfg, ref, [cfg.seed + c for c in range(5)]))
        for first, *others in zip(*runs):
            for other in others:
                np.testing.assert_array_equal(other.energies, first.energies)
                np.testing.assert_array_equal(other.retained, first.retained)
                np.testing.assert_array_equal(other.retained_energies, first.retained_energies)
                assert other.outside_bounds == first.outside_bounds > 0

    def test_outside_bounds_counts_every_retained_value(self):
        # a stationary chain about 0.5 with sd 0.58: some snapshots of a block
        # leave [0, 100] and some do not
        model = quadratic_model(h=0.5, lam=1.0, n=2)
        cfg = ChainConfig(engine=Engine.LANGEVIN, n_iters=400, burn_in_frac=0.0, thin=1,
                          retain_last=400, seed=3, schedule=fixed_t(0.25, dt0=0.5))
        trace = run_chain(model, cfg, SpinConfiguration(np.full(2, 0.5), Engine.LANGEVIN))
        outside = (trace.retained < 0.0) | (trace.retained > 100.0)
        assert 0.1 < outside.any(axis=1).mean() < 0.5
        assert trace.outside_bounds == np.count_nonzero(outside)

    def test_worker_count_invariance(self, tmp_path):
        # five chains in uneven slices: [5], [3, 2] and [2, 2, 1] chains per job
        model, ref, cfg = self.make_case(True)
        runs = {w: run_parallel(model, cfg, ref, 5, tmp_path / f"w{w}.npy", workers=w)
                for w in (1, 2, 3)}
        pool = (tmp_path / "w1.npy").read_bytes()
        for w in (2, 3):
            assert (tmp_path / f"w{w}.npy").read_bytes() == pool
            for ts, tw in zip(runs[1], runs[w]):
                np.testing.assert_array_equal(ts.energies, tw.energies)
                np.testing.assert_array_equal(ts.retained_energies, tw.retained_energies)
                assert ts.final_temperature == tw.final_temperature
                assert ts.config == tw.config


class TestRunParallel:
    """Chains write rows ``j * k + c`` of one pool file in place."""

    REF = SpinConfiguration(np.zeros(5), Engine.ISING)

    def test_single_chain_equals_run_chain(self, tmp_path):
        model = quadratic_model(n=5)
        cfg = ChainConfig(engine=Engine.ISING, n_iters=500, thin=5, retain_last=50,
                          seed=9)
        solo = run_chain(model, cfg, self.REF)
        par = run_parallel(model, cfg, self.REF, 1, tmp_path / "pool.npy")
        # the chain steps in float64; the pool file stores its rows as float32
        np.testing.assert_array_equal(solo.retained.astype(np.float32),
                                      np.load(tmp_path / "pool.npy"))
        np.testing.assert_array_equal(solo.energies, par[0].energies)

    def test_repeatable_and_seed_distinct(self, tmp_path):
        model = quadratic_model(n=5)
        cfg = ChainConfig(engine=Engine.ISING, n_iters=500, thin=5, retain_last=50,
                          seed=100)
        a = run_parallel(model, cfg, self.REF, 3, tmp_path / "a.npy")
        run_parallel(model, cfg, self.REF, 3, tmp_path / "b.npy")
        pool = np.load(tmp_path / "a.npy")
        np.testing.assert_array_equal(pool, np.load(tmp_path / "b.npy"))
        assert a[0].config.seed == 100 and a[2].config.seed == 102
        assert not np.array_equal(pool[0::3], pool[1::3])

    def test_worker_count_invariance(self, tmp_path):
        model = quadratic_model(n=5)
        cfg = ChainConfig(engine=Engine.ISING, n_iters=400, thin=4, retain_last=40,
                          seed=7)
        seq = run_parallel(model, cfg, self.REF, 3, tmp_path / "seq.npy", workers=1)
        par = run_parallel(model, cfg, self.REF, 3, tmp_path / "par.npy", workers=2)
        np.testing.assert_array_equal(np.load(tmp_path / "seq.npy"),
                                      np.load(tmp_path / "par.npy"))
        for ts, tp in zip(seq, par):
            np.testing.assert_array_equal(ts.retained_energies, tp.retained_energies)
            np.testing.assert_array_equal(ts.energies, tp.energies)
            assert ts.final_temperature == tp.final_temperature

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_file_written_in_place(self, tmp_path, workers):
        # row j * k + c is snapshot j of the chain run alone with seed + c
        model = quadratic_model(n=5)
        cfg = ChainConfig(engine=Engine.ISING, n_iters=300, thin=3, retain_last=20,
                          seed=11)
        path = tmp_path / "pool.npy"
        k = 3
        traces = run_parallel(model, cfg, self.REF, k, path, workers=workers)
        pool = np.load(path)
        assert pool.shape == (k * cfg.retain_last, 5) and pool.dtype == np.float32
        assert list(tmp_path.iterdir()) == [path]  # the .tmp name is gone
        for c, trace in enumerate(traces):
            solo = run_chain(model, replace(cfg, seed=cfg.seed + c), self.REF)
            assert trace.retained is None
            np.testing.assert_array_equal(trace.retained_energies, solo.retained_energies)
            np.testing.assert_array_equal(trace.energies, solo.energies)
            for j in range(cfg.retain_last):
                np.testing.assert_array_equal(pool[j * k + c],
                                              solo.retained[j].astype(np.float32))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_divergence_leaves_no_pool_file(self, tmp_path, workers):
        model = quadratic_model(n=3)
        sched = AnnealingSchedule(t0=1.0, cooling=0.999, t_min=1e-3, dt0=1e8)
        cfg = ChainConfig(engine=Engine.LANGEVIN, n_iters=50, retain_last=5,
                          schedule=sched)
        ref = SpinConfiguration(np.full(3, 50.0), Engine.LANGEVIN)
        with pytest.raises(ConfigError, match="at iteration 10: "):
            run_parallel(model, cfg, ref, 2, tmp_path / "pool.npy", workers=workers)
        assert list(tmp_path.iterdir()) == []  # neither pool.npy nor pool.npy.tmp

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_slice_job_fails_each_chain(self, tmp_path, workers):
        # a start of the wrong length fails each slice job, so the run fails for every
        # chain: no trace comes back, the first job's error propagates, no pool is left
        model = quadratic_model(n=5)
        cfg = ChainConfig(engine=Engine.ISING, n_iters=100, retain_last=5, seed=0)
        ref = SpinConfiguration(np.zeros(4), Engine.ISING)
        with pytest.raises(ConfigError, match="length does not match N"):
            run_parallel(model, cfg, ref, 3, tmp_path / "pool.npy", workers=workers)
        assert list(tmp_path.iterdir()) == []  # neither pool.npy nor pool.npy.tmp

class TestPosteriorMean:
    """The estimate is the mean of the most recent pooled snapshots in percent."""

    def test_pool_most_recent_across_chains(self, tmp_path):
        # the last k rows are every chain's snapshot at the last retained iteration
        model = quadratic_model(n=4)
        cfg = ChainConfig(engine=Engine.ISING, n_iters=200, thin=2, retain_last=10,
                          seed=40)
        ref = SpinConfiguration(np.zeros(4), Engine.ISING)
        run_parallel(model, cfg, ref, 2, tmp_path / "pool.npy")
        last = [run_chain(model, replace(cfg, seed=cfg.seed + c), ref).retained[-1]
                for c in range(2)]
        np.testing.assert_array_equal(np.load(tmp_path / "pool.npy")[-2:],
                                      np.array(last, dtype=np.float32))

    def test_ising_domain_unscaled_to_percent(self):
        # the conformal stage unscales each engine's pool means by ``engine.unscale_inplace``
        zeros = np.zeros((2, 2))
        np.testing.assert_array_equal(
            Engine.ISING.unscale_inplace(np.array(zeros)).mean(axis=0), np.full(2, 50.0)
        )
        np.testing.assert_array_equal(Engine.LANGEVIN.unscale_inplace(np.array(zeros)), zeros)

    def test_pooled_retained_ordering(self, tmp_path):
        # the per-chain energies stacked as the pipeline stacks them line up
        # with the pool file: row j * k + c is chain c's snapshot j in both
        model = quadratic_model(n=4)
        cfg = ChainConfig(engine=Engine.ISING, n_iters=300, thin=3, retain_last=20,
                          seed=40)
        ref = SpinConfiguration(np.zeros(4), Engine.ISING)
        traces = run_parallel(model, cfg, ref, 3, tmp_path / "pool.npy")
        configs = np.load(tmp_path / "pool.npy")
        energies = np.stack([t.retained_energies for t in traces], axis=1).reshape(-1)
        assert configs.shape == (60, 4) and energies.shape == (60,)
        # the energies are of the float64 states, which the file holds rounded to float32
        states = [run_chain(model, replace(cfg, seed=cfg.seed + c), ref).retained
                  for c in range(3)]
        for j in range(20):
            for c, trace in enumerate(traces):
                assert energies[j * 3 + c] == trace.retained_energies[j]
                np.testing.assert_array_equal(configs[j * 3 + c],
                                              states[c][j].astype(np.float32))
                assert hamiltonian(model, states[c][j]) == pytest.approx(
                    energies[j * 3 + c], rel=1e-9, abs=1e-9)


class TestStationaryAgreement:
    def test_metropolis_langevin_same_law(self):
        # decoupled quadratic at fixed T: both engines should agree with the
        # analytic mean h/lambda and variance T/lambda within 5%
        h, lam, t = 0.8, 2.0, 0.6
        model = quadratic_model(h=h, lam=lam, n=10)
        s0 = np.full(10, h / lam)

        m_cfg = ChainConfig(
            engine=Engine.ISING, n_iters=200_000, burn_in_frac=0.1, thin=20,
            retain_last=9000, seed=71, bounded=False,
            schedule=fixed_t(t, proposal_sd=1.0),
        )
        m_trace = run_chain(model, m_cfg, SpinConfiguration(s0, Engine.ISING))
        m_samples = m_trace.retained.ravel()

        l_cfg = ChainConfig(
            engine=Engine.LANGEVIN, n_iters=60_000, burn_in_frac=0.1, thin=6,
            retain_last=9000, seed=72, bounded=False,
            schedule=fixed_t(t, dt0=0.02),
        )
        l_trace = run_chain(model, l_cfg, SpinConfiguration(s0, Engine.LANGEVIN))
        l_samples = l_trace.retained.ravel()

        for samples in (m_samples, l_samples):
            assert samples.mean() == pytest.approx(h / lam, rel=0.05)
            assert samples.var(ddof=1) == pytest.approx(t / lam, rel=0.05)
        assert m_samples.mean() == pytest.approx(l_samples.mean(), rel=0.05)
        assert m_samples.var() == pytest.approx(l_samples.var(), rel=0.05)

    def test_detailed_balance_quick(self):
        # reduced-size version of the two-unit grid check (the acceptance
        # suite runs the full 10^6-step variant)
        g = make_clique_graph([2])
        model = EnergyModel(g, np.array([0.3, -0.3]), lambda_reg=1.0)
        sched = fixed_t(1.0, proposal_sd=0.8)
        rng = make_rng(5)
        state = init_state(model, np.zeros(2), sched, (-1.0, 1.0))
        steps = 200_000
        traj = np.empty((steps, 2))
        for k in range(steps):
            metropolis_step(model, state, sched, rng)
            traj[k] = state.s
        traj = traj[10_000:]
        centers = -1 + (np.arange(21) + 0.5) * (2 / 21)
        s1, s2 = np.meshgrid(centers, centers, indexing="ij")
        energy = -s1 * s2 - 0.3 * s1 + 0.3 * s2 + 0.5 * (s1**2 + s2**2)
        target = np.exp(-energy)
        target /= target.sum()
        b1 = np.clip(((traj[:, 0] + 1) / 2 * 21).astype(int), 0, 20)
        b2 = np.clip(((traj[:, 1] + 1) / 2 * 21).astype(int), 0, 20)
        counts = np.zeros((21, 21))
        np.add.at(counts, (b1, b2), 1)
        tv = 0.5 * np.abs(counts / counts.sum() - target).sum()
        assert tv < 0.1
