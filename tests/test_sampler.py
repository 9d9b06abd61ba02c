import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_clique_graph
from softspin import sampler
from softspin.energy import EnergyModel, SpinConfiguration, grad, hamiltonian
from softspin.errors import (
    ConfigError,
    DivergenceDetected,
    ParallelChainError,
)
from softspin.graph import GroupSums
from softspin.sampler import (
    METROPOLIS_BLOCK,
    AnnealingSchedule,
    ChainConfig,
    Engine,
    init_state,
    langevin_kernel,
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
    def test_buffered_step_equals_direct_formula(self):
        g = make_clique_graph([3, 2, 4])
        rng = np.random.default_rng(3)
        model = EnergyModel(g, rng.normal(size=g.n), lambda_reg=2.5)
        sched = AnnealingSchedule(t0=1.0, cooling=0.9, t_min=0.1, dt0=0.05)
        state = init_state(model, rng.uniform(10, 90, size=g.n), sched, (0.0, 100.0))
        stream, replay = make_rng(21), make_rng(21)
        s = state.s.copy()
        temperature = sched.t0
        for _ in range(25):
            assert langevin_kernel(model, state, sched, (stream,)) == []
            dt = sched.dt0 * (temperature / sched.t0)
            s = np.clip(s - dt * grad(model, s)
                        + math.sqrt(2.0 * temperature * dt) * replay.standard_normal(g.n),
                        0.0, 100.0)
            temperature = sched.cooled(temperature)
            np.testing.assert_array_equal(state.s, s)
            np.testing.assert_array_equal(state.sums.sums,
                                          np.bincount(g.group_of, weights=s))

    def test_grad_out_keeps_operation_order(self):
        g = make_clique_graph([3, 1, 5, 40])
        rng = np.random.default_rng(9)
        model = EnergyModel(g, rng.normal(size=g.n), lambda_reg=1.7)
        s = rng.uniform(-1, 1, size=g.n)
        nb = np.bincount(g.group_of, weights=s)[g.group_of] - s
        expected = -nb - model.field + model.lambda_reg * s  # bit for bit
        out = np.empty(g.n)
        assert grad(model, s, out=out) is out
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(grad(model, s), expected)

    def test_grad_of_stack_is_grad_of_each_row(self):
        g = make_clique_graph([3, 1, 5, 2])
        rng = np.random.default_rng(4)
        model = EnergyModel(g, rng.normal(size=g.n), lambda_reg=2.0)
        stack = rng.uniform(-1, 1, size=(3, g.n))
        sums = GroupSums(g, stack)
        assert sums.sums.shape == (3, g.n_groups)
        out, work = np.empty_like(stack), np.empty_like(stack)
        grad(model, stack, sums, out=out, work=work)
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
        model = quadratic_model(h=0.0, lam=1.0)
        sched = fixed_t(1.0, dt0=1e30)
        state = init_state(model, np.array([start]), sched, bounds)
        assert langevin_kernel(model, state, sched, (make_rng(1),)) == [(0, detail)]
        np.testing.assert_array_equal(state.s, [start])

    def test_frozen_at_stationary_point(self):
        # temperature ~ 0 at the decoupled minimum: zero drift, zero noise
        model = quadratic_model(h=0.5, lam=1.0)
        sched = AnnealingSchedule(t0=1.0, cooling=0.5, t_min=0.0, dt0=1e-2)
        state = init_state(model, np.array([0.5]), sched, None)
        state.temperature = 1e-300
        assert langevin_kernel(model, state, sched, (make_rng(0),)) == []
        assert state.s[0] == pytest.approx(0.5, abs=1e-12)

    def test_bit_identical_trajectory(self):
        model = quadratic_model(n=4)
        sched = AnnealingSchedule(t0=1.0, cooling=0.999, t_min=1e-3, dt0=1e-3)

        def run(seed):
            rng = make_rng(seed)
            state = init_state(model, np.zeros(4), sched, None)
            for _ in range(300):
                assert langevin_kernel(model, state, sched, (rng,)) == []
            return state.s.copy(), state.temperature

        s1, t1 = run(7)
        s2, t2 = run(7)
        np.testing.assert_array_equal(s1, s2)
        assert t1 == t2

    def test_cools_every_step(self):
        model = quadratic_model(n=3)
        sched = AnnealingSchedule(t0=1.0, cooling=0.9, t_min=0.2, dt0=1e-3)
        state = init_state(model, np.zeros(3), sched, None)
        rng = make_rng(4)
        expected = sched.t0
        for _ in range(20):
            assert langevin_kernel(model, state, sched, (rng,)) == []
            expected = max(sched.t_min, sched.cooling * expected)
            assert state.temperature == expected
        assert expected == sched.t_min

    def test_divergence_guard(self):
        model = quadratic_model(h=0.0, lam=1.0)
        sched = fixed_t(1.0, dt0=1e6)
        state = init_state(model, np.array([50.0]), sched, (0.0, 100.0))
        for _ in range(50):
            before = state.s.copy()
            diverged = langevin_kernel(model, state, sched, (make_rng(1),))
            if diverged:
                break
        assert diverged == [(0, "state escaped the domain guard")]
        np.testing.assert_array_equal(state.s, before)

    def test_clamps_to_bounds(self):
        model = quadratic_model(h=0.0, lam=1.0)
        sched = fixed_t(5.0, dt0=0.05)
        rng = make_rng(2)
        state = init_state(model, np.array([99.0]), sched, (0.0, 100.0))
        for _ in range(500):
            assert langevin_kernel(model, state, sched, (rng,)) == []
            assert 0.0 <= state.s[0] <= 100.0

    def test_ou_stationary_moments(self):
        # well-powered check of the stationary law at a larger step:
        # mean -> h/lambda, variance -> T/lambda (up to the O(dt) bias)
        model = quadratic_model(h=0.5, lam=1.0)
        t = 0.5
        dt = 0.01
        sched = fixed_t(t, dt0=dt)
        samples = []
        for seed in range(4):
            rng = make_rng(seed)
            state = init_state(model, np.array([0.5]), sched, None)
            xs = np.empty(150_000)
            for k in range(xs.shape[0]):
                assert langevin_kernel(model, state, sched, (rng,)) == []
                xs[k] = state.s[0]
            samples.append(xs[5000:])
        pooled = np.concatenate(samples)
        assert pooled.mean() == pytest.approx(0.5, abs=0.025)
        assert pooled.var(ddof=1) == pytest.approx(t / (1.0 - 0.5 * dt), rel=0.05)


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

    @pytest.mark.parametrize("engine, sched", [
        (Engine.ISING, AnnealingSchedule(cooling=0.99, proposal_sd=0.3)),
        (Engine.LANGEVIN, AnnealingSchedule(cooling=0.99, dt0=1e-3)),
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
        with pytest.raises(DivergenceDetected) as err:
            run_chain(model, cfg, self.make_ref(3, Engine.LANGEVIN, 50.0))
        assert err.value.iteration is not None and err.value.iteration >= 1

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


class SpikedRng:
    """Test double: a chain's real SFC64 stream, except that noise draw
    number ``at`` (counting from 1) puts ``value`` into its first unit."""

    def __init__(self, seed, at, value):
        self.inner, self.at, self.value, self.calls = make_rng(seed), at, value, 0

    def standard_normal(self, out):
        self.inner.standard_normal(out=out)
        self.calls += 1
        if self.calls == self.at:
            out[0] = self.value
        return out


class TestLangevinStack:
    """Langevin chains stepped together as the rows of one (k, N) stack."""

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
        if bounded:  # the clamp is reached, so the per-row clip is exercised
            assert any(np.any((t.retained == 0.0) | (t.retained == 100.0)) for t in stacked)

    def test_one_hamiltonian_call_per_stop(self, monkeypatch):
        model, ref, cfg = self.make_case(True)
        shapes = []

        def counting(model, s, sums=None):
            shapes.append(np.shape(s))
            return hamiltonian(model, s, sums)

        monkeypatch.setattr(sampler, "hamiltonian", counting)
        run_chains(model, cfg, ref, [cfg.seed + c for c in range(3)])
        stops = set(cfg.energy_iterations()[1:]).union(cfg.retained_iterations())
        # the reference, then the stack at the start and at each stop
        assert shapes == [(model.graph.n,)] + [(3, model.graph.n)] * (1 + len(stops))

    @pytest.mark.parametrize("bounded, value, detail", [
        (True, np.inf, "non-finite state"),
        (True, 1e9, "state escaped the domain guard"),
        (False, 1e20, "unbounded state exceeded 1e12"),
    ])
    def test_diverging_row_dropped_siblings_go_on(self, monkeypatch, bounded, value, detail):
        # chain 1 diverges at iteration 7 and chain 3 at 12, when it is row 2
        model, ref, cfg = self.make_case(bounded)
        spikes = {cfg.seed + 1: 7, cfg.seed + 3: 12}
        monkeypatch.setattr(sampler, "make_rng", lambda seed: (
            SpikedRng(seed, spikes[seed], value) if seed in spikes else make_rng(seed)))
        cfgs = [replace(cfg, seed=cfg.seed + c) for c in range(5)]
        results = run_chains(model, cfg, ref, [c_cfg.seed for c_cfg in cfgs])
        for c, c_cfg in enumerate(cfgs):
            if c_cfg.seed in spikes:
                with pytest.raises(DivergenceDetected) as solo:
                    run_chain(model, c_cfg, ref)
                assert isinstance(results[c], DivergenceDetected)
                assert results[c].iteration == solo.value.iteration == spikes[c_cfg.seed]
                assert results[c].detail == solo.value.detail == detail
            else:
                solo = run_chain(model, c_cfg, ref)
                np.testing.assert_array_equal(results[c].retained, solo.retained)
                np.testing.assert_array_equal(results[c].energies, solo.energies)
                np.testing.assert_array_equal(results[c].retained_energies,
                                              solo.retained_energies)
                assert results[c].final_temperature == solo.final_temperature

    def test_parallel_reports_only_diverged_chains(self, monkeypatch, tmp_path):
        model, ref, cfg = self.make_case(True)
        monkeypatch.setattr(sampler, "make_rng", lambda seed: (
            SpikedRng(seed, 5, np.nan) if seed == cfg.seed + 2 else make_rng(seed)))
        with pytest.raises(ParallelChainError) as err:
            run_parallel(model, cfg, ref, 4, tmp_path / "pool.npy")
        assert [(i, e.iteration) for i, e in err.value.failures] == [(2, 5)]
        assert list(tmp_path.iterdir()) == []

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
        with pytest.raises(ParallelChainError):
            run_parallel(model, cfg, ref, 2, tmp_path / "pool.npy", workers=workers)
        assert list(tmp_path.iterdir()) == []  # neither pool.npy nor pool.npy.tmp

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_slice_job_fails_each_chain(self, tmp_path, workers):
        # a start of the wrong length fails each slice job as a whole
        model = quadratic_model(n=5)
        cfg = ChainConfig(engine=Engine.ISING, n_iters=100, retain_last=5, seed=0)
        ref = SpinConfiguration(np.zeros(4), Engine.ISING)
        with pytest.raises(ParallelChainError) as err:
            run_parallel(model, cfg, ref, 3, tmp_path / "pool.npy", workers=workers)
        assert [i for i, _ in err.value.failures] == [0, 1, 2]
        assert all(isinstance(e, ConfigError) for _, e in err.value.failures)
        assert list(tmp_path.iterdir()) == []  # neither pool.npy nor pool.npy.tmp

    def test_per_chain_failures_reported(self, tmp_path):
        model = quadratic_model(n=3)
        sched = AnnealingSchedule(t0=1.0, cooling=0.999, t_min=1e-3, dt0=1e8)
        cfg = ChainConfig(engine=Engine.LANGEVIN, n_iters=50, seed=0, schedule=sched)
        ref = SpinConfiguration(np.full(3, 50.0), Engine.LANGEVIN)
        with pytest.raises(ParallelChainError) as err:
            run_parallel(model, cfg, ref, 2, tmp_path / "pool.npy")
        indices = [i for i, _ in err.value.failures]
        assert indices == [0, 1]
        assert all(isinstance(e, DivergenceDetected) for _, e in err.value.failures)


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
