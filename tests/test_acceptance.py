"""Acceptance gate: ten criteria with per-criterion pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Statistical checks use seeds fixed in advance; tolerances are
stated inline next to each assertion.
"""

import time

import numpy as np
import pytest
import yaml

from conftest import make_clique_graph
from softspin.analysis import ols_standardized
from softspin.cli import main as cli_main
from softspin.conformal import BatchSpec, calibrate, nonconformity, repeat_splits
from softspin.data import SynthParams, synth_dataset
from softspin.energy import EnergyModel, SpinConfiguration, grad, hamiltonian
from softspin.graph import build_graph
from softspin.indices import build_composites, external_field, mpi, pca, standardize
from softspin.sampler import (
    AnnealingSchedule,
    ChainConfig,
    Engine,
    init_state,
    make_rng,
    metropolis_step,
    run_chain,
    run_parallel,
)


def check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def fixed_t(t, **kwargs):
    return AnnealingSchedule(t0=t, cooling=0.5, t_min=t, **kwargs)


def one_unit_model(h=0.5, lam=1.0):
    return EnergyModel(make_clique_graph([1]), np.array([h]), lambda_reg=lam)


class TestCriterion1AnalyticStationarity:
    """Quadratic model of decoupled units, fixed T: each unit has mean
    h/lambda and variance T/lambda."""

    def test_both_engines(self):
        t0 = time.perf_counter()
        model = one_unit_model(h=0.5, lam=1.0)
        temperature, n_steps, burn = 0.5, 100_000, 10_000

        sched_m = fixed_t(temperature, proposal_sd=1.0)
        rng = make_rng(0)
        state = init_state(model, np.array([0.5]), sched_m, None)
        xs = np.empty(n_steps)
        for k in range(n_steps):
            metropolis_step(model, state, sched_m, rng)
            xs[k] = state.s[0]
        m_mean, m_var = xs[burn:].mean(), xs[burn:].var(ddof=1)

        # One Langevin unit at dt=1e-3 moves too slowly for its mean to be
        # resolved to the tolerance in 100k steps (sd of the mean about 0.1);
        # 256 independent units give an sd of about 0.006.
        n_units = 256
        model = EnergyModel(make_clique_graph([1] * n_units), np.full(n_units, 0.5),
                            lambda_reg=1.0)
        cfg = ChainConfig(
            engine=Engine.LANGEVIN, n_iters=n_steps, burn_in_frac=burn / n_steps,
            thin=10, retain_last=(n_steps - burn) // 10, seed=12, bounded=False,
            schedule=fixed_t(temperature, dt0=1e-3),
        )
        trace = run_chain(model, cfg, SpinConfiguration(np.full(n_units, 0.5), Engine.LANGEVIN))
        l_mean, l_var = trace.retained.mean(), trace.retained.var(ddof=1)

        elapsed = time.perf_counter() - t0
        tol = 0.05 * 0.5
        ok = (
            abs(m_mean - 0.5) <= tol and abs(m_var - 0.5) <= tol
            and abs(l_mean - 0.5) <= tol and abs(l_var - 0.5) <= tol
            and elapsed < 10.0
        )
        check(
            "criterion 1 (analytic stationarity)", ok,
            f"metropolis mean={m_mean:.4f} var={m_var:.4f}, "
            f"langevin mean={l_mean:.4f} var={l_var:.4f} "
            f"(target 0.5 +/- {tol}), runtime {elapsed:.1f}s < 10s",
        )


class TestCriterion2GibbsAgreement:
    """Two-unit clique: empirical bins vs normalized Boltzmann masses."""

    @staticmethod
    def total_variation(traj):
        centers = -1 + (np.arange(21) + 0.5) * (2 / 21)
        s1, s2 = np.meshgrid(centers, centers, indexing="ij")
        energy = -s1 * s2 - 0.3 * s1 + 0.3 * s2 + 0.5 * (s1**2 + s2**2)
        target = np.exp(-energy / 1.0)
        target /= target.sum()
        b1 = np.clip(((traj[:, 0] + 1) / 2 * 21).astype(int), 0, 20)
        b2 = np.clip(((traj[:, 1] + 1) / 2 * 21).astype(int), 0, 20)
        counts = np.zeros((21, 21))
        np.add.at(counts, (b1, b2), 1)
        return 0.5 * np.abs(counts / counts.sum() - target).sum()

    def test_total_variation(self):
        graph = make_clique_graph([2])
        model = EnergyModel(graph, np.array([0.3, -0.3]), lambda_reg=1.0)
        sched = fixed_t(1.0, proposal_sd=0.8)
        rng = make_rng(0)
        state = init_state(model, np.zeros(2), sched, (-1.0, 1.0))
        n_steps, burn = 1_000_000, 10_000
        traj = np.empty((n_steps, 2))
        for k in range(n_steps):
            metropolis_step(model, state, sched, rng)
            traj[k] = state.s
        tv = self.total_variation(traj[burn:])
        check(
            "criterion 2 (Gibbs agreement)", tv <= 0.05,
            f"total variation {tv:.4f} <= 0.05 on the 21x21 grid at 10^6 steps",
        )

    def test_total_variation_block_kernel(self):
        # the same check on the chain's block-drawn path through run_chain
        graph = make_clique_graph([2])
        model = EnergyModel(graph, np.array([0.3, -0.3]), lambda_reg=1.0)
        cfg = ChainConfig(
            engine=Engine.ISING, n_iters=1_000_000, burn_in_frac=0.01, thin=1,
            retain_last=990_000, seed=0, schedule=fixed_t(1.0, proposal_sd=0.8),
        )
        trace = run_chain(model, cfg, SpinConfiguration(np.zeros(2), Engine.ISING))
        tv = self.total_variation(trace.retained)
        check(
            "criterion 2 (Gibbs agreement, block kernel)", tv <= 0.05,
            f"total variation {tv:.4f} <= 0.05 on the 21x21 grid at 10^6 steps",
        )


class TestCriterion3GradientCorrectness:
    def test_fifty_random_instances(self):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(50):
            n_groups = int(rng.integers(2, 8))
            sizes = rng.integers(1, 40, size=n_groups).tolist()
            graph = make_clique_graph(sizes)
            n = graph.n
            if n > 200:
                sizes = [max(1, s // 2) for s in sizes]
                graph = make_clique_graph(sizes)
                n = graph.n
            model = EnergyModel(
                graph, rng.normal(size=n), lambda_reg=float(rng.uniform(0.5, 5.0))
            )
            s = rng.uniform(-1, 1, size=n)
            g = grad(model, s)
            step = 1e-5
            for i in range(n):
                sp, sm = s.copy(), s.copy()
                sp[i] += step
                sm[i] -= step
                fd = (hamiltonian(model, sp) - hamiltonian(model, sm)) / (2 * step)
                rel = abs(fd - g[i]) / max(1.0, abs(fd))
                worst = max(worst, rel)
        check(
            "criterion 3 (gradient correctness)", worst <= 1e-6,
            f"max relative error vs central differences {worst:.2e} <= 1e-6",
        )


class TestCriterion4IncrementalEnergy:
    def test_drift_over_accepted_updates(self):
        rng = np.random.default_rng(5)
        sizes = rng.integers(1, 30, size=20).tolist()
        graph = make_clique_graph(sizes)
        n = graph.n
        model = EnergyModel(graph, rng.normal(size=n), lambda_reg=1.0)
        sched = fixed_t(5.0, proposal_sd=0.1)  # hot chain accepts most moves
        stream = make_rng(17)
        state = init_state(model, rng.uniform(-1, 1, size=n), sched, (-1.0, 1.0))
        accepted = 0
        steps = 0
        while accepted < 100_000:
            accepted += metropolis_step(model, state, sched, stream)
            steps += 1
            assert steps < 10_000_000
        drift = abs(state.energy - hamiltonian(model, state.s))
        check(
            "criterion 4 (incremental energy)", drift <= 1e-8,
            f"cumulative increment drift {drift:.2e} <= 1e-8 "
            f"after {accepted} accepted updates ({steps} proposals, N={n})",
        )


class TestCriterion5ConformalCoverage:
    @staticmethod
    def fixture(n_units, b, seed):
        rng = np.random.default_rng(seed)
        mu = rng.normal(0.0, 2.0, size=n_units)
        sd = 0.1 + np.abs(rng.normal(0.5, 0.3, size=n_units))
        batches = mu + sd * rng.standard_normal((b, n_units))
        y_obs = mu + sd * rng.standard_normal(n_units)
        return batches, y_obs

    def test_coverage_and_monotonicity(self):
        # split conformal orders what one split shares across alpha: the raw
        # bands nest, and the offset of one set of calibration scores grows
        # as alpha falls. The calibrated widths need not: a smaller offset at
        # alpha 0.05 can outweigh a narrow unit's raw widening.
        n_units, b = 2000, 1000
        coverages = {0.05: [], 0.10: []}
        nested = offsets_monotone = True
        for seed in range(20):
            batches, y_obs = self.fixture(n_units, b, seed)
            results = {}
            for alpha in (0.05, 0.10):
                spec = BatchSpec(
                    n_total=b, n_batches=b, batch_size=10, alpha=alpha,
                    calib_frac=0.5, seed=1000 + seed, repeats=1,  # same split per seed
                )
                res = repeat_splits(batches, y_obs, spec)
                coverages[alpha].append(res.test_coverage[0])
                results[alpha] = res
            wide, narrow = results[0.05], results[0.10]
            nested &= bool(np.all(wide.q_lo <= narrow.q_lo) and np.all(wide.q_hi >= narrow.q_hi))
            for res in (wide, narrow):
                calib = res.calib[0]
                scores = nonconformity(y_obs[calib], res.q_lo[calib], res.q_hi[calib])
                offsets_monotone &= calibrate(scores, 0.05)[0] >= calibrate(scores, 0.10)[0]
        med05 = float(np.median(coverages[0.05]))
        med10 = float(np.median(coverages[0.10]))
        ok = med05 >= 0.95 - 0.02 and med10 >= 0.90 - 0.02 and nested and offsets_monotone
        check(
            "criterion 5 (conformal coverage)", ok,
            f"median test coverage alpha=0.05: {med05:.4f} >= 0.93, "
            f"alpha=0.10: {med10:.4f} >= 0.88; raw bands nested in alpha: {nested}; "
            f"offsets monotone in alpha: {offsets_monotone}",
        )


class TestCriterion6IndexOracles:
    def test_standardize_and_mpi_against_direct_formulas(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(100):
            x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), size=(10, 4))
            for pol in (1, -1):
                for j in range(4):
                    got = standardize(x[:, j], pol)
                    mu = x[:, j].mean()
                    sd = x[:, j].std(ddof=1)
                    expected = 10.0 * pol * (x[:, j] - mu) / sd + 100.0
                    worst = max(worst, float(np.max(np.abs(got - expected))))
            z = 100.0 + rng.normal(size=(10, 4)) * 10.0
            got = mpi(z)
            m = z.mean(axis=1)
            s2 = z.var(axis=1, ddof=1)
            worst = max(worst, float(np.max(np.abs(got - (m - s2 / m)))))
        check(
            "criterion 6a (standardize/MPI oracles)", worst <= 1e-10,
            f"max abs deviation from direct formulas {worst:.2e} <= 1e-10 "
            f"on 100 random 10x4 fixtures",
        )

    def test_pca_zero_eigenvalue_and_weights(self):
        rng = np.random.default_rng(7)
        sums_ok = True
        for _ in range(20):
            p = pca(rng.normal(size=(50, 6)))
            sums_ok &= abs(p.proportions.sum() - 1.0) <= 1e-10
        x = rng.normal(size=(200, 6))
        x[:, 5] = x[:, 0]  # duplicated column
        p = pca(x)
        zero_eig = float(p.eigenvalues[-1])
        zero_weight = float(p.proportions[-1])  # its weight in the untruncated field
        ok = sums_ok and zero_eig <= 1e-8 and zero_weight <= 1e-8
        check(
            "criterion 6b (PCA rank deficiency)", ok,
            f"proportions sum to 1 within 1e-10: {sums_ok}; duplicated column "
            f"eigenvalue {zero_eig:.2e} <= 1e-8 with field weight "
            f"{zero_weight:.2e} <= 1e-8",
        )


def paper_scale_setup():
    params = SynthParams(
        profile_weights={
            "ALT": (1 / 3, 1 / 3, 1 / 3),
            "POP": (1 / 3, 1 / 3, 1 / 3),
            "SUP": (1 / 3, 1 / 3, 1 / 3),
            "CLITO": (0.5, 0.5),
            "DEGURB": (1 / 3, 1 / 3, 1 / 3),
        }
    )
    dataset = synth_dataset(1383, seed=42, params=params)
    graph = build_graph(dataset)
    field = external_field(pca(*build_composites(dataset)))
    model = EnergyModel(graph, field, lambda_reg=10.0)
    s_ref = SpinConfiguration(Engine.ISING.scale(dataset.target), Engine.ISING)
    return model, s_ref


class TestCriterion7AnnealingBehavior:
    def test_600k_run_descends_below_reference(self):
        model, s_ref = paper_scale_setup()
        h_ref = hamiltonian(model, s_ref.s)
        assert h_ref > 0, "fixture precondition: positive reference energy"
        cfg = ChainConfig(
            engine=Engine.ISING, n_iters=600_000, burn_in_frac=0.10,
            thin=100, retain_last=1000, seed=2024,
            schedule=AnnealingSchedule(t0=1.0, cooling=0.9995, t_min=1e-3,
                                       proposal_sd=0.05),
        )
        trace = run_chain(model, cfg, s_ref)
        iterations = np.asarray(trace.config.energy_iterations())
        post = trace.energies[iterations > trace.config.burn_in()]
        initial = trace.energies[0]
        median_post = float(np.median(post))
        decile = post.shape[0] // 10
        first_decile = float(np.median(post[:decile]))
        last_decile = float(np.median(post[-decile:]))
        ratios = trace.retained_energies / h_ref
        ok = (
            median_post < initial
            and last_decile <= first_decile
            and bool(np.all(ratios < 1.0))
        )
        check(
            "criterion 7 (annealing behavior)", ok,
            f"H_ref={h_ref:.1f}>0, initial={initial:.1f}, post-burn-in "
            f"median={median_post:.1f} < initial; decile medians "
            f"{last_decile:.1f} <= {first_decile:.1f}; all {ratios.shape[0]} "
            f"retained H/H_ref < 1 (max {ratios.max():.4f})",
        )


class TestCriterion8PerformanceEnvelope:
    def test_ising_six_chains(self, tmp_path):
        model, s_ref = paper_scale_setup()
        cfg = ChainConfig(
            engine=Engine.ISING, n_iters=600_000, burn_in_frac=0.10,
            thin=1000, retain_last=500, seed=7,
            schedule=AnnealingSchedule(t0=1.0, cooling=0.9995, t_min=1e-3,
                                       proposal_sd=0.05),
        )
        t0 = time.perf_counter()
        traces = run_parallel(model, cfg, s_ref, 6, tmp_path / "pool.npy", workers=2)
        elapsed = time.perf_counter() - t0
        ok = elapsed <= 600.0 and len(traces) == 6
        check(
            "criterion 8a (Ising performance)", ok,
            f"6 x 600k-iteration chains at N=1383 in {elapsed:.1f}s <= 600s",
        )

    def test_langevin_600k(self):
        model, s_ref_ising = paper_scale_setup()
        lam = float(model.graph.group_sizes.max())  # largest clique keeps H convex
        model = EnergyModel(model.graph, model.field, lambda_reg=lam)
        dataset_ref = SpinConfiguration((s_ref_ising.s + 1.0) * 50.0, Engine.LANGEVIN)
        cfg = ChainConfig(
            engine=Engine.LANGEVIN, n_iters=600_000, burn_in_frac=0.10,
            thin=1000, retain_last=500, seed=8,
            schedule=AnnealingSchedule(t0=1.0, cooling=0.9995, t_min=1e-3,
                                       dt0=1e-4),
        )
        t0 = time.perf_counter()
        trace = run_chain(model, cfg, dataset_ref)
        elapsed = time.perf_counter() - t0
        grid = len(set(cfg.energy_iterations()[1:]).union(cfg.retained_iterations()))
        ok = elapsed <= 1800.0 and trace.retained.shape == (500, 1383)
        check(
            "criterion 8b (Langevin performance)", ok,
            f"the law of 600k steps at N=1383, sampled at {grid:,} grid points, "
            f"in {elapsed:.1f}s <= 1800s",
        )


class TestCriterion9EndToEndDeterminism:
    def test_pipeline_twice_byte_identical(self, tmp_path):
        tree = {
            "seed": 31415,
            "workers": 1,
            "synth": {"n_units": 120},
            "ising": {"n_iters": 2000, "thin": 2, "retain_last": 400, "k_chains": 2},
            "langevin": {"n_iters": 2000, "thin": 2, "retain_last": 400, "k_chains": 2},
            "conformal": {"n_total": 800, "n_batches": 400, "batch_size": 50,
                          "repeats": 10, "estimate_last_n": 400},
        }
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(tree), encoding="utf-8")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        code1 = cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out1)])
        code2 = cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out2)])
        names = sorted(p.name for p in out1.iterdir())
        identical = names == sorted(p.name for p in out2.iterdir()) and all(
            (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names
        )
        no_tmp = not list(out1.glob("*.tmp")) and not list(out2.glob("*.tmp"))
        ok = code1 == 0 and code2 == 0 and identical and no_tmp
        check(
            "criterion 9 (end-to-end determinism)", ok,
            f"two pipeline runs, {len(names)} artifacts byte-identical: {identical}, "
            f"no *.tmp file left: {no_tmp}",
        )


class TestCriterion10CollinearityHandling:
    def test_duplicated_composite_flagged_once(self):
        dataset = synth_dataset(500, seed=77)  # MPI6 mirrors MPI1 by default
        values, names = build_composites(dataset)
        rng = np.random.default_rng(3)
        residuals = rng.normal(size=dataset.n)
        result = ols_standardized(residuals, values, names)
        flagged = [names[j] for j in np.nonzero(np.isnan(result["beta_std"]))[0]]
        ok = len(flagged) == 1 and flagged[0] in ("MPI1", "MPI6")
        check(
            "criterion 10 (collinearity handling)", ok,
            f"duplicated pair MPI1/MPI6: flagged not-estimated = {flagged} "
            f"(exactly one of the pair)",
        )
