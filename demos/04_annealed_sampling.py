"""Annealed exploration around the observed configuration with both engines.

The Metropolis engine perturbs one spin at a time on the [-1, 1] scale and
cools on acceptance; the Langevin engine is the chain of full-vector
gradient steps with temperature-scaled noise on the raw percent scale,
cooling every step, sampled from its closed-form law at the iterations it
records. Both start at the observed configuration and drift toward
energetically more favorable states nearby, which is the point: local
exploration, not global optimization. The chains write their retained
snapshots into one float32 pool file per engine, here in a temporary
directory.
"""

import tempfile
from pathlib import Path

import numpy as np

from softspin import (
    AnnealingSchedule,
    ChainConfig,
    EnergyModel,
    Engine,
    SpinConfiguration,
    build_composites,
    build_graph,
    external_field,
    hamiltonian,
    pca,
    run_parallel,
    spectrum_extremes,
    synth_dataset,
)


def estimate(pool_path, engine, last_n):
    """Mean of the most recent pooled snapshots, in raw percent.

    The pool file holds float32 rows; they are summed in float64.
    """
    configs = np.load(pool_path)[-last_n:]
    return engine.unscale_inplace(configs.mean(axis=0, dtype=np.float64))


work = tempfile.TemporaryDirectory()  # removed when the script exits
pools = Path(work.name)


dataset = synth_dataset(400, seed=20240811)
graph = build_graph(dataset)
field = external_field(pca(*build_composites(dataset)))
y_ref = dataset.target

print("=== continuous-spin Metropolis on [-1, 1] ===")
model = EnergyModel(graph, field, lambda_reg=1.0)
s_ref = SpinConfiguration(Engine.ISING.scale(y_ref), Engine.ISING)
h_ref = hamiltonian(model, s_ref.s)
cfg = ChainConfig(
    engine=Engine.ISING, n_iters=10_000, thin=5, retain_last=1200, seed=101,
    schedule=AnnealingSchedule(t0=1.0, cooling=0.999, t_min=1e-3,
                               proposal_sd=0.005),
)
traces = run_parallel(model, cfg, s_ref, 2, pools / "ising.npy", workers=1)
for k, tr in enumerate(traces):
    print(f"chain {k}: H {tr.energies[0]:9.1f} -> {tr.energies[-1]:9.1f}  "
          f"acceptance {tr.acceptance_rate:.2f}  final T {tr.final_temperature:.2e}")
est = estimate(pools / "ising.npy", Engine.ISING, 2000)
print(f"reference mean {y_ref.mean():.3f} | estimated mean {est.mean():.3f} | "
      f"MAE {np.abs(est - y_ref).mean():.3f} | "
      f"r {np.corrcoef(est, y_ref)[0, 1]:.4f}")

print("\n=== annealed Langevin on [0, 100] ===")
lam = spectrum_extremes(graph)[0] + 1.0  # keeps the raw-domain energy bounded below
model_raw = EnergyModel(graph, field, lambda_reg=lam)
s_raw = SpinConfiguration(Engine.LANGEVIN.scale(y_ref), Engine.LANGEVIN)
cfg_raw = ChainConfig(
    engine=Engine.LANGEVIN, n_iters=20_000, thin=10, retain_last=1500, seed=202,
    schedule=AnnealingSchedule(t0=1.0, cooling=0.9995, t_min=1e-3, dt0=1e-6),
)
traces_raw = run_parallel(model_raw, cfg_raw, s_raw, 2, pools / "langevin.npy",
                          workers=1)
for k, tr in enumerate(traces_raw):
    print(f"chain {k}: H {tr.energies[0]:11.1f} -> {tr.energies[-1]:11.1f}")
est_raw = estimate(pools / "langevin.npy", Engine.LANGEVIN, 2000)
print(f"reference mean {y_ref.mean():.3f} | estimated mean {est_raw.mean():.3f} | "
      f"MAE {np.abs(est_raw - y_ref).mean():.3f} | "
      f"r {np.corrcoef(est_raw, y_ref)[0, 1]:.4f}")

# every retained state sits below the reference energy; the ratio form
# H/H_ref < 1 is the same statement whenever H_ref is positive
drops = traces[0].retained_energies - h_ref
print(f"\nretained states vs reference (Metropolis): all lower-energy: "
      f"{bool(np.all(drops < 0))}, median drop {np.median(drops):.1f}")
