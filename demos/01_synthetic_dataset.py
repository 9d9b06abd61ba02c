"""Generate a synthetic unit-level dataset and look at its structure.

The generator draws categorical territorial profiles from configurable
frequencies, builds correlated base indicators group by group, and derives
the observed target as a noisy monotone function of a shared latent signal.
Everything is a pure function of (n_units, seed, params).
"""

import numpy as np

from softspin import Domain, SynthParams, scale_values, synth_dataset, unscale_values

dataset = synth_dataset(300, seed=11)
print(f"units: {dataset.n}")
print(f"indicators: {len(dataset.spec)} in groups "
      f"{sorted({s.group for s in dataset.spec})}")

target = dataset.target
print(f"\ntarget percent: mean={target.mean():.3f} "
      f"min={target.min():.3f} max={target.max():.3f}")

# the two simulation scales of the same observation
scaled = scale_values(target, Domain.ISING_SCALED)
print(f"spin scale [-1, 1]: mean={scaled.mean():.3f} "
      f"min={scaled.min():.3f} max={scaled.max():.3f}")
back = unscale_values(scaled, Domain.ISING_SCALED)
print(f"round trip error: {np.abs(back - target).max():.2e}")

# profiles repeat, which is what produces the similarity cliques later
unique = {tuple(p) for p in dataset.profiles.tolist()}
print(f"\ndistinct profiles: {len(unique)} over {dataset.n} units")

# determinism: same inputs, same dataset
again = synth_dataset(300, seed=11)
assert dataset.unit_ids == again.unit_ids
assert np.array_equal(dataset.target, again.target)
print("regenerated dataset is identical")

# a correlation knob of 1.0 makes a group's indicators collinear
tight = synth_dataset(1000, seed=3, params=SynthParams(group_correlation=1.0,
                                                       mirror_groups=()))
x = tight.indicators
names = tight.indicator_names
i, j = names.index("PERC_NEET"), names.index("PERC_LAUREATI")
print(f"\ngroup_correlation=1.0 -> |r({names[i]}, {names[j]})| = "
      f"{abs(np.corrcoef(x[:, i], x[:, j])[0, 1]):.5f}")
