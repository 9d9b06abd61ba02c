"""From base indicators to the external field.

Each indicator is standardized to mean 100 / sd 10 with its polarity, the
indicators of a group are aggregated into a dispersion-penalizing composite,
and the composite matrix is reduced by correlation-matrix PCA. The external
field is the eigenvalue-weighted sum of the component scores; an exactly
collinear composite contributes a zero eigenvalue and therefore no weight.
"""

import numpy as np

from softspin import (
    build_composites,
    external_field,
    pca,
    synth_dataset,
)

dataset = synth_dataset(400, seed=5)
values, names = build_composites(dataset)

print("composite columns:", names)
print("column means (approximately 100):",
      np.round(values.mean(axis=0), 2))

summary = pca(values, names)
corr = summary.correlation
print("\ncorrelation matrix:")
header = "      " + "".join(f"{n:>8}" for n in names)
print(header)
for i, n in enumerate(names):
    print(f"{n:<6}" + "".join(f"{corr[i, j]:8.4f}" for j in range(len(names))))
print(f"\nnote r({names[0]}, {names[-1]}) = {corr[0, -1]:.4f}: "
      "the last group mirrors the first by construction")

print("\nPCA summary:")
print("component sd:        ", np.round(summary.standard_deviations, 4))
print("variance proportion: ", np.round(summary.proportions, 4))
print("cumulative:          ", np.round(summary.cumulative, 4))
print("the zero-variance component is kept, with zero weight")

h = external_field(summary)
print("\nfield weights: the variance proportions above, which sum to one")
print(f"external field: mean={h.mean():.4f} sd={h.std():.4f}")
print("first five units:", np.round(h[:5], 4))
