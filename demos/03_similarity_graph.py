"""The profile-similarity network and its coupling spectrum.

Units sharing an identical five-attribute territorial profile are fully
interconnected with unit weight, so the network is a disjoint union of
cliques, stored as a partition rather than a matrix. The clique structure
gives closed-form spectrum extremes; one negative and one positive
eigenvalue make the energy non-convex.
"""

import numpy as np

from softspin import (
    GroupSums,
    build_graph,
    spectrum_extremes,
    synth_dataset,
)

dataset = synth_dataset(500, seed=23)
graph = build_graph(dataset)

sizes = np.sort(graph.group_sizes)[::-1]
print(f"units: {graph.n}, groups: {graph.n_groups}")
print("largest cliques:", sizes[:8].tolist())
print("singletons:", int((sizes == 1).sum()))
edges = int((graph.group_sizes * (graph.group_sizes - 1)).sum()) // 2
print(f"edges: {edges}")

lam_max, lam_min = spectrum_extremes(graph)
print(f"\ncoupling spectrum extremes: max={lam_max}, min={lam_min}")
print("both signs present -> the quadratic form is indefinite")

# O(1) neighbor sums through the per-group running sums
s = np.random.default_rng(1).uniform(-1, 1, size=graph.n)
sums = GroupSums(graph, s)
i = int(np.argmax(graph.group_sizes[graph.group_of]))  # unit in the biggest clique
g = graph.group_of[i]
fast = float(sums.sums[g]) - s[i]
slow = float(s[graph.members[g]].sum()) - s[i]
print(f"\nneighbor sum of unit {i} (degree {graph.degree(i)}): "
      f"cached={fast:.6f} direct={slow:.6f} diff={abs(fast-slow):.2e}")
