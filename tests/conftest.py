import numpy as np
import pytest

from softspin.data import Dataset, IndicatorSpec
from softspin.graph import InteractionGraph


def make_clique_graph(sizes) -> InteractionGraph:
    """Interaction graph that is a disjoint union of cliques of given sizes."""
    group_of = np.concatenate(
        [np.full(m, g, dtype=np.int64) for g, m in enumerate(sizes)]
    )
    sizes = np.asarray(sizes, dtype=np.int64)
    members = []
    start = 0
    for m in sizes:
        members.append(np.arange(start, start + m))
        start += m
    keys = tuple((1, 1, 1, 1, g % 3 + 1) for g in range(len(sizes)))
    return InteractionGraph(group_of, sizes, tuple(members), keys)


def dense_coupling(graph: InteractionGraph) -> np.ndarray:
    """Explicit 0/1 coupling matrix, the brute-force oracle for the partition."""
    n = graph.n
    j = np.zeros((n, n))
    for g in range(graph.n_groups):
        m = graph.members[g]
        for a in m:
            for b in m:
                if a != b:
                    j[a, b] = 1.0
    return j


def tiny_dataset(profiles, targets, indicator_values=None, spec=None) -> Dataset:
    """Dataset built directly from profile tuples and target percents."""
    spec = spec or [IndicatorSpec("X1", 1, "G1"), IndicatorSpec("X2", -1, "G1")]
    n = len(profiles)
    if indicator_values is None:
        rng = np.random.default_rng(0)
        indicator_values = rng.normal(50.0, 10.0, size=(n, len(spec)))
    return Dataset(
        unit_ids=tuple(f"u{i}" for i in range(n)),
        profiles=profiles,
        indicators=indicator_values,
        target=targets,
        center_periph=(None,) * n,
        spec=tuple(spec),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
