"""Continuous-spin Ising and annealed Langevin simulation of territorial
outcomes, with a PCA-derived external field and conformal uncertainty."""

from .data import (
    DEFAULT_INDICATORS,
    Dataset,
    IndicatorSpec,
    LoadResult,
    SynthParams,
    load_dataset,
    save_dataset,
    scale_target,
    synth_dataset,
)
from .indices import (
    Direction,
    PCASummary,
    build_composites,
    external_field,
    mpi,
    pca,
    standardize,
)
from .graph import GroupSums, InteractionGraph, build_graph, spectrum_extremes
from .energy import (
    EnergyModel,
    SpinConfiguration,
    delta_h,
    energy_ratio,
    grad,
    hamiltonian,
    log_likelihood_ratio,
)
from .sampler import (
    AnnealingSchedule,
    ChainConfig,
    ChainTrace,
    Engine,
    make_rng,
    metropolis_step,
    run_chain,
    run_parallel,
)
from .conformal import (
    BatchSpec,
    Splits,
    batch_means,
    calibrate,
    nonconformity,
    repeat_splits,
    six_number,
)
from .analysis import (
    baseline_lm,
    compare,
    group_summaries,
    ols_standardized,
    residual_associations,
)

__version__ = "0.1.0"
