"""Continuous-spin Ising and annealed Langevin simulation of territorial
outcomes, with a PCA-derived external field and conformal uncertainty."""

from .data import (
    DEFAULT_INDICATORS,
    Dataset,
    Domain,
    IndicatorSpec,
    LoadResult,
    SynthParams,
    load_dataset,
    save_dataset,
    scale_target,
    scale_values,
    synth_dataset,
    unscale_values,
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
    langevin_step,
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
    empirical_quantiles,
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
