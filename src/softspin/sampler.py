"""Annealed MCMC engines: single-site Metropolis and Euler-Maruyama Langevin.

Both engines explore the energy landscape around a reference configuration
under a geometric cooling schedule. The Metropolis engine perturbs one
randomly chosen spin with Gaussian noise and accepts with the Boltzmann
rule, cooling on acceptance; the Langevin engine performs full-vector
gradient steps with temperature-scaled noise and a step size proportional
to the current temperature, cooling every step, so drift and noise shrink
together. Chains are reproducible: each one owns a counter-based Philox
stream keyed by its seed, and parallel runs assign stream keys by chain
index so results do not depend on scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import DOMAIN_BOUNDS, Domain
from .energy import EnergyModel, SpinConfiguration, grad, hamiltonian
from .errors import ConfigError, DivergenceDetected, ParallelChainError
from .graph import GroupSums


class Engine(str, Enum):
    ISING = "ising"
    LANGEVIN = "langevin"

    @property
    def step_parameter(self) -> str:
        """The one ``AnnealingSchedule`` step field this engine reads."""
        return "proposal_sd" if self is Engine.ISING else "dt0"

    @property
    def domain(self) -> Domain:
        """The one scale this engine runs on: [-1, 1] or the raw percent."""
        return Domain.ISING_SCALED if self is Engine.ISING else Domain.RAW_PERCENT


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based 64-bit generator; distinct seeds give independent streams."""
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class AnnealingSchedule:
    """Geometric cooling plus the per-engine step parameters.

    Metropolis cools on each accepted proposal, Langevin on every step.
    ``t_min == t0`` keeps the temperature constant, which is how fixed-T
    runs (stationarity diagnostics) are expressed. ``dt0`` is the Langevin
    base step at ``t0``; the effective step is dt0 * T/t0. ``proposal_sd``
    is the Metropolis Gaussian perturbation scale.
    """

    t0: float = 1.0
    cooling: float = 0.9995
    t_min: float = 1e-3
    dt0: float = 1e-4
    proposal_sd: float = 0.05

    def __post_init__(self):
        if not self.t0 > 0:
            raise ConfigError("schedule: t0 must be > 0")
        if not 0.0 < self.cooling < 1.0:
            raise ConfigError("schedule: cooling must be in (0, 1)")
        if not 0.0 <= self.t_min <= self.t0:
            raise ConfigError("schedule: need t0 >= t_min >= 0")
        if not self.dt0 > 0:
            raise ConfigError("schedule: dt0 must be > 0")
        if not self.proposal_sd > 0:
            raise ConfigError("schedule: proposal_sd must be > 0")

    def cooled(self, temperature: float) -> float:
        return max(self.t_min, self.cooling * temperature)


@dataclass(frozen=True)
class ChainConfig:
    """Run-length, retention and reproducibility settings of one chain.

    ``bounded`` keeps the state inside the reference configuration's domain
    ([-1, 1] or [0, 100]); False lifts the boundary entirely (used by
    unbounded diagnostics). Metropolis proposals are reflected at the
    bounds, which preserves proposal symmetry; Langevin states are clamped,
    with a divergence guard ten domain-widths out.
    """

    engine: Engine
    n_iters: int
    burn_in_frac: float = 0.10
    thin: int = 1
    retain_last: int = 0
    seed: int = 0
    schedule: AnnealingSchedule = AnnealingSchedule()
    bounded: bool = True
    energy_stride: int = 10
    recompute_every: int = 100_000

    def __post_init__(self):
        if self.n_iters < 0:
            raise ConfigError("chain: n_iters must be >= 0")
        if not 0.0 <= self.burn_in_frac < 1.0:
            raise ConfigError("chain: burn_in_frac must be in [0, 1)")
        if self.thin < 1:
            raise ConfigError("chain: thin must be >= 1")
        if self.energy_stride < 1:
            raise ConfigError("chain: energy_stride must be >= 1")
        if self.recompute_every < 1:
            raise ConfigError("chain: recompute_every must be >= 1")
        if self.retain_last < 0:
            raise ConfigError("chain: retain_last must be >= 0")
        capacity = (self.n_iters - self.burn_in()) // self.thin
        if self.retain_last > capacity:
            raise ConfigError(
                f"chain: retain_last={self.retain_last} exceeds the "
                f"{capacity} post-burn-in thinned snapshots available"
            )

    def burn_in(self) -> int:
        return int(self.burn_in_frac * self.n_iters)

    def retained_iterations(self) -> range:
        """Iterations of the retained snapshots, oldest first: the last
        ``retain_last`` of the thinned post-burn-in iterations."""
        burn = self.burn_in()
        last = burn + (self.n_iters - burn) // self.thin * self.thin
        return range(last - (self.retain_last - 1) * self.thin, last + 1, self.thin)

    def energy_iterations(self) -> range:
        """Iterations of the strided energy series, iteration 0 included."""
        return range(0, self.n_iters + 1, self.energy_stride)


@dataclass
class ChainState:
    """Mutable state owned by exactly one chain."""

    s: np.ndarray
    temperature: float
    sums: GroupSums
    energy: float
    bounds: tuple[float, float] | None


def init_state(model: EnergyModel, s0, schedule: AnnealingSchedule,
               bounds: tuple[float, float] | None) -> ChainState:
    s = np.array(s0, dtype=float)
    sums = GroupSums(model.graph, s)
    return ChainState(s, schedule.t0, sums, hamiltonian(model, s), bounds)


def _reflect(x: float, lo: float, hi: float) -> float:
    """Fold a point back into [lo, hi] by reflection at the walls."""
    width = hi - lo
    y = (x - lo) % (2.0 * width)
    if y > width:
        y = 2.0 * width - y
    return lo + y


def accept_probability(delta: float, temperature: float) -> float:
    """Boltzmann acceptance: 1 for downhill moves, exp(-dH/T) uphill."""
    if delta <= 0.0:
        return 1.0
    if temperature <= 0.0:
        return 0.0
    return math.exp(-delta / temperature)


def metropolis_step(model: EnergyModel, state: ChainState,
                    schedule: AnnealingSchedule, rng) -> bool:
    """One single-site Metropolis update; returns whether it was accepted.

    Draws a uniform site, perturbs it with Gaussian noise of scale
    ``proposal_sd`` (reflected at the bounds if any), and accepts with
    min{1, exp(-dH/T)}. On acceptance the spin, the group-sum cache and the
    running energy are updated and the temperature cools.
    One uniform variate is consumed per step regardless of the branch so the
    random stream is aligned across runs.
    """
    s = state.s
    i = int(rng.integers(0, s.shape[0]))
    s_i = float(s[i])
    s_new = s_i + float(rng.standard_normal()) * schedule.proposal_sd
    if state.bounds is not None:
        s_new = _reflect(s_new, state.bounds[0], state.bounds[1])
    g = model.graph.group_of[i]
    nb = float(state.sums.sums[g]) - s_i
    diff = s_new - s_i
    # energy.delta_h inlined: the call costs about an eighth of a step
    delta = (
        -diff * nb
        - float(model.field[i]) * diff
        + 0.5 * model.lambda_reg * (s_new * s_new - s_i * s_i)
    )
    temperature = state.temperature
    accepted = float(rng.random()) < accept_probability(delta, temperature)
    if accepted:
        s[i] = s_new
        state.sums.sums[g] += diff
        state.energy += delta
        state.temperature = schedule.cooled(temperature)
    return accepted


def langevin_step(model: EnergyModel, state: ChainState,
                  schedule: AnnealingSchedule, rng) -> None:
    """One full-vector Euler-Maruyama update with annealed step size.

    s <- s - dt * grad H(s) + sqrt(2 T dt) * eta with eta standard normal
    and dt = dt0 * T/t0, so the drift and noise scales shrink together as
    the temperature drops. States leaving the divergence guard (ten domain
    widths beyond the bounds, or non-finite anywhere) raise; bounded states
    are clamped back into the domain. Cools every step.
    """
    temperature = state.temperature
    dt = schedule.dt0 * (temperature / schedule.t0)
    s = state.s
    noise = rng.standard_normal(s.shape[0])
    s_new = s - dt * grad(model, s, state.sums) + math.sqrt(2.0 * temperature * dt) * noise

    if not np.all(np.isfinite(s_new)):
        raise DivergenceDetected(detail="non-finite state")
    if state.bounds is not None:
        lo, hi = state.bounds
        guard = 10.0 * (hi - lo)
        if float(s_new.min()) < lo - guard or float(s_new.max()) > hi + guard:
            raise DivergenceDetected(detail="state escaped the domain guard")
        np.clip(s_new, lo, hi, out=s_new)
    elif float(np.abs(s_new).max()) > 1e12:
        raise DivergenceDetected(detail="unbounded state exceeded 1e12")

    state.s = s_new
    state.sums.recompute(s_new)
    state.temperature = schedule.cooled(temperature)


@dataclass
class ChainTrace:
    """What a finished chain leaves behind beyond its ``config``.

    ``energies`` is the energy series at ``config.energy_iterations()``;
    ``retained`` holds the snapshots at ``config.retained_iterations()``
    in chronological order, with their energies in ``retained_energies``.
    ``retained`` is None when the chain wrote its snapshots into a pool file
    (see :func:`run_parallel`).
    """

    domain: Domain
    energies: np.ndarray
    retained: np.ndarray | None
    retained_energies: np.ndarray
    accept_count: int
    final_temperature: float
    config: ChainConfig

    @property
    def acceptance_rate(self) -> float:
        n_iters = self.config.n_iters
        return self.accept_count / n_iters if n_iters else 0.0


def run_chain(model: EnergyModel, cfg: ChainConfig, s_ref: SpinConfiguration,
              retained: np.ndarray | None = None) -> ChainTrace:
    """Run one chain: burn-in, thinned retention of the last snapshots.

    The chain starts at the reference configuration. Energies are recorded
    every ``energy_stride`` iterations; the group-sum cache and running
    energy are fully recomputed every ``recompute_every`` iterations to
    cancel float drift. Divergence is re-raised with the iteration index
    attached. The snapshots go into ``retained``, a (retain_last, N) output
    array such as a view of a memory-mapped pool, or into a new array.
    """
    n = model.graph.n
    if s_ref.s.shape != (n,):
        raise ConfigError("chain: reference configuration length does not match N")
    bounds = DOMAIN_BOUNDS[s_ref.domain] if cfg.bounded else None
    schedule = cfg.schedule
    rng = make_rng(cfg.seed)
    state = init_state(model, s_ref.s, schedule, bounds)

    stride = cfg.energy_stride
    energies = np.empty(len(cfg.energy_iterations()))
    energies[0] = state.energy

    grid = cfg.retained_iterations()
    first, thin = grid.start, grid.step
    if retained is None:
        retained = np.empty((len(grid), n))
    retained_energy = np.empty(len(grid))
    accepts = 0
    is_metropolis = cfg.engine is Engine.ISING

    for t in range(1, cfg.n_iters + 1):
        try:
            if is_metropolis:
                accepts += metropolis_step(model, state, schedule, rng)
            else:
                langevin_step(model, state, schedule, rng)
        except DivergenceDetected as exc:
            raise DivergenceDetected(t, exc.detail) from None
        if t % cfg.recompute_every == 0:
            state.sums.recompute(state.s)
            state.energy = hamiltonian(model, state.s)
        record = t % stride == 0
        keep = t >= first and (t - first) % thin == 0
        if record or keep:
            energy = state.energy if is_metropolis else hamiltonian(model, state.s)
            if record:
                energies[t // stride] = energy
            if keep:
                j = (t - first) // thin
                retained[j] = state.s
                retained_energy[j] = energy

    accept_count = accepts if is_metropolis else cfg.n_iters
    return ChainTrace(
        domain=s_ref.domain,
        energies=energies,
        retained=retained,
        retained_energies=retained_energy,
        accept_count=int(accept_count),
        final_temperature=state.temperature,
        config=cfg,
    )


def _chain_job(model: EnergyModel, cfg: ChainConfig, s_ref: SpinConfiguration,
               pool_path: Path | None, c: int, k: int) -> ChainTrace:
    """Run chain ``c`` of ``k``; with a ``pool_path``, into rows ``j * k + c``
    of that .npy file, leaving only the energies in the returned trace."""
    if pool_path is None:
        return run_chain(model, cfg, s_ref)
    pool = np.load(pool_path, mmap_mode="r+")
    view = pool.reshape(cfg.retain_last, k, model.graph.n)[:, c]
    trace = run_chain(model, cfg, s_ref, retained=view)
    trace.retained = None  # the rows are in the file: unmap, and pickle nothing back
    return trace


def run_parallel(
    model: EnergyModel,
    cfg: ChainConfig,
    s_ref: SpinConfiguration,
    k_chains: int,
    workers: int = 1,
    pool_path: Path | None = None,
) -> list[ChainTrace]:
    """Run ``k_chains`` independent chains with seeds ``cfg.seed`` + index.

    Each chain owns its configuration, cache and random stream, so the
    result is invariant to the worker count and scheduling; traces come back
    in chain-index order. A failing chain does not abort its siblings: all
    failures are collected and raised together afterwards.

    With ``pool_path``, a new .npy file of ``k_chains x retain_last`` rows
    is created there and every chain writes its snapshots into it in place,
    in the layout of :func:`pooled_retained`; the traces then carry no
    snapshots. Otherwise each trace holds its own.
    """
    if k_chains < 1:
        raise ConfigError("k_chains must be >= 1")
    configs = [replace(cfg, seed=cfg.seed + i) for i in range(k_chains)]
    if pool_path is not None:  # create the file; each chain maps it on its own
        np.lib.format.open_memmap(pool_path, mode="w+", dtype=float,
                                  shape=(cfg.retain_last * k_chains, model.graph.n))

    results: list[ChainTrace | None] = [None] * k_chains
    failures: list[tuple[int, Exception]] = []
    jobs = [(model, c, s_ref, pool_path, i, k_chains) for i, c in enumerate(configs)]
    if workers <= 1 or k_chains == 1:
        for i, job in enumerate(jobs):
            try:
                results[i] = _chain_job(*job)
            except Exception as exc:  # collected, reported per chain below
                failures.append((i, exc))
    else:
        with ProcessPoolExecutor(max_workers=min(workers, k_chains)) as pool:
            futures = [pool.submit(_chain_job, *job) for job in jobs]
            for i, fut in enumerate(futures):
                try:
                    results[i] = fut.result()
                except Exception as exc:
                    failures.append((i, exc))
    if failures:
        raise ParallelChainError(failures)
    return results  # type: ignore[return-value]


def pooled_retained(traces: Sequence[ChainTrace]) -> tuple[np.ndarray, np.ndarray]:
    """Pool the retained snapshots of chains that share one retention grid.

    Row ``j * k + c`` of the pool is chain ``c``'s snapshot ``j`` (k chains),
    so rows run oldest first by (iteration, chain index) and "most recent" is
    well defined and deterministic across runs. Returns (configs, energies).
    """
    grid = traces[0].config.retained_iterations()
    if any(t.config.retained_iterations() != grid for t in traces):
        raise ConfigError("pooled_retained: the chains do not share one retention grid")
    configs = np.stack([t.retained for t in traces], axis=1)
    energies = np.stack([t.retained_energies for t in traces], axis=1)
    return configs.reshape(-1, configs.shape[2]), energies.reshape(-1)

