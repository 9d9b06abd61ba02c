"""Annealed MCMC engines: single-site Metropolis and Euler-Maruyama Langevin.

Both engines explore the energy landscape around a reference configuration
under a geometric cooling schedule. The Metropolis engine perturbs one
randomly chosen spin with Gaussian noise and accepts with the Boltzmann
rule, cooling on acceptance; the Langevin engine performs full-vector
gradient steps with temperature-scaled noise and a step size proportional
to the current temperature, cooling every step, so drift and noise shrink
together. Chains are reproducible: each one owns an SFC64 stream seeded
by its seed, and parallel runs assign seeds by chain index so results do
not depend on scheduling. A Metropolis chain draws its variates from that
stream in fixed-size blocks (``METROPOLIS_BLOCK``).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .data import replaced
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

    def scale(self, y) -> np.ndarray:
        """Raw percents on this engine's scale, as a new array: mapped
        affinely onto [-1, 1] for Ising, unchanged for Langevin."""
        y = np.asarray(y, dtype=float)
        return y / 50.0 - 1.0 if self is Engine.ISING else y.copy()

    def unscale_inplace(self, s: np.ndarray) -> np.ndarray:
        """The inverse of :meth:`scale`, written over the float array ``s``;
        returns ``s``."""
        if self is Engine.ISING:
            s += 1.0  # then *= 50: bit-equal to 50 * (s + 1)
            s *= 50.0
        return s

    @property
    def bounds(self) -> tuple[float, float]:
        """The image of the percent range [0, 100] under :meth:`scale`."""
        lo, hi = self.scale([0.0, 100.0]).tolist()
        return lo, hi


def make_rng(seed: int) -> np.random.Generator:
    """The stream of ``seed``: numpy's SFC64, seeded through ``SeedSequence``,
    so distinct seeds give independent streams."""
    return np.random.Generator(np.random.SFC64(seed))


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

    ``bounded`` keeps the state inside ``engine.bounds``
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
    """Mutable state of one chain, or of a stack of Langevin chains.

    ``s`` is one configuration or, for chains stepped together, a (k, N)
    stack of them with ``sums`` caching every row; ``energy`` starts as the
    energy of ``s`` (a float) or of each row (a (k,) array), and only the
    Metropolis step keeps it current. ``work`` holds the
    Langevin step's four preallocated buffers of the shape of ``s`` (noise,
    drift, next state, lambda * s), created on the first step.
    """

    s: np.ndarray
    temperature: float
    sums: GroupSums
    energy: float | np.ndarray
    bounds: tuple[float, float] | None
    work: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None


def init_state(model: EnergyModel, s0, schedule: AnnealingSchedule,
               bounds: tuple[float, float] | None) -> ChainState:
    """The state of a chain starting at ``s0``, or of a stack of chains
    starting at the rows of a (k, N) ``s0``, each row with its energy."""
    s = np.array(s0, dtype=float)
    sums = GroupSums(model.graph, s)
    return ChainState(s, schedule.t0, sums, hamiltonian(model, s, sums), bounds)


# Variates a Metropolis chain draws from its stream at a time: this many
# sites, then as many normals, then as many uniforms. Chains draw whole
# blocks only, so a chain of n steps uses the first n variates of any longer
# chain with the same seed.
METROPOLIS_BLOCK = 4096


def metropolis_kernel(spins, mirror, sums, group_of, field, lambda_reg: float,
                      schedule: AnnealingSchedule,
                      bounds: tuple[float, float] | None, variates,
                      temperature: float, energy: float, energies=None, stride: int = 1,
                      stop: int = 0, on_stop=None) -> tuple[float, float, int]:
    """Single-site Metropolis updates, one per (site, normal, uniform) triple.

    The one home of the update rule. Spin ``site`` is perturbed by
    ``normal * proposal_sd``, reflected at the bounds, if any; the increment
    dH comes from the group-sum cache ``sums`` in O(1). The move is accepted
    if dH <= 0, or at T > 0 if ``uniform < exp(-dH/T)``; then the spin is
    written to ``spins`` and ``mirror``, its group sum and the running energy
    take the change, and T cools to ``max(t_min, cooling * T)``.

    ``spins``, ``sums``, ``group_of`` and ``field`` are indexed per unit or
    group: plain lists on the chain's fast path, numpy arrays in
    :func:`metropolis_step`. After the step numbered ``stop`` (counting from
    1), ``on_stop(stop, energy)`` runs and returns the next stop and the
    energy to carry on with; then each ``stride``-th step's energy goes to
    ``energies[t // stride]``, if given. Returns (T, energy, accepted moves).
    """
    sd, cooling, t_min = schedule.proposal_sd, schedule.cooling, schedule.t_min
    half_lambda = 0.5 * lambda_reg
    if bounds is not None:
        lo, width = bounds[0], bounds[1] - bounds[0]
        period = 2.0 * width
    exp = math.exp
    record = stride if energies is not None else 0
    accepted = t = 0
    for i, z, u in variates:
        s_i = spins[i]
        s_new = s_i + z * sd
        if bounds is not None:  # reflect at the walls
            y = (s_new - lo) % period
            s_new = lo + (period - y if y > width else y)
        g = group_of[i]
        diff = s_new - s_i
        delta = (
            -diff * (sums[g] - s_i)
            - field[i] * diff
            + half_lambda * (s_new * s_new - s_i * s_i)
        )
        if delta <= 0.0 or (temperature > 0.0 and u < exp(-delta / temperature)):
            spins[i] = mirror[i] = s_new
            sums[g] += diff
            energy += delta
            temperature *= cooling
            if temperature < t_min:
                temperature = t_min
            accepted += 1
        t += 1
        if t == stop:
            stop, energy = on_stop(t, energy)
        if t == record:
            energies[t // stride] = energy
            record += stride
    return temperature, energy, accepted


def metropolis_step(model: EnergyModel, state: ChainState,
                    schedule: AnnealingSchedule, rng) -> bool:
    """One single-site Metropolis update; returns whether it was accepted.

    The readable one-step form of the chain's update: draws a uniform site,
    a standard normal and a uniform variate from ``rng``, in that order, and
    runs :func:`metropolis_kernel` on that one triple and the state's
    arrays. All three variates are drawn whatever the outcome, so the
    random stream stays aligned across runs.
    """
    i = int(rng.integers(0, state.s.shape[0]))
    z = float(rng.standard_normal())
    u = float(rng.random())
    state.temperature, state.energy, accepted = metropolis_kernel(
        state.s, state.s, state.sums.sums, model.graph.group_of, model.field,
        model.lambda_reg, schedule, state.bounds, ((i, z, u),),
        state.temperature, state.energy,
    )
    return accepted == 1


def _metropolis_blocks(rng, n: int):
    """Endless (site, normal, uniform) blocks of one chain's stream."""
    while True:
        sites = rng.integers(0, n, size=METROPOLIS_BLOCK).tolist()
        normals = rng.standard_normal(METROPOLIS_BLOCK).tolist()
        uniforms = rng.random(METROPOLIS_BLOCK).tolist()
        yield zip(sites, normals, uniforms)


def _run_metropolis(model: EnergyModel, state: ChainState, trace: ChainTrace) -> None:
    """Run the Metropolis chain of ``trace`` from ``state`` and fill the trace.

    Spins and group sums are held as Python lists, which index and add much
    faster than numpy scalars. ``state.s`` mirrors the spins, written only
    on acceptance, so a snapshot is still one array copy. The kernel writes
    the energy series into ``trace.energies``, and ``trace.keep`` keeps the
    snapshot after each retained step. Every ``recompute_every`` steps the
    group sums and the running energy are recomputed from ``state.s`` first,
    which cancels float drift.
    """
    cfg, keep = trace.config, trace.keep
    every = cfg.recompute_every
    spins, sums = state.s.tolist(), state.sums.sums.tolist()
    pending = iter(sorted(set(cfg.retained_iterations()).union(
        range(every, cfg.n_iters + 1, every))))

    def on_stop(t: int, energy: float) -> tuple[int, float]:
        if t % every == 0:
            state.sums.recompute(state.s)
            sums[:] = state.sums.sums.tolist()
            energy = hamiltonian(model, state.s, state.sums)
        keep(t, state.s, energy)
        return next(pending, 0), energy

    variates = islice(chain.from_iterable(_metropolis_blocks(make_rng(cfg.seed), len(spins))),
                      cfg.n_iters)
    state.temperature, state.energy, trace.accept_count = metropolis_kernel(
        spins, state.s, sums, model.graph.group_of.tolist(), model.field.tolist(),
        model.lambda_reg, cfg.schedule, state.bounds, variates,
        state.temperature, state.energy, trace.energies, cfg.energy_stride,
        next(pending, 0), on_stop,
    )
    trace.final_temperature = state.temperature


def langevin_kernel(model: EnergyModel, state: ChainState,
                    schedule: AnnealingSchedule, rngs) -> list[tuple[int, str]]:
    """One full-vector Euler-Maruyama update of every row of ``state.s``.

    The one home of the update rule. Each row is a configuration (a 1-D
    ``state.s`` is one row); row ``c`` draws its noise from ``rngs[c]``:

        s <- s - dt * grad H(s) + sqrt(2 T dt) * eta,  eta standard normal

    with dt = dt0 * T/t0, so the drift and noise scales shrink together as
    the temperature drops. The rows share T, dt and the cooling, which
    happens every step. A row leaving the divergence guard (ten domain
    widths beyond the bounds, 1e12 without bounds, or non-finite anywhere)
    is dropped from the state, and the others go on, clamped back into the
    domain when bounded; a step in which every row diverges leaves the state
    as it was. Returns the (row, detail) pairs of the dropped rows, row
    numbers as they were before the step. Works in ``state.work``.
    """
    temperature = state.temperature
    dt = schedule.dt0 * (temperature / schedule.t0)
    s = state.s
    if state.work is None:
        state.work = tuple(np.empty_like(s) for _ in range(4))
    noise, drift, s_new, scaled = state.work
    for row, rng in zip(noise.reshape(len(rngs), -1), rngs):
        rng.standard_normal(out=row)
    grad(model, s, state.sums, out=drift, work=scaled)
    drift *= dt
    np.subtract(s, drift, out=s_new)
    noise *= math.sqrt(2.0 * temperature * dt)
    s_new += noise

    bounds = state.bounds
    if bounds is not None:
        lo, hi = bounds
        guard = 10.0 * (hi - lo)
        floor, ceiling = lo - guard, hi + guard
    else:
        floor, ceiling = -1e12, 1e12
    diverged = []
    if not (s_new.min() >= floor and s_new.max() <= ceiling):  # NaN fails too
        escaped = ("state escaped the domain guard" if bounds is not None
                   else "unbounded state exceeded 1e12")
        for c, row in enumerate(s_new.reshape(len(rngs), -1)):
            if not (row.min() >= floor and row.max() <= ceiling):
                diverged.append((c, escaped if np.all(np.isfinite(row)) else "non-finite state"))
        if len(diverged) == len(rngs):
            return diverged
    if bounds is not None:
        np.clip(s_new, lo, hi, out=s_new)

    if diverged:
        state.s = np.delete(s_new, [c for c, _ in diverged], axis=0)
        state.sums, state.work = GroupSums(model.graph, state.s), None
    else:
        state.s, state.work = s_new, (noise, drift, s, scaled)
        state.sums.recompute(s_new)
    state.temperature = schedule.cooled(temperature)
    return diverged


def _run_langevin(model: EnergyModel, state: ChainState,
                  traces: list[ChainTrace]) -> list[DivergenceDetected | None]:
    """Step the chains of ``traces`` together, row ``c`` of ``state.s`` being
    chain ``c``; return each chain's divergence, None where it finished.

    After every ``energy_stride``-th step each running chain's energy goes
    into its ``energies``, and after each retained step its ``keep`` keeps
    the snapshot. A chain that diverges is dropped at that iteration.
    """
    cfg = traces[0].config
    stride = cfg.energy_stride
    # only the iterations that record an energy or keep a snapshot stop the run
    stops = set(cfg.energy_iterations()[1:]).union(cfg.retained_iterations())
    rngs = [make_rng(trace.config.seed) for trace in traces]
    running = list(range(len(traces)))  # chain index of each row
    failures: list[DivergenceDetected | None] = [None] * len(traces)
    for it in range(1, cfg.n_iters + 1):
        diverged = langevin_kernel(model, state, cfg.schedule, rngs)
        if diverged:
            for row, detail in diverged:
                failures[running[row]] = DivergenceDetected(it, detail)
            dropped = {row for row, _ in diverged}
            rngs = [r for row, r in enumerate(rngs) if row not in dropped]
            running = [c for row, c in enumerate(running) if row not in dropped]
            if not running:
                break
        if it in stops:  # the step left state.sums fresh
            energies = np.atleast_1d(hamiltonian(model, state.s, state.sums))
            for c, s, energy in zip(running, state.s.reshape(len(running), -1), energies):
                if it % stride == 0:
                    traces[c].energies[it // stride] = energy
                traces[c].keep(it, s, energy)
    return failures


@dataclass
class ChainTrace:
    """What a chain leaves behind beyond its ``config``.

    ``energies`` is the energy series at ``config.energy_iterations()``,
    starting with the reference energy; ``retained`` holds the snapshots at
    ``config.retained_iterations()`` in chronological order, with their
    energies in ``retained_energies``. ``retained`` is None when the chain
    wrote its snapshots into a pool file (see :func:`run_parallel`).
    """

    config: ChainConfig
    energies: np.ndarray
    retained: np.ndarray | None
    retained_energies: np.ndarray
    accept_count: int = 0
    final_temperature: float = math.nan

    @cached_property
    def _grid(self) -> range:  # computed once: keep runs after every retained step
        return self.config.retained_iterations()

    def keep(self, t: int, s: np.ndarray, energy: float) -> None:
        """Keep state ``s`` and its ``energy`` if step ``t`` is on the retained grid."""
        if t in self._grid:
            j = self._grid.index(t)
            self.retained[j] = s
            self.retained_energies[j] = energy

    @property
    def acceptance_rate(self) -> float:
        n_iters = self.config.n_iters
        return self.accept_count / n_iters if n_iters else 0.0


def run_chains(model: EnergyModel, cfg: ChainConfig, s_ref: SpinConfiguration,
               seeds: list[int], retained: list[np.ndarray] | None = None,
               ) -> list[ChainTrace | DivergenceDetected]:
    """Run one chain of ``cfg`` per seed: burn-in, thinned retention.

    Every chain starts at the reference configuration. ``cfg.engine`` alone
    sets the dynamics and, if ``cfg.bounded``, the bounds; a reference on
    the other engine's scale raises :class:`ConfigError`. Energies are
    recorded every ``energy_stride`` iterations; the Metropolis group-sum
    cache and running energy are fully recomputed every ``recompute_every``
    iterations to cancel float drift. Metropolis chains run one after
    another; Langevin chains are stepped together as the rows of one (k, N)
    stack, which gives each chain the same bits as a run on its own. Chain
    ``c``'s snapshots go into ``retained[c]``, a (retain_last, N) output
    array such as a view of a memory-mapped pool, or into a new array.
    Returns, per chain, its trace (``config`` is ``cfg`` with seed
    ``seeds[c]``) or the divergence that stopped it, iteration attached.
    """
    n = model.graph.n
    if s_ref.s.shape != (n,):
        raise ConfigError("chain: reference configuration length does not match N")
    if s_ref.engine is not cfg.engine:
        raise ConfigError(f"chain: a {cfg.engine.value} chain needs a reference on its "
                          f"own scale, not on the {s_ref.engine.value} scale")
    bounds = cfg.engine.bounds if cfg.bounded else None
    h_ref = hamiltonian(model, s_ref.s)  # row 0 of every energy series; the run writes the rest
    traces = [ChainTrace(replace(cfg, seed=seed), np.full(len(cfg.energy_iterations()), h_ref),
                         np.empty((cfg.retain_last, n)) if retained is None else retained[c],
                         np.empty(cfg.retain_last))
              for c, seed in enumerate(seeds)]
    if cfg.engine is Engine.ISING:
        for trace in traces:
            _run_metropolis(model, init_state(model, s_ref.s, cfg.schedule, bounds), trace)
        return traces
    # one chain keeps a 1-D state: a (1, N) stack costs a few µs a step
    s0 = np.tile(s_ref.s, (len(traces), 1)) if len(traces) > 1 else s_ref.s
    state = init_state(model, s0, cfg.schedule, bounds)
    failures = _run_langevin(model, state, traces)
    for trace in traces:
        trace.accept_count, trace.final_temperature = cfg.n_iters, state.temperature
    return [trace if failure is None else failure for trace, failure in zip(traces, failures)]


def run_chain(model: EnergyModel, cfg: ChainConfig, s_ref: SpinConfiguration) -> ChainTrace:
    """Run one chain: :func:`run_chains` with the one seed ``cfg.seed``.

    Divergence is raised as :class:`DivergenceDetected` with the iteration
    attached.
    """
    (result,) = run_chains(model, cfg, s_ref, [cfg.seed])
    if isinstance(result, DivergenceDetected):
        raise result
    return result


def _slice_job(model: EnergyModel, cfg: ChainConfig, s_ref: SpinConfiguration, pool_path: Path,
               chains: list[int], k: int) -> list[ChainTrace | DivergenceDetected]:
    """Run each chain ``c`` in ``chains`` of ``k`` with seed ``cfg.seed + c``
    into rows ``j * k + c`` of the .npy file at ``pool_path``, leaving only
    the energies in the traces."""
    # a plain ndarray: each row write to a memmap runs its Python __array_finalize__
    pool = np.load(pool_path, mmap_mode="r+").view(np.ndarray)
    rows = pool.reshape(cfg.retain_last, k, model.graph.n)
    results = run_chains(model, cfg, s_ref, [cfg.seed + c for c in chains],
                         [rows[:, c] for c in chains])
    for result in results:
        if isinstance(result, ChainTrace):
            result.retained = None  # the rows are in the file: unmap, and pickle nothing back
    return results


def run_parallel(
    model: EnergyModel,
    cfg: ChainConfig,
    s_ref: SpinConfiguration,
    k_chains: int,
    pool_path: Path,
    workers: int = 1,
) -> list[ChainTrace]:
    """Run ``k_chains`` independent chains with seeds ``cfg.seed`` + index.

    The chains are split into ``min(workers, k_chains)`` contiguous slices,
    one job per slice, each through :func:`run_chains`. Each chain owns its
    configuration, cache and random stream, so the result is invariant to
    the worker count and scheduling; traces come back in chain-index order.
    A failing chain does not abort its siblings: all failures are collected
    and raised together afterwards.

    The chains write their snapshots in place into one float32 .npy file of
    ``k_chains x retain_last`` rows: row ``j * k + c`` is chain ``c``'s
    snapshot ``j``, so rows run oldest first by (iteration, chain index).
    The chains step in float64; only the stored rows are rounded.
    The file is written through :func:`~softspin.data.replaced`, so it
    appears at ``pool_path`` only once every chain has finished; when any
    chain fails it is deleted. The traces carry no snapshots.
    """
    if k_chains < 1:
        raise ConfigError("k_chains must be >= 1")
    slices = np.array_split(range(k_chains), min(max(workers, 1), k_chains))
    results: list[ChainTrace | Exception] = []
    with replaced(pool_path) as partial:
        # create the file; each job maps it on its own
        np.lib.format.open_memmap(partial, mode="w+", dtype=np.float32,
                                  shape=(cfg.retain_last * k_chains, model.graph.n))
        jobs = [(model, cfg, s_ref, partial, chains.tolist(), k_chains) for chains in slices]
        if len(jobs) == 1:
            outcomes = [_outcome(_slice_job, *jobs[0])]
        else:
            with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
                futures = [pool.submit(_slice_job, *job) for job in jobs]
                outcomes = [_outcome(fut.result) for fut in futures]
        for job, outcome in zip(jobs, outcomes):
            # a job that failed as a whole fails each of its chains
            results += outcome if isinstance(outcome, list) else [outcome] * len(job[4])
        failures = [(i, r) for i, r in enumerate(results) if isinstance(r, Exception)]
        if failures:
            raise ParallelChainError(failures)
    return results  # type: ignore[return-value]


def _outcome(call, *args):
    """The value of ``call(*args)``, or the exception it raised."""
    try:
        return call(*args)
    except Exception as exc:  # reported per chain by run_parallel
        return exc
