"""Annealed MCMC engines: single-site Metropolis and Euler-Maruyama Langevin.

Both engines explore the energy landscape around a reference configuration
under a geometric cooling schedule. The Metropolis engine perturbs one
randomly chosen spin with Gaussian noise and accepts with the Boltzmann
rule, cooling on acceptance. The Langevin engine is the chain of
full-vector gradient steps with temperature-scaled noise and a step size
proportional to the current temperature, cooling every step; its law is
closed form (:func:`euler_law`), so it is sampled only where it records,
and a run whose law could leave the divergence guard is refused with
:class:`ConfigError` before it draws.
Chains are reproducible: each one owns an SFC64 stream seeded by its seed,
and parallel runs assign seeds by chain index so results do not depend on
scheduling. A Metropolis chain draws its variates from that stream in
fixed-size blocks (``METROPOLIS_BLOCK``). A Langevin stack is sampled a
block of grid points (``LANGEVIN_BLOCK``) at a time, and its bits do not
depend on that block's size.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import cache
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .data import replaced
from .energy import EnergyModel, SpinConfiguration, hamiltonian
from .errors import ConfigError
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

    ``bounded`` reflects Metropolis proposals at ``engine.bounds`` ([-1, 1]
    or [0, 100]), which preserves proposal symmetry, and puts the divergence
    guard that a Langevin law is checked against ten domain widths beyond
    them; False lifts the reflection and moves the guard to 1e12 (used by
    unbounded diagnostics). A Langevin state is never clamped.
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

    ``spins``, ``sums``, ``group_of`` and ``field`` are plain lists indexed
    per unit or group; ``mirror`` is a numpy copy of ``spins``. After the
    step numbered ``stop`` (counting from 1), ``on_stop(stop, energy)`` runs
    and returns the next stop and the energy to carry on with; then each
    ``stride``-th step's energy goes to ``energies[t // stride]``, if given.
    Returns (T, energy, accepted moves).
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


def _metropolis_blocks(rng, n: int):
    """Endless (site, normal, uniform) blocks of one chain's stream."""
    while True:
        sites = rng.integers(0, n, size=METROPOLIS_BLOCK).tolist()
        normals = rng.standard_normal(METROPOLIS_BLOCK).tolist()
        uniforms = rng.random(METROPOLIS_BLOCK).tolist()
        yield zip(sites, normals, uniforms)


def _run_metropolis(model: EnergyModel, s0: np.ndarray, trace: ChainTrace) -> None:
    """Run the Metropolis chain of ``trace`` from ``s0`` and fill the trace.

    The chain starts at ``config.schedule.t0`` and at the reference energy
    ``trace.energies[0]``. Spins and group sums are held as Python lists,
    which index and add much faster than numpy scalars; a numpy mirror of
    the spins, written only on acceptance, makes a snapshot one array copy.
    :func:`metropolis_kernel` writes the energy series into
    ``trace.energies``; after each retained step the mirror and the running
    energy go into ``trace.retained`` and ``trace.retained_energies``. Every
    ``recompute_every`` steps the group sums and the running energy are
    recomputed from the mirror first, which cancels float drift.
    """
    cfg = trace.config
    every, retained = cfg.recompute_every, cfg.retained_iterations()
    mirror = np.array(s0, dtype=float)
    group_sums = GroupSums(model.graph, mirror)
    spins, sums = mirror.tolist(), group_sums.sums.tolist()
    pending = iter(sorted(set(retained).union(range(every, cfg.n_iters + 1, every))))

    def on_stop(t: int, energy: float) -> tuple[int, float]:
        if t % every == 0:
            group_sums.recompute(mirror)
            sums[:] = group_sums.sums.tolist()
            energy = hamiltonian(model, mirror, group_sums)
        if t in retained:
            j = retained.index(t)
            trace.retained[j] = mirror
            trace.retained_energies[j] = energy
        return next(pending, 0), energy

    variates = islice(chain.from_iterable(_metropolis_blocks(make_rng(cfg.seed), len(spins))),
                      cfg.n_iters)
    trace.final_temperature, _, trace.accept_count = metropolis_kernel(
        spins, mirror, sums, model.graph.group_of.tolist(), model.field.tolist(),
        model.lambda_reg, cfg.schedule, cfg.engine.bounds if cfg.bounded else None, variates,
        cfg.schedule.t0, float(trace.energies[0]), trace.energies, cfg.energy_stride,
        next(pending, 0), on_stop,
    )


def langevin_steps(schedule: AnnealingSchedule, n_iters: int) -> tuple[np.ndarray, np.ndarray]:
    """``temps[k]``, the temperature after ``k`` of ``n_iters`` Langevin steps
    (cooled every step, so ``temps[-1]`` is the final one), and ``dts[k]``,
    the size dt0 * T/t0 of step ``k + 1``, which runs at ``temps[k]``."""
    temps = [schedule.t0]
    while len(temps) <= n_iters and temps[-1] > schedule.t_min:  # cooled(t_min) == t_min
        temps.append(schedule.cooled(temps[-1]))
    temps += [schedule.t_min] * (n_iters + 1 - len(temps))
    return np.array(temps), schedule.dt0 * (np.array(temps[:-1]) / schedule.t0)


def euler_law(model: EnergyModel, temps: np.ndarray, dts: np.ndarray, grid):
    """The law of the Euler-Maruyama steps between consecutive grid points.

    The one home of the Langevin dynamics. A step at temperature T is
    s <- s - dt (A s - h) + sqrt(2 T dt) eta, eta standard normal, with
    A = (lambda + 1) I - 1 1^T on each clique, so it moves two kinds of mode
    as scalars: mode 0, a unit's deviation from its clique mean, at rate
    a = lambda + 1, and mode 1 + g, the mean of clique g, at lambda + 1 - n_g.
    Over a stretch of steps each mode x maps to P x + B h + sqrt(V) xi (h
    and xi that mode of the field and of a standard normal vector), where
    each step makes P <- f P, B <- f B + dt and V <- f^2 V + 2 T dt, with
    f = 1 - dt a. Yields (P, B, V) over the modes for each grid iteration,
    of the steps since the previous one; step k runs at ``temps[k - 1]``.
    A stretch that starts at the final temperature runs wholly at it, so its
    law depends on its length alone: its (read-only) arrays are reused.
    """
    rates = model.lambda_reg + 1.0 - np.concatenate(([0], model.graph.group_sizes))
    laws, start = {}, 0  # stretches at the final temperature by length; None: the last other
    for stop in grid:
        key = stop - start if temps[start] == temps[-1] else None
        if key is None or key not in laws:
            p, b, v = 1.0, 0.0, 0.0
            for temperature, dt in zip(temps[start:stop].tolist(), dts[start:stop].tolist()):
                f = 1.0 - dt * rates
                p, b, v = f * p, f * b + dt, f * f * v + 2.0 * temperature * dt
            laws[key] = p, b, v
        yield laws[key]
        start = stop


# Grid points a Langevin stack is sampled in at a time (see _run_langevin);
# any size gives the same bits.
LANGEVIN_BLOCK = 32

# Standard deviations of the envelope that _check_law puts about the mean of
# each unit's law. A normal value passes it with chance 2 Phi(-40) < 1e-349,
# so over the 1383 x 60,001 x 6 = 5.0e8 values of the README's full scale
# the chance that some sampled value passes its envelope is below 1e-340.
# A smaller Z (10 gives 1e-14 there) would admit more runs; 40 refuses a unit
# whose mean bound stays in the domain only if its sd is above a quarter of
# the domain width (the guard is ten widths out), where a chain says nothing.
ENVELOPE_Z = 40.0


def _check_law(model: EnergyModel, cfg: ChainConfig, s0: np.ndarray, h_bar: np.ndarray,
               grid: np.ndarray, laws: list) -> None:
    """Raise :class:`ConfigError` if the chains from ``s0`` may leave the
    divergence guard at a grid point: ten domain widths beyond
    ``cfg.engine.bounds``, 1e12 when not ``cfg.bounded``, or non-finite.

    ``laws`` are the per-stretch laws of :func:`euler_law` at ``grid``;
    composed from iteration 0 (P <- p P, B <- p B + b, V <- p^2 V + v) they
    give each unit the normal law with mean Pg m + Bg hbar + P0 d + B0 e
    and variance V0 (1 - 1/n_g) + Vg / n_g, where m and ``h_bar`` are the
    clique means of ``s0`` and of the field, and d and e the unit's deviations
    from them. The envelope bounds |P0 d + B0 e| by the largest deviations
    and adds ``ENVELOPE_Z`` sd. The law does not depend on the seed, so the
    check fails every chain or none.
    """
    graph, sizes = model.graph, model.graph.group_sizes
    m = GroupSums(graph, s0).sums / sizes
    dev_s = np.abs(s0 - m[graph.group_of]).max()
    dev_h = np.abs(model.field - h_bar[graph.group_of]).max()
    lo, hi = cfg.engine.bounds
    floor, ceiling = (lo - 10 * (hi - lo), hi + 10 * (hi - lo)) if cfg.bounded else (-1e12, 1e12)
    big, small = 1.0 - 1.0 / sizes, 1.0 / sizes  # the deviation and mean shares of a unit's noise
    P, BV = 1.0, np.zeros((2, 1))  # B and V
    for first in range(0, len(grid), LANGEVIN_BLOCK):
        # one block at a time, as the sampler stacks them again: the whole grid's would not fit
        p, b, v = (np.array(q) for q in zip(*laws[first:first + LANGEVIN_BLOCK]))
        bv, scale = np.stack((b, v), axis=1), np.stack((p, p * p), axis=1)
        for pj, scale_j, bv_j in zip(p, scale, bv):  # each row becomes the law from iteration 0
            bv_j += scale_j * BV
            pj *= P
            P, BV = pj, bv_j
        b, v = bv[:, 0], bv[:, 1]
        mean = p[:, 1:] * m + b[:, 1:] * h_bar
        reach = ENVELOPE_Z * np.sqrt(v[:, :1] * big + v[:, 1:] * small)
        reach += np.abs(p[:, :1]) * dev_s + np.abs(b[:, :1]) * dev_h
        inside = ((mean - reach >= floor) & (mean + reach <= ceiling)).all(axis=1)
        if not inside.all():
            j = int(np.argmin(inside))
            if not (np.isfinite(mean[j]).all() and np.isfinite(reach[j]).all()):
                detail = "non-finite state"
            else:
                detail = ("state escaped the domain guard" if cfg.bounded
                          else "unbounded state exceeded 1e12")
            raise ConfigError(f"langevin: the law of the chains leaves the divergence guard at "
                              f"iteration {grid[first + j]}: {detail} "
                              f"(mean +- {ENVELOPE_Z:g} sd)")


def _run_langevin(model: EnergyModel, s0: np.ndarray, traces: list[ChainTrace]) -> None:
    """Sample the chains of ``traces`` (row ``c`` of a (k, N) stack from
    ``s0`` is chain ``c``) at their energy and retained iterations.

    The law of :func:`euler_law` is computed once; :func:`_check_law`
    rejects it before any normal is drawn if the chains could leave the
    divergence guard. At each grid point each row draws a standard normal
    vector xi from its own stream, and the stack moves to a draw of that
    law: x <- P0 x + sqrt(V0) xi + B0 h + ((Pg - P0) m + (Bg - B0) hbar
    + (sqrt(Vg) - sqrt(V0)) xibar)[group_of], with m, hbar and xibar the
    clique means of x, h and xi. Per block of ``LANGEVIN_BLOCK`` grid points
    each row draws its normals in one call, in the same stream order, and
    all but the update of x and of m are done once for the block: the
    energies in one :func:`hamiltonian` call, and the records.
    """
    cfg = traces[0].config
    graph, stride, retained = model.graph, cfg.energy_stride, cfg.retained_iterations()
    temps, dts = langevin_steps(cfg.schedule, cfg.n_iters)
    grid = np.array(sorted(set(cfg.energy_iterations()[1:]).union(retained)), dtype=np.int64)
    h_bar = GroupSums(graph, model.field).sums / graph.group_sizes
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging law overflows
        laws = list(euler_law(model, temps, dts, grid.tolist()))
        _check_law(model, cfg, s0, h_bar, grid, laws)
    on_energy, kept = grid % stride == 0, np.isin(grid, retained)
    slot = (grid - retained.start) // retained.step  # a kept point's snapshot index
    k, n, size = len(traces), graph.n, min(LANGEVIN_BLOCK, len(grid))
    x = np.tile(s0, (k, 1))
    sums = GroupSums(graph, x)  # the group sums of x
    shift, xi_buffer = np.empty_like(x), np.empty(size * k * n)
    xs, xs_sums = np.empty((size, k, n)), np.empty((size, *sums.sums.shape))  # a block's states
    block_sums = cache(lambda rows: GroupSums(graph, np.zeros((rows, n))))  # per block size
    lo, hi = cfg.engine.bounds
    rngs = [make_rng(trace.config.seed) for trace in traces]
    for first in range(0, len(grid), LANGEVIN_BLOCK):
        mine = slice(first, first + LANGEVIN_BLOCK)
        p, b, v = (np.array(q) for q in zip(*laws[mine]))  # (g, modes) each
        g = len(p)
        sd = np.sqrt(v)
        xi = xi_buffer[:k * g * n].reshape(k, g, n)  # chain c's normals in xi[c]
        for row, rng in zip(xi, rngs):
            rng.standard_normal(out=row)
        block = block_sums(k * g)
        block.recompute(xi.reshape(k * g, n))
        noise = block.sums.reshape(k, g, -1) * (sd[:, 1:] - sd[:, :1])
        xi *= sd[:, 0, None]
        dp, h_term = p[:, 1:] - p[:, :1], (b[:, 1:] - b[:, :1]) * h_bar
        field = np.multiply.outer(b[:, 0], model.field)
        for j in range(g):
            group = dp[j] * sums.sums
            group += noise[:, j]
            group /= graph.group_sizes
            group += h_term[j]
            x = np.multiply(x, p[j, 0], out=xs[j])
            x += xi[:, j]
            x += np.take(group, sums.index, out=shift, mode="clip")
            x += field[j]
            sums.recompute(x)
            xs_sums[j] = sums.sums
        states = xs[:g]
        block.sums = xs_sums[:g].reshape(g * k, -1)  # now the group sums of the states
        energies = hamiltonian(model, states.reshape(g * k, n), block).reshape(g, k)
        outside = (states.min(axis=2) < lo) | (states.max(axis=2) > hi)
        at_energy, at_kept = on_energy[mine], kept[mine]
        at, to = grid[mine][at_energy] // stride, slot[mine][at_kept]
        for c, trace in enumerate(traces):
            trace.energies[at] = energies[at_energy, c]
            trace.retained[to] = snaps = states[at_kept, c]
            trace.retained_energies[to] = energies[at_kept, c]
            if outside[at_kept, c].any():
                trace.outside_bounds += int(np.count_nonzero((snaps < lo) | (snaps > hi)))
    final, flow_time = float(temps[-1]), float(dts.sum())
    for trace in traces:
        trace.accept_count, trace.final_temperature, trace.flow_time = cfg.n_iters, final, flow_time


@dataclass
class ChainTrace:
    """What a chain leaves behind beyond its ``config``.

    ``energies`` is the energy series at ``config.energy_iterations()``,
    starting with the reference energy; ``retained`` holds the snapshots at
    ``config.retained_iterations()`` in chronological order, with their
    energies in ``retained_energies``; each engine's run writes these rows
    itself. ``retained`` is None when the chain wrote its snapshots into a
    pool file (see :func:`run_parallel`). A Langevin chain gives its flow
    time, the sum of its step sizes, and the number of its retained values
    outside ``config.engine.bounds``.
    """

    config: ChainConfig
    energies: np.ndarray
    retained: np.ndarray | None
    retained_energies: np.ndarray
    accept_count: int = 0
    final_temperature: float = math.nan
    flow_time: float = math.nan
    outside_bounds: int = 0

    @property
    def acceptance_rate(self) -> float:
        n_iters = self.config.n_iters
        return self.accept_count / n_iters if n_iters else 0.0


def run_chains(model: EnergyModel, cfg: ChainConfig, s_ref: SpinConfiguration,
               seeds: list[int], retained: list[np.ndarray] | None = None) -> list[ChainTrace]:
    """Run one chain of ``cfg`` per seed: burn-in, thinned retention.

    Every chain starts at the reference configuration. ``cfg.engine`` alone
    sets the dynamics and, if ``cfg.bounded``, the bounds; a reference on
    the other engine's scale raises :class:`ConfigError`, and so does a
    Langevin law that could leave the divergence guard, before any chain
    draws (:func:`_check_law`). Energies are recorded every
    ``energy_stride`` iterations; the Metropolis group-sum cache and running
    energy are fully recomputed every ``recompute_every`` iterations to
    cancel float drift. Metropolis chains run one after another, from the
    reference energy; Langevin chains are sampled together as the rows of
    one (k, N) stack, which gives each chain the same bits as a run on its
    own. Chain ``c``'s
    snapshots go into ``retained[c]``, a (retain_last, N) output array such
    as a view of a memory-mapped pool, or into a new array. Returns the
    traces; chain ``c``'s ``config`` is ``cfg`` with seed ``seeds[c]``.
    """
    n = model.graph.n
    if s_ref.s.shape != (n,):
        raise ConfigError("chain: reference configuration length does not match N")
    if s_ref.engine is not cfg.engine:
        raise ConfigError(f"chain: a {cfg.engine.value} chain needs a reference on its "
                          f"own scale, not on the {s_ref.engine.value} scale")
    h_ref = hamiltonian(model, s_ref.s)  # row 0 of every energy series; the run writes the rest
    traces = [ChainTrace(replace(cfg, seed=seed), np.full(len(cfg.energy_iterations()), h_ref),
                         np.empty((cfg.retain_last, n)) if retained is None else retained[c],
                         np.empty(cfg.retain_last))
              for c, seed in enumerate(seeds)]
    if cfg.engine is Engine.ISING:
        for trace in traces:
            _run_metropolis(model, s_ref.s, trace)
    else:
        _run_langevin(model, s_ref.s, traces)
    return traces


def run_chain(model: EnergyModel, cfg: ChainConfig, s_ref: SpinConfiguration) -> ChainTrace:
    """Run one chain: :func:`run_chains` with the one seed ``cfg.seed``."""
    (trace,) = run_chains(model, cfg, s_ref, [cfg.seed])
    return trace


def _slice_job(model: EnergyModel, cfg: ChainConfig, s_ref: SpinConfiguration, pool_path: Path,
               chains: list[int], k: int) -> list[ChainTrace]:
    """Run each chain ``c`` in ``chains`` of ``k`` with seed ``cfg.seed + c``
    into rows ``j * k + c`` of the .npy file at ``pool_path``, leaving only
    the energies in the traces."""
    # a plain ndarray: each row write to a memmap runs its Python __array_finalize__
    pool = np.load(pool_path, mmap_mode="r+").view(np.ndarray)
    rows = pool.reshape(cfg.retain_last, k, model.graph.n)
    traces = run_chains(model, cfg, s_ref, [cfg.seed + c for c in chains],
                        [rows[:, c] for c in chains])
    for trace in traces:
        trace.retained = None  # the rows are in the file: unmap, and pickle nothing back
    return traces


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
    The first job's exception, in slice order, propagates once every job
    has ended.

    The chains write their snapshots in place into one float32 .npy file of
    ``k_chains x retain_last`` rows: row ``j * k + c`` is chain ``c``'s
    snapshot ``j``, so rows run oldest first by (iteration, chain index).
    The chains step in float64; only the stored rows are rounded.
    The file is written through :func:`~softspin.data.replaced`, so it
    appears at ``pool_path`` only once every chain has finished; when a job
    fails it is deleted. The traces carry no snapshots.
    """
    if k_chains < 1:
        raise ConfigError("k_chains must be >= 1")
    slices = np.array_split(range(k_chains), min(max(workers, 1), k_chains))
    with replaced(pool_path) as partial:
        # create the file; each job maps it on its own
        np.lib.format.open_memmap(partial, mode="w+", dtype=np.float32,
                                  shape=(cfg.retain_last * k_chains, model.graph.n))
        jobs = [(model, cfg, s_ref, partial, chains.tolist(), k_chains) for chains in slices]
        if len(jobs) == 1:
            return _slice_job(*jobs[0])
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            return [trace for traces in pool.map(_slice_job, *zip(*jobs)) for trace in traces]
