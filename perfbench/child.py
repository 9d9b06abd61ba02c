"""One fresh-process run of softspin, timed from the benchmark's side.

run.py starts this script as a new interpreter for every sample, so that the
import, the config load and the set-up stages are paid as a user pays them:

    python3 perfbench/child.py {setup|pipeline|traced|conformal|kernels} CONFIG REPORT [STEPS]

``setup`` runs synth, validate, field and graph; ``pipeline`` runs
``softspin.pipeline.run_pipeline``; ``traced`` runs it with spans around
every call the pipeline module makes into a library layer. ``conformal``
runs ``stage_conformal`` once more on a finished run directory, which
rewrites the same files. ``kernels`` times the step kernels and energy
functions directly on the model of a finished run directory (STEPS is a
JSON object of steps per kernel timing call, per engine). The timings go to
the JSON file REPORT; the run directory is the config's ``out``.

Spans are recorded only here, around the calls into each layer; softspin
itself carries no timing hooks.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import statistics
import sys
import time
import timeit

LAYERS = ("data", "indices", "graph", "energy", "sampler", "conformal", "analysis", "reports")
SETUP_STAGES = ("stage_synth", "stage_validate", "stage_field", "stage_graph")


class Tracer:
    """In-memory spans: [name, start, end, parent index] plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)


class _RetainedIO:
    """Stands in for numpy inside ``softspin.pipeline``.

    The pipeline module calls ``np.save`` and ``np.load`` only for the
    retained pool, so wrapping those two times its save and reload; every
    other attribute is numpy's own.
    """

    def __init__(self, np, tracer):
        self._np = np
        self.save = tracer.wrap("pipeline.retained_save", np.save)
        raw_load = tracer.wrap("pipeline.retained_load", np.load)

        def load(*args, **kwargs):
            arr = raw_load(*args, **kwargs)
            tracer.counts["pipeline.retained_load_bytes"] = (
                tracer.counts.get("pipeline.retained_load_bytes", 0) + arr.nbytes
            )
            return arr

        self.load = load

    def __getattr__(self, name):
        return getattr(self._np, name)


def instrument(pipeline, tracer, layers: bool) -> None:
    """Wrap the stages of ``pipeline`` and, with ``layers``, its layer calls."""
    for name, obj in list(vars(pipeline).items()):
        if not inspect.isfunction(obj):
            continue
        if name.startswith("stage_"):
            setattr(pipeline, name, tracer.wrap(f"pipeline.{name}", obj))
        elif layers and obj.__module__.startswith("softspin."):
            layer = obj.__module__.split(".", 1)[1]
            if layer in LAYERS:
                setattr(pipeline, name, tracer.wrap(f"{layer}.{name}", obj))
    if layers:
        pipeline.np = _RetainedIO(pipeline.np, tracer)


def _per_call_us(fn, number: int) -> float:
    """Median over five repeats of the mean time of one call, in us."""
    return statistics.median(timeit.repeat(fn, repeat=5, number=number)) / number * 1e6


def time_kernels(cfg, steps: dict) -> dict:
    """Time the kernels directly on the workload's model, after a warm-up.

    The step kernels run through ``run_chain`` with nothing retained and one
    energy record, so the time per step is the kernel plus the chain loop.
    Both engines are timed on every workload, also where the pipeline runs
    only one of them. Engines the pipeline runs also get one serial chain of
    the pipeline's own length, the base of the parallel efficiency.
    """
    from dataclasses import replace

    from softspin.data import load_dataset, scale_target
    from softspin.energy import EnergyModel, SpinConfiguration, delta_h, grad, hamiltonian
    from softspin.graph import GroupSums, build_graph, spectrum_extremes
    from softspin.reports import read_column
    from softspin.sampler import Engine, make_rng, run_chain

    out = cfg.out
    dataset = load_dataset(out / "dataset.csv", cfg.indicator_spec(),
                           **cfg.dataset_options).dataset
    field = read_column(out / "external_field.csv", "h")
    graph = build_graph(dataset)
    lam_max, _ = spectrum_extremes(graph)
    result: dict = {"serial_chain_s": {}}
    models = {}
    for engine in Engine:
        lam = cfg.lambda_override(engine)
        model = EnergyModel(graph, field, lambda_reg=lam_max + 1.0 if lam is None else lam)
        domain = cfg.domain(engine)
        s_ref = SpinConfiguration(scale_target(dataset, domain), domain)
        models[engine] = (model, s_ref)
        n = int(steps[engine.value])
        chain = replace(cfg.chain_config(engine), n_iters=n, retain_last=0, energy_stride=n)
        warm = max(1, n // 10)
        run_chain(model, replace(chain, n_iters=warm, energy_stride=warm), s_ref)
        per_step = []
        for _ in range(3):
            t0 = time.perf_counter()
            trace = run_chain(model, chain, s_ref)
            per_step.append((time.perf_counter() - t0) / n * 1e6)
        result[f"{engine.value}_step_us"] = statistics.median(per_step)
        if engine is Engine.ISING:
            result["ising_kernel_accept_ratio"] = trace.accept_count / n
        if engine in cfg.engines:
            t0 = time.perf_counter()
            run_chain(model, cfg.chain_config(engine), s_ref)
            result["serial_chain_s"][engine.value] = time.perf_counter() - t0

    model, s_ref = models[Engine.LANGEVIN]
    s = s_ref.s.copy()
    sums = GroupSums(model.graph, s)
    rng = make_rng(cfg.chain_config(Engine.LANGEVIN).seed)
    n_units = s.shape[0]
    result["noise_draw_us"] = _per_call_us(lambda: rng.standard_normal(n_units), 2000)
    result["hamiltonian_us"] = _per_call_us(lambda: hamiltonian(model, s), 2000)
    result["grad_us"] = _per_call_us(lambda: grad(model, s, sums), 2000)
    result["group_sums_recompute_us"] = _per_call_us(lambda: sums.recompute(s), 2000)
    model, s_ref = models[Engine.ISING]
    s = s_ref.s.copy()
    sums = GroupSums(model.graph, s)
    i, s_new = n_units // 2, float(s[n_units // 2]) * 0.5
    result["delta_h_us"] = _per_call_us(lambda: delta_h(model, s, i, s_new, sums), 20000)
    result["computed"] = computed_work(cfg, n_units)
    return result


def computed_work(cfg, n_units: int) -> dict:
    """Work the configuration implies, counted from it rather than measured.

    ``hamiltonian_calls`` follows ``run_chain``: one call at chain start, one
    per ``recompute_every`` iterations, and for Langevin one per recorded or
    retained step; plus the pipeline's reference energy per engine.
    """
    import numpy as np

    from softspin.sampler import Engine

    calls, retained_bytes, gather_bytes = 0, 0, 0
    spec = cfg.batch_spec()
    for engine in cfg.engines:
        chain, k = cfg.chain_config(engine), cfg.k_chains(engine)
        t = np.arange(1, chain.n_iters + 1)
        burn = chain.burn_in()
        per_chain = 1 + int(np.count_nonzero(t % chain.recompute_every == 0))
        if engine is Engine.LANGEVIN:
            record = t % chain.energy_stride == 0
            keep = (t > burn) & ((t - burn) % chain.thin == 0) & (chain.retain_last > 0)
            per_chain += int(np.count_nonzero(record | keep))
        calls += 1 + k * per_chain
        retained_bytes += k * chain.retain_last * n_units * 8
        gather_bytes += spec.n_batches * spec.batch_size * n_units * 8
    return {"hamiltonian_calls": calls, "retained_mb": retained_bytes / 1e6,
            "gather_gb": gather_bytes / 1e9}


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def main(argv) -> int:
    mode, config_path, report_path = argv[:3]
    tracer = Tracer()
    t0 = time.perf_counter()
    import numpy
    import scipy
    import softspin.cli  # the user's entry point; it imports every layer
    from softspin import config, pipeline
    report = {"import_s": time.perf_counter() - t0}
    cfg = tracer.call("config.load_config", config.load_config, config_path)

    if mode == "kernels":
        report["kernels"] = time_kernels(cfg, json.loads(argv[3]))
    else:
        instrument(pipeline, tracer, layers=mode == "traced")
        if mode == "setup":
            for name in SETUP_STAGES:
                getattr(pipeline, name)(cfg, cfg.out)
        elif mode == "conformal":
            pipeline.stage_conformal(cfg, cfg.out)
        else:
            pipeline.run_pipeline(cfg, cfg.out)
    report["peak_rss_mb"] = _rss_mb(resource.RUSAGE_SELF)
    report["workers_peak_rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
    report["spans"] = tracer.spans
    report["counts"] = tracer.counts
    report["versions"] = {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "softspin_file": os.path.abspath(softspin.cli.__file__),
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
