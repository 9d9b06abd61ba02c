"""softspin benchmark: stage wall time, memory and interval quality.

Run from the root of a source tree; nothing has to be installed, the
benchmark imports softspin from ``src/``:

    python3 perfbench/run.py --workload ising_anneal --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload in turn
    python3 perfbench/run.py --workload all --smoke        # tiny sizes, seconds

Every sample is a fresh interpreter running ``perfbench/child.py`` (see
there). With ``--trace 0`` the pipeline runs untraced, again while it fits in
``--seconds``; set-up-only processes (at least ``MIN_SETUPS``) run between
and after those runs, to the end of that time. Where the conformal stage is
short, each set-up process is followed by a fresh process that runs
``stage_conformal`` again on the last finished run directory, so that
``conformal_s`` is a median over several processes too. Each end-to-end
metric is the median over its samples.
With ``--trace 1`` one untraced and one traced pipeline run, then the step
kernels are timed directly on the run's model; the per-layer metrics come
from those. Metric names and units are the ones declared in BENCHMARK.json.

Every run directory is checked: the child's exit status, every artifact the
manifest lists, each ``uncertainty_<engine>.csv`` (N rows, finite values,
lo <= hi) and the directory's sha256, which must equal that of every other
run of the same workload, seed, configuration and source tree, traced or not (digests are
kept in ``.perfbench_work/digests.json``). A sample that fails a check counts
in ``failed``. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from workloads import SMOKE, WORKLOADS  # noqa: E402

MIN_SETUPS = 4
GAP_SAMPLES = 2  # short samples between two pipeline runs
RUN_LIMIT_S = 170.0  # one invocation per workload ends within 180 s
SETUP_ARTIFACTS = (
    "composites.csv", "dataset.csv", "external_field.csv", "field_diagnostics.txt",
    "graph_summary.txt", "groups.csv", "validation.txt",
)
NOTES = {
    "sampler.worker_peak_rss_mb": "largest pool worker; includes pages shared with the parent at fork",
    "sampler.retained_mb": "computed: k x retain_last x N x 8 bytes",
    "energy.hamiltonian_calls": "computed from energy_stride, thin, retain_last and recompute_every",
    "conformal.gather_gb": "computed: n_batches x batch_size x N x 8 bytes",
    "conformal.gather_gbps": "computed gather_gb / batch_means_s",
    "bench.trace_overhead_s": "traced wall_s minus untraced wall_s",
}


class CheckFailed(Exception):
    """A sample whose process or outputs failed a check."""


# ---------------------------------------------------------------------------
# Running one fresh process

def run_child(mode: str, config: Path, report: Path, deadline: float, steps=None):
    """Run child.py in its own session; return (outside wall seconds, report)."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(config), str(report)]
    if steps is not None:
        cmd.append(json.dumps(steps))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise CheckFailed(f"{mode}: timed out") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        raise CheckFailed(f"{mode}: exit status {proc.returncode}: {' | '.join(tail)}")
    data = json.loads(report.read_text(encoding="utf-8"))
    if not Path(data["versions"]["softspin_file"]).is_relative_to(SRC):
        raise CheckFailed(f"{mode}: imported softspin from outside {SRC}")
    return wall, data


def span_totals(report: dict) -> dict[str, tuple[float, int]]:
    totals: dict[str, tuple[float, int]] = {}
    for name, start, end, _parent in report["spans"]:
        s, n = totals.get(name, (0.0, 0))
        totals[name] = (s + end - start, n + 1)
    return totals


def span_durations(report: dict, name: str) -> list[float]:
    return [end - start for n, start, end, _parent in report["spans"] if n == name]


# ---------------------------------------------------------------------------
# Output checks

def dir_digest(path: Path, names=None) -> tuple[str, int]:
    """sha256 over (relative name, bytes) of the files, and their total size."""
    h = hashlib.sha256()
    size = 0
    files = sorted(p for p in path.rglob("*") if p.is_file())
    for p in files:
        rel = p.relative_to(path).as_posix()
        if names is not None and rel not in names:
            continue
        h.update(rel.encode() + b"\0")
        with p.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
                size += len(chunk)
    return h.hexdigest(), size


def check_run_dir(out: Path, n_units: int, engines) -> None:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    missing = [a for a in manifest["artifacts"] if not (out / a).is_file()]
    if missing:
        raise CheckFailed(f"artifacts missing: {missing[:5]}")
    for engine in engines:
        with (out / f"uncertainty_{engine}.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != n_units:
            raise CheckFailed(f"uncertainty_{engine}.csv: {len(rows)} rows, want {n_units}")
        for row in rows:
            vals = [float(row[c]) for c in ("y_ref", "y_est", "lo", "hi", "width")]
            if not all(map(math.isfinite, vals)) or vals[2] > vals[3]:
                raise CheckFailed(f"uncertainty_{engine}.csv: bad row {row['unit_id']}")


def _table(path: Path) -> dict[str, list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {row[0]: row[1:] for row in rows[1:]}


def quality(out: Path, engines) -> dict[str, dict[str, float]]:
    """Per engine: MAE, mean per-unit coverage and median calibrated width."""
    result = {}
    for engine in engines:
        comp = _table(out / f"comparison_{engine}.csv")
        cov = _table(out / f"coverage_adaptivity_{engine}.csv")  # min q1 median mean q3 max
        result[engine] = {"mae": float(comp["mae"][0]),
                          "coverage": float(cov["coverage"][3]),
                          "width": float(cov["adaptivity"][2])}
    for name, value in ((n, v) for q in result.values() for n, v in q.items()):
        if not math.isfinite(value):
            raise CheckFailed(f"quality {name} is not finite")
    return result


class DigestLog:
    """Run-directory digests of earlier runs in this tree.

    Keyed by workload, seed, workload configuration and the sha256 of
    ``src/``, so a run is compared only with runs that must match it.
    """

    def __init__(self, path: Path, src_sha: str):
        self.path = path
        self.src_sha = src_sha

    def check(self, key: str, digest: str) -> None:
        key = f"{key}/{self.src_sha}"
        log = json.loads(self.path.read_text()) if self.path.exists() else {}
        if log.setdefault(key, digest) != digest:
            raise CheckFailed(f"run directory digest {digest[:12]} differs from "
                              f"an earlier run of {key} ({log[key][:12]})")
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(log, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# Environment

def environment() -> dict:
    src_files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for p in src_files:
        data = p.read_bytes()
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "git_sha": sha, "src_sha256": h.hexdigest(),
            "src_lines": lines}


# ---------------------------------------------------------------------------
# One workload

class Run:
    """One benchmark invocation of one workload: samples, failures, metrics."""

    def __init__(self, name: str, profile: dict, seed: int, work: Path,
                 digests: DigestLog, deadline: float):
        self.work = work
        self.steps = profile["kernel_steps"]
        self.rerun_conformal = profile["rerun_conformal"]
        self.tree = dict(profile["tree"], seed=seed)
        self.n_units = self.tree["synth"]["n_units"]
        self.engines = self.tree["engines"]
        tree_sha = hashlib.sha256(json.dumps(self.tree, sort_keys=True).encode()).hexdigest()
        self.key = f"{name}/{seed}/{tree_sha[:16]}"
        self.digests, self.deadline = digests, deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.versions: dict = {}
        self._n = 0

    def _config(self) -> tuple[Path, Path, Path]:
        self._n += 1
        out = self.work / f"run{self._n}"
        config = self.work / f"config{self._n}.json"
        config.write_text(json.dumps(dict(self.tree, out=str(out))))  # JSON is YAML
        return config, out, self.work / f"report{self._n}.json"

    def sample(self, fn):
        """Run one sample; a failed check is counted, not raised."""
        self.attempted += 1
        try:
            return fn()
        except CheckFailed as exc:
            self.failures.append(str(exc))
            print(f"  FAILED: {exc}", file=sys.stderr)
            return None

    def pipeline(self, mode="pipeline", keep=False):
        config, out, report = self._config()
        wall, rep = run_child(mode, config, report, self.deadline)
        self.versions = rep["versions"]
        check_run_dir(out, self.n_units, self.engines)
        digest, size = dir_digest(out)
        self.digests.check(self.key, digest)
        ref, _ = dir_digest(out, SETUP_ARTIFACTS)
        self.digests.check(self.key + "/setup", ref)
        result = {"wall": wall, "report": rep, "run_dir_mb": size / 1e6,
                  "conformal": span_durations(rep, "pipeline.stage_conformal")[0],
                  "quality": quality(out, self.engines), "out": out,
                  "accept_ratio": None}
        if "ising" in self.engines:
            meta = json.loads((out / "retained_ising.json").read_text(encoding="utf-8"))
            result["accept_ratio"] = (sum(meta["accept_counts"])
                                      / (meta["k_chains"] * meta["n_iters"]))
        if not keep:
            shutil.rmtree(out)
        return result

    def setup(self):
        config, out, report = self._config()
        wall, _ = run_child("setup", config, report, self.deadline)
        names = sorted(p.name for p in out.iterdir())
        if names != sorted(SETUP_ARTIFACTS):
            raise CheckFailed(f"setup wrote {names}")
        self.digests.check(self.key + "/setup", dir_digest(out)[0])
        shutil.rmtree(out)
        return wall

    def conformal(self, out: Path) -> float:
        """Rerun ``stage_conformal`` in a fresh process on the run directory ``out``.

        It must rewrite the same files, so the directory's digest is checked
        again against the pipeline's.
        """
        config = self.work / "config_conformal.json"
        config.write_text(json.dumps(dict(self.tree, out=str(out))))
        _, rep = run_child("conformal", config, self.work / "report_conformal.json",
                           self.deadline)
        check_run_dir(out, self.n_units, self.engines)
        self.digests.check(self.key, dir_digest(out)[0])
        return span_durations(rep, "pipeline.stage_conformal")[0]

    # -- modes ------------------------------------------------------------
    def end_to_end(self, seconds: float) -> dict:
        """Pipeline runs while they fit in ``seconds``, with short samples
        (a set-up process, then a conformal rerun where the workload has one)
        after each: ``GAP_SAMPLES`` between pipeline runs and the rest, to at
        least ``MIN_SETUPS`` and to ``seconds``, at the end. Spreading the
        short samples over the run keeps their median off any one stretch of
        a shared host's slow or fast spells."""
        t0 = time.monotonic()
        runs, setups, conformal = [], [], []
        kept = None  # the last finished run directory, for conformal reruns

        def short_sample() -> float | None:
            wall = self.sample(self.setup)
            if wall is None:
                return None
            setups.append(wall)
            if kept is not None:
                c = self.sample(lambda: self.conformal(kept))
                if c is None:
                    return None
                conformal.append(c)
                wall += c
            return wall

        while True:
            r = self.sample(lambda: self.pipeline(keep=self.rerun_conformal))
            if r is None:
                break
            runs.append(r)
            conformal.append(r["conformal"])
            if kept is not None:
                shutil.rmtree(kept)
            kept = r["out"] if self.rerun_conformal else None
            if time.monotonic() - t0 + r["wall"] > seconds:
                break
            if any(short_sample() is None for _ in range(GAP_SAMPLES)):
                break
        while runs:
            wall = short_sample()
            if wall is None:
                break
            spent = time.monotonic() - t0
            if len(setups) >= MIN_SETUPS and spent + wall > seconds:
                break
        if not runs or not setups:
            return {}

        def med(fn):
            return statistics.median(fn(r) for r in runs)

        def qual(metric):
            return lambda r: statistics.fmean(q[metric] for q in r["quality"].values())

        for engine, q in runs[0]["quality"].items():
            print(f"  {engine}: " + "  ".join(f"{k} = {v:.6g}" for k, v in q.items()))
        print(f"  samples: pipeline wall_s {[round(r['wall'], 3) for r in runs]}, "
              f"conformal_s {[round(t, 3) for t in conformal]}, "
              f"set-up {[round(w, 3) for w in setups]}")
        return {
            "wall_s": med(lambda r: r["wall"]),
            "setup_s": statistics.median(setups),
            "simulate_s": med(lambda r: span_durations(r["report"], "pipeline.stage_simulate")[0]),
            "conformal_s": statistics.median(conformal),
            "peak_rss_mb": med(lambda r: r["report"]["peak_rss_mb"]),
            "run_dir_mb": med(lambda r: r["run_dir_mb"]),
            "mae": med(qual("mae")),
            "coverage": med(qual("coverage")),
            "width": med(qual("width")),
        }

    def per_layer(self) -> dict:
        plain = self.sample(self.pipeline)
        traced = self.sample(lambda: self.pipeline("traced", keep=True))
        if traced is None:
            return {}
        kernels = self.sample(lambda: self._kernels(traced["out"]))
        shutil.rmtree(traced["out"])
        if plain is None or kernels is None:
            return {}
        rep = traced["report"]
        spans = span_totals(rep)

        def total(name):
            return spans.get(name, (0.0, 0))[0]

        def calls(name):
            return spans.get(name, (0.0, 0))[1]

        k = kernels["kernels"]
        comp = k["computed"]
        workers = self.tree["workers"]
        k_chains = {e: self.tree[e]["k_chains"] for e in self.engines}
        run_parallel = [end - start for name, start, end, _ in rep["spans"]
                        if name == "sampler.run_parallel"]
        serial = sum(k_chains[e] * k["serial_chain_s"][e] for e in self.engines)
        accepts = traced["accept_ratio"]
        return {
            "sampler.metropolis_step_us": k["ising_step_us"],
            "sampler.langevin_step_us": k["langevin_step_us"],
            "sampler.noise_draw_us": k["noise_draw_us"],
            "sampler.ising_accept_ratio": (
                accepts if accepts is not None else k["ising_kernel_accept_ratio"]),
            "sampler.run_parallel_s": sum(run_parallel),
            "sampler.parallel_efficiency": serial / (workers * sum(run_parallel)),
            "sampler.pooled_retained_s": total("sampler.pooled_retained"),
            "sampler.retained_mb": comp["retained_mb"],
            "sampler.worker_peak_rss_mb": rep["workers_peak_rss_mb"],
            "energy.hamiltonian_us": k["hamiltonian_us"],
            "energy.hamiltonian_calls": comp["hamiltonian_calls"],
            "energy.grad_us": k["grad_us"],
            "energy.delta_h_us": k["delta_h_us"],
            "graph.build_graph_s": total("graph.build_graph"),
            "graph.build_graph_calls": calls("graph.build_graph"),
            "graph.group_sums_recompute_us": k["group_sums_recompute_us"],
            "data.load_dataset_s": total("data.load_dataset"),
            "data.load_dataset_calls": calls("data.load_dataset"),
            "data.synth_dataset_s": total("data.synth_dataset"),
            "data.unscale_values_s": total("data.unscale_values"),
            "indices.build_composites_s": total("indices.build_composites"),
            "indices.pca_s": total("indices.pca"),
            "conformal.batch_means_s": total("conformal.batch_means"),
            "conformal.gather_gb": comp["gather_gb"],
            "conformal.gather_gbps": comp["gather_gb"] / total("conformal.batch_means"),
            "conformal.conformal_intervals_s": total("conformal.conformal_intervals"),
            "conformal.repeat_splits_s": total("conformal.repeat_splits"),
            "analysis.ols_standardized_s": total("analysis.ols_standardized"),
            "analysis.group_summaries_s": total("analysis.group_summaries"),
            "analysis.compare_s": total("analysis.compare"),
            "pipeline.retained_save_s": total("pipeline.retained_save"),
            "pipeline.retained_load_s": total("pipeline.retained_load"),
            "pipeline.retained_load_mb": rep["counts"].get("pipeline.retained_load_bytes", 0) / 1e6,
            "reports.write_s": sum(v[0] for n, v in spans.items() if n.startswith("reports.write_")),
            "cli.import_s": rep["import_s"],
            "config.load_config_s": total("config.load_config"),
            "bench.trace_overhead_s": traced["wall"] - plain["wall"],
        }

    def _kernels(self, out: Path) -> dict:
        config = self.work / "config_kernels.json"
        config.write_text(json.dumps(dict(self.tree, out=str(out))))
        _, rep = run_child("kernels", config, self.work / "report_kernels.json",
                           self.deadline, self.steps)
        return rep


# ---------------------------------------------------------------------------

def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def run_workload(name, args, env, digests) -> dict:
    profile = (SMOKE if args.smoke else WORKLOADS)[name]
    work = WORK / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    run = Run(name, profile, args.seed, work, digests, deadline)
    try:
        print(f"[{name}] seed {args.seed}, trace {args.trace}")
        metrics = run.per_layer() if args.trace else run.end_to_end(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    if metrics and set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for metric, value in metrics.items():
        note = f"  ({NOTES[metric]})" if metric in NOTES else ""
        print(f"  {metric} = {value:.6g} {units[metric]}{note}")
    print(f"  failed_runs = {len(run.failures)} of {run.attempted} runs attempted")
    print("env " + json.dumps(dict(env, **{k: v for k, v in run.versions.items()
                                           if k != "softspin_file"})))
    return {
        "correct": bool(metrics) and not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the harness in seconds")
    args = parser.parse_args(argv)
    if not (SRC / "softspin" / "__init__.py").is_file():
        print(f"no softspin source tree at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = environment()
    digests = DigestLog(WORK / "digests.json", env["src_sha256"])
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args, env, digests) for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
        print(f"failed_runs = {result['failed']} of {result['attempted']} runs attempted")
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
