"""What the benchmark in perfbench/ uses of softspin still exists.

The benchmark imports softspin names and reads ``RunConfig`` attributes in a
child process; its own smoke test is slow and outside the tier-1 suite. These
checks parse its sources instead, so a change that deletes or renames such a
name fails here in about a second. The last one also runs the benchmark's
kernel timing at N=60, so a name that exists but no longer takes the
benchmark's arguments fails too.
"""

import ast
import importlib
import json
import math
import sys
from pathlib import Path

from softspin import pipeline
from softspin.config import load_config

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _parsed():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(BENCH.glob("*.py"))}


def test_softspin_imports_resolve():
    checked, missing = 0, []
    for file, tree in _parsed().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names if a.name.split(".")[0] == "softspin"]
                for module in modules:
                    importlib.import_module(module)
                checked += len(modules)
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "softspin"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    checked += 1
                    if not hasattr(module, alias.name):
                        missing.append(f"{file}: from {node.module} import {alias.name}")
    assert checked > 0, "no softspin import found under perfbench/"
    assert missing == []


def test_module_attributes_read_exist():
    # `from softspin import config, pipeline` binds modules; every
    # `pipeline.<name>` read must exist on them
    missing = []
    for file, tree in _parsed().items():
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "softspin":
                for alias in node.names:
                    bound[alias.asname or alias.name] = importlib.import_module(
                        f"softspin.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound and isinstance(node.ctx, ast.Load)
                    and not hasattr(bound[node.value.id], node.attr)):
                missing.append(f"{file}: {node.value.id}.{node.attr}")
    assert missing == []


def test_config_attributes_read_by_child_exist():
    cfg = load_config()
    tree = _parsed()["child.py"]
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "cfg"}
    assert read, "child.py reads no cfg attribute"
    assert sorted(name for name in read if not hasattr(cfg, name)) == []


def test_kernel_timing_runs_on_a_smoke_run_directory(tmp_path, monkeypatch):
    # the names above exist; this calls them as the benchmark's kernel mode
    # does, on the smoke paper_pool tree at N=60 with one worker
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(BENCH))
    child = importlib.import_module("child")
    workloads = importlib.import_module("workloads")
    tree = dict(workloads.SMOKE["paper_pool"]["tree"], workers=1, out=str(tmp_path / "run"))
    assert tree["synth"]["n_units"] == 60
    config = tmp_path / "config.yaml"
    config.write_text(json.dumps(tree), encoding="utf-8")  # JSON is YAML
    cfg = load_config(config)
    for name in child.SETUP_STAGES:
        getattr(pipeline, name)(cfg, cfg.out)
    result = child.time_kernels(cfg, {"ising": 200, "langevin": 20})
    times = [result[f"{name}_us"] for name in
             ("ising_step", "langevin_step", "noise_draw", "hamiltonian", "grad",
              "group_sums_recompute", "delta_h")]
    times += result["serial_chain_s"].values()
    assert len(times) == 9
    assert all(math.isfinite(t) and t > 0 for t in times)
