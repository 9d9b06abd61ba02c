"""Smoke test of the benchmark harness: each workload's code path at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

It checks the harness itself (child processes, output checks, digests,
metric names against BENCHMARK.json) in seconds, without a full run.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_at_tiny_sizes(trace):
    proc = _run("--workload", "all", "--smoke", "--seed", "7", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 9
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if trace else "end_to_end"
    expected = {f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec[kind]}
    assert set(result["metrics"]) == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    for line in proc.stdout.splitlines():
        if line.startswith("env "):
            env = json.loads(line[4:])
            assert env["src_lines"] > 0 and env["nproc"] >= 1 and env["numpy"]


def test_refuses_a_tree_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "ising_anneal", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
