"""The full pipeline through the library API, end to end.

Equivalent to `softspin pipeline --config ...`: synthesize, validate, build
the field and graph, run both engines, calibrate intervals, analyze, and
write every artifact plus the manifest into the run directory, a temporary
one that is removed when the demo ends.
"""

import copy
import tempfile
from pathlib import Path

from softspin.config import DEFAULT_CONFIG, resolve_config
from softspin.pipeline import run_pipeline
from softspin.reports import read_table

tree = copy.deepcopy(DEFAULT_CONFIG)
tree.update({
    "seed": 424242,
    "workers": 1,
    "synth": dict(tree["synth"], n_units=200),
    "ising": dict(tree["ising"], n_iters=4000, thin=2, retain_last=800),
    "langevin": dict(tree["langevin"], n_iters=4000, thin=2, retain_last=800),
    "conformal": dict(tree["conformal"], n_total=1500, n_batches=600,
                      batch_size=60, repeats=10),
})
cfg = resolve_config(tree)

with tempfile.TemporaryDirectory(prefix="softspin_demo_") as tmp:
    out = Path(tmp)
    written = run_pipeline(cfg, out)
    print(f"{len(written)} artifacts in {out}:")
    for path in sorted(p.name for p in written):
        print("  ", path)

    print("\nbenchmark table:")
    header, rows = read_table(out / "benchmark.csv")
    print("  ", header)
    for row in rows:
        print("  ", [row[0], f"{float(row[1]):.4f}", f"{float(row[2]):.4f}"])

    print("\nconsolidated report:")
    print((out / "report.txt").read_text())
