# Sweep the regularization weight over a grid of seeds and print the
# aggregate table. The zero entry is the mandatory baseline every other
# row is normalized against. The report is the cells' experiment
# records; the table's rows are derived from them.

import os
import tempfile
from pathlib import Path

from actreg import ModelSpec, load_sweep, run_lambda_sweep, save_sweep, synth_blobs

SEEDS = tuple(int(s) for s in os.getenv("DEMO_SEEDS", "42,123").split(","))

data = synth_blobs(classes=4, dim=32, n_per_class=300, separation=1.0, seed=11)
report = run_lambda_sweep(data, ModelSpec("mlp", 32, 64, 4),
                          lambdas=(0.0, 1e-4, 1e-3, 1e-2), seeds=SEEDS,
                          lr=5e-3, batch_size=32, epochs=5, weight_decay=0.0)

print(report.table().to_text())
print()

# a saved report holds only the cell records, and loading recomputes the
# rows from them, so a sweep run on one machine can be rendered or
# analyzed on another
out = Path(tempfile.mkdtemp()) / "sweep.json"
save_sweep(report, out)
reloaded = load_sweep(out)
assert reloaded == report and reloaded.rows == report.rows
print(f"round-tripped through {out}")
print(f"{len(report.cells)} cells, {len(report.failed)} failed")
