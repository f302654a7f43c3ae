# Replay a recorded wattage log, integrate it per phase, and convert the
# training energy into millijoules per correct prediction.
#
# Live collection shells out to a sampler command at a fixed rate; the
# replay path below exercises the identical integration on a canned log.

import tempfile
from pathlib import Path

from actreg import energy_per_correct, integrate, replay_source

LOG = """\
# seconds  watts  phase  [cpu%  mem%: checked as numbers, then ignored]
0.0\t40.0\ttraining\t55.0\t12.0
2.0\t46.0\ttraining\t71.0\t12.1
4.0\t44.0\ttraining\t69.0\t12.1
6.0\t45.0\ttraining

6.5\t30.0\tvalidation
7.5\t28.0\tvalidation
8.0\t33.0\ttesting
9.0\t35.0\ttesting
"""

path = Path(tempfile.mkdtemp()) / "power.tsv"
path.write_text(LOG)

samples = replay_source(path)
print(f"replayed {len(samples)} samples from {path.name}")

for phase in ("training", "validation", "testing", None):
    r = integrate(samples, phase=phase)
    label = phase or "whole session"
    print(f"{label:14s} {r.joules:7.1f} J over {r.duration_s:4.1f}s "
          f"(avg {r.average_watts:.1f} W, {r.sample_count} samples)")

# suppose the trained model got 950 of 1000 test predictions right
train_j = integrate(samples, phase="training").joules
print()
print(f"training cost: {energy_per_correct(train_j, 950):.1f} mJ per correct "
      f"prediction")
print(f"zero correct stays undefined: {energy_per_correct(train_j, 0)}")
