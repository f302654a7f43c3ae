"""Write tests/golden_records.json, the twelve runs the golden-record test replays.

Each run trains one architecture (mlp, bimodal, physics, cnn) at one
lambda (0, 1e-3, 1e-2) on seeded 64-wide 4-class blobs. The file holds,
per run, every record field except wall time and hardware, the SHA-256
of every trained parameter, and ``evaluate`` and
``dataset_activation_energy`` on the test split, next to the numpy
version and BLAS kernel that produced them.

Run it from the repository root:

    PYTHONPATH=src python tests/make_golden_records.py

A change that means to move these numbers regenerates the file and says
why; any other change must leave ``tests/test_golden_records.py`` green.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from actreg.datasets import synth_blobs
from actreg.models import ModelSpec
from actreg.objective import dataset_activation_energy
from actreg.training import RunConfig, evaluate, hardware_descriptor, train

GOLDEN = Path(__file__).with_name("golden_records.json")
ARCHS = ("mlp", "bimodal", "physics", "cnn")
LAMBDAS = (0.0, 1e-3, 1e-2)
# a record's bits depend on these; the rest of the descriptor does not
VOLATILE = ("training_duration_seconds", "hardware")


def environment() -> dict[str, str]:
    """The numpy version and BLAS kernel, as ``hardware_descriptor`` names them."""
    numpy, blas = hardware_descriptor().split(";")[-2:]
    return {"numpy": numpy, "blas": blas}


def _spec(arch: str) -> ModelSpec:
    if arch == "cnn":
        return ModelSpec(arch, 64, 12, 4, conv_channels=(4, 8), dense_dim=16)
    return ModelSpec(arch, 64, 12, 4, glia_ratio=1.0 if arch == "bimodal" else None)


def runs() -> dict[str, dict]:
    """Every run's stable record fields, parameter hashes and test-split figures."""
    # 1280 training rows (320 of them validation) and 320 test rows, so
    # both evaluated splits span two evaluation batches
    data = synth_blobs(4, 64, 400, 1.0, 7)
    out = {}
    for arch in ARCHS:
        for lam in LAMBDAS:
            config = RunConfig(model=_spec(arch), lr=2e-2, batch_size=64,
                               max_epochs=12, patience=2, lam=lam, seed=42,
                               val_fraction=0.25)
            model, record = train(config, data)
            fields = record.to_json_dict()
            for key in VOLATILE:
                del fields[key]
            accuracy, loss, correct = evaluate(model, data.test_x, data.test_y)
            out[f"{arch} lam={lam:g}"] = {
                "record": fields,
                "sha256": {name: hashlib.sha256(p.data.tobytes()).hexdigest()
                           for name, p in model.params.items()},
                "evaluate": [accuracy, loss, correct],
                "dataset_activation_energy":
                    dataset_activation_energy(model, data.test_x),
            }
    return out


def main() -> None:
    golden = {"environment": environment(), "runs": runs()}
    stopped = [k for k, r in golden["runs"].items()
               if r["record"]["epochs_run"] < r["record"]["max_epochs"]]
    assert stopped, "early stopping fired in no run"
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}: {len(golden['runs'])} runs, early stopping in "
          f"{', '.join(stopped)}")


if __name__ == "__main__":
    main()
