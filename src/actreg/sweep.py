"""Regularization-weight sweep: train a grid, compare energies.

Each cell of the grid (one lam value, one seed) is an ordinary harness
run, and the report keeps its full experiment record, so the lam = 0
baseline cells are bit-identical to plain training under the same seeds.
Per-lam aggregates are means over the seeds that finished; failed cells
are excluded and reported. Relative energy is a cell's mean activation
energy divided by the lam = 0 mean on the same dataset.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .datasets import DatasetHandle
from .errors import ParseError, ValidationError
from .models import ModelSpec, spec_with_dims
from .records import ExperimentRecord, record_from_dict
from .training import RunConfig, train


@dataclass(frozen=True)
class SweepRow:
    lam: float
    mean_accuracy: float
    mean_energy: float
    relative_energy: float
    seeds_ok: int


@dataclass
class SweepReport:
    dataset: str
    architecture: str
    hidden_dim: int
    epochs: int
    seeds: list[int]
    cells: list[ExperimentRecord] = field(default_factory=list)
    rows: list[SweepRow] = field(default_factory=list)

    @property
    def failed(self) -> list[ExperimentRecord]:
        """The cells that did not finish."""
        return [c for c in self.cells if c.status != "ok"]

    def to_json_dict(self) -> dict:
        return {**vars(self), "cells": [c.to_json_dict() for c in self.cells],
                "rows": [asdict(r) for r in self.rows]}

    def render_table(self) -> str:
        """Aligned text table: one row per regularization weight."""
        headers = ["lambda", "accuracy_pct", "activation_energy", "relative_energy",
                   "seeds_ok"]
        lines = [headers]
        for row in self.rows:
            lines.append([f"{row.lam:g}", f"{row.mean_accuracy * 100:.2f}",
                          f"{row.mean_energy:.4g}", f"{row.relative_energy:.4f}",
                          str(row.seeds_ok)])
        widths = [max(len(line[i]) for line in lines) for i in range(len(headers))]
        rendered = []
        for k, line in enumerate(lines):
            rendered.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
            if k == 0:
                rendered.append("  ".join("-" * w for w in widths))
        return "\n".join(rendered)


def save_sweep(report: SweepReport, path) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n",
                 encoding="utf-8")
    return p


def load_sweep(path) -> SweepReport:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        report = SweepReport(
            dataset=raw["dataset"], architecture=raw["architecture"],
            hidden_dim=raw["hidden_dim"], epochs=raw["epochs"],
            seeds=list(raw["seeds"]),
            cells=[record_from_dict(c) for c in raw["cells"]],
            rows=[SweepRow(**r) for r in raw["rows"]],
        )
    except (json.JSONDecodeError, KeyError, TypeError, ParseError) as exc:
        raise ParseError(f"{path}: not a sweep report: {exc}") from None
    return report


DEFAULT_LAMBDAS = (0.0, 1e-5, 1e-4, 1e-3, 1e-2)
DEFAULT_SEEDS = (42, 123, 456)


def run_lambda_sweep(data: DatasetHandle, template: ModelSpec,
                     lambdas=DEFAULT_LAMBDAS, seeds=DEFAULT_SEEDS, *,
                     lr: float = 1e-3, batch_size: int = 128, epochs: int = 5,
                     weight_decay: float = 0.0,
                     records: list[ExperimentRecord] | None = None,
                     ) -> SweepReport:
    """Train every (lam, seed) cell and aggregate per lam.

    The grid must contain 0 so the relative-energy baseline exists.
    ``cells`` holds the record ``train`` returned for each cell, in grid
    order. Diverged cells are dropped from the aggregates and listed in
    ``failed``. A list passed as ``records`` receives the same records.
    """
    lambdas = sorted(set(float(l) for l in lambdas))
    if not lambdas or lambdas[0] != 0.0:
        raise ValidationError("the lambda grid must include 0 for the baseline")
    if any(l < 0 or not np.isfinite(l) for l in lambdas):
        raise ValidationError("lambda values must be finite and >= 0")
    seeds = [int(s) for s in seeds]
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValidationError("seeds must be nonempty and distinct")
    template = spec_with_dims(template, data.input_dim, data.classes)

    report = SweepReport(dataset=data.name, architecture=template.arch,
                         hidden_dim=template.hidden_dim, epochs=epochs,
                         seeds=seeds)
    for lam in lambdas:
        for seed in seeds:
            config = RunConfig(model=template, lr=lr, batch_size=batch_size,
                               max_epochs=epochs, patience=epochs,
                               weight_decay=weight_decay, lam=lam, seed=seed)
            report.cells.append(train(config, data)[1])
    if records is not None:
        records.extend(report.cells)

    by_lam = {l: [c for c in report.cells if c.lam == l and c.status == "ok"]
              for l in lambdas}
    baseline_cells = by_lam[0.0]
    if not baseline_cells:
        raise ValidationError("every lam = 0 baseline cell failed; no reference "
                              "energy to compare against")
    baseline_energy = float(np.mean([c.activation_energy for c in baseline_cells]))
    if baseline_energy <= 0:
        raise ValidationError("baseline activation energy is zero; relative "
                              "energies are undefined")
    for lam in lambdas:
        ok = by_lam[lam]
        if not ok:
            continue
        mean_acc = float(np.mean([c.test_accuracy for c in ok]))
        mean_energy = float(np.mean([c.activation_energy for c in ok]))
        report.rows.append(SweepRow(lam=lam, mean_accuracy=mean_acc,
                                    mean_energy=mean_energy,
                                    relative_energy=mean_energy / baseline_energy,
                                    seeds_ok=len(ok)))
    return report
