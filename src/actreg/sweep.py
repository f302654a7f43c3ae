"""Regularization-weight sweep: train a grid, compare energies.

Each cell of the grid (one lam value, one seed) is an ordinary harness
run, and a report is just the cells' experiment records, so the lam = 0
baseline cells are bit-identical to plain training under the same seeds.
Everything else derives from the cells: per-lam means over the seeds
that finished (failed cells are excluded and reported), and relative
energy, a mean activation energy divided by the lam = 0 mean. A saved
report holds only its cells, so loading recomputes the rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .analysis import Table
from .datasets import DatasetHandle
from .errors import ParseError, ValidationError
from .models import ModelSpec
from .records import ExperimentRecord, plain_int, record_from_dict
from .training import RunConfig, train


@dataclass(frozen=True)
class SweepRow:
    lam: float
    mean_accuracy: float
    mean_energy: float
    relative_energy: float
    seeds_ok: int


def _rows(cells: list[ExperimentRecord]) -> list[SweepRow]:
    """Per-lam means over the cells that finished, in ascending lam."""
    ok: dict[float, list[ExperimentRecord]] = {}
    for c in cells:
        if c.status == "ok":
            missing = [f for f in ("test_accuracy", "activation_energy")
                       if getattr(c, f) is None]
            if missing:
                raise ValidationError(f"cell lam={c.lam:g} seed={c.seed} is ok "
                                      f"but has no {' or '.join(missing)}")
            ok.setdefault(c.lam, []).append(c)
    if not ok.get(0.0):
        raise ValidationError("no lam = 0 baseline cell finished; no reference "
                              "energy to compare against")
    energy = {lam: float(np.mean([c.activation_energy for c in group]))
              for lam, group in ok.items()}
    if energy[0.0] <= 0:
        raise ValidationError("baseline activation energy is zero; relative "
                              "energies are undefined")
    return [SweepRow(lam, float(np.mean([c.test_accuracy for c in ok[lam]])),
                     energy[lam], energy[lam] / energy[0.0], len(ok[lam]))
            for lam in sorted(ok)]


@dataclass
class SweepReport:
    """The cell records of a sweep, in grid order; ``rows`` derive from them
    when first read, so a grid whose baseline diverged keeps its cells."""

    cells: list[ExperimentRecord]

    @cached_property
    def rows(self) -> list[SweepRow]:
        return _rows(self.cells)

    @property
    def failed(self) -> list[ExperimentRecord]:
        """The cells that did not finish."""
        return [c for c in self.cells if c.status != "ok"]

    def to_json_dict(self) -> dict:
        return {"cells": [c.to_json_dict() for c in self.cells]}

    def table(self) -> Table:
        """One row per regularization weight, titled with the grid's settings."""
        c = self.cells[0]
        seeds = ",".join(str(s) for s in dict.fromkeys(x.seed for x in self.cells))
        t = Table(f"{c.architecture} on {c.dataset}, hidden {c.hidden_dim}, "
                  f"{c.max_epochs} epochs, seeds {seeds}",
                  ["lambda", "accuracy_pct", "activation_energy",
                   "relative_energy", "seeds_ok"])
        for r in self.rows:
            t.rows.append([r.lam, r.mean_accuracy * 100, r.mean_energy,
                           r.relative_energy, r.seeds_ok])
        return t


def save_sweep(report: SweepReport, path) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n",
                 encoding="utf-8")
    return p


def load_sweep(path) -> SweepReport:
    """Load a report from its cells; any other stored key is ignored."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        report = SweepReport([record_from_dict(c) for c in raw["cells"]])
        report.rows  # built now, so a file without a finished baseline is refused
        return report
    except (json.JSONDecodeError, KeyError, TypeError, ParseError,
            ValidationError) as exc:
        raise ParseError(f"{path}: not a sweep report: {exc}") from None


DEFAULT_LAMBDAS = (0.0, 1e-5, 1e-4, 1e-3, 1e-2)
# the ten seeds of every multi-seed grid in the paper
DEFAULT_SEEDS = (42, 123, 456, 789, 1011, 1213, 1415, 1617, 1819, 2021)
DEFAULT_EPOCHS = 5


def run_lambda_sweep(data: DatasetHandle, template: ModelSpec,
                     lambdas=DEFAULT_LAMBDAS, seeds=DEFAULT_SEEDS, *,
                     lr: float = RunConfig.lr,
                     batch_size: int = RunConfig.batch_size,
                     epochs: int = DEFAULT_EPOCHS,
                     weight_decay: float = RunConfig.weight_decay,
                     records: list[ExperimentRecord] | None = None,
                     ) -> SweepReport:
    """Train every (lam, seed) cell with early stopping off.

    The grid must contain 0 so the relative-energy baseline exists.
    The report's ``cells`` are the records ``train`` returned, in grid
    order. Diverged cells are dropped from the rows and listed in
    ``failed``. A list passed as ``records`` receives the same records.
    """
    epochs = plain_int("epochs", epochs, 1)
    lambdas = sorted(set(float(l) for l in lambdas))
    if 0.0 not in lambdas:
        raise ValidationError("the lambda grid must include 0 for the baseline")
    seeds = list(seeds)
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValidationError("seeds must be nonempty and distinct")
    template = replace(template, input_dim=data.input_dim, output_dim=data.classes)

    # every cell's settings, its lam and seed included, are checked before
    # any trains
    configs = [RunConfig(model=template, lr=lr, batch_size=batch_size,
                         max_epochs=epochs, patience=epochs,
                         weight_decay=weight_decay, lam=lam, seed=seed)
               for lam in lambdas for seed in seeds]
    cells = [train(config, data)[1] for config in configs]
    if records is not None:
        records.extend(cells)
    return SweepReport(cells)
