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
import os
import sys
import threading
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from .analysis import Table
from .datasets import DatasetHandle
from .errors import ParseError, ValidationError
from .models import ModelSpec
from .records import (ExperimentRecord, _write_atomically, plain_int,
                      plain_number, record_from_dict, validate_record)
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
    """Write the report's cells as standard JSON, each checked as
    ``save_record`` checks a record, and replace ``path`` atomically as
    ``save_record`` does."""
    for cell in report.cells:
        validate_record(cell)
    return _write_atomically(Path(path), json.dumps(
        report.to_json_dict(), indent=2, allow_nan=False) + "\n")


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


def _cpus() -> int:
    """How many CPUs this process may run on; 1 where that cannot be
    read (no ``os.sched_getaffinity``, as on macOS and Windows), so a
    sweep forks only on Linux. macOS's system libraries, numpy's BLAS
    among them, may start threads that a fork would not copy."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _may_fork() -> bool:
    """Whether this process may fork workers.

    A fork copies only the calling thread, so a lock that another thread
    (a telemetry sampler, say) holds would stay held in the child; and a
    daemonic process, such as a ``multiprocessing.Pool`` worker, may
    have no children.
    """
    mp = sys.modules.get("multiprocessing")
    return (threading.active_count() == 1
            and not (mp and mp.current_process().daemon))


_grid: tuple = ()  # a worker's (configs, data), inherited through the fork


def _adopt(configs, data) -> None:
    global _grid
    _grid = (configs, data)


def _worker_cell(i: int) -> ExperimentRecord:
    configs, data = _grid
    return train(configs[i], data)[1]


def _train_cells(configs: list[RunConfig], data: DatasetHandle
                 ) -> list[ExperimentRecord]:
    """Every config's record, in order.

    The first cell trains here, timed in wall and process CPU time. All
    cells share one model and batch size, so the first shows how many
    cores a cell keeps busy. If that rounds to one core, with c CPUs
    ``min(c, cells - 1)`` workers are forked, when that is at least two
    (one would only take this process's place), and each takes the next
    remaining cell as it frees up while this process waits. A cell that
    kept more cores busy (a BLAS with several threads) leaves no core
    idle: a second process would only contend for them, so no worker
    starts and every cell trains here. A first cell of a few
    milliseconds is too short to time well, but either route gives the
    same records.
    """
    wall, cpu = perf_counter(), process_time()
    first = train(configs[0], data)[1]
    cores = (process_time() - cpu) / (perf_counter() - wall)
    workers = min(_cpus(), len(configs) - 1)
    if round(cores) > 1 or workers < 2 or not _may_fork():
        return [first] + [train(c, data)[1] for c in configs[1:]]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # fork, not spawn: spawn re-runs the caller's __main__, and a fork
    # shares the dataset with the workers copy-on-write
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(configs, data))
    try:
        return [first, *pool.map(_worker_cell, range(1, len(configs)))]
    finally:
        pool.shutdown(cancel_futures=True)


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

    Cells train at once on every CPU the process may use, when a cell
    keeps one core busy: the first cell trains here and is timed, then
    one forked worker process per CPU takes each of the others as it
    frees up. That needs numpy's BLAS to run one thread per process
    (``OPENBLAS_NUM_THREADS=1`` or ``OMP_NUM_THREADS=1``), or matrices
    too small for it to thread. A first cell that kept more cores busy
    means BLAS threads already use the CPUs, and every cell trains here.
    Limit the CPUs with the process's affinity (``taskset -c 0`` trains
    every cell here, as does a grid of two cells). Forking needs
    ``os.sched_getaffinity``, so on macOS and Windows every cell trains
    here too, as it does while another thread runs or in a daemonic
    process.
    Every record is bit-identical to the one a serial run gives at the
    same BLAS thread count; each cell's ``training_duration_seconds`` is
    its own wall time.
    The first cell in grid order whose training raises stops the grid:
    its error is raised here with its type and message, and cells no
    worker has taken are cancelled. A worker that dies raises
    ``BrokenProcessPool``.
    """
    epochs = plain_int("epochs", epochs, 1)
    lambdas = sorted(set(float(plain_number("lam", l, 0)) for l in lambdas))
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
    cells = _train_cells(configs, data)
    if records is not None:
        records.extend(cells)
    return SweepReport(cells)
