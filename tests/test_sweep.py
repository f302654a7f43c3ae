"""Lambda sweeps: baseline identity, aggregation, persistence."""

import json
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, replace

import numpy as np
import pytest

from actreg.cli import main
from actreg.datasets import synth_blobs
from actreg.errors import ParseError, ValidationError
from actreg.models import ModelSpec
from actreg import sweep
from actreg.records import ExperimentRecord
from actreg.sweep import (DEFAULT_LAMBDAS, SweepReport, load_sweep,
                          run_lambda_sweep, save_sweep)
from actreg.training import RunConfig, train

DATA = synth_blobs(classes=3, dim=6, n_per_class=30, separation=2.5, seed=3)
TEMPLATE = ModelSpec("mlp", 6, 10, 3)


def _sweep(**overrides):
    kw = dict(lambdas=(0.0, 1e-2), seeds=(42, 123), lr=1e-3, batch_size=16,
              epochs=2, weight_decay=0.0)
    kw.update(overrides)
    return run_lambda_sweep(DATA, TEMPLATE, **kw)


def test_default_grid_includes_zero():
    assert 0.0 in DEFAULT_LAMBDAS
    assert list(DEFAULT_LAMBDAS) == sorted(DEFAULT_LAMBDAS)


def test_baseline_relative_energy_is_exactly_one():
    report = _sweep()
    rows = {r.lam: r for r in report.rows}
    assert rows[0.0].relative_energy == 1.0  # definitionally exact
    assert rows[0.0].seeds_ok == 2
    assert report.cells[0].dataset == "synth"
    assert report.cells[0].architecture == "mlp"


def test_baseline_cell_matches_plain_training_bitwise():
    records: list[ExperimentRecord] = []
    report = _sweep(records=records)
    cell = next(c for c in report.cells if c.lam == 0.0 and c.seed == 42)
    config = RunConfig(model=TEMPLATE, lr=1e-3, batch_size=16, max_epochs=2,
                       patience=2, weight_decay=0.0, lam=0.0, seed=42)
    _, direct = train(config, DATA)
    assert cell.test_accuracy == direct.test_accuracy  # identical, not close
    assert cell.activation_energy == direct.activation_energy
    stored = next(r for r in records if r.lam == 0.0 and r.seed == 42)
    assert stored.test_loss == direct.test_loss
    assert stored is cell  # the records list receives the report's cells


def test_rows_aggregate_cell_means():
    report = _sweep()
    for row in report.rows:
        cells = [c for c in report.cells
                 if c.lam == row.lam and c.status == "ok"]
        assert row.mean_energy == pytest.approx(
            np.mean([c.activation_energy for c in cells]), rel=1e-12)
        assert row.mean_accuracy == pytest.approx(
            np.mean([c.test_accuracy for c in cells]), rel=1e-12)
        baseline = next(r for r in report.rows if r.lam == 0.0)
        assert row.relative_energy == pytest.approx(
            row.mean_energy / baseline.mean_energy, rel=1e-12)


def test_grid_is_sorted_and_deduplicated():
    report = _sweep(lambdas=(1e-2, 0.0, 1e-2, 1e-3))
    assert [r.lam for r in report.rows] == [0.0, 1e-3, 1e-2]


def test_grid_must_include_zero():
    with pytest.raises(ValidationError, match="0"):
        _sweep(lambdas=(1e-3, 1e-2))


@pytest.mark.parametrize("bad", [-1e-3, float("nan"), float("inf")])
def test_a_bad_lambda_is_named_before_any_cell_trains(bad, monkeypatch):
    # the grid holds 0, so the lambda itself is what gets refused
    monkeypatch.setattr("actreg.sweep.train", lambda *args: pytest.fail("trained"))
    with pytest.raises(ValidationError,
                       match=f"lam must be a finite number >= 0, got {bad}"):
        _sweep(lambdas=(bad, 0.0, 1e-3))


def test_seeds_must_be_distinct():
    with pytest.raises(ValidationError):
        _sweep(seeds=(42, 42))


@pytest.mark.parametrize("seeds", [(2, 1.5), (3, 2.0), (3, True), (3, -1)])
def test_seeds_must_be_non_negative_ints(seeds, monkeypatch):
    # refused before the first cell trains, not truncated to an int
    monkeypatch.setattr("actreg.sweep.train", lambda *args: pytest.fail("trained"))
    with pytest.raises(ValidationError, match="seed"):
        _sweep(seeds=seeds)


def test_failed_cells_are_excluded_and_reported():
    # lambda near float max overflows the weighted energy on the very
    # first batch, while the lambda = 0 baseline trains normally
    report = _sweep(lambdas=(0.0, 1e308))
    assert len(report.failed) == 2  # both seeds at the absurd lambda
    for cell in report.failed:
        assert cell.lam == 1e308
        assert cell.status == "diverged"
        assert cell.activation_energy is None
        assert cell in report.cells
    ok_rows = {r.lam: r.seeds_ok for r in report.rows}
    assert ok_rows[0.0] == 2
    assert ok_rows.get(1e308, 0) == 0


def test_template_dims_are_rebound_to_dataset():
    template = ModelSpec("mlp", 99, 10, 7)  # wrong dims on purpose
    report = run_lambda_sweep(DATA, template, lambdas=(0.0,), seeds=(1, 2),
                              epochs=1, batch_size=32)
    assert report.cells[0].hidden_dim == 10
    assert all(c.status == "ok" for c in report.cells)


def test_render_table_layout():
    table = _sweep().table()
    lines = table.to_text().splitlines()
    assert lines[0] == "mlp on synth, hidden 10, 2 epochs, seeds 42,123"
    assert lines[1].split() == ["lambda", "accuracy_pct", "activation_energy",
                                "relative_energy", "seeds_ok"]
    assert set(lines[2]) <= {"-", " "}
    assert len(lines) == 3 + 2  # title, header, rule, one row per lambda
    assert table.to_csv().splitlines()[1].startswith("0.0,")


def test_save_load_round_trip(tmp_path):
    report = _sweep()
    path = save_sweep(report, tmp_path / "sweep.json")
    assert json.loads(path.read_text()).keys() == {"cells"}
    back = load_sweep(path)
    assert back == report
    assert back.rows == report.rows


def test_sweep_files_hold_only_standard_json(tmp_path):
    # save_sweep wrote NaN, and load_sweep read a nested 1e999 as inf
    (cell,) = _sweep(lambdas=(0.0,), seeds=(42,)).cells
    nan = tmp_path / "nan.json"
    with pytest.raises(ValidationError, match="'test_loss' is non-finite"):
        save_sweep(SweepReport([replace(cell, test_loss=float("nan"))]), nan)
    assert not nan.exists()
    report = SweepReport([replace(cell, extra={"history": [0.125]})])
    path = save_sweep(report, tmp_path / "sweep.json")
    assert load_sweep(path) == report
    text = path.read_text()
    assert text.count("0.125") == 1
    path.write_text(text.replace("0.125", "1e999"))
    with pytest.raises(ParseError, match="'history' is not standard JSON"):
        load_sweep(path)


def _parent_layout(report):
    """The file layout that also stored grid settings and rows."""
    c = report.cells[0]
    return {"dataset": c.dataset, "architecture": c.architecture,
            "hidden_dim": c.hidden_dim, "epochs": c.max_epochs,
            "seeds": [42, 123],
            "cells": [cell.to_json_dict() for cell in report.cells],
            "rows": [asdict(r) for r in report.rows]}


def test_parent_layout_loads_with_equal_rows(tmp_path):
    report = _sweep()
    path = tmp_path / "old.json"
    path.write_text(json.dumps(_parent_layout(report)))
    assert load_sweep(path).rows == report.rows


def test_loaded_rows_follow_the_cells_not_stored_rows(tmp_path):
    report = _sweep()
    raw = _parent_layout(report)
    edited = next(c for c in raw["cells"] if c["lambda"] == 1e-2)
    edited["activation_energy"] *= 2
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(raw))
    back = load_sweep(path)
    assert back.rows[0] == report.rows[0]
    cells = [c["activation_energy"] for c in raw["cells"] if c["lambda"] == 1e-2]
    assert back.rows[1].mean_energy == float(np.mean(cells))
    assert back.rows[1].mean_energy > report.rows[1].mean_energy


@pytest.mark.parametrize("edit", ["diverge", "drop"])
def test_load_refuses_a_file_without_a_finished_baseline(edit, tmp_path):
    raw = _sweep().to_json_dict()
    baseline = [c for c in raw["cells"] if c["lambda"] == 0.0]
    for cell in baseline:
        if edit == "diverge":
            cell.update(status="diverged", test_accuracy=None,
                        activation_energy=None)
        else:
            raw["cells"].remove(cell)
    path = tmp_path / "no_baseline.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError, match="lam = 0"):
        load_sweep(path)


@pytest.mark.parametrize("null", [("test_accuracy",), ("activation_energy",),
                                  ("test_accuracy", "activation_energy")])
def test_load_names_an_ok_cell_with_null_metrics(null, tmp_path):
    # records from external logs may carry null metrics with status ok
    broken = ExperimentRecord("mlp", "synth", 42, 0.5, lam=0.01,
                              activation_energy=1.0)
    raw = {"cells": [ExperimentRecord("mlp", "synth", 42, 0.9,
                                      activation_energy=2.0).to_json_dict(),
                     {**broken.to_json_dict(), **dict.fromkeys(null)}]}
    path = tmp_path / "null.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError, match=f"lam=0.01 seed=42 is ok but has no "
                                         f"{' or '.join(null)}$"):
        load_sweep(path)


def test_sweep_defaults_are_run_config_defaults(tmp_path):
    # neither path sets lr, batch size or weight decay
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--classes", "3", "--feature-dim", "6",
                 "--per-class", "30", "--hidden-dim", "8", "--epochs", "1",
                 "--lambdas", "0", "--seeds", "42", "--out", str(out)]) == 0
    library = run_lambda_sweep(DATA, TEMPLATE, lambdas=(0.0,), seeds=(42,),
                               epochs=1)
    for cell in load_sweep(out).cells + library.cells:
        assert (cell.lr, cell.batch_size, cell.weight_decay) == \
            (RunConfig.lr, RunConfig.batch_size, RunConfig.weight_decay)


def test_a_bad_epoch_count_is_named_as_epochs(capsys):
    # the sweep passes epochs on as max_epochs and patience; the error
    # names the setting the caller gave
    for epochs in (0, True):
        with pytest.raises(ValidationError,
                           match=f"^epochs must be a positive int, got {epochs}$"):
            _sweep(epochs=epochs)
    assert main(["sweep", "--classes", "3", "--feature-dim", "6",
                 "--per-class", "30", "--hidden-dim", "8", "--epochs", "0",
                 "--lambdas", "0", "--seeds", "42"]) == 1
    assert capsys.readouterr().err == "error: epochs must be a positive int, got 0\n"


def test_load_sweep_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    with pytest.raises(ParseError):
        load_sweep(bad)
    bad.write_text('{"dataset": "x"}')
    with pytest.raises(ParseError):
        load_sweep(bad)
    raw = _sweep(lambdas=(0.0,), seeds=(1,)).to_json_dict()
    del raw["cells"][0]["seed"]  # a cell must be a loadable record
    bad.write_text(json.dumps(raw))
    with pytest.raises(ParseError, match="seed"):
        load_sweep(bad)


def _train_noting_pid(config, data):
    model, record = train(config, data)
    return model, replace(record, extra={**record.extra, "pid": os.getpid()})


def _pids_stripped(report):
    """The processes that trained the cells, and the cells without them
    or their wall times."""
    pids = [c.extra["pid"] for c in report.cells]
    cells = [replace(c, extra={k: v for k, v in c.extra.items() if k != "pid"},
                     training_duration_seconds=0.0) for c in report.cells]
    return pids, cells


@contextmanager
def _deadline(seconds):
    """Fail, rather than hang, when the block outlasts ``seconds``."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def one_core_cells(monkeypatch):
    """The sweep reads its first cell as one that kept one core busy.

    A cell of these tests lasts a few milliseconds, too short to time: the
    kernel books other threads' CPU time (BLAS threads starting, say) to
    the process in ticks of that size."""
    monkeypatch.setattr("actreg.sweep.process_time", time.perf_counter)


def _no_process_left(threads_before):
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("cpus", [2, 3, 8])
def test_parallel_grid_equals_the_serial_grid(
        cpus, monkeypatch, one_core_cells):
    monkeypatch.setattr("actreg.sweep.train", _train_noting_pid)
    grid = dict(lambdas=(0.0, 1e-2, 1e308))
    monkeypatch.setattr("actreg.sweep._cpus", lambda: 1)
    serial = _sweep(**grid)
    monkeypatch.setattr("actreg.sweep._cpus", lambda: cpus)
    threads = threading.active_count()
    records = []
    with _deadline(60):
        parallel = _sweep(**grid, records=records)
    _no_process_left(threads)
    serial_pids, serial_cells = _pids_stripped(serial)
    pids, cells = _pids_stripped(parallel)
    assert set(serial_pids) == {os.getpid()}
    # the caller trains the first cell alone and then every (workers + 1)-th
    # cell, workers the others
    workers = min(cpus, len(cells) - 1) - 1
    assert [p == os.getpid() for p in pids] == \
        [i % (workers + 1) == 0 for i in range(len(cells))]
    assert len(set(pids) - {os.getpid()}) in range(1, workers + 1)
    assert cells == serial_cells  # every field but the wall time, bit for bit
    assert [(c.lam, c.seed) for c in parallel.failed] == \
        [(c.lam, c.seed) for c in serial.failed] == [(1e308, 42), (1e308, 123)]
    assert records == parallel.cells


def test_an_error_in_a_worker_cell_reaches_the_caller(
        monkeypatch, one_core_cells):
    caller, delivered = os.getpid(), threading.Event()
    trained = []
    set_exception = Future.set_exception

    def set_exception_noted(future, exc):
        set_exception(future, exc)
        delivered.set()

    def train_failing_in_workers(config, data):
        if os.getpid() != caller:
            raise ValidationError(f"no cell at lam={config.lam:g} seed={config.seed}")
        trained.append((config.lam, config.seed))
        if len(trained) > 1:  # hold this cell until the worker's error is here
            assert delivered.wait(30)
        return train(config, data)

    monkeypatch.setattr(Future, "set_exception", set_exception_noted)
    monkeypatch.setattr("actreg.sweep.train", train_failing_in_workers)
    monkeypatch.setattr("actreg.sweep._cpus", lambda: 2)
    threads = threading.active_count()
    with _deadline(60), pytest.raises(ValidationError) as info:
        _sweep(lambdas=(0.0, 1e-3, 1e-2))
    # (0, 42) trains here before the fork and (0, 123) in the worker, which
    # fails while this process trains (0.001, 42)
    assert type(info.value) is ValidationError
    assert str(info.value) == "no cell at lam=0 seed=123"
    assert trained == [(0.0, 42), (1e-3, 42)]  # (0.01, 42) never started
    _no_process_left(threads)


def test_a_worker_that_dies_breaks_the_sweep_without_a_hang(
        monkeypatch, one_core_cells):
    caller = os.getpid()

    def train_dying_in_workers(config, data):
        if os.getpid() != caller:
            os._exit(3)
        return train(config, data)

    monkeypatch.setattr("actreg.sweep.train", train_dying_in_workers)
    monkeypatch.setattr("actreg.sweep._cpus", lambda: 2)
    threads = threading.active_count()
    with _deadline(60), pytest.raises(BrokenProcessPool):
        _sweep(lambdas=(0.0, 1e-3, 1e-2))
    _no_process_left(threads)


def test_no_process_is_forked_while_another_thread_runs(
        monkeypatch, one_core_cells):
    monkeypatch.setattr("actreg.sweep._cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    stop = threading.Event()
    telemetry = threading.Thread(target=stop.wait)
    telemetry.start()
    try:
        report = _sweep()
    finally:
        stop.set()
        telemetry.join(timeout=10)
    assert not telemetry.is_alive()
    assert [c.status for c in report.cells] == ["ok"] * 4
    assert multiprocessing.active_children() == []


def test_no_process_is_forked_when_the_first_cell_kept_two_cores_busy(
        monkeypatch):
    # a process clock running at twice the wall clock: BLAS threads on two
    # cores, which a worker would only contend with
    monkeypatch.setattr("actreg.sweep._cpus", lambda: 4)
    monkeypatch.setattr("actreg.sweep.process_time",
                        lambda: 2 * time.perf_counter())
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    report = _sweep()
    assert [c.status for c in report.cells] == ["ok"] * 4
    assert multiprocessing.active_children() == []


def test_only_a_process_that_can_read_its_affinity_forks(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert sweep._cpus() == 1


def _statuses_of_a_sweep():
    return [c.status for c in _sweep().cells]


def test_a_pool_worker_trains_its_sweep_itself(
        monkeypatch, one_core_cells):
    # a multiprocessing.Pool worker is daemonic and may not fork
    monkeypatch.setattr("actreg.sweep._cpus", lambda: 4)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        statuses = pool.apply_async(_statuses_of_a_sweep).get(timeout=60)
    assert statuses == ["ok"] * 4
