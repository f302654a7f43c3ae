"""Training harness: seeded runs with early stopping and telemetry.

A run is a pure function of (config, dataset): model initialization,
the validation split, and batch shuffling each draw from generators
derived from the run seed, so two runs with the same inputs produce
identical records except for wall-clock duration. Early stopping
watches the objective on a held-out slice of the training split and
gives up after ``patience`` epochs without strict improvement.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass

import numpy as np

from .datasets import DatasetHandle
from .errors import NonFiniteError, ValidationError
from .models import (ARCH_ACTIVATIONS, Model, ModelSpec, build_model,
                     forward_traced, param_count)
from .objective import (activation_energy, dataset_activation_energy,
                        regularized_loss)
from .power import energy_per_correct, integrate, live_source
from .records import ExperimentRecord
from .rng import split_streams
from .tensor import Adam, no_grad, softmax_cross_entropy


@dataclass(frozen=True)
class RunConfig:
    """Everything a training run depends on besides the dataset itself."""

    model: ModelSpec
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 10
    weight_decay: float = 1e-5
    lam: float = 0.0
    seed: int = 42
    val_fraction: float = 0.1
    telemetry_command: str | None = None
    telemetry_hz: float = 1.0

    def __post_init__(self):
        if self.lr <= 0 or not np.isfinite(self.lr):
            raise ValidationError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValidationError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not (1 <= self.patience <= self.max_epochs):
            raise ValidationError(f"patience must be in [1, max_epochs], "
                                  f"got {self.patience}")
        if self.weight_decay < 0 or not np.isfinite(self.weight_decay):
            raise ValidationError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.lam < 0 or not np.isfinite(self.lam):
            raise ValidationError(f"lam must be >= 0, got {self.lam}")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ValidationError(f"val_fraction must be in [0, 1), "
                                  f"got {self.val_fraction}")
        if self.telemetry_hz <= 0:
            raise ValidationError(f"telemetry_hz must be positive, "
                                  f"got {self.telemetry_hz}")


def hardware_descriptor() -> str:
    return (f"{platform.machine()};{platform.system().lower()};"
            f"python-{platform.python_version()};numpy-{np.__version__}")


def _batch_objective(model: Model, xb: np.ndarray, yb: np.ndarray, lam: float):
    trace = forward_traced(model, xb)
    ce = softmax_cross_entropy(trace.logits, yb)
    energy = activation_energy(trace)
    return regularized_loss(ce, energy, lam)


def _eval_objective(model: Model, x: np.ndarray, y: np.ndarray, lam: float,
                    batch_size: int = 256) -> float:
    """Mean objective over a dataset, weighted exactly by batch sizes."""
    n = x.shape[0]
    if n == 0:
        raise ValidationError("dataset is empty")
    if batch_size < 1:
        raise ValidationError("batch_size must be >= 1")
    total = 0.0
    with no_grad():
        for start in range(0, n, batch_size):
            xb, yb = x[start:start + batch_size], y[start:start + batch_size]
            total += _batch_objective(model, xb, yb, lam).item() * xb.shape[0]
    return total / n


def evaluate(model: Model, x: np.ndarray, y: np.ndarray,
             batch_size: int = 256) -> tuple[float, float, int]:
    """Accuracy, mean cross-entropy, and the correct-prediction count.

    Raises ValidationError when x has no rows or batch_size is below 1,
    and NonFiniteError when the cross-entropy is not finite.
    """
    n = x.shape[0]
    if n == 0:
        raise ValidationError("dataset is empty")
    if batch_size < 1:
        raise ValidationError("batch_size must be >= 1")
    correct = 0
    ce_total = 0.0
    with no_grad():
        for start in range(0, n, batch_size):
            xb, yb = x[start:start + batch_size], y[start:start + batch_size]
            trace = forward_traced(model, xb)
            correct += int(np.sum(trace.logits.data.argmax(axis=1) == yb))
            ce_total += softmax_cross_entropy(trace.logits, yb).item() * xb.shape[0]
    if not np.isfinite(ce_total):
        raise NonFiniteError("evaluation cross-entropy is non-finite")
    return correct / n, ce_total / n, correct


def train(config: RunConfig, data: DatasetHandle) -> tuple[Model, ExperimentRecord]:
    """Train one model and return it with its fully populated record.

    Divergence (a non-finite loss, gradient or updated parameter, or a
    non-finite test-split evaluation) aborts the run; the record then
    has status "diverged" and null test metrics instead of raising. The
    telemetry session is stopped on every path out of the run.
    """
    spec = config.model
    if spec.input_dim != data.input_dim:
        raise ValidationError(f"model input_dim {spec.input_dim} does not match "
                              f"dataset width {data.input_dim}")
    if spec.output_dim != data.classes:
        raise ValidationError(f"model output_dim {spec.output_dim} does not "
                              f"match dataset classes {data.classes}")
    t_start = time.perf_counter()
    init_rng, split_rng, shuffle_rng = split_streams(config.seed, 3)
    model = build_model(spec, init_rng)
    optimizer = Adam(model.parameters(), lr=config.lr,
                     weight_decay=config.weight_decay)

    n = data.train_x.shape[0]
    n_val = int(round(config.val_fraction * n))
    perm = split_rng.permutation(n)
    val_idx, fit_idx = perm[:n_val], perm[n_val:]
    if fit_idx.size == 0:
        raise ValidationError("validation split leaves no training data")
    fit_x, fit_y = data.train_x[fit_idx], data.train_y[fit_idx]
    val_x, val_y = data.train_x[val_idx], data.train_y[val_idx]

    session = live_source(config.telemetry_command, config.telemetry_hz)
    if session:
        session.start()

    status = "ok"
    epochs_run = 0
    best_val = np.inf
    stale = 0
    # overflow during optimization or testing is detected via
    # NonFiniteError and reported in the record; numpy need not also
    # warn about it
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(config.max_epochs):
                if session:
                    session.set_phase("training")
                order = shuffle_rng.permutation(fit_x.shape[0])
                for start in range(0, order.size, config.batch_size):
                    idx = order[start:start + config.batch_size]
                    loss = _batch_objective(model, fit_x[idx], fit_y[idx],
                                            config.lam)
                    if not np.isfinite(loss.data):
                        raise NonFiniteError("training loss diverged")
                    optimizer.zero_grad()
                    loss.backward()
                    optimizer.step()
                    # the graph holds every activation and the conv columns;
                    # freed here, it is not alive through validation and testing
                    del loss
                epochs_run = epoch + 1
                if val_x.shape[0] == 0:
                    continue
                if session:
                    session.set_phase("validation")
                val_loss = _eval_objective(model, val_x, val_y, config.lam)
                if not np.isfinite(val_loss):
                    raise NonFiniteError("validation loss diverged")
                if val_loss < best_val:
                    best_val = val_loss
                    stale = 0
                else:
                    stale += 1
                    if stale >= config.patience:
                        break
            if session:
                session.set_phase("testing")
            accuracy, loss_ce, correct = evaluate(model, data.test_x, data.test_y)
            act_energy = dataset_activation_energy(model, data.test_x)
    except NonFiniteError:
        status = "diverged"
        accuracy = loss_ce = act_energy = None
    finally:
        samples = session.stop() if session else []

    energy_mj = energy_per_corr = None
    if session and session.available and len(samples) >= 2:
        report = integrate(samples)
        energy_mj = 1000.0 * report.joules
        if status == "ok":
            energy_per_corr = energy_per_correct(report.joules, correct)

    record = ExperimentRecord(
        architecture=spec.arch,
        dataset=data.name,
        hidden_dim=spec.hidden_dim,
        input_dim=spec.input_dim,
        output_dim=spec.output_dim,
        glia_ratio=spec.glia_ratio,
        activations=list(ARCH_ACTIVATIONS[spec.arch]),
        lr=config.lr,
        batch_size=config.batch_size,
        weight_decay=config.weight_decay,
        lam=config.lam,
        max_epochs=config.max_epochs,
        patience=config.patience,
        val_fraction=config.val_fraction,
        epochs_run=epochs_run,
        seed=config.seed,
        status=status,
        test_accuracy=accuracy,
        test_loss=loss_ce,
        activation_energy=act_energy,
        energy_mj_total=energy_mj,
        energy_mj_per_correct=energy_per_corr,
        training_duration_seconds=time.perf_counter() - t_start,
        hardware=hardware_descriptor(),
        param_count=param_count(model),
    )
    return model, record


def seed_protocol() -> list[int]:
    """The ten fixed seeds used for multi-seed experiment grids."""
    return [42, 123, 456, 789, 1011, 1213, 1415, 1617, 1819, 2021]
