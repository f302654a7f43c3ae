"""Training harness: seeded runs with early stopping and telemetry.

A run is a pure function of (config, dataset): model initialization,
the validation split, and batch shuffling each draw from generators
derived from the run seed, so two runs with the same inputs produce
identical records except for wall-clock duration. Early stopping
watches the objective on a held-out slice of the training split and
gives up after ``patience`` epochs without strict improvement.

Each training step's graph is built once and replayed. The first batch
of an epoch, and a batch of a new size (the epoch's partial last one),
builds the step's graph as ``_batch_objective`` always has, over input
and label buffers a ``_StepTape`` owns. Every other batch is copied
into those buffers and the recorded forward kernels rerun into the same
arrays; ``backward()`` then walks the same graph. A replayed step gives
the parameters a rebuilt one would, bit for bit. One tape is alive at a
time, and none during validation and testing.
"""

from __future__ import annotations

import functools
import platform
import time
from dataclasses import dataclass

import numpy as np

from .datasets import DatasetHandle
from .errors import NonFiniteError, ValidationError
from .models import (ARCH_ACTIVATIONS, Model, ModelSpec, build_model,
                     forward_traced, param_count_for)
from .objective import (_eval_batches, activation_energy,
                        dataset_activation_energy, regularized_loss)
from .power import check_poll_hz, energy_per_correct, integrate, live_source
from .records import ExperimentRecord, plain_int, plain_number
from .rng import split_streams
from .tensor import Adam, Tape, Tensor, no_grad, softmax_cross_entropy


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
        # a record stores these as the Python numbers they equal
        for name, least in (("batch_size", 1), ("max_epochs", 1),
                            ("patience", 1), ("seed", 0)):
            object.__setattr__(self, name, plain_int(name, getattr(self, name),
                                                     least))
        object.__setattr__(self, "lr", plain_number("lr", self.lr, 0, strict=True))
        for name in ("weight_decay", "lam", "val_fraction"):
            object.__setattr__(self, name, plain_number(name, getattr(self, name), 0))
        if self.patience > self.max_epochs:
            raise ValidationError(f"patience must be in [1, max_epochs], "
                                  f"got {self.patience}")
        if self.val_fraction >= 1.0:
            raise ValidationError(f"val_fraction must be in [0, 1), "
                                  f"got {self.val_fraction}")
        check_poll_hz(self.telemetry_hz)


@functools.cache
def _blas_core() -> str:
    """The kernel OpenBLAS picked for this CPU, looked up on first use.

    numpy's bundled OpenBLAS names it; dlsym through numpy's extension
    module also searches the libraries that module loaded. Any other
    BLAS reads ``unknown``.
    """
    import ctypes
    from numpy._core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        corename = lib.scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode("ascii", "replace")


def hardware_descriptor() -> str:
    """Machine, OS, Python, numpy and BLAS kernel: what a record's bits depend on."""
    return (f"{platform.machine()};{platform.system().lower()};"
            f"python-{platform.python_version()};numpy-{np.__version__};"
            f"blas-{_blas_core()}")


def _batch_objective(model: Model, xb: np.ndarray, yb: np.ndarray, lam: float):
    trace = forward_traced(model, xb)
    ce = softmax_cross_entropy(trace.logits, yb)
    energy = activation_energy(trace)
    return regularized_loss(ce, energy, lam)


class _StepTape:
    """One training step captured over input and label buffers it owns.

    Built from the rows ``idx`` of float64 ``fit_x`` and of ``fit_y``,
    whose features and labels ``train()`` and ``DatasetHandle`` checked,
    so a replay takes rows from them without checking again.
    ``replay(idx)`` takes as many rows into the same buffers and returns
    ``tape.output``, the step's loss, recomputed.
    """

    def __init__(self, model: Model, fit_x: np.ndarray, fit_y: np.ndarray,
                 idx: np.ndarray, lam: float):
        self._fit_x, self._fit_y = fit_x, fit_y
        self.x = Tensor(fit_x[idx])
        self.y = fit_y[idx]
        self.tape = Tape(lambda: _batch_objective(model, self.x, self.y, lam))

    def replay(self, idx: np.ndarray):
        # the rows exist, so "clip" never clips; unlike "raise" it writes
        # straight into ``out`` without a buffer
        self._fit_x.take(idx, axis=0, out=self.x.data, mode="clip")
        self._fit_y.take(idx, out=self.y, mode="clip")
        return self.tape.replay()


def _eval_objective(model: Model, x: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Mean objective over a dataset, weighted exactly by batch sizes;
    raises ValidationError and NonFiniteError as ``evaluate`` does."""
    total = 0.0
    with no_grad():
        for rows in _eval_batches(x.shape[0]):
            xb, yb = x[rows], y[rows]
            total += _batch_objective(model, xb, yb, lam).item() * xb.shape[0]
    if not np.isfinite(total):
        raise NonFiniteError("validation loss diverged")
    return total / x.shape[0]


def evaluate(model: Model, x: np.ndarray, y: np.ndarray) -> tuple[float, float, int]:
    """Accuracy, mean cross-entropy, and the correct-prediction count.

    Raises ValidationError when x has no rows and NonFiniteError when
    the cross-entropy is not finite.
    """
    n = x.shape[0]
    correct = 0
    ce_total = 0.0
    with no_grad():
        for rows in _eval_batches(n):
            xb, yb = x[rows], y[rows]
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
    # float64, as Tensor() makes every batch: a replay copies rows in place
    fit_x = np.asarray(data.train_x[fit_idx], dtype=np.float64)
    fit_y = data.train_y[fit_idx]
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
                step = None
                for start in range(0, order.size, config.batch_size):
                    idx = order[start:start + config.batch_size]
                    if step is not None and idx.size == step.y.size:
                        loss = step.replay(idx)
                    else:
                        step = loss = None  # the old graph goes first
                        step = _StepTape(model, fit_x, fit_y, idx, config.lam)
                        loss = step.tape.output
                    if not np.isfinite(loss.data):
                        raise NonFiniteError("training loss diverged")
                    optimizer.zero_grad()
                    loss.backward()
                    optimizer.step()
                # the graph holds every activation and the conv columns;
                # freed here, it is not alive through validation and testing
                step = loss = None
                epochs_run = epoch + 1
                if val_x.shape[0] == 0:
                    continue
                if session:
                    session.set_phase("validation")
                val_loss = _eval_objective(model, val_x, val_y, config.lam)
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
        param_count=param_count_for(spec),
    )
    return model, record

