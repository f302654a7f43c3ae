"""Training harness: determinism, early stopping, divergence, telemetry."""

import dataclasses

import numpy as np
import pytest

from actreg.datasets import synth_blobs
from actreg.errors import NonFiniteError, ValidationError
from actreg.models import ModelSpec, build_model, forward_traced
from actreg.objective import (activation_energy, dataset_activation_energy,
                              regularized_loss)
from actreg.power import live_source
from actreg.tensor import softmax_cross_entropy
from actreg.training import (RunConfig, _batch_objective, _eval_objective,
                             evaluate, hardware_descriptor, seed_protocol, train)

DATA = synth_blobs(classes=3, dim=8, n_per_class=40, separation=3.0, seed=7)


def _config(**overrides):
    base = dict(model=ModelSpec("mlp", 8, 12, 3), lr=1e-3, batch_size=16,
                max_epochs=4, patience=4, weight_decay=1e-5, lam=0.0, seed=42)
    base.update(overrides)
    if "patience" not in overrides:
        base["patience"] = min(base["patience"], base["max_epochs"])
    return RunConfig(**base)


VOLATILE = ("training_duration_seconds", "hardware")

# a wattage meter that starts in milliseconds: no interpreter to boot
FAST_METER = "echo 50.0"


def _stable(record):
    d = record.to_json_dict()
    for key in VOLATILE:
        d.pop(key)
    return d


def test_two_runs_agree_except_wall_clock():
    _, a = train(_config(), DATA)
    _, b = train(_config(), DATA)
    assert _stable(a) == _stable(b)
    assert a.training_duration_seconds > 0
    assert b.hardware == hardware_descriptor()


def test_record_reflects_config_and_data():
    model, rec = train(_config(lam=0.01, seed=9, val_fraction=0.2), DATA)
    assert rec.architecture == "mlp"
    assert rec.dataset == "synth"
    assert rec.lam == 0.01
    assert rec.seed == 9
    assert rec.val_fraction == 0.2
    assert rec.status == "ok"
    assert rec.activations == ["relu"]
    assert 0.0 <= rec.test_accuracy <= 1.0
    assert rec.test_loss > 0
    assert rec.activation_energy > 0
    assert rec.epochs_run <= rec.max_epochs
    assert rec.energy_mj_total is None  # no telemetry configured
    assert rec.param_count == sum(t.size for t in model.parameters())


def test_seed_changes_the_outcome():
    _, a = train(_config(seed=1), DATA)
    _, b = train(_config(seed=2), DATA)
    assert a.test_loss != b.test_loss


def test_different_lambda_changes_training():
    _, plain = train(_config(max_epochs=3), DATA)
    _, reg = train(_config(max_epochs=3, lam=0.05), DATA)
    assert plain.activation_energy != reg.activation_energy


def test_early_stopping_can_fire():
    # a hot learning rate converges fast, then the validation
    # objective stops strictly improving and patience runs out
    config = _config(max_epochs=40, patience=2, lr=0.1)
    _, rec = train(config, DATA)
    assert rec.status == "ok"
    assert rec.epochs_run < config.max_epochs


def test_divergence_is_reported_not_raised():
    # the physics paths have no second nonlinearity, so an absurd
    # learning rate overflows the energy term instead of saturating
    config = _config(model=ModelSpec("physics", 8, 12, 3), lr=1e100,
                     max_epochs=6, lam=1.0, batch_size=8, weight_decay=0.0)
    _, rec = train(config, DATA)
    assert rec.status == "diverged"
    assert rec.test_accuracy is None
    assert rec.test_loss is None
    assert rec.activation_energy is None
    assert rec.epochs_run >= 0


@pytest.mark.parametrize("arch", ["mlp", "bimodal", "physics"])
def test_overflow_behind_saturation_still_diverges(arch):
    # features near float max overflow the first layer; tanh and sigmoid
    # saturate what they see, yet the run must still report divergence
    huge = dataclasses.replace(DATA, train_x=DATA.train_x * 1e306,
                               test_x=DATA.test_x * 1e306)
    spec = ModelSpec(arch, 8, 12, 3,
                     glia_ratio=1.0 if arch == "bimodal" else None)
    _, rec = train(_config(model=spec), huge)
    assert rec.status == "diverged"
    assert rec.test_accuracy is None


def test_non_finite_test_split_is_reported_as_diverged():
    # training and validation stay finite; only testing overflows
    huge_test = dataclasses.replace(DATA, test_x=DATA.test_x * 1e306)
    _, rec = train(_config(), huge_test)
    assert rec.status == "diverged"
    assert rec.epochs_run == 4
    assert rec.test_accuracy is None
    assert rec.test_loss is None
    assert rec.activation_energy is None
    assert rec.energy_mj_per_correct is None


def test_telemetry_session_stops_on_every_path(monkeypatch):
    import actreg.training
    sessions = []

    def capturing(command, hz):
        sessions.append(live_source(command, hz))
        return sessions[-1]
    monkeypatch.setattr(actreg.training, "live_source", capturing)
    huge_test = dataclasses.replace(DATA, test_x=DATA.test_x * 1e306)
    _, rec = train(_config(telemetry_command=FAST_METER), huge_test)
    assert rec.status == "diverged"

    def failing_evaluate(*args, **kwargs):
        raise RuntimeError("evaluation failed")
    monkeypatch.setattr(actreg.training, "evaluate", failing_evaluate)
    with pytest.raises(RuntimeError, match="evaluation failed"):
        train(_config(telemetry_command=FAST_METER), DATA)
    assert len(sessions) == 2
    assert not any(s._thread.is_alive() for s in sessions)


def test_evaluation_builds_no_graph_and_matches_a_graph_forward(monkeypatch):
    import actreg.objective
    import actreg.training
    traces = []

    def recording_forward(model, batch):
        traces.append(forward_traced(model, batch))
        return traces[-1]
    monkeypatch.setattr(actreg.training, "forward_traced", recording_forward)
    monkeypatch.setattr(actreg.objective, "forward_traced", recording_forward)
    model = build_model(ModelSpec("physics", 8, 12, 3), seed=3)
    x, y = DATA.test_x, DATA.test_y
    trace = forward_traced(model, x)  # one batch, with a graph
    ce = softmax_cross_entropy(trace.logits, y)
    energy = activation_energy(trace)
    assert trace.logits.requires_grad
    correct = int(np.sum(trace.logits.data.argmax(axis=1) == y))
    n = len(y)  # under 256 rows: one batch, weighted by n and divided back
    assert evaluate(model, x, y) == (correct / n, ce.item() * n / n, correct)
    assert _eval_objective(model, x, y, 0.1) == \
        regularized_loss(ce, energy, 0.1).item() * n / n
    assert dataset_activation_energy(model, x) == \
        pytest.approx(energy.item(), rel=1e-14)
    assert all(p.grad is None for p in model.parameters())
    assert len(traces) == 3
    assert not any(t.logits.requires_grad or a.requires_grad
                   for t in traces for a in t.hidden_activations)


def test_no_training_graph_is_alive_during_validation_and_testing(monkeypatch):
    # a step's graph holds every activation (and a cnn's conv columns);
    # one still alive under an evaluation pass is memory the pass cannot use
    import weakref

    import actreg.training
    losses = []

    def recording_objective(*args):
        loss = _batch_objective(*args)
        losses.append(weakref.ref(loss.data))
        return loss

    def checked(real):
        def evaluation(*args, **kwargs):
            assert all(ref() is None for ref in losses)
            return real(*args, **kwargs)
        return evaluation
    monkeypatch.setattr(actreg.training, "_batch_objective", recording_objective)
    for name in ("_eval_objective", "evaluate", "dataset_activation_energy"):
        monkeypatch.setattr(actreg.training, name,
                            checked(getattr(actreg.training, name)))
    _, record = train(_config(max_epochs=2), DATA)
    assert record.status == "ok" and record.epochs_run == 2 and losses


def test_evaluation_rejects_non_finite_results():
    model = build_model(ModelSpec("mlp", 8, 12, 3), seed=3)
    model.params["hidden1_w"].data[...] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            evaluate(model, DATA.test_x, DATA.test_y)
        with pytest.raises(NonFiniteError):
            dataset_activation_energy(model, DATA.test_x)


def test_evaluation_rejects_an_empty_split():
    model = build_model(ModelSpec("mlp", 8, 12, 3), seed=3)
    x, y = DATA.test_x[:0], DATA.test_y[:0]
    for evaluation in (lambda: evaluate(model, x, y),
                       lambda: _eval_objective(model, x, y, 0.1),
                       lambda: dataset_activation_energy(model, x)):
        with pytest.raises(ValidationError, match="empty"):
            evaluation()


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluation_rejects_a_batch_size_below_one(batch_size):
    model = build_model(ModelSpec("mlp", 8, 12, 3), seed=3)
    x, y = DATA.test_x, DATA.test_y
    for evaluation in (lambda: evaluate(model, x, y, batch_size=batch_size),
                       lambda: _eval_objective(model, x, y, 0.1, batch_size),
                       lambda: dataset_activation_energy(model, x, batch_size)):
        with pytest.raises(ValidationError, match="batch_size"):
            evaluation()


def test_dim_mismatch_is_rejected():
    with pytest.raises(ValidationError):
        train(_config(model=ModelSpec("mlp", 9, 12, 3)), DATA)
    with pytest.raises(ValidationError):
        train(_config(model=ModelSpec("mlp", 8, 12, 5)), DATA)


def test_config_validation():
    with pytest.raises(ValidationError):
        _config(lr=0.0)
    with pytest.raises(ValidationError):
        _config(batch_size=0)
    with pytest.raises(ValidationError):
        _config(patience=0)
    with pytest.raises(ValidationError):
        _config(patience=9, max_epochs=4)  # patience beyond the horizon
    with pytest.raises(ValidationError):
        _config(val_fraction=1.0)  # anything below 1 is allowed
    with pytest.raises(ValidationError):
        _config(lam=-1e-6)


def test_config_is_frozen():
    config = _config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.lr = 1.0


def test_evaluate_counts_correct():
    model = build_model(ModelSpec("mlp", 8, 12, 3), 0)
    acc, ce, correct = evaluate(model, DATA.test_x, DATA.test_y)
    logits = forward_traced(model, DATA.test_x).logits.data
    expect = int(np.sum(logits.argmax(axis=1) == DATA.test_y))
    assert correct == expect
    assert acc == pytest.approx(expect / DATA.test_y.size, abs=1e-12)
    assert ce > 0


def test_telemetry_populates_energy_fields():
    # energy integrates only from two samples on; a meter that starts in
    # milliseconds polled at 100 Hz takes them within the first ~15 ms
    # of a run that lasts well over 100 ms
    config = _config(max_epochs=60, patience=60,
                     telemetry_command=FAST_METER, telemetry_hz=100.0)
    _, rec = train(config, DATA)
    assert rec.status == "ok"
    # a 50 W meter polled through a short run still yields > 0 mJ
    assert rec.energy_mj_total is not None and rec.energy_mj_total > 0
    assert rec.energy_mj_per_correct is None or rec.energy_mj_per_correct > 0


def test_telemetry_failure_degrades_to_null():
    # a blank command means no telemetry at all
    for command in ("no_such_power_meter --watts", "   "):
        config = _config(max_epochs=2, telemetry_command=command)
        _, rec = train(config, DATA)
        assert rec.status == "ok"
        assert rec.energy_mj_total is None
        assert rec.energy_mj_per_correct is None


def test_seed_protocol_is_published():
    seeds = seed_protocol()
    assert seeds == [42, 123, 456, 789, 1011, 1213, 1415, 1617, 1819, 2021]
    assert len(set(seeds)) == 10


@pytest.mark.parametrize("spec,nodes", [
    (ModelSpec("mlp", 8, 12, 3), 16),
    (ModelSpec("bimodal", 8, 12, 3, glia_ratio=1.0), 25),
    (ModelSpec("physics", 8, 12, 3), 32),
    (ModelSpec("cnn", 16, 12, 3), 23),
], ids=lambda v: getattr(v, "arch", v))
def test_loss_graph_has_one_node_per_layer(spec, nodes):
    # every dense and conv layer and the energy term are one node each;
    # the count covers every tensor a backward pass reaches, leaves too
    gen = np.random.default_rng(0)
    model = build_model(spec, 0)
    loss = _batch_objective(model, gen.normal(size=(32, spec.input_dim)),
                            gen.integers(0, 3, size=32), 1e-3)
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    assert len(seen) == nodes
