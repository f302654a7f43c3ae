"""Training harness: determinism, early stopping, divergence, telemetry."""

import dataclasses

import numpy as np
import pytest

from actreg.datasets import DatasetHandle, synth_blobs
from actreg.errors import NonFiniteError, ValidationError
from actreg.models import ModelSpec, build_model, forward_traced
from actreg.objective import (EVAL_ROWS, activation_energy,
                              dataset_activation_energy, regularized_loss)
from actreg.power import (PowerSample, check_poll_hz, energy_per_correct,
                          live_source)
from actreg.records import load_record, save_record
from actreg.rng import make_generator, split_streams
from actreg.sweep import DEFAULT_SEEDS, run_lambda_sweep
from actreg.tensor import Adam, Tensor, softmax_cross_entropy
from actreg.training import (RunConfig, _batch_objective, _eval_objective,
                             evaluate, hardware_descriptor, train)

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


def test_float32_features_train_as_their_float64_values_do():
    # a replay copies rows into a float64 buffer, as Tensor() converts them
    single = dataclasses.replace(DATA, train_x=DATA.train_x.astype(np.float32),
                                 test_x=DATA.test_x.astype(np.float32))
    double = dataclasses.replace(single, train_x=single.train_x.astype(np.float64),
                                 test_x=single.test_x.astype(np.float64))
    assert _stable(train(_config(), single)[1]) == _stable(train(_config(), double)[1])


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


def test_evaluation_weights_every_batch_by_its_rows():
    # two full evaluation batches and a short one
    n = 2 * EVAL_ROWS + 37
    data = synth_blobs(classes=3, dim=8, n_per_class=300, separation=3.0, seed=8)
    x, y = data.train_x[:n], data.train_y[:n]
    assert x.shape[0] == n
    model = build_model(ModelSpec("physics", 8, 12, 3), seed=3)
    trace = forward_traced(model, x)  # the whole split in one graph forward
    ce = softmax_cross_entropy(trace.logits, y)
    energy = activation_energy(trace)
    correct = int(np.sum(trace.logits.data.argmax(axis=1) == y))
    acc, mean_ce, got_correct = evaluate(model, x, y)
    assert (acc, got_correct) == (correct / n, correct)
    assert mean_ce == pytest.approx(ce.item(), rel=1e-12)
    assert _eval_objective(model, x, y, 0.1) == \
        pytest.approx(regularized_loss(ce, energy, 0.1).item(), rel=1e-12)
    assert dataset_activation_energy(model, x) == \
        pytest.approx(energy.item(), rel=1e-12)


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
            _eval_objective(model, DATA.test_x, DATA.test_y, 0.1)
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
    for seed in (-1, 1.7, 2.0, True, "3", None):  # not a non-negative int
        with pytest.raises(ValidationError, match="seed"):
            _config(seed=seed)


@pytest.mark.parametrize("setting, value", [
    ("batch_size", True), ("batch_size", 2.5), ("batch_size", 16.0),
    ("max_epochs", 2.5), ("patience", 1.5),
    ("patience", True), ("telemetry_hz", 5000.0), ("telemetry_hz", 0.0),
    ("telemetry_hz", float("nan")), ("telemetry_hz", "5"), ("telemetry_hz", True),
])
def test_config_refuses_what_a_record_could_not_store(setting, value):
    # each of these used to pass, then trained oddly, failed inside
    # train(), or produced a record that save_record refuses
    name = "poll rate" if setting == "telemetry_hz" else setting
    with pytest.raises(ValidationError, match=name):
        _config(**{setting: value})
    if setting == "telemetry_hz":
        _config(telemetry_hz=1000.0)  # LiveSource's upper bound is allowed


_X, _Y = np.zeros((4, 2)), np.array([0, 1, 0, 1])


# every entry point of records.plain_int: the setting it names, a call
# that returns what it keeps of the value, and the least value accepted
@pytest.mark.parametrize("setting, keep, least", [
    pytest.param("batch_size", lambda v: _config(batch_size=v).batch_size, 1,
                 id="RunConfig.batch_size"),
    pytest.param("max_epochs", lambda v: _config(max_epochs=v, patience=1)
                 .max_epochs, 1, id="RunConfig.max_epochs"),
    pytest.param("patience", lambda v: _config(patience=v).patience, 1,
                 id="RunConfig.patience"),
    pytest.param("seed", lambda v: _config(seed=v).seed, 0, id="RunConfig.seed"),
    pytest.param("input_dim", lambda v: ModelSpec("mlp", v, 4, 2).input_dim, 1,
                 id="ModelSpec.input_dim"),
    pytest.param("hidden_dim", lambda v: ModelSpec("mlp", 4, v, 2).hidden_dim, 1,
                 id="ModelSpec.hidden_dim"),
    pytest.param("output_dim", lambda v: ModelSpec("mlp", 4, 4, v).output_dim, 1,
                 id="ModelSpec.output_dim"),
    pytest.param("dense_dim", lambda v: ModelSpec("cnn", 64, 4, 2, dense_dim=v)
                 .dense_dim, 1, id="ModelSpec.dense_dim"),
    pytest.param("conv_channels", lambda v: ModelSpec(
        "cnn", 64, 4, 2, conv_channels=(v, 5)).conv_channels[0], 1,
                 id="ModelSpec.conv_channels"),
    pytest.param("seed", lambda v: make_generator(v).bit_generator.seed_seq.entropy,
                 0, id="make_generator"),
    pytest.param("classes", lambda v: synth_blobs(v, 2, 5, 1.0, 0).classes, 2,
                 id="synth_blobs.classes"),
    pytest.param("dim", lambda v: synth_blobs(2, v, 5, 1.0, 0).train_x.shape[1],
                 1, id="synth_blobs.dim"),
    pytest.param("n_per_class", lambda v: synth_blobs(2, 2, v, 1.0, 0)
                 .train_y.size, 2, id="synth_blobs.n_per_class"),
    pytest.param("classes", lambda v: DatasetHandle("d", _X, _Y, _X, _Y, v).classes,
                 2, id="DatasetHandle.classes"),
    pytest.param("n_correct", lambda v: energy_per_correct(1.0, v), 0,
                 id="energy_per_correct"),
])
def test_integer_settings_take_numpy_ints_and_refuse_the_rest(setting, keep, least):
    # numpy integers were refused by RunConfig; synth_blobs raised a bare
    # TypeError for a float dim and built 10 rows per class from 10.5
    kept = keep(np.int64(3))
    assert kept == keep(3) and type(kept) is type(keep(3))
    assert not isinstance(kept, np.generic)
    for bad in (True, 2.5, "3", least - 1):
        with pytest.raises(ValidationError, match=f"^{setting} must be"):
            keep(bad)


_P = Tensor(np.ones(2), requires_grad=True)


# every entry point of records.plain_number: the setting it names, a call
# that returns what it keeps of the value, and whether the bound 0 is
# itself refused
@pytest.mark.parametrize("setting, keep, strict", [
    pytest.param("lr", lambda v: _config(lr=v).lr, True, id="RunConfig.lr"),
    pytest.param("weight_decay", lambda v: _config(weight_decay=v).weight_decay,
                 False, id="RunConfig.weight_decay"),
    pytest.param("lam", lambda v: _config(lam=v).lam, False, id="RunConfig.lam"),
    pytest.param("val_fraction", lambda v: _config(val_fraction=v).val_fraction,
                 False, id="RunConfig.val_fraction"),
    pytest.param("lr", lambda v: Adam([_P], lr=v).lr, False, id="Adam.lr"),
    pytest.param("weight_decay", lambda v: Adam([_P], weight_decay=v).weight_decay,
                 False, id="Adam.weight_decay"),
    pytest.param("lam", lambda v: regularized_loss(0.0, 1.0, v), False,
                 id="regularized_loss"),
    pytest.param("joules", lambda v: energy_per_correct(v, 1), False,
                 id="energy_per_correct"),
    pytest.param("poll rate", check_poll_hz, True, id="check_poll_hz"),
    pytest.param("separation", lambda v: synth_blobs(2, 2, 5, v, 0).train_x,
                 False, id="synth_blobs.separation"),
    pytest.param("glia_ratio", lambda v: ModelSpec(
        "bimodal", 4, 8, 2, glia_ratio=v).glia_ratio, True, id="ModelSpec.glia_ratio"),
    pytest.param("lam", lambda v: run_lambda_sweep(
        DATA, ModelSpec("mlp", 8, 4, 3), (0.0, v), (1,), epochs=1).rows[-1].lam,
                 False, id="run_lambda_sweep"),
])
def test_real_settings_take_numpy_floats_and_refuse_the_rest(setting, keep, strict):
    # a string raised a bare TypeError in synth_blobs and energy_per_correct,
    # a bool passed synth_blobs and regularized_loss, which also refused a
    # numpy float, and the sweep grid trained "0" and True as 0 and 1
    kept = keep(np.float32(0.5))
    plain = keep(float(np.float32(0.5)))
    np.testing.assert_array_equal(kept, plain)
    assert type(kept) is type(plain) and not isinstance(kept, np.generic)
    for bad in ["0.5", True, float("nan"), float("inf"), -1e-3] + [0.0] * strict:
        with pytest.raises(ValidationError, match=f"^{setting} must be"):
            keep(bad)


def test_a_numpy_integer_epoch_count_sweeps_and_records_python_ints(tmp_path):
    report = run_lambda_sweep(DATA, ModelSpec("mlp", 8, 6, 3), (0.0,),
                              seeds=(np.int64(5),), epochs=np.int64(1))
    cell = report.cells[0]
    assert type(cell.max_epochs) is int and type(cell.seed) is int
    assert load_record(save_record(cell, tmp_path)).to_json_dict() == \
        cell.to_json_dict()


def test_a_numpy_integer_seed_trains_and_records_a_python_int():
    _, record = train(_config(seed=np.int64(9), max_epochs=1), DATA)
    _, plain = train(_config(seed=9, max_epochs=1), DATA)
    assert type(record.seed) is int
    assert _stable(record) == _stable(plain)


@pytest.mark.parametrize("model, settings, refused", [
    (dict(hidden_dim=True), {}, "hidden_dim"),
    (dict(arch="bimodal", glia_ratio=True), {}, "glia_ratio"),
    ({}, dict(lr=True), "lr"),
    ({}, dict(weight_decay=True), "weight_decay"),
    ({}, dict(lam=True), "lam"),
    ({}, dict(lam="0.1"), "lam"),
    (dict(input_dim=np.int64(8), hidden_dim=np.int64(12),
          output_dim=np.int64(3)), {}, None),
    (dict(arch="bimodal", glia_ratio=np.float32(0.5)), {}, None),
    ({}, dict(lam=np.float32(1e-3)), None),
    ({}, dict(lr=np.float64(1e-3), weight_decay=np.float32(1e-5),
              val_fraction=np.float32(0.2)), None),
], ids=lambda v: repr(v) if isinstance(v, dict) else None)
def test_settings_are_refused_or_recorded_as_plain_numbers(model, settings,
                                                           refused, tmp_path):
    # each of these used to be accepted, and then failed inside train(),
    # or gave a record that save_record refuses
    def config():
        spec = dict(arch="mlp", input_dim=8, hidden_dim=12, output_dim=3)
        return _config(model=ModelSpec(**{**spec, **model}), max_epochs=1,
                       **settings)
    if refused:
        with pytest.raises(ValidationError, match=refused):
            config()
        return
    _, record = train(config(), DATA)
    stored = record.to_json_dict()
    assert not any(isinstance(v, np.generic) for v in stored.values())
    assert load_record(save_record(record, tmp_path)).to_json_dict() == stored


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


class _FixedMeter:
    """A started session that read 50 W for 1 s, however long the run took."""

    available = True

    def start(self):
        pass

    def set_phase(self, phase):
        pass

    def stop(self):
        return [PowerSample(0.0, 50.0, "training"), PowerSample(1.0, 50.0, "testing")]


def test_telemetry_populates_energy_fields(monkeypatch):
    # live polling is covered in test_power; here the samples are fixed,
    # so the energy fields are exact
    import actreg.training
    monkeypatch.setattr(actreg.training, "live_source",
                        lambda command, hz: _FixedMeter())
    _, rec = train(_config(telemetry_command="fixed-meter"), DATA)
    assert rec.status == "ok"
    correct = round(rec.test_accuracy * DATA.test_x.shape[0])
    assert correct > 0
    assert rec.energy_mj_total == 50_000.0
    assert rec.energy_mj_per_correct == 50_000.0 / correct


def test_telemetry_failure_degrades_to_null():
    # a blank command means no telemetry at all
    for command in ("no_such_power_meter --watts", "   "):
        config = _config(max_epochs=2, telemetry_command=command)
        _, rec = train(config, DATA)
        assert rec.status == "ok"
        assert rec.energy_mj_total is None
        assert rec.energy_mj_per_correct is None


def test_seed_protocol_is_published():
    seeds = DEFAULT_SEEDS
    assert seeds == (42, 123, 456, 789, 1011, 1213, 1415, 1617, 1819, 2021)
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


ZOO = [ModelSpec("mlp", 16, 12, 3), ModelSpec("bimodal", 16, 12, 3, glia_ratio=1.0),
       ModelSpec("physics", 16, 12, 3), ModelSpec("cnn", 16, 12, 3)]
DATA16 = synth_blobs(classes=3, dim=16, n_per_class=40, separation=3.0, seed=7)


@pytest.mark.parametrize("lam", [0.0, 1e-2])
@pytest.mark.parametrize("spec", ZOO, ids=lambda s: s.arch)
def test_replayed_steps_train_as_rebuilt_steps_do(spec, lam, monkeypatch):
    # train() captures a step and replays it; a reference loop over the
    # same seed streams builds a new graph on every step
    import actreg.training
    optimizers = []

    class Recorded(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)
    monkeypatch.setattr(actreg.training, "Adam", Recorded)
    config = _config(model=spec, lam=lam, max_epochs=2, batch_size=16)
    _, record = train(config, DATA16)
    assert record.status == "ok" and record.epochs_run == 2

    init_rng, split_rng, shuffle_rng = split_streams(config.seed, 3)
    model = build_model(spec, init_rng)
    reference = Adam(model.parameters(), lr=config.lr,
                     weight_decay=config.weight_decay)
    n = DATA16.train_x.shape[0]
    fit = split_rng.permutation(n)[int(round(config.val_fraction * n)):]
    fit_x, fit_y = DATA16.train_x[fit], DATA16.train_y[fit]
    bs = config.batch_size
    assert fit.size > 2 * bs and fit.size % bs  # replays and a partial batch
    for _ in range(2):
        order = shuffle_rng.permutation(fit.size)
        for start in range(0, fit.size, bs):
            idx = order[start:start + bs]
            loss = _batch_objective(model, fit_x[idx], fit_y[idx], lam)
            reference.zero_grad()
            loss.backward()
            reference.step()
    assert optimizers[0].flat.tobytes() == reference.flat.tobytes()
