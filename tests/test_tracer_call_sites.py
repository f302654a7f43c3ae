"""The benchmark's tracer finds every call site it wraps, and puts it back.

``bench/tracing.py`` patches actreg functions by name from outside the
package. A renamed function would otherwise surface only in a traced
benchmark run; here it fails as soon as the tracer installs.
"""

import importlib.util
import math
import types
from pathlib import Path

import pytest

import actreg
from actreg.models import ModelSpec
from actreg.training import RunConfig

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer(actreg)


def _snapshot(owners):
    return {(o.__name__, k): v for o in owners for k, v in vars(o).items()}


def test_install_wraps_and_uninstall_restores_every_call_site():
    owners = [m for m in vars(actreg).values() if isinstance(m, types.ModuleType)]
    owners += [actreg.tensor.Tensor, actreg.tensor.Adam]
    before = _snapshot(owners)
    tracer = _tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        wrapped = _snapshot(owners)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert original is before[owner.__name__, attr], attr
        assert wrapped[owner.__name__, attr] is not original, attr
    after = _snapshot(owners)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


@pytest.mark.parametrize("arch", ["mlp", "bimodal", "physics", "cnn"])
def test_replayed_steps_stay_visible_to_the_tracer(arch):
    # a replay calls no wrapped forward, but each step's backward and
    # Adam update still go through the wrapped methods
    data = actreg.synth_blobs(3, 16, 20, 3.0, 7)
    spec = ModelSpec(arch, 16, 6, 3, glia_ratio=1.0 if arch == "bimodal" else None,
                     conv_channels=(2, 3), dense_dim=8)
    config = RunConfig(model=spec, batch_size=8, max_epochs=2, patience=2, seed=1)
    tracer = _tracer()
    tracer.install()
    try:
        _, record = actreg.training.train(config, data)
    finally:
        tracer.uninstall()
    n = data.train_x.shape[0]
    n_fit = n - round(config.val_fraction * n)
    batches = math.ceil(n_fit / config.batch_size)
    # one capture per epoch, and one more for a partial last batch
    captures = 1 + (batches > 1 and n_fit % config.batch_size > 0)
    assert record.status == "ok" and record.epochs_run == 2 and batches > 2
    names, parents = tracer.name, tracer.parent
    (train_span,) = [i for i, name in enumerate(names) if name == "training.train"]
    assert names.count("tensor.backward") == names.count("tensor.adam") == 2 * batches
    forwards = [i for i, name in enumerate(names)
                if name == "models.forward" and parents[i] == train_span]
    assert len(forwards) == 2 * captures


def test_one_bootstrap_span_per_architecture_under_shared_draws():
    # stats.bootstrap_ms stays fed: analysis still calls bootstrap_ci by
    # name once per architecture, although equal sizes share one draw
    records = [actreg.ExperimentRecord(arch, "synth", seed, 0.5 + 0.01 * seed)
               for arch in ("bimodal", "mlp", "physics") for seed in range(6)]
    tracer = _tracer()
    tracer.install()
    try:
        actreg.analysis.analyze_records(records)
    finally:
        tracer.uninstall()
    assert tracer.name.count("stats.bootstrap") == 3
