"""Activation-energy objective: fixtures, composition, differentiability."""

import numpy as np
import pytest

from actreg.errors import ValidationError
from actreg.models import ModelSpec, build_model, forward_traced
from actreg.objective import (EVAL_ROWS, activation_energy,
                              dataset_activation_energy, regularized_loss)
from actreg.rng import make_generator
from actreg.tensor import Tensor, grad_check, softmax_cross_entropy


def _trace_of(*layers):
    from actreg.models import ForwardTrace
    tensors = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)
               for a in layers]
    return ForwardTrace(Tensor(np.zeros((len(layers[0]), 1))), tensors), tensors


def test_single_layer_fixture():
    # one example, activations (1, 2, 2): energy = 1 + 4 + 4 = 9
    trace, _ = _trace_of([[1.0, 2.0, 2.0]])
    assert activation_energy(trace).item() == 9.0


def test_layers_add_up():
    # layer energies 1 and 9 sum to 10
    trace, _ = _trace_of([[1.0, 0.0]], [[0.0, 3.0]])
    assert activation_energy(trace).item() == 10.0


def test_energy_averages_over_batch():
    # two examples with squared norms 9 and 1: mean 5
    trace, _ = _trace_of([[1.0, 2.0, 2.0], [1.0, 0.0, 0.0]])
    assert activation_energy(trace).item() == 5.0


def test_width_is_not_normalized_away():
    # same values spread over more units keep their full energy
    narrow, _ = _trace_of([[2.0, 2.0]])
    wide, _ = _trace_of([[2.0, 2.0, 0.0, 0.0, 0.0]])
    assert activation_energy(narrow).item() == activation_energy(wide).item()


def test_logits_are_excluded():
    # only hidden activations enter; the logits tensor is ignored
    from actreg.models import ForwardTrace
    trace = ForwardTrace(Tensor(np.full((1, 4), 100.0)),
                         [Tensor(np.array([[1.0, 0.0]]), requires_grad=True)])
    assert activation_energy(trace).item() == 1.0


def test_regularized_loss_fixture():
    # ce 2.0, energy 100, lambda 0.01 -> 3.0
    ce = Tensor(np.array(2.0), requires_grad=True)
    energy = Tensor(np.array(100.0), requires_grad=True)
    assert regularized_loss(ce, energy, 0.01).item() == pytest.approx(3.0, abs=0)


def test_lambda_zero_is_bit_exact_cross_entropy():
    gen = make_generator(4)
    model = build_model(ModelSpec("mlp", 8, 6, 3), 1)
    x = gen.normal(size=(16, 8))
    y = gen.integers(0, 3, size=16)
    trace = forward_traced(model, x)
    ce = softmax_cross_entropy(trace.logits, y)
    combined = regularized_loss(ce, activation_energy(trace), 0.0)
    assert combined.item() == ce.item()  # bitwise, not approximately


def test_lambda_validation():
    ce = Tensor(np.array(1.0))
    energy = Tensor(np.array(1.0))
    with pytest.raises(ValidationError):
        regularized_loss(ce, energy, -0.1)
    with pytest.raises(ValidationError):
        regularized_loss(ce, energy, float("nan"))


def test_energy_term_is_differentiable():
    gen = make_generator(9)
    model = build_model(ModelSpec("bimodal", 6, 5, 2, glia_ratio=1.0), 3)
    x = gen.normal(size=(4, 6))
    y = gen.integers(0, 2, size=4)

    def loss_fn():
        trace = forward_traced(model, x)
        ce = softmax_cross_entropy(trace.logits, y)
        return regularized_loss(ce, activation_energy(trace), 0.05)

    err = grad_check(loss_fn, model.parameters(), rng=make_generator(1))
    assert err < 1e-6


def test_dataset_energy_matches_batch_energy():
    gen = make_generator(12)
    model = build_model(ModelSpec("mlp", 5, 4, 2), 2)
    x = gen.normal(size=(300, 5))
    whole = forward_traced(model, x)
    per_example = activation_energy(whole).item()
    assert EVAL_ROWS < 300  # evaluated in two batches, the second short
    assert dataset_activation_energy(model, x) == \
        pytest.approx(per_example, rel=1e-12)


def _composed_energy(trace):
    # the energy built from generic ops, one mul/sum/scale per layer
    total = None
    for a in trace.hidden_activations:
        layer = (a * a).sum() * (1.0 / a.shape[0])
        total = layer if total is None else total + layer
    return total


@pytest.mark.parametrize("spec", [ModelSpec("mlp", 8, 6, 3),
                                  ModelSpec("bimodal", 8, 6, 3, glia_ratio=0.5),
                                  ModelSpec("physics", 8, 6, 3),
                                  ModelSpec("cnn", 16, 6, 3, conv_channels=(2, 3),
                                            dense_dim=5)],
                         ids=lambda s: s.arch)
def test_energy_node_equals_composed_reference_bit_for_bit(spec):
    # every activation but the last feeds the next layer, and the last
    # feeds the head, so each already holds a downstream gradient when
    # the energy's terms arrive
    gen = make_generator(21)
    x = gen.normal(size=(7, spec.input_dim))
    y = gen.integers(0, 3, size=7)
    model = build_model(spec, 5)
    results = []
    for energy_fn in (activation_energy, _composed_energy):
        trace = forward_traced(model, x)
        energy = energy_fn(trace)
        ce = softmax_cross_entropy(trace.logits, y)
        regularized_loss(ce, energy, 0.37).backward()
        results.append((energy.data, [a.grad for a in trace.hidden_activations]))
    (node, node_grads), (ref, ref_grads) = results
    assert node.tobytes() == ref.tobytes()
    assert len(node_grads) == len(ref_grads)
    for got, want in zip(node_grads, ref_grads):
        np.testing.assert_array_equal(got, want, strict=True)
