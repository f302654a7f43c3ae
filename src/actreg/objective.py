"""Activation-energy objective.

The energy of a forward pass is the sum over hidden layers of the
batch-mean squared L2 norm of each layer's post-activation output:

    E = sum_l  mean_i ||a_l(x_i)||^2

Norms are not normalized by layer width, so wider layers contribute
more, and logits are excluded by construction because they are not part
of the trace's hidden activation list. The total training objective is
cross-entropy plus lam times this energy.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, ValidationError
from .models import Model, ForwardTrace, forward_traced
from .tensor import Tensor, _node, no_grad


def activation_energy(trace: ForwardTrace) -> Tensor:
    """Differentiable scalar energy of one traced forward pass, as one node."""
    acts = trace.hidden_activations
    if not acts:
        raise ValidationError("trace has no hidden activations")
    scaled = [(a.data, 1.0 / a.shape[0]) for a in acts]
    total = np.empty(())

    def kernel():
        total[...] = sum(np.add.reduce(d * d, axis=None) * c for d, c in scaled)

    def backward(g):
        # Each activation is a parent once per factor of a * a and gets
        # the same array c * a for each, added one at a time as through a
        # mul node: a single 2 * c * a rounds differently once the
        # activation holds a gradient.
        grads = []
        for a in acts:
            ga = float(g * (1.0 / a.data.shape[0])) * a.data
            grads += (ga, ga)
        return grads
    return _node(total, tuple(a for a in acts for _ in (0, 1)), backward, kernel)


def regularized_loss(ce, energy, lam: float):
    """Cross-entropy plus lam times the activation energy.

    Works on scalar tensors during training and on plain floats in
    analysis code. With lam == 0 the result equals ``ce`` exactly, bit
    for bit, so an unregularized run is the lam=0 special case rather
    than a separate code path.
    """
    if not (isinstance(lam, (int, float)) and np.isfinite(lam) and lam >= 0):
        raise ValidationError(f"lam must be a finite nonnegative real, got {lam!r}")
    return ce + float(lam) * energy


# rows per forward pass of every whole-split evaluation
EVAL_ROWS = 256


def _eval_batches(n: int) -> list[slice]:
    """Row slices of EVAL_ROWS covering a split of n rows, which must be > 0."""
    if n == 0:
        raise ValidationError("dataset is empty")
    return [slice(start, start + EVAL_ROWS) for start in range(0, n, EVAL_ROWS)]


def dataset_activation_energy(model: Model, features: np.ndarray) -> float:
    """Mean activation energy of a model over a whole dataset.

    Computed in batches of EVAL_ROWS; the result is the per-example mean,
    summed over layers, identical to what a single full-dataset forward
    would give. Raises ValidationError when features has no rows and
    NonFiniteError when the result is not finite.
    """
    total = 0.0
    with no_grad():
        for rows in _eval_batches(features.shape[0]):
            trace = forward_traced(model, features[rows])
            for a in trace.hidden_activations:
                total += float(np.sum(a.data * a.data))
    if not np.isfinite(total):
        raise NonFiniteError("dataset activation energy is non-finite")
    return total / features.shape[0]
