"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps a dense float64 array and, when it participates in a
differentiable graph, remembers its parents and a backward closure.
Every op builds its output through one constructor, ``_node``. A
backward closure takes the output's upstream gradient and returns one
gradient per parent, or None for a parent that needs none; it never
refers to its own output node, so a graph holds no reference cycles and
reference counting frees it as soon as its loss is dropped.
``backward()`` on a scalar walks the recorded graph once in reverse
topological order and is the only place gradients are accumulated, by
one rule: a closure returns arrays no other tensor holds (add, reshape
and concat copy what they pass through), so the engine keeps the first
gradient a node receives and adds each later one into it in place.
Only the operations needed by the model zoo are provided, at the zoo's
geometry: ``conv2d`` is same-padded with stride 1, ``concat`` joins
columns, and there is one node per layer (``linear`` and ``conv2d``
take their bias); shapes must match exactly.

Finiteness is checked at state boundaries, not per op: the public
``Tensor(...)`` constructor rejects NaN and infinity in inputs and
parameters, ``Adam.step`` rejects a non-finite gradient before it
updates anything and non-finite parameters after, and callers check the
loss they compute. An op output may therefore hold an overflow that a
later op saturates away (``tanh(x * 10.0)`` at x = 1e308 is finite).

Inside ``with no_grad():`` ops record no graph: outputs keep no parents
and no backward closure, so evaluation passes allocate only their
forward arrays.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError, ValidationError
from .rng import Seed, make_generator

# upstream gradient in; per parent, an array no other tensor holds, or None
Backward = Callable[[np.ndarray], Sequence[np.ndarray | None]]

# Read only by ``_node``; set through ``no_grad``.
_grad_enabled = True
_FLOAT64 = np.dtype(np.float64)


@contextmanager
def no_grad() -> Iterator[None]:
    """Build no graph inside the block; the previous mode returns on exit.

    The switch is process-wide, not per thread.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """Dense float64 array with optional gradient tracking.

    The public constructor rejects NaN and infinity, so inputs and
    parameters are finite. Op outputs are not checked one by one: an
    overflow surfaces where state is checked (the loss, and the
    gradients and parameters in ``Adam.step``).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor contains non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Backward | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Backpropagate from a scalar through the recorded graph.

        Visits every reachable interior node exactly once, children
        before parents, and clears its gradient; leaves add what they
        receive to what they hold. A node keeps its first gradient, which
        no other tensor holds, and each later one is added into it in place.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() starts from a scalar, shape is {self.shape}")
        if not self.requires_grad:
            raise ValidationError("backward() on a graph with no differentiable leaves")
        order: list[Tensor] = []
        seen: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            node.grad = None  # a second call on this graph starts afresh
            stack.append((node, True))
            for parent in node._parents:
                if parent._parents and parent not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is None:
                continue
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad += g

    def sum(self) -> "Tensor":
        """Sum of all elements as a scalar tensor."""
        return _node(np.array(self.data.sum()), (self,),
                     lambda g: (np.full_like(self.data, float(g)),))

    def reshape(self, shape: tuple[int, ...]) -> "Tensor":
        return _node(self.data.reshape(shape), (self,),
                     lambda g: (g.reshape(self.data.shape).copy(),))

    def __add__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            if self.shape != other.shape:
                raise ShapeError(f"add shapes differ: {self.shape} vs {other.shape}")
            return _node(self.data + other.data, (self, other),
                         lambda g: (g.copy(), g.copy()))
        return _node(self.data + float(other), (self,), lambda g: (g.copy(),))

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            if self.shape != other.shape:
                raise ShapeError(f"mul shapes differ: {self.shape} vs {other.shape}")
            return _node(self.data * other.data, (self, other),
                         lambda g: (g * other.data, g * self.data))
        scale = float(other)
        return _node(self.data * scale, (self,), lambda g: (g * scale,))

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-other if isinstance(other, Tensor) else -float(other))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward: Backward) -> Tensor:
    """The one graph-node constructor every op builds its output with.

    Constant subgraphs are pruned: when no parent needs a gradient, or
    under ``no_grad``, the output keeps no parents and no backward
    closure. The output is not checked for finiteness.
    """
    out = Tensor.__new__(Tensor)
    # ops hand over float64 arrays, which need no conversion
    out.data = (data if type(data) is np.ndarray and data.dtype is _FLOAT64
                else np.asarray(data, dtype=np.float64))
    out.grad = None
    if _grad_enabled:
        # a loop, not any() over a generator: this runs for every op output
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward
                return out
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense layer x @ w + b: an (n, i) batch, (i, o) weights and an (o,) bias."""
    xs, ws, bs = x.data.shape, w.data.shape, b.data.shape
    if len(xs) != 2 or len(bs) != 1 or ws != (xs[1], bs[0]):
        raise ShapeError(f"linear needs (n, i), (i, o) and (o,) operands, got "
                         f"{xs}, {ws} and {bs}")
    return _node(x.data @ w.data + b.data, (x, w, b),
                 lambda g: (g @ w.data.T if x.requires_grad else None,
                            x.data.T @ g, g.sum(axis=0)))


def relu(x: Tensor) -> Tensor:
    return _node(np.maximum(x.data, 0.0), (x,), lambda g: (g * (x.data > 0),))


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    return _node(t, (x,), lambda g: (g * (1.0 - t * t),))


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    return _node(s, (x,), lambda g: (g * s * (1.0 - s),))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp of a nonpositive argument never overflows; the numerator picks
    # each sign's stable form, 1 / (1 + e) or e / (1 + e), for one divide
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join 2-D tensors side by side; their row counts must agree."""
    if not parts:
        raise ValidationError("concat needs at least one tensor")
    first = parts[0].shape
    index, stop = [], 0
    for p in parts:
        if p.data.ndim != 2 or p.shape[0] != first[0]:
            raise ShapeError(f"concat needs 2-D parts with equal rows: "
                             f"{first} vs {p.shape}")
        # each part's gradient is a basic slice of g's columns
        start, stop = stop, stop + p.shape[1]
        index.append((slice(None), slice(start, stop)))
    return _node(np.concatenate([p.data for p in parts], axis=1), tuple(parts),
                 lambda g: [g[i].copy() for i in index])


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; rows sum to 1."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of softmax(logits) against integer labels.

    Stabilized by max subtraction, so arbitrarily large logits do not
    overflow. The gradient reaching ``logits`` is (softmax - onehot) / n;
    the backward reuses the forward's exponentials and their row sums,
    which give ``softmax(logits)`` bit for bit.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"logits must be (batch, classes), got {logits.shape}")
    y = np.asarray(labels)
    n, k = logits.data.shape
    if y.shape != (n,):
        raise ShapeError(f"labels shape {y.shape} does not match batch {n}")
    if n == 0:
        raise ValidationError("cross-entropy of an empty batch")
    if y.dtype.kind not in "iu":
        raise ValidationError("labels must be integers")
    if y.min() < 0 or y.max() >= k:
        bad = np.nonzero((y < 0) | (y >= k))[0]
        raise ValidationError(f"label {int(y[bad[0]])} out of range [0, {k}) "
                              f"at row {int(bad[0])}")
    rows = np.arange(n)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=1, keepdims=True)
    loss = (np.log(s[:, 0]) - z[rows, y]).sum() / n

    def backward(g):
        d = e / s
        d[rows, y] -= 1.0
        return (float(g) * d / n,)
    return _node(np.array(loss), (logits,), backward)


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """Gather the k x k window around every position into (n, c*k*k, h*w).

    The windows are read from one copy of ``x`` with a k // 2 zero
    border: a zeroed array with ``x`` written into its interior, which
    takes about half the time of ``np.pad`` at the cnn's shapes.
    """
    n, c, h, w = x.shape
    p = k // 2
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=np.float64)
    xp[:, :, p:p + h, p:p + w] = x
    cols = np.empty((n, c, k, k, h, w), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i:i + h, j:j + w]
    return cols.reshape(n, c * k * k, h * w)


def _col2im(dcols: np.ndarray, xshape: tuple[int, ...], k: int) -> np.ndarray:
    """Scatter-add column gradients back to input positions."""
    n, c, h, w = xshape
    p = k // 2
    dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=np.float64)
    d6 = dcols.reshape(n, c, k, k, h, w)
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + h, j:j + w] += d6[:, :, i, j]
    return dxp[:, :, p:p + h, p:p + w]


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Same-padded stride-1 cross-correlation of (n, c, h, w) inputs.

    The (o, c, k, k) kernels are square with an odd side k, and a k // 2
    zero border keeps the output at (n, o, h, w). ``b`` adds one bias
    per output channel. Implemented with an im2col gather so forward
    and backward are plain matrix products. No kernel flip: this is the
    convention every major deep-learning framework calls convolution.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d needs 4-D input and kernels, got {x.shape} "
                         f"and {w.shape}")
    n, c, h, wid = x.shape
    o, ck, k, kw = w.shape
    if ck != c or b.shape != (o,) or kw != k or k % 2 == 0:
        raise ShapeError(f"kernels {w.shape} and bias {b.shape} do not fit input "
                         f"{x.shape}: need (o, {c}, k, k) with odd k, and (o,)")
    cols = _im2col(x.data, k)
    wf = w.data.reshape(o, c * k * k)

    def backward(g):
        db = g.sum(axis=(0, 2, 3))
        g = g.reshape(n, o, h * wid)
        dx = dw = None
        if x.requires_grad:
            dx = _col2im(np.matmul(wf.T, g), x.shape, k)
        if w.requires_grad:
            dw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        return dx, dw, db
    out = np.matmul(wf, cols)
    out += b.data[:, None]  # in place: no second output-sized array
    return _node(out.reshape(n, o, h, wid), (x, w, b), backward)


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; odd trailing rows or columns drop.

    The gradient flows to each window's first maximal element in
    row-major order. The backward reads the winner off the forward's row
    maxima: the bottom row wins only if its maximum is strictly larger
    than the top row's, and within the winning row the right element
    wins only if it is strictly larger than the left one. Ties, +-0
    among them, go to the earlier element.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"max_pool2 needs (n, c, h, w), got {x.shape}")
    n, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    if oh == 0 or ow == 0:
        raise ShapeError(f"input {h}x{w} too small for 2x2 pooling")
    # np.maximum returns its second argument on a tie (+-0, numpy 2.4), so
    # the earlier element goes second and the row-major first one wins
    x2 = x.data[:, :, :oh * 2, :ow * 2]
    rows = np.maximum(x2[..., 1::2], x2[..., 0::2])
    out = np.maximum(rows[:, :, 1::2], rows[:, :, 0::2])

    def backward(g):
        bottom = rows[:, :, 1::2] > rows[:, :, 0::2]
        right = x2[..., 1::2] > x2[..., 0::2]
        right = (bottom & right[:, :, 1::2]) | (~bottom & right[:, :, 0::2])
        # the winner's flat index in x, built in one index array: a row
        # for the bottom row, one for the right column, plus the window's
        # top-left corner
        idx = np.multiply(bottom, w, dtype=np.intp)
        idx += right
        idx += np.arange(0, n * c * h * w, h * w).reshape(n, c, 1, 1)
        idx += np.arange(0, oh * 2 * w, 2 * w)[:, None]
        idx += np.arange(0, ow * 2, 2)
        dx = np.zeros((n, c, h, w), dtype=np.float64)
        dx.reshape(-1)[idx] = g
        return (dx,)
    return _node(out, (x,), backward)


# Adam's moment decay rates and the denominator's guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam over one flat float64 buffer that holds every parameter.

    The constructor copies the parameters into ``flat`` and rebinds each
    ``param.data`` to a view of it, so ``step`` is a few vectorized ops
    on one array; the moments ``m`` and ``v`` are flat as well. A
    parameter may be listed only once, because two views of one tensor
    would alias. ``step`` gathers the gradients into a scratch buffer of
    ``flat``'s size and computes in place in it and in a second one, all
    allocated here, so a step allocates no array of the model's size.
    Temporaries of that size, freed every step, let malloc hand the heap
    top back to the OS, and each step would page-fault it in again.

    The moments decay at ADAM_BETA1 and ADAM_BETA2, and ADAM_EPS guards
    the denominator. L2 weight decay is folded into the gradient before
    the moment updates (grad += weight_decay * param), the classic
    coupled form. Bias correction uses the shared step counter, which
    ``step`` increments. A parameter without a gradient is stepped as if
    its gradient were zero.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 weight_decay: float = 0.0):
        if lr < 0.0 or weight_decay < 0.0:
            raise ValidationError("lr and weight_decay must be >= 0")
        self.params = list(params)
        if not self.params:
            raise ValidationError("Adam needs at least one parameter")
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValidationError("a parameter is listed twice")
        self.lr = lr
        self.weight_decay = weight_decay
        self.flat = np.empty(sum(p.size for p in self.params), dtype=np.float64)
        start = 0
        for p in self.params:
            view = self.flat[start:start + p.size].reshape(p.shape)
            view[...] = p.data
            p.data = view
            start += p.size
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._grad = np.empty_like(self.flat)
        self._tmp = np.empty_like(self.flat)
        self._finite = np.empty(self.flat.shape, dtype=bool)
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """One Adam update of every parameter, in place.

        Raises NonFiniteError, with no state changed, when a gradient is
        non-finite, and after the update when a parameter became so.
        """
        grads = []
        for p in self.params:
            g = p.grad
            if g is None:
                g = np.zeros(p.size)
            elif g.shape != p.shape:
                raise ShapeError(f"grad shape {g.shape} does not match param {p.shape}")
            grads.append(g.ravel())
        g, a, finite = self._grad, self._tmp, self._finite
        np.concatenate(grads, out=g)
        if not np.isfinite(g, out=finite).all():
            raise NonFiniteError("gradient contains non-finite values")
        beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - beta1 ** t
        c2 = 1.0 - beta2 ** t
        p, m, v = self.flat, self.m, self.v
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps), with decay folded
        # into g first, one ufunc at a time in that expression's order
        # so every bit matches it; g holds the denominator at the end
        if self.weight_decay:
            g += np.multiply(self.weight_decay, p, out=a)
        m *= beta1
        m += np.multiply(1.0 - beta1, g, out=a)
        v *= beta2
        v += np.multiply(1.0 - beta2, np.multiply(g, g, out=a), out=a)
        np.multiply(self.lr, np.divide(m, c1, out=a), out=a)
        np.add(np.sqrt(np.divide(v, c2, out=g), out=g), eps, out=g)
        p -= np.divide(a, g, out=a)
        if not np.isfinite(p, out=finite).all():
            raise NonFiniteError("parameters became non-finite after the update")


# grad_check's central-difference step and probes per parameter tensor
GRAD_CHECK_STEP = 1e-6
GRAD_CHECK_COORDS = 25


def grad_check(loss_fn: Callable[[], Tensor], params: Sequence[Tensor], *,
               rng: Seed = 0) -> float:
    """Compare backward gradients against central finite differences.

    ``loss_fn`` must be a deterministic closure over ``params`` that
    returns a scalar tensor. Each coordinate is moved by GRAD_CHECK_STEP
    either way; for tensors larger than GRAD_CHECK_COORDS a seeded
    random subset of that many coordinates is probed. Returns the worst
    relative error  |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if not params:
        raise ValidationError("grad_check needs at least one parameter")
    gen = make_generator(rng)
    for p in params:
        p.grad = None
    loss = loss_fn()
    if loss.data.size != 1:
        raise ShapeError(f"loss_fn must return a scalar, got {loss.shape}")
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    worst = 0.0
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= GRAD_CHECK_COORDS:
            coords = np.arange(n)
        else:
            coords = np.sort(gen.choice(n, size=GRAD_CHECK_COORDS, replace=False))
        aflat = analytic[pi].reshape(-1)
        for ci in coords:
            orig = flat[ci]
            flat[ci] = orig + GRAD_CHECK_STEP
            lo_hi = loss_fn().item()
            flat[ci] = orig - GRAD_CHECK_STEP
            lo_lo = loss_fn().item()
            flat[ci] = orig
            if not (np.isfinite(lo_hi) and np.isfinite(lo_lo)):
                raise NonFiniteError(f"loss non-finite while perturbing parameter "
                                     f"{pi} coordinate {int(ci)}")
            numeric = (lo_hi - lo_lo) / (2.0 * GRAD_CHECK_STEP)
            a = aflat[ci]
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, rel)
    return worst
