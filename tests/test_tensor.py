"""Autodiff core: frozen forward fixtures, gradient checks, Adam."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from actreg.errors import (CaptureError, NonFiniteError, ShapeError,
                           ValidationError)
from actreg.models import ModelSpec, build_model, forward_traced
from actreg.objective import activation_energy, regularized_loss
from actreg.rng import make_generator
from actreg.tensor import (CONV_BLOCK_ROWS, Adam, Tape, Tensor, concat,
                           conv2d, grad_check, linear, max_pool2, no_grad,
                           relu, sigmoid, softmax, softmax_cross_entropy, tanh)


def _leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------- forward

def test_sigmoid_closed_form():
    # sigmoid(ln 3) = 1 / (1 + 1/3) = 3/4
    out = sigmoid(_leaf([math.log(3.0)]))
    assert abs(out.data[0] - 0.75) < 1e-15


def test_sigmoid_extreme_inputs_stay_finite():
    out = sigmoid(_leaf([-1000.0, 1000.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] >= 0.0 and out.data[1] <= 1.0


def test_sigmoid_matches_split_by_sign_reference():
    # the reference evaluates each sign's stable form on its own subset
    z = np.concatenate([make_generator(4).normal(size=200) * 30.0,
                        [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300]])
    ref = np.empty_like(z)
    pos = z >= 0
    ref[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    ref[~pos] = ez / (1.0 + ez)
    out = sigmoid(_leaf(z)).data
    np.testing.assert_array_equal(out, ref)


def test_relu_and_tanh_values():
    x = _leaf([-2.0, 0.0, 3.0])
    np.testing.assert_array_equal(relu(x).data, [0.0, 0.0, 3.0])
    np.testing.assert_allclose(tanh(x).data, np.tanh([-2.0, 0.0, 3.0]),
                               rtol=0, atol=1e-15)


def test_softmax_rows_sum_to_one():
    gen = make_generator(11)
    s = softmax(gen.normal(size=(64, 10)) * 50.0)
    np.testing.assert_allclose(s.sum(axis=1), np.ones(64), rtol=0, atol=1e-12)


def test_cross_entropy_uniform_logits():
    # equal logits over K classes: loss = ln K regardless of label
    logits = _leaf(np.zeros((4, 10)))
    loss = softmax_cross_entropy(logits, np.array([0, 3, 7, 9]))
    assert abs(loss.item() - math.log(10.0)) < 1e-12


def test_cross_entropy_binary_closed_form():
    # logits (1, 0) with label 0: loss = ln(1 + e^-1)
    loss = softmax_cross_entropy(_leaf([[1.0, 0.0]]), np.array([0]))
    assert abs(loss.item() - math.log(1.0 + math.exp(-1.0))) < 1e-12


def test_cross_entropy_shift_invariance():
    gen = make_generator(5)
    z = gen.normal(size=(8, 6))
    y = gen.integers(0, 6, size=8)
    base = softmax_cross_entropy(_leaf(z), y).item()
    shifted = softmax_cross_entropy(_leaf(z + 1000.0), y).item()
    assert math.isfinite(shifted)
    assert abs(base - shifted) < 1e-9


def test_cross_entropy_rejects_bad_labels():
    logits = _leaf(np.zeros((2, 3)))
    with pytest.raises(ValidationError, match="out of range"):
        softmax_cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(ValidationError, match="integer"):
        softmax_cross_entropy(logits, np.array([0.0, 1.0]))


def test_cross_entropy_rejects_an_empty_batch():
    with pytest.raises(ValidationError, match="empty batch"):
        softmax_cross_entropy(_leaf(np.zeros((0, 3))), np.zeros(0, dtype=np.int64))


def _two_exp_cross_entropy(z, y, g):
    # reference loss and logit gradient: np.mean for the loss and a
    # second softmax, computed from the logits again, for the gradient
    n = z.shape[0]
    zz = z - z.max(axis=1, keepdims=True)
    loss = float(np.mean(np.log(np.exp(zz).sum(axis=1)) - zz[np.arange(n), y]))
    d = softmax(z)
    d[np.arange(n), y] -= 1.0
    return loss, g * d / n


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_cross_entropy_matches_two_exp_reference_bit_for_bit(dtype):
    gen = make_generator(21)
    z = np.clip(gen.normal(size=(40, 7)) * 300.0, -700.0, 700.0)
    z[0] = [700.0, -700.0, 0.0, 700.0, -700.0, 1.0, -1.0]
    z[1] = 700.0
    y = gen.integers(0, 7, size=40).astype(dtype)
    logits = _leaf(z)
    loss = softmax_cross_entropy(logits, y)
    (loss * 0.37).backward()
    ref_loss, ref_grad = _two_exp_cross_entropy(z, y, 0.37)
    assert loss.item() == ref_loss
    np.testing.assert_array_equal(logits.grad, ref_grad)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_cross_entropy_names_the_first_bad_label_and_its_row(dtype):
    logits = _leaf(np.zeros((5, 4)))
    with pytest.raises(ValidationError,
                       match=r"^label 9 out of range \[0, 4\) at row 2$"):
        softmax_cross_entropy(logits, np.array([0, 3, 9, 1, 4], dtype=dtype))
    if dtype != np.uint8:
        with pytest.raises(ValidationError,
                           match=r"^label -1 out of range \[0, 4\) at row 1$"):
            softmax_cross_entropy(logits, np.array([0, -1, 9, 1, 2], dtype=dtype))


def test_conv_ones_fixture():
    # 3x3 ones convolved with a single 3x3 ones kernel, same padding:
    # each output counts the input cells its window covers
    x = _leaf(np.ones((1, 1, 3, 3)))
    w = _leaf(np.ones((1, 1, 3, 3)))
    out = conv2d(x, w, Tensor(np.zeros(1)))
    assert out.shape == (1, 1, 3, 3)
    np.testing.assert_array_equal(out.data[0, 0], [[4.0, 6.0, 4.0],
                                                   [6.0, 9.0, 6.0],
                                                   [4.0, 6.0, 4.0]])


def test_conv_padding_and_stride_shapes():
    # same padding at stride 1 keeps the spatial extent; kernels must be
    # square with an odd side
    x = _leaf(np.ones((2, 3, 8, 8)))
    b = _leaf(np.zeros(5))
    for k in (1, 3, 5):
        assert conv2d(x, _leaf(np.ones((5, 3, k, k))), b).shape == (2, 5, 8, 8)
    for shape in ((5, 3, 2, 2), (5, 3, 3, 5)):
        with pytest.raises(ShapeError, match="odd k"):
            conv2d(x, _leaf(np.ones(shape)), b)


def test_conv_weight_gradient_matches_einsum_reference():
    # the weight gradient sums a batched matmul over the batch; the
    # reference contracts batch and positions in one einsum over an
    # independent window gather. Reordering a sum of k products moves it
    # by at most about k * eps * sum(|products|), so the tolerance is
    # relative to that sum, not to a result that may cancel to near 0
    gen = make_generator(11)
    x = _leaf(gen.normal(size=(4, 3, 9, 9)))
    w, b = _leaf(gen.normal(size=(5, 3, 3, 3))), _leaf(gen.normal(size=5))
    out = conv2d(x, w, b)
    g = gen.normal(size=out.shape)
    (out * Tensor(g)).sum().backward()
    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
    oh, ow = out.shape[2:]
    cols = np.stack([xp[:, :, r:r + 3, s:s + 3].reshape(4, -1)
                     for r in range(oh) for s in range(ow)], axis=-1)
    dw, size = (np.einsum("nol,nkl->ok", a.reshape(4, 5, -1), c).reshape(w.shape)
                for a, c in ((g, cols), (np.abs(g), np.abs(cols))))
    assert np.all(np.abs(w.grad - dw) <= 1e-12 * size)
    np.testing.assert_allclose(b.grad, g.sum(axis=(0, 2, 3)), rtol=1e-12, atol=0)


def test_max_pool_forward_and_routing():
    # (input, pooled output, the elements that get out.sum()'s gradient)
    cases = [
        ([[1.0, 2.0, 5.0, 1.0],
          [3.0, 4.0, 0.0, 2.0],
          [9.0, 1.0, 1.0, 3.0],
          [0.0, 2.0, 4.0, 8.0]], [[4.0, 5.0], [9.0, 8.0]],
         [(1, 1), (0, 2), (2, 0), (3, 3)]),
        # ties go to the row-major first: 7 at (0, 1) and (1, 0), -0 beside +0
        ([[1.0, 7.0, -1.0, -0.0],
          [7.0, 2.0, 0.0, -2.0]], [[7.0, 0.0]], [(0, 1), (0, 3)]),
        # the trailing row and column of a 5x5 input hold its largest
        # values but drop out of the pooling
        (np.arange(25.0).reshape(5, 5), [[6.0, 8.0], [16.0, 18.0]],
         [(1, 1), (1, 3), (3, 1), (3, 3)]),
    ]
    for data, pooled, winners in cases:
        x = _leaf(np.asarray(data)[None, None])
        out = max_pool2(x)
        np.testing.assert_array_equal(out.data[0, 0], pooled)
        out.sum().backward()
        # gradient lands only on the winning element of each window
        expect = np.zeros(x.shape)
        for r, c in winners:
            expect[0, 0, r, c] = 1.0
        np.testing.assert_array_equal(x.grad, expect)


def _window_argmax_pool(x, g):
    """Reference 2x2 pooling: copy out each window, route by argmax."""
    n, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    win = (x[:, :, :oh * 2, :ow * 2].reshape(n, c, oh, 2, ow, 2)
           .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, 4))
    idx = win.argmax(axis=-1)[..., None]
    dwin = np.zeros((n, c, oh, ow, 4))
    np.put_along_axis(dwin, idx, g[..., None], axis=-1)
    dx = np.zeros_like(x)
    dx[:, :, :oh * 2, :ow * 2] = (dwin.reshape(n, c, oh, ow, 2, 2)
                                  .transpose(0, 1, 2, 4, 3, 5)
                                  .reshape(n, c, oh * 2, ow * 2))
    return np.take_along_axis(win, idx, axis=-1)[..., 0], dx


def test_max_pool_matches_window_argmax_reference_bit_for_bit():
    # relu'd inputs rounded to one decimal tie often, at zero and above
    gen = make_generator(5)
    for shape in [(3, 2, 6, 6), (2, 3, 7, 5), (4, 8, 28, 28)]:
        x = _leaf(np.round(np.maximum(gen.normal(size=shape), 0.0), 1))
        g = gen.normal(size=(shape[0], shape[1], shape[2] // 2, shape[3] // 2))
        out = max_pool2(x)
        (out * Tensor(g)).sum().backward()
        ref_out, ref_dx = _window_argmax_pool(x.data, g)
        assert out.data.tobytes() == ref_out.tobytes()
        assert x.grad.tobytes() == ref_dx.tobytes()


def _four_pass_pool(x, g):
    """Reference 2x2 pooling: the earlier kernel, one masked pass per position."""
    oh, ow = x.shape[2] // 2, x.shape[3] // 2
    x2 = x[:, :, :oh * 2, :ow * 2]
    rows = np.maximum(x2[..., 1::2], x2[..., 0::2])
    out = np.maximum(rows[:, :, 1::2], rows[:, :, 0::2])
    dx = np.zeros_like(x)
    free = np.ones(out.shape, dtype=bool)
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        hit = (x2[:, :, i::2, j::2] == out) & free
        dx[:, :, i:oh * 2:2, j:ow * 2:2] = np.where(hit, g, 0.0)
        free &= ~hit
    return out, dx


def _assert_pool_matches_four_pass(data, gen):
    x = _leaf(data)
    out = max_pool2(x)
    g = gen.normal(size=out.shape)
    (out * Tensor(g)).sum().backward()
    ref_out, ref_dx = _four_pass_pool(x.data, g)
    assert out.data.tobytes() == ref_out.tobytes()
    assert x.grad.tobytes() == ref_dx.tobytes()


def test_max_pool_matches_four_pass_reference_bit_for_bit():
    gen = make_generator(13)
    # every 2x2 window over {-1, -0, +0, 1}: each tie pattern, +-0 ties
    # and the (0, 1)/(1, 0) tie among them
    values = np.array([-1.0, -0.0, 0.0, 1.0])
    windows = values[np.indices((4,) * 4).reshape(4, -1).T]
    _assert_pool_matches_four_pass(
        windows.reshape(1, -1, 2, 2).transpose(0, 2, 1, 3).reshape(1, 1, 2, -1), gen)
    _assert_pool_matches_four_pass(
        np.array([[1.0, 7.0, -1.0, -0.0], [7.0, 2.0, 0.0, -2.0]])[None, None], gen)
    # after a ReLU most windows are all zero; odd trailing rows and
    # columns drop
    for shape in [(4, 8, 28, 28), (2, 3, 7, 5), (3, 2, 9, 4), (1, 1, 3, 3)]:
        pre = _leaf(gen.normal(size=shape) - 1.0)
        _assert_pool_matches_four_pass(relu(pre).data, gen)


def _padded_conv(x, w, b, g):
    """Reference conv2d forward and gradients: the earlier np.pad im2col,
    same-padded at stride 1."""
    n, c, h, wid = x.shape
    o, _, k, _ = w.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = np.empty((n, c, k, k, h, wid))
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i:i + h, j:j + wid]
    cols = cols.reshape(n, c * k * k, h * wid)
    wf = w.reshape(o, c * k * k)
    out = np.matmul(wf, cols).reshape(n, o, h, wid) + b[None, :, None, None]
    g3 = g.reshape(n, o, h * wid)
    d6 = np.matmul(wf.T, g3).reshape(n, c, k, k, h, wid)
    dxp = np.zeros_like(xp)
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + h, j:j + wid] += d6[:, :, i, j]
    dw = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    return out, dxp[:, :, p:p + h, p:p + wid], dw, g.sum(axis=(0, 2, 3))


def test_conv_matches_padded_reference_bit_for_bit():
    gen = make_generator(17)
    for k in (1, 3, 5):
        x = _leaf(gen.normal(size=(3, 2, 9, 8)))
        w, b = _leaf(gen.normal(size=(4, 2, k, k))), _leaf(gen.normal(size=4))
        out = conv2d(x, w, b)
        g = gen.normal(size=out.shape)
        (out * Tensor(g)).sum().backward()
        ref = _padded_conv(x.data, w.data, b.data, g)
        for got, want in zip((out.data, x.grad, w.grad, b.grad), ref):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), k


def test_conv_forward_allocates_no_second_output():
    # the bias is added into the matmul output, not into a copy of it
    gen = make_generator(19)
    n, c, o, side, k, pad = 8, 1, 8, 28, 3, 1
    x = Tensor(gen.normal(size=(n, c, side, side)))
    w, b = Tensor(gen.normal(size=(o, c, k, k))), Tensor(gen.normal(size=o))
    padded = n * c * (side + 2 * pad) ** 2 * 8
    cols = n * c * k * k * side * side * 8
    out = n * o * side * side * 8
    with no_grad():
        tracemalloc.start()
        try:
            conv2d(x, w, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= padded + cols + out


_B = CONV_BLOCK_ROWS
# (c, o, k, side): the default cnn's conv1 and conv2, and an odd geometry
_CONV_GEOMETRIES = [(1, 8, 3, 28), (8, 16, 3, 14), (3, 5, 5, 9)]


@pytest.mark.parametrize("c, o, k, side", _CONV_GEOMETRIES)
@pytest.mark.parametrize("n", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 3, 256])
def test_graph_free_conv_matches_the_graph_bit_for_bit(n, c, o, k, side):
    # the graph keeps all n rows of columns for dw; a graph-free pass, or
    # one with constant kernels, multiplies them in blocks of _B rows
    gen = make_generator(23)
    x = _leaf(gen.normal(size=(n, c, side, side)))
    w, b = gen.normal(size=(o, c, k, k)), gen.normal(size=o)
    want = conv2d(x, _leaf(w), _leaf(b)).data.tobytes()
    assert conv2d(x, Tensor(w), _leaf(b)).data.tobytes() == want
    with no_grad():
        assert conv2d(x, _leaf(w), _leaf(b)).data.tobytes() == want


def test_graph_free_conv_tape_replays_every_block():
    gen = make_generator(29)
    n, c, o, k, side = 2 * _B + 3, 3, 5, 5, 9
    x = Tensor(gen.normal(size=(n, c, side, side)))
    w, b = _leaf(gen.normal(size=(o, c, k, k))), _leaf(gen.normal(size=o))
    with no_grad():
        tape = Tape(lambda: conv2d(x, w, b))
    x.data[...] = gen.normal(size=x.shape)
    got = tape.replay().data.tobytes()
    assert got == conv2d(x, w, b).data.tobytes()


def test_graph_free_conv_holds_one_column_block():
    # conv2 of the default cnn over a 256-row evaluation batch: all of its
    # columns would take 28.9 MB, one block of _B rows 0.9 MB
    gen = make_generator(31)
    n, c, o, side, k, pad = 256, 8, 16, 14, 3, 1
    x = Tensor(gen.normal(size=(n, c, side, side)))
    w, b = Tensor(gen.normal(size=(o, c, k, k))), Tensor(gen.normal(size=o))
    padded = n * c * (side + 2 * pad) ** 2 * 8
    block = _B * c * k * k * side * side * 8
    out = n * o * side * side * 8
    with no_grad():
        tracemalloc.start()
        try:
            conv2d(x, w, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= padded + block + out


# --------------------------------------------------------------- backward

def test_fan_out_accumulates():
    x = _leaf([3.0])
    y = x + x
    y.sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0])


def test_diamond_graph_counts_each_path_once():
    # z = x*x + x: dz/dx = 2x + 1
    x = _leaf([2.0])
    z = x * x + x
    z.sum().backward()
    np.testing.assert_allclose(x.grad, [5.0], rtol=0, atol=1e-12)


def test_leaves_own_their_gradients():
    # add hands both parents its upstream gradient
    a, b = _leaf([1.0, 2.0]), _leaf([3.0, 4.0])
    (a + b).sum().backward()
    assert a.grad is not b.grad
    np.testing.assert_array_equal(a.grad, np.ones(2))
    np.testing.assert_array_equal(b.grad, np.ones(2))


def _out_of_place_backward(root):
    # the engine's walk with every sum in a new array: the reference for
    # in-place accumulation
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if p._parents and p not in seen)
    grads = {root: np.ones_like(root.data)}
    for node in reversed(order):
        for parent, g in zip(node._parents, node._backward(grads[node])):
            if parent.requires_grad:
                grads[parent] = grads[parent] + g if parent in grads else g
    return grads


def test_many_incoming_gradients_match_out_of_place_accumulation():
    # h receives five gradients: one from an add, whose other parent c
    # receives the same values, two from h * h and two more; adding into
    # an array another tensor holds would change c's or h's gradient
    gen = make_generator(13)
    values = [gen.normal(size=(6, 5)) for _ in range(3)]

    def graph():
        a, b, w = (_leaf(v) for v in values)
        h = tanh(a)
        c = relu(b)
        u = h + c
        loss = (u * w).sum() + (h * h).sum() + (h * 3.0 + h * w).sum()
        return loss, (a, b, w), h, c

    loss, leaves, h, c = graph()
    loss.backward()
    ref_loss, ref_leaves, ref_h, ref_c = graph()
    ref = _out_of_place_backward(ref_loss)
    np.testing.assert_array_equal(h.grad, ref[ref_h])
    np.testing.assert_array_equal(c.grad, ref[ref_c])
    for leaf, ref_leaf in zip(leaves, ref_leaves):
        np.testing.assert_array_equal(leaf.grad, ref[ref_leaf])


_ZOO_SPECS = {"mlp": ModelSpec("mlp", 8, 12, 3),
              "bimodal": ModelSpec("bimodal", 8, 12, 3, glia_ratio=1.0),
              "physics": ModelSpec("physics", 8, 12, 3),
              "cnn": ModelSpec("cnn", 16, 12, 3)}


def _ownership_loss(case):
    gen = make_generator(19)
    if case in _ZOO_SPECS:
        spec = _ZOO_SPECS[case]
        trace = forward_traced(build_model(spec, 0),
                               gen.normal(size=(32, spec.input_dim)))
        ce = softmax_cross_entropy(trace.logits,
                                   gen.integers(0, spec.output_dim, size=32))
        return regularized_loss(ce, activation_energy(trace), 1e-3)
    # h (and c for add and concat) gets exactly one gradient, through u
    h, c = tanh(_leaf(gen.normal(size=(6, 5)))), relu(_leaf(gen.normal(size=(6, 5))))
    u = {"add": lambda: h + c, "scalar_add": lambda: h + 1.0,
         "reshape": lambda: h.reshape((5, 6)),
         "concat": lambda: concat([h, c])}[case]()
    return (u * _leaf(gen.normal(size=u.shape))).sum()


@pytest.mark.parametrize("case", ["add", "scalar_add", "reshape", "concat",
                                  *_ZOO_SPECS])
def test_no_gradient_shares_memory_with_another_array(case):
    # the engine adds into a node's first gradient in place, so that
    # array must belong to the node alone
    loss = _ownership_loss(case)
    loss.backward()
    tensors, stack = {loss}, [loss]
    while stack:
        for p in stack.pop()._parents:
            if p not in tensors:
                tensors.add(p)
                stack.append(p)
    grads = [t.grad for t in tensors if t.grad is not None]
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, other) for other in grads[i + 1:])
        assert not any(np.shares_memory(g, t.data) for t in tensors)


def test_second_backward_on_one_graph_matches_two_graphs():
    # interior nodes start each call with no gradient; leaves accumulate
    x = _leaf([0.5])
    loss = (tanh(x) * 3.0).sum()
    loss.backward()
    loss.backward()
    assert x.grad[0] == pytest.approx(4.719, abs=5e-4)
    y = _leaf([0.5])
    for _ in range(2):
        (tanh(y) * 3.0).sum().backward()
    np.testing.assert_array_equal(x.grad, y.grad)


def test_concat_backward_matches_split():
    gen = make_generator(17)
    widths = [2, 4, 1]
    parts = [_leaf(gen.normal(size=(3, wd))) for wd in widths]
    out = concat(parts)
    g = gen.normal(size=out.shape)
    ref = np.split(g, np.cumsum(widths)[:-1], axis=1)
    got = out._backward(g)
    assert len(got) == len(ref)
    for piece, ref_piece in zip(got, ref):
        assert piece.shape == ref_piece.shape
        np.testing.assert_array_equal(piece, ref_piece)


def test_step_graph_is_freed_by_reference_counting():
    # closures never capture their own node, so a graph holds no
    # reference cycle and dropping the loss frees it without the
    # cyclic collector
    model = build_model(ModelSpec("mlp", 6, 8, 3), seed=0)
    gen = make_generator(1)
    x, y = gen.normal(size=(5, 6)), np.array([0, 1, 2, 0, 1])
    gc.collect()
    gc.disable()
    try:
        before = {id(o) for o in gc.get_objects() if isinstance(o, Tensor)}
        trace = forward_traced(model, x)
        loss = regularized_loss(softmax_cross_entropy(trace.logits, y),
                                activation_energy(trace), 1e-3)
        loss.backward()
        del loss, trace
        left = sum(1 for o in gc.get_objects()
                   if isinstance(o, Tensor) and id(o) not in before)
    finally:
        gc.enable()
    assert left == 0
    assert all(p.grad is not None for p in model.parameters())


def test_constant_branch_gets_no_gradient():
    x = _leaf([[1.0, 2.0]])
    w = Tensor(np.ones((2, 2)))  # not trainable
    b = Tensor(np.zeros(2))
    out = linear(x, w, b).sum()
    out.backward()
    assert x.grad is not None
    assert w.grad is None and b.grad is None


def test_backward_requires_scalar():
    x = _leaf([[1.0, 2.0]])
    with pytest.raises(ShapeError, match="scalar"):
        (x + x).backward()


def test_backward_requires_differentiable_leaf():
    a = Tensor(np.ones(3))
    with pytest.raises(ValidationError):
        a.sum().backward()


def test_constructor_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        Tensor(np.array([1.0, np.inf]))
    with pytest.raises(NonFiniteError):
        Tensor(np.array([np.nan]))


def test_op_outputs_are_not_checked_for_finiteness():
    # finiteness is checked at state boundaries: an overflow that a later
    # op saturates away leaves a finite result
    x = _leaf([1e308])
    with np.errstate(over="ignore"):
        scaled = x * 10.0
    assert np.isinf(scaled.data[0])
    np.testing.assert_array_equal(tanh(scaled).data, [1.0])


def test_no_grad_builds_no_graph():
    model = build_model(ModelSpec("bimodal", 6, 8, 3, glia_ratio=0.5), seed=0)
    x = make_generator(1).normal(size=(5, 6))
    with no_grad():
        trace = forward_traced(model, x)
    for t in [trace.logits, *trace.hidden_activations]:
        assert t._parents == () and t._backward is None
        assert not t.requires_grad
    graph = forward_traced(model, x)
    np.testing.assert_array_equal(trace.logits.data, graph.logits.data)
    assert graph.logits._parents


def test_no_grad_restores_the_previous_mode():
    a = _leaf([1.0])
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside the block")
    assert (a * 2.0).requires_grad
    with no_grad():
        with no_grad():
            pass
        assert not (a * 2.0).requires_grad
    assert (a * 2.0)._parents == (a,)


def test_data_inputs_get_no_gradient():
    # the first layer of every model multiplies data that needs no
    # gradient; its weight gradient is the same as with a leaf input
    gen = make_generator(8)
    xd, wd = gen.normal(size=(4, 3)), gen.normal(size=(3, 2))
    xi, wi = gen.normal(size=(2, 2, 5, 5)), gen.normal(size=(3, 2, 3, 3))
    bd, bi = _leaf(gen.normal(size=2)), _leaf(gen.normal(size=3))
    for op, xv, wv in ((lambda x, w: linear(x, w, bd), xd, wd),
                       (lambda x, w: conv2d(x, w, bi), xi, wi)):
        data, w = Tensor(xv), _leaf(wv)
        (op(data, w) * op(data, w)).sum().backward()
        leaf, w_ref = _leaf(xv), _leaf(wv)
        (op(leaf, w_ref) * op(leaf, w_ref)).sum().backward()
        assert data.grad is None
        assert leaf.grad is not None
        np.testing.assert_array_equal(w.grad, w_ref.grad)


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError, match=r"2, 3.*3, 3"):
        concat([_leaf(np.ones((2, 3))), _leaf(np.ones((3, 3)))])
    with pytest.raises(ShapeError, match=r"2, 3.*3, 2.*4,"):
        linear(_leaf(np.ones((2, 3))), _leaf(np.ones((3, 2))), _leaf(np.ones(4)))


# Per-op gradient checks. Inputs are kept away from relu/pool kinks by
# construction (distinct magnitudes, offset from zero).

def _nudged(gen, shape):
    raw = gen.normal(size=shape)
    return raw + 0.3 * np.sign(raw) + (raw == 0)


GRAD_CASES = {}


def _case(name):
    def add(fn):
        GRAD_CASES[name] = fn
        return fn
    return add


@_case("linear")
def _g_linear(gen):
    x = _leaf(gen.normal(size=(3, 4)))
    w = _leaf(gen.normal(size=(4, 2)))
    b = _leaf(gen.normal(size=2))
    return lambda: (linear(x, w, b) * linear(x, w, b)).sum(), [x, w, b]


@_case("relu")
def _g_relu(gen):
    x = _leaf(_nudged(gen, (4, 5)))
    w = _leaf(gen.normal(size=(5, 2)))
    b = _leaf(gen.normal(size=2))
    return lambda: linear(relu(x), w, b).sum(), [x, w, b]


@_case("tanh")
def _g_tanh(gen):
    x = _leaf(gen.normal(size=(4, 5)))
    return lambda: (tanh(x) * tanh(x)).sum(), [x]


@_case("sigmoid")
def _g_sigmoid(gen):
    x = _leaf(gen.normal(size=(4, 5)))
    return lambda: (sigmoid(x) * sigmoid(x)).sum(), [x]


@_case("concat")
def _g_concat(gen):
    a = _leaf(gen.normal(size=(3, 2)))
    b = _leaf(gen.normal(size=(3, 4)))
    w = _leaf(gen.normal(size=(6, 1)))
    c = _leaf(gen.normal(size=1))
    return lambda: linear(concat([a, b]), w, c).sum(), [a, b, w, c]


@_case("softmax_cross_entropy")
def _g_ce(gen):
    x = _leaf(gen.normal(size=(6, 4)))
    y = gen.integers(0, 4, size=6)
    return lambda: softmax_cross_entropy(x, y), [x]


@_case("conv2d")
def _g_conv(gen):
    x = _leaf(gen.normal(size=(2, 2, 5, 5)))
    w = _leaf(gen.normal(size=(3, 2, 3, 3)))
    b = Tensor(gen.normal(size=3))
    return (lambda: (conv2d(x, w, b) * conv2d(x, w, b)).sum(),
            [x, w])


@_case("conv2d_bias")
def _g_conv_bias(gen):
    x = _leaf(gen.normal(size=(2, 2, 5, 5)))
    w = _leaf(gen.normal(size=(3, 2, 3, 3)))
    b = _leaf(gen.normal(size=3))
    return (lambda: (conv2d(x, w, b) * conv2d(x, w, b)).sum(),
            [x, w, b])


@_case("max_pool2")
def _g_pool(gen):
    x = _leaf(_nudged(gen, (2, 2, 4, 4)))
    return lambda: (max_pool2(x) * max_pool2(x)).sum(), [x]


@_case("reshape_sum")
def _g_reshape(gen):
    x = _leaf(gen.normal(size=(3, 4)))
    w = _leaf(gen.normal(size=(2, 6)))
    return lambda: (x.reshape((2, 6)) * w).sum(), [x, w]


@_case("scalar_mix")
def _g_scalar(gen):
    x = _leaf(gen.normal(size=(3, 3)))
    return lambda: ((x * 2.0 + 1.5) - (-x)).sum(), [x]


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_op_gradients_match_finite_differences(name):
    gen = make_generator(17)
    loss_fn, params = GRAD_CASES[name](gen)
    err = grad_check(loss_fn, params, rng=make_generator(0))
    assert err < 1e-6, f"{name}: worst relative error {err:.3e}"


# --------------------------------------------------------- capture, replay

def _run(loss_fn, params):
    for p in params:
        p.grad = None
    loss = loss_fn()
    loss.backward()
    return [loss.data.copy()] + [p.grad.copy() for p in params]


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_replay_equals_a_rebuild_bit_for_bit(name):
    # every op's kernel reruns into its own arrays: after the leaves
    # change in place, the replayed graph's value and gradients are
    # those of a graph built anew
    gen = make_generator(17)
    loss_fn, params = GRAD_CASES[name](gen)
    tape = Tape(loss_fn)
    for _ in range(2):
        for p in params:
            p.data[...] = gen.normal(size=p.shape)
        got = _run(tape.replay, params)
        want = _run(loss_fn, params)
        assert tape.replay() is tape.output
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), name


def test_replay_reruns_constant_subgraphs_that_read_the_inputs():
    # relu(x) of a data input is pruned from the graph, yet feeds it
    x = Tensor(np.array([[1.0, -2.0]]))
    w = _leaf([[1.0], [1.0]])
    tape = Tape(lambda: linear(relu(x), w, Tensor(np.zeros(1))).sum())
    x.data[...] = [[-3.0, 4.0]]
    assert tape.replay().item() == 4.0


def test_a_reshape_that_copies_cannot_be_captured():
    # a view follows its parent's reruns; a copy would go stale
    x = _leaf(np.ones((3, 2)).T)
    with pytest.raises(CaptureError, match="copies"):
        Tape(lambda: x.reshape((6,)).sum())
    assert x.reshape((6,)).shape == (6,)


def test_captures_do_not_nest_and_must_end_at_the_output():
    x = _leaf([1.0])
    with pytest.raises(CaptureError, match="already active"):
        Tape(lambda: Tape(lambda: x * 2.0).output)
    with pytest.raises(CaptureError, match="last node"):
        Tape(lambda: [x * 2.0, x * 3.0][0])
    # a failed build leaves capture off, so a new one may start
    Tape(lambda: (x * 3.0).sum())


# ------------------------------------------------------------------- adam

def _adam_step(opt, *grads):
    for p, g in zip(opt.params, grads):
        p.grad = g
    opt.step()


def test_adam_first_step_magnitude():
    # with g = 1 the bias-corrected ratio is 1, so the step is -lr
    p = _leaf([0.5])
    _adam_step(Adam([p], lr=1e-3), np.ones(1))
    assert abs(p.data[0] - (0.5 - 1e-3)) < 1e-9


def test_adam_constant_gradient_steps_agree():
    p = _leaf([0.5])
    opt = Adam([p], lr=1e-3)
    _adam_step(opt, np.ones(1))
    d1 = 0.5 - p.data[0]
    before = p.data[0]
    _adam_step(opt, np.ones(1))
    d2 = before - p.data[0]
    assert abs(d1 - d2) < 1e-6


def test_adam_zero_lr_is_identity():
    gen = make_generator(2)
    p = _leaf(gen.normal(size=(4, 3)))
    keep = p.data.copy()
    _adam_step(Adam([p], lr=0.0), gen.normal(size=(4, 3)))
    np.testing.assert_array_equal(p.data, keep)


def test_adam_validates_inputs():
    p = _leaf(np.ones(2))
    with pytest.raises(ValidationError):
        Adam([p], lr=-1e-3)
    with pytest.raises(ValidationError):
        Adam([p], weight_decay=-0.1)
    with pytest.raises(ValidationError):
        Adam([])
    with pytest.raises(ValidationError, match="twice"):
        Adam([p, p])
    with pytest.raises(ShapeError):
        _adam_step(Adam([p]), np.ones(3))


@pytest.mark.parametrize("setting, value", [
    ("lr", float("nan")), ("lr", float("inf")), ("lr", True), ("lr", "1e-3"),
    ("weight_decay", float("nan")), ("weight_decay", True),
])
def test_adam_refuses_a_rate_no_step_could_use(setting, value):
    # a NaN or bool rate used to be accepted; with NaN the first step
    # wrote NaN into every parameter before raising NonFiniteError
    p = _leaf(np.ones(2))
    with pytest.raises(ValidationError, match=setting):
        Adam([p], **{setting: value})
    opt = Adam([p], lr=np.float32(1e-3), weight_decay=np.float64(0.0))
    assert type(opt.lr) is float and type(opt.weight_decay) is float


def test_adam_weight_decay_pulls_toward_zero():
    p = _leaf([10.0])
    _adam_step(Adam([p], lr=1e-3, weight_decay=0.1), np.zeros(1))
    assert p.data[0] < 10.0


def test_adam_class_descends_a_quadratic():
    x = _leaf([5.0])
    opt = Adam([x], lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        (x * x).sum().backward()
        opt.step()
    assert abs(x.data[0]) < 0.1


def _reference_adam(params, grads_per_step, lr, weight_decay,
                    beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-tensor Adam, the update the flat buffer must reproduce."""
    params = [p.copy() for p in params]
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        c1, c2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        for p, m, v, g in zip(params, ms, vs, grads):
            if g is None:
                g = np.zeros_like(p)
            if weight_decay:
                g = g + weight_decay * p
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return params


def test_flat_adam_matches_per_tensor_reference():
    gen = make_generator(21)
    shapes = [(4, 3), (3,), (2, 1, 3, 3), ()]
    init = [gen.normal(size=s) for s in shapes]
    steps = [[gen.normal(size=s) for s in shapes] for _ in range(5)]
    for grads in steps:
        grads[1] = None  # one parameter never receives a gradient
    params = [_leaf(a) for a in init]
    opt = Adam(params, lr=1e-2, weight_decay=1e-3)
    for grads in steps:
        _adam_step(opt, *grads)
    expect = _reference_adam(init, steps, lr=1e-2, weight_decay=1e-3)
    for p, e in zip(params, expect):
        np.testing.assert_array_equal(p.data, e)


def test_adam_params_are_views_of_one_buffer():
    gen = make_generator(22)
    params = [_leaf(gen.normal(size=(3, 2))), _leaf(gen.normal(size=4))]
    values = [p.data.copy() for p in params]
    opt = Adam(params)
    assert opt.flat.size == 10
    for p, v in zip(params, values):
        assert p.data.base is opt.flat
        np.testing.assert_array_equal(p.data, v)
    opt.flat[:] = 0.0
    assert all(not p.data.any() for p in params)


def test_adam_rejects_non_finite_gradient_without_changing_state():
    gen = make_generator(23)
    params = [_leaf(gen.normal(size=(2, 2))), _leaf(gen.normal(size=3))]
    opt = Adam(params, lr=1e-2, weight_decay=1e-3)
    _adam_step(opt, np.ones((2, 2)), np.ones(3))
    keep = [p.data.copy() for p in params]
    m, v = opt.m.copy(), opt.v.copy()
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteError):
            _adam_step(opt, np.ones((2, 2)), np.array([1.0, bad, 1.0]))
        for p, k in zip(params, keep):
            np.testing.assert_array_equal(p.data, k)
        np.testing.assert_array_equal(opt.m, m)
        np.testing.assert_array_equal(opt.v, v)
        assert opt.step_count == 1


def test_adam_step_allocates_no_array_of_the_model_size():
    # per-step temporaries of flat's size page-fault each time the heap regrows
    model = build_model(ModelSpec("cnn", 784, 64, 10), seed=24)
    opt = Adam(model.parameters(), lr=1e-3, weight_decay=1e-5)
    gen = make_generator(24)
    grads = [gen.normal(size=p.shape) for p in opt.params]
    for p, g in zip(opt.params, grads):
        p.grad = g
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < opt.flat.nbytes / 2


def test_adam_rejects_parameters_that_overflow():
    p = _leaf([-1e308])
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="parameters"):
            _adam_step(Adam([p], lr=1e308), np.ones(1))
