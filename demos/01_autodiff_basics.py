# Build a small computation graph by hand, differentiate it, and confirm
# the gradients against central finite differences.

import numpy as np

from actreg import Tensor, grad_check
from actreg.rng import make_generator
from actreg.tensor import linear, sigmoid

gen = make_generator(0)

# y = sum of sigmoid(x @ w + b) / 10; every op records how to push
# gradients back through itself
x = Tensor(gen.normal(size=(5, 3)), requires_grad=True)
w = Tensor(gen.normal(size=(3, 2)), requires_grad=True)
b = Tensor(np.zeros(2), requires_grad=True)

y = sigmoid(linear(x, w, b)).sum() * 0.1
y.backward()

print("y     =", y.item())
print("dy/dw =\n", w.grad)
print("dy/db =", b.grad)

# the same graph, checked numerically: nudge every coordinate of every
# input by 1e-6 either way and compare the measured slope against the
# analytic gradient
err = grad_check(lambda: sigmoid(linear(x, w, b)).sum() * 0.1, [x, w, b])
print(f"max relative gradient error: {err:.2e}")

# gradients accumulate across fan-out, so reusing a tensor just works
z = Tensor(np.array([[2.0]]), requires_grad=True)
(z * z + z).sum().backward()
print("d(z^2 + z)/dz at z=2:", z.grad[0, 0], "(expect 5)")
