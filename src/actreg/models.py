"""Model zoo: four feedforward classifier architectures.

Every architecture is built from the same primitives and exposes a
traced forward pass that returns the logits together with the ordered
list of hidden post-activation tensors, which is what the energy
objective consumes. Logits are never part of that list.

Weight initialization: ReLU-fed weights are Kaiming-uniform
(bound sqrt(6 / fan_in)), tanh/sigmoid-fed and linear-output weights are
Xavier-uniform (bound sqrt(6 / (fan_in + fan_out))), biases start at
zero. All draws come from a seeded Philox stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, ValidationError
from .records import plain_number
from .rng import Seed, make_generator
from .tensor import (Tensor, concat, conv2d, linear, max_pool2, relu, sigmoid,
                     tanh)

ARCHITECTURES = ("bimodal", "physics", "mlp", "cnn")

# Hidden activation functions per architecture, in layer order. These are
# recorded in experiment logs so a record identifies its nonlinearities.
ARCH_ACTIVATIONS = {
    "bimodal": ["relu", "tanh"],
    "physics": ["relu", "tanh", "sigmoid"],
    "mlp": ["relu"],
    "cnn": ["relu"],
}


def _positive_int(name: str, value) -> int:
    """``value`` as a plain int >= 1: numpy ints are converted, bools refused."""
    v = plain_number(name, value)
    if not isinstance(v, int) or v < 1:
        raise ValidationError(f"{name} must be a positive int, got {v!r}")
    return v


@dataclass(frozen=True)
class ModelSpec:
    """Architecture selection plus the dimensions needed to build it.

    ``glia_ratio`` is meaningful only for the bimodal architecture and
    must be None otherwise. ``conv_channels`` and ``dense_dim`` are
    checked for every architecture and used only by the cnn.
    """

    arch: str
    input_dim: int
    hidden_dim: int
    output_dim: int
    glia_ratio: float | None = None
    conv_channels: tuple[int, int] = (8, 16)
    dense_dim: int = 128

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ValidationError(f"unknown architecture {self.arch!r}, "
                                  f"expected one of {ARCHITECTURES}")
        for name in ("input_dim", "hidden_dim", "output_dim", "dense_dim"):
            object.__setattr__(self, name, _positive_int(name, getattr(self, name)))
        widths = self.conv_channels
        if not isinstance(widths, (tuple, list)) or len(widths) != 2:
            raise ValidationError(f"conv_channels must be two widths, got {widths!r}")
        object.__setattr__(self, "conv_channels",
                           tuple(_positive_int("conv_channels", c) for c in widths))
        if self.arch == "bimodal":
            if self.glia_ratio is None:
                raise ValidationError("bimodal requires glia_ratio")
            object.__setattr__(self, "glia_ratio",
                               plain_number("glia_ratio", self.glia_ratio))
            if not (self.glia_ratio > 0 and math.isfinite(self.glia_ratio)):
                raise ValidationError(f"glia_ratio must be positive and finite, "
                                      f"got {self.glia_ratio}")
            if self.glia_dim < 1:
                raise ValidationError(f"glia_ratio {self.glia_ratio} gives an "
                                      f"empty glial path at hidden_dim "
                                      f"{self.hidden_dim}")
        elif self.glia_ratio is not None:
            raise ValidationError(f"glia_ratio applies only to bimodal, "
                                  f"not {self.arch}")
        if self.arch == "physics" and self.hidden_dim < 3:
            raise ValidationError("physics needs hidden_dim >= 3")
        if self.arch == "cnn":
            self.image_shape  # validates input_dim is a square image

    @property
    def glia_dim(self) -> int:
        """Glial path width, floor(hidden_dim * glia_ratio)."""
        if self.glia_ratio is None:
            raise ValidationError(f"{self.arch} has no glial path")
        return int(self.hidden_dim * self.glia_ratio)

    @property
    def image_shape(self) -> tuple[int, int, int]:
        """(1, side, side): a flat input width must be a perfect square,
        read as one grayscale channel. Anything else is rejected.
        """
        s = math.isqrt(self.input_dim)
        if s * s != self.input_dim:
            raise ValidationError(f"input_dim {self.input_dim} is not a square "
                                  f"grayscale image size")
        if s < 4:
            raise ValidationError(f"image side {s} too small for two "
                                  f"rounds of 2x2 pooling")
        return (1, s, s)


@dataclass(frozen=True)
class ForwardTrace:
    """Logits plus ordered hidden post-activation tensors."""

    logits: Tensor
    hidden_activations: list[Tensor] = field(default_factory=list)


@dataclass
class Model:
    spec: ModelSpec
    params: dict[str, Tensor]

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Shapes of every parameter tensor, in construction order.

    This is the single definition of each architecture's layout; the
    builders allocate exactly these shapes.
    """
    i, h, o = spec.input_dim, spec.hidden_dim, spec.output_dim
    if spec.arch == "bimodal":
        g = spec.glia_dim
        return {
            "neuronal1_w": (i, h), "neuronal1_b": (h,),
            "neuronal2_w": (h, h), "neuronal2_b": (h,),
            "glial1_w": (i, g), "glial1_b": (g,),
            "glial2_w": (g, g), "glial2_b": (g,),
            "integration_w": (h + g, o), "integration_b": (o,),
        }
    if spec.arch == "physics":
        third = h // 3
        shapes: dict[str, tuple[int, ...]] = {}
        for path in ("kinetic", "potential", "constraint"):
            shapes[f"{path}1_w"] = (i, h)
            shapes[f"{path}1_b"] = (h,)
            shapes[f"{path}2_w"] = (h, third)
            shapes[f"{path}2_b"] = (third,)
        # The head is sized to the true fused width 3 * floor(h / 3),
        # never padded up to hidden_dim.
        shapes["head_w"] = (3 * third, o)
        shapes["head_b"] = (o,)
        return shapes
    if spec.arch == "mlp":
        return {
            "hidden1_w": (i, h), "hidden1_b": (h,),
            "hidden2_w": (h, h), "hidden2_b": (h,),
            "output_w": (h, o), "output_b": (o,),
        }
    # cnn
    c, s, _ = spec.image_shape
    c1, c2 = spec.conv_channels
    flat = c2 * (s // 2 // 2) ** 2
    return {
        "conv1_w": (c1, c, 3, 3), "conv1_b": (c1,),
        "conv2_w": (c2, c1, 3, 3), "conv2_b": (c2,),
        "dense_w": (flat, spec.dense_dim), "dense_b": (spec.dense_dim,),
        "output_w": (spec.dense_dim, o), "output_b": (o,),
    }


def param_count_for(spec: ModelSpec) -> int:
    """Exact trainable parameter count, computed from shapes alone."""
    return sum(int(np.prod(s)) for s in param_shapes(spec).values())


# Weight tensors drawn Kaiming-uniform; everything else Xavier-uniform.
_KAIMING = {"neuronal1_w", "neuronal2_w", "kinetic1_w", "hidden1_w",
            "hidden2_w", "conv1_w", "conv2_w", "dense_w"}


def _fans(name: str, shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 2:
        return shape[0], shape[1]
    # conv kernels (o, c, kh, kw): receptive field times channels
    o, c, kh, kw = shape
    return c * kh * kw, o * kh * kw


def _init_params(spec: ModelSpec, rng: np.random.Generator) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(spec).items():
        if name.endswith("_b"):
            params[name] = Tensor(np.zeros(shape), requires_grad=True)
            continue
        fan_in, fan_out = _fans(name, shape)
        if name in _KAIMING:
            bound = math.sqrt(6.0 / fan_in)
        else:
            bound = math.sqrt(6.0 / (fan_in + fan_out))
        params[name] = Tensor(rng.uniform(-bound, bound, size=shape),
                              requires_grad=True)
    return params


def build_model(spec: ModelSpec, seed: Seed) -> Model:
    """Build any architecture from its spec with seeded initialization."""
    return Model(spec=spec, params=_init_params(spec, make_generator(seed)))


def _linear(x: Tensor, params: dict[str, Tensor], name: str) -> Tensor:
    return linear(x, params[f"{name}_w"], params[f"{name}_b"])


def forward_traced(model: Model, batch) -> ForwardTrace:
    """Run a flat (n, input_dim) batch through the model.

    Returns logits and the hidden post-activation tensors in layer
    order; for multi-path architectures the paths appear path by path.
    Outside ``no_grad`` the graph is retained, so any function of the
    trace is trainable.
    """
    x = batch if isinstance(batch, Tensor) else Tensor(batch)
    if x.data.ndim != 2 or x.shape[1] != model.spec.input_dim:
        raise ShapeError(f"batch shape {x.shape} does not match input_dim "
                         f"{model.spec.input_dim}")
    p = model.params
    arch = model.spec.arch
    if arch == "bimodal":
        n1 = relu(_linear(x, p, "neuronal1"))
        n2 = relu(_linear(n1, p, "neuronal2"))
        g1 = tanh(_linear(x, p, "glial1"))
        g2 = tanh(_linear(g1, p, "glial2"))
        fused = concat([n2, g2])
        logits = _linear(fused, p, "integration")
        return ForwardTrace(logits, [n1, n2, g1, g2])
    if arch == "physics":
        t1 = relu(_linear(x, p, "kinetic1"))
        t2 = _linear(t1, p, "kinetic2")
        v1 = tanh(_linear(x, p, "potential1"))
        v2 = _linear(v1, p, "potential2")
        c1 = sigmoid(_linear(x, p, "constraint1"))
        c2 = _linear(c1, p, "constraint2")
        fused = concat([t2, -v2, -c2])
        logits = _linear(fused, p, "head")
        return ForwardTrace(logits, [t1, t2, v1, v2, c1, c2])
    if arch == "mlp":
        a1 = relu(_linear(x, p, "hidden1"))
        a2 = relu(_linear(a1, p, "hidden2"))
        logits = _linear(a2, p, "output")
        return ForwardTrace(logits, [a1, a2])
    # cnn
    c, s, _ = model.spec.image_shape
    img = x.reshape((x.shape[0], c, s, s))
    a1 = relu(conv2d(img, p["conv1_w"], p["conv1_b"]))
    pool1 = max_pool2(a1)
    a2 = relu(conv2d(pool1, p["conv2_w"], p["conv2_b"]))
    pool2 = max_pool2(a2)
    flat = pool2.reshape((x.shape[0], pool2.size // x.shape[0]))
    a3 = relu(_linear(flat, p, "dense"))
    logits = _linear(a3, p, "output")
    return ForwardTrace(logits, [a1, a2, a3])

