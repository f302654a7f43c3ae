"""Architecture zoo: shapes, parameter counts, forward fixtures."""

import numpy as np
import pytest

from actreg.errors import ShapeError, ValidationError
from actreg.models import (ARCH_ACTIVATIONS, ARCHITECTURES, ModelSpec,
                           build_model, forward_traced, param_count_for,
                           param_shapes)

# Reference counts enumerated independently from the layer shapes:
# each linear contributes in*out + out, conv contributes co*ci*kh*kw + co.
REFERENCE_COUNTS = {
    ("bimodal", 784, 1024, 10, 1.0): 3_727_370,
    ("bimodal", 5000, 1024, 20, 1.0): 12_382_228,
    ("bimodal", 2, 4, 2, 0.5): 58,
    ("mlp", 784, 1024, 10, None): 1_863_690,
    ("mlp", 5000, 1024, 20, None): 6_191_124,
    ("mlp", 700, 1024, 10, None): 1_777_674,
    ("physics", 784, 1024, 10, None): 3_470_335,
    ("physics", 5000, 1024, 20, None): 16_432_127,
    ("physics", 700, 1024, 10, None): 3_212_287,
}


def _spec(arch, i, h, o, g):
    return ModelSpec(arch, i, h, o, glia_ratio=g)


@pytest.mark.parametrize("key,expected", sorted(REFERENCE_COUNTS.items()))
def test_reference_parameter_counts(key, expected):
    assert param_count_for(_spec(*key)) == expected


def test_bimodal_700_count_lands_in_coarse_band():
    # published summary rounds to the nearest thousand: 3555K +- 0.5K
    count = param_count_for(_spec("bimodal", 700, 1024, 10, 1.0))
    assert abs(count - 3_555_000) <= 500


def test_param_count_matches_built_model():
    for arch, glia in (("bimodal", 1.0), ("physics", None), ("mlp", None)):
        spec = ModelSpec(arch, 12, 16, 3, glia_ratio=glia)
        model = build_model(spec, 0)
        assert sum(p.size for p in model.parameters()) == param_count_for(spec)
    spec = ModelSpec("cnn", 64, 32, 5, conv_channels=(4, 8), dense_dim=16)
    model = build_model(spec, 0)
    assert sum(p.size for p in model.parameters()) == param_count_for(spec)


def test_param_shapes_cover_every_parameter():
    spec = ModelSpec("bimodal", 6, 8, 3, glia_ratio=0.5)
    shapes = param_shapes(spec)
    model = build_model(spec, 1)
    assert set(model.params) == set(shapes)
    for name, t in model.params.items():
        assert t.shape == shapes[name]


def test_architecture_listing_and_activations():
    assert ARCHITECTURES == ("bimodal", "physics", "mlp", "cnn")
    assert ARCH_ACTIVATIONS["bimodal"] == ["relu", "tanh"]
    assert ARCH_ACTIVATIONS["physics"] == ["relu", "tanh", "sigmoid"]
    assert ARCH_ACTIVATIONS["mlp"] == ["relu"]
    assert ARCH_ACTIVATIONS["cnn"] == ["relu"]


def test_spec_validation():
    with pytest.raises(ValidationError):
        ModelSpec("bimodal", 4, 8, 2)  # needs a glia ratio
    with pytest.raises(ValidationError):
        ModelSpec("mlp", 4, 8, 2, glia_ratio=1.0)  # must not have one
    with pytest.raises(ValidationError):
        ModelSpec("bimodal", 4, 8, 2, glia_ratio=0.05)  # glia path width 0
    with pytest.raises(ValidationError):
        ModelSpec("physics", 4, 2, 2)  # needs hidden_dim >= 3
    with pytest.raises(ValidationError):
        ModelSpec("nosuch", 4, 8, 2)
    with pytest.raises(ValidationError):
        ModelSpec("cnn", 37, 8, 2)  # 37 is not s*s


@pytest.mark.parametrize("setting, value", [
    ("dense_dim", 2.5), ("dense_dim", True), ("dense_dim", 0),
    ("conv_channels", (8.0, 16)), ("conv_channels", (8, True)),
    ("conv_channels", (8, 16, 32)), ("conv_channels", (8,)), ("conv_channels", 8),
])
def test_cnn_widths_are_two_positive_ints(setting, value):
    with pytest.raises(ValidationError, match=setting):
        ModelSpec("cnn", 64, 8, 2, **{setting: value})
    spec = ModelSpec("cnn", 64, 8, 2, conv_channels=[np.int64(3), 5],
                     dense_dim=np.int64(7))
    assert spec.conv_channels == (3, 5) and type(spec.conv_channels[0]) is int
    assert type(spec.dense_dim) is int
    build_model(spec, 0)


def test_cnn_image_shape_inference():
    assert ModelSpec("cnn", 784, 8, 2).image_shape == (1, 28, 28)
    with pytest.raises(ValidationError, match="square"):
        ModelSpec("cnn", 3 * 32 * 32, 8, 2)  # one grayscale channel only
    with pytest.raises(ValidationError):
        ModelSpec("cnn", 9, 8, 2)  # 3x3 side below the minimum


def test_glia_width_monotone_in_ratio():
    widths = [ModelSpec("bimodal", 8, 64, 2, glia_ratio=g).glia_dim
              for g in (0.25, 0.5, 1.0, 2.0)]
    assert widths == [16, 32, 64, 128]
    assert widths == sorted(widths)


def test_trace_lengths_per_architecture():
    expected = {"bimodal": 4, "physics": 6, "mlp": 2, "cnn": 3}
    x = np.zeros((2, 64))
    for arch, want in expected.items():
        spec = ModelSpec(arch, 64, 9, 3,
                         glia_ratio=1.0 if arch == "bimodal" else None,
                         conv_channels=(2, 3), dense_dim=5)
        trace = forward_traced(build_model(spec, 0), x)
        assert len(trace.hidden_activations) == want, arch
        assert trace.logits.shape == (2, 3)


def test_bimodal_zero_input_silences_every_path():
    # zero biases mean relu(0) = tanh(0) = 0 through both paths
    model = build_model(ModelSpec("bimodal", 5, 8, 3, glia_ratio=1.0), 7)
    trace = forward_traced(model, np.zeros((4, 5)))
    for a in trace.hidden_activations:
        np.testing.assert_array_equal(a.data, np.zeros_like(a.data))
    np.testing.assert_array_equal(trace.logits.data, np.zeros((4, 3)))


def test_physics_zero_input_leaves_only_constraint_path():
    # relu(0) = tanh(0) = 0 but sigmoid(0) = 1/2, so the constraint
    # path alone survives and enters the fused vector negated
    h = 9
    model = build_model(ModelSpec("physics", 5, h, 3), 7)
    t1, t2, v1, v2, c1, c2 = forward_traced(
        model, np.zeros((2, 5))).hidden_activations
    np.testing.assert_array_equal(t1.data, np.zeros((2, h)))
    np.testing.assert_array_equal(t2.data, np.zeros((2, h // 3)))
    np.testing.assert_array_equal(v1.data, np.zeros((2, h)))
    np.testing.assert_array_equal(v2.data, np.zeros((2, h // 3)))
    np.testing.assert_array_equal(c1.data, np.full((2, h), 0.5))
    expect_c2 = np.full((2, h), 0.5) @ model.params["constraint2_w"].data
    np.testing.assert_allclose(c2.data, expect_c2, rtol=0, atol=1e-15)
    # logits = concat(0, -0, -c2) @ head_w with zero bias
    head = model.params["head_w"].data
    fused = np.concatenate([np.zeros((2, 2 * (h // 3))), -expect_c2], axis=1)
    np.testing.assert_allclose(
        forward_traced(model, np.zeros((2, 5))).logits.data,
        fused @ head, rtol=0, atol=1e-15)


def test_physics_fused_width_drives_head():
    # head input is 3 * floor(h/3), not h, when 3 does not divide h
    spec = ModelSpec("physics", 5, 10, 4)
    assert param_shapes(spec)["head_w"] == (9, 4)


def test_forward_is_deterministic():
    x = np.linspace(-1.0, 1.0, 2 * 16).reshape(2, 16)
    for arch, glia in (("bimodal", 1.0), ("physics", None), ("mlp", None)):
        spec = ModelSpec(arch, 16, 6, 3, glia_ratio=glia)
        a = forward_traced(build_model(spec, 99), x).logits.data
        b = forward_traced(build_model(spec, 99), x).logits.data
        np.testing.assert_array_equal(a, b)


def test_different_seeds_give_different_weights():
    spec = ModelSpec("mlp", 8, 6, 2)
    a = build_model(spec, 1).params["hidden1_w"].data
    b = build_model(spec, 2).params["hidden1_w"].data
    assert np.any(a != b)


def test_biases_start_at_zero_weights_bounded():
    spec = ModelSpec("mlp", 100, 50, 10)
    model = build_model(spec, 3)
    for name, t in model.params.items():
        if name.endswith("_b"):
            np.testing.assert_array_equal(t.data, np.zeros_like(t.data))
    # relu-fed first layer uses the sqrt(6/fan_in) bound
    bound = np.sqrt(6.0 / 100)
    w = model.params["hidden1_w"].data
    assert np.max(np.abs(w)) <= bound
    assert np.max(np.abs(w)) > 0.8 * bound  # draws actually fill the range


def test_cnn_forward_shapes_and_trace():
    spec = ModelSpec("cnn", 64, 16, 4, conv_channels=(3, 5), dense_dim=7)
    model = build_model(spec, 0)
    trace = forward_traced(model, np.ones((2, 64)))
    a1, a2, a3 = trace.hidden_activations
    assert a1.shape == (2, 3, 8, 8)   # post-relu, pre-pool
    assert a2.shape == (2, 5, 4, 4)
    assert a3.shape == (2, 7)
    assert trace.logits.shape == (2, 4)


def test_batch_shape_mismatch_raises():
    model = build_model(ModelSpec("mlp", 8, 4, 2), 0)
    with pytest.raises(ShapeError, match="input_dim"):
        forward_traced(model, np.zeros((2, 9)))

