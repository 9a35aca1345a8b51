"""The shared plain-array activations of ``repro.nn.functional``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor, leaky_relu, stable_sigmoid


def _boolean_index_sigmoid(x: np.ndarray) -> np.ndarray:
    """The piecewise sigmoid every caller carried its own copy of."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


SPECIAL = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 709.9, -745.2, 800.0]
)


def test_sigmoid_special_values_bitwise():
    nan_payload = np.array([0x7FF8000000000123, -0x0007FFFFFFFFFEDD], dtype=np.int64)
    x = np.concatenate([SPECIAL, nan_payload.view(np.float64)])
    assert np.array_equal(
        stable_sigmoid(x).view(np.int64), _boolean_index_sigmoid(x).view(np.int64)
    )


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=20), elements=st.floats()))
def test_sigmoid_matches_boolean_index_form_bitwise(x):
    assert np.array_equal(
        stable_sigmoid(x).view(np.int64), _boolean_index_sigmoid(x).view(np.int64)
    )


def test_sigmoid_keeps_float32_and_zero_dim():
    x32 = np.array([-3.0, 0.0, 2.5], dtype=np.float32)
    assert stable_sigmoid(x32).dtype == np.float32
    assert isinstance(stable_sigmoid(np.array(1.5)), np.ndarray)


def test_tensor_ops_use_the_shared_helpers():
    x = np.linspace(-4.0, 4.0, 9)
    assert np.array_equal(Tensor(x).sigmoid().numpy(), stable_sigmoid(x))
    assert np.array_equal(Tensor(x).leaky_relu(0.2).numpy(), leaky_relu(x, 0.2))
