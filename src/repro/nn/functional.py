"""Plain-array activations shared by the autograd ops and inference code.

:class:`repro.nn.Tensor` applies these in its forward passes, and the
numpy-only inference paths (Eq. 14 scoring, logistic regression) call
them directly, so training and serving round every activation the same
way.
"""

from __future__ import annotations

import numpy as np


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Piecewise-stable logistic sigmoid: ``where(x >= 0, 1, e) / (1 + e)``.

    ``e = exp(-|x|)`` never overflows.  ``-|x|`` is written
    ``minimum(x, -x)`` so a NaN input keeps its sign bit, which makes the
    result bitwise equal to evaluating ``1 / (1 + exp(-x))`` on the
    non-negative entries and ``exp(x) / (1 + exp(x))`` on the rest.
    """
    e = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def leaky_relu(x: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
    """``x`` where positive, ``negative_slope * x`` elsewhere."""
    return np.where(x > 0.0, x, negative_slope * x)
