"""Numpy-based neural-network substrate (autograd, layers, optimizers, losses).

The DSSDDI paper's models were implemented in PyTorch; this package provides
an equivalent, dependency-free substrate so that the full system can run in
this environment.  See ``repro.nn.tensor`` for the autograd engine,
``repro.nn.sparse`` for the density rule that stores large, mostly empty
propagation matrices as scipy CSR, ``repro.nn.fused``
for the fused training hot-path ops, and ``repro.nn.functional`` for the
plain-array activations that autograd and inference share.
"""

from .functional import leaky_relu, stable_sigmoid
from .tensor import (
    Tensor,
    concat,
    gather_rows,
    matmul_fixed,
    ones,
    segment_mean,
    segment_softmax,
    segment_sum,
    softmax,
    stack,
    tensor,
    unbroadcast,
    where,
    zeros,
)
from .layers import (
    BatchNorm1d,
    Dropout,
    Embedding,
    Linear,
    MLP,
    Module,
    ParameterList,
    Sequential,
    get_activation,
)
from .losses import (
    bce_loss,
    bce_with_logits,
    l2_regularizer,
    margin_ranking_loss,
    mse_loss,
    multinomial_nll,
)
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from . import init
from . import sparse

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "concat",
    "stack",
    "where",
    "softmax",
    "segment_softmax",
    "segment_mean",
    "segment_sum",
    "gather_rows",
    "matmul_fixed",
    "unbroadcast",
    "stable_sigmoid",
    "leaky_relu",
    "Module",
    "Linear",
    "MLP",
    "BatchNorm1d",
    "Dropout",
    "Embedding",
    "Sequential",
    "ParameterList",
    "get_activation",
    "mse_loss",
    "bce_loss",
    "bce_with_logits",
    "margin_ranking_loss",
    "multinomial_nll",
    "l2_regularizer",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "init",
    "sparse",
]
