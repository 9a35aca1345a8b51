"""Fused autograd ops for the training hot paths.

The MDGCN decoder (Eq. 14) scores tens of thousands of sampled
patient-drug pairs per epoch through a fixed pipeline:

    logits = MLP2([h_left[li] * h_right[ri], extra])

Expressed through the generic autograd ops that pipeline materializes a
dozen intermediate tensors, each a fresh multi-megabyte allocation.
:func:`pair_interaction_logits` runs the identical arithmetic — same
operations, same order, bitwise-equal outputs and per-parameter
gradients — as a single graph node with a hand-written backward that
writes into a few preallocated workspace buffers.  The row scatter
in the backward goes through :func:`repro.nn.sparse.scatter_add_rows`
(CSR selection product).

The Eq. 18 loss decodes the same pairs twice, with the factual T and
the counterfactual T^CF.  A 2-D ``extra`` runs every such term in the
same node: the gathers, the Hadamard product, the backward's ``dz``
GEMM and both scatters run once for all terms, and the workspace holds
3 + terms buffers (``hl``, ``hr``, ``zc`` and one hidden activation per
term).  Logits and W1/b1/W2/b2 gradients stay bitwise equal to one call
per term; the embedding gradients sum the terms before the shared GEMM,
so they move at rounding level only.

Only the exact decoder shape the reproduction uses is fused (two Linear
layers, ReLU between, linear output); callers must check
:func:`can_fuse_pair_mlp` and fall back to the generic path otherwise.

The caller owns the workspace: ``MDModule.fit`` passes one dict per fit
as ``workspace=``, each node takes its buffers out of it for its
forward and backward and puts them back when done, and the buffers die
with the fit.  A node that finds the dict empty (another node still
holds the buffers) allocates its own; without a dict every call
allocates.  The backward overwrites the buffers it reads, so each node
supports one ``backward`` (each training step builds a fresh graph).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from . import sparse as sparse_backend
from .layers import _ACTIVATIONS, MLP
from .tensor import Tensor


def _take(
    workspace: Dict[str, np.ndarray], name: str, shape: Tuple[int, int]
) -> np.ndarray:
    """Remove ``name`` from ``workspace``; a fresh buffer if absent or misshapen."""
    buf = workspace.pop(name, None)
    if buf is None or buf.shape != shape:
        buf = np.empty(shape, dtype=np.float64)
    return buf


def lightgcn_scan(
    h_patients: Tensor,
    h_drugs: Tensor,
    p2d,
    d2p,
    layer_weights,
) -> Tuple[Tensor, Tensor]:
    """Fused LightGCN propagation with layer combination (Eq. 11-13).

    Computes the same alternating propagation and weighted layer sum as
    the op-by-op loop — identical operation order, bitwise-equal outputs
    — as one graph node per output, without materializing a tensor per
    intermediate term.  ``p2d`` / ``d2p`` are fixed adjacencies (dense
    or CSR); the backward runs the reverse recurrence with ``A^T``
    products.
    """
    weights = [float(w) for w in layer_weights]
    num_layers = len(weights) - 1

    cur_p, cur_d = h_patients.data, h_drugs.data
    comb_p = cur_p * weights[0]
    comb_d = cur_d * weights[0]
    for t in range(1, num_layers + 1):
        cur_p, cur_d = (
            np.asarray(p2d @ cur_d),
            np.asarray(d2p @ cur_p),
        )
        comb_p += cur_p * weights[t]
        comb_d += cur_d * weights[t]

    requires = h_patients.requires_grad or h_drugs.requires_grad
    parents = (h_patients, h_drugs)
    out_p = Tensor(comb_p, requires_grad=requires, _parents=parents)
    out_d = Tensor(comb_d, requires_grad=requires, _parents=parents)
    if not requires:
        return out_p, out_d

    # Each output back-propagates independently (the engine calls one
    # backward per node); the reverse recurrence crosses sides the same
    # way the forward does: patients at layer t came from drugs at t-1.
    # When a loss consumes BOTH outputs this runs two reverse scans
    # (~4L adjacency products vs 2L for the generic loop) — a shared
    # scan cannot know whether the other output participates in the
    # graph, so correctness wins; MDGCN, the scale-critical consumer,
    # uses only the drug output and pays the optimal 2L.
    p2d_t = p2d.T
    d2p_t = d2p.T

    def scan_back(grad_p, grad_d) -> Tuple[np.ndarray, np.ndarray]:
        dp = grad_p * weights[num_layers] if grad_p is not None else None
        dd = grad_d * weights[num_layers] if grad_d is not None else None
        for t in range(num_layers - 1, -1, -1):
            prev_p = np.asarray(d2p_t @ dd) if dd is not None else None
            prev_d = np.asarray(p2d_t @ dp) if dp is not None else None
            if grad_p is not None:
                prev_p = (
                    grad_p * weights[t] if prev_p is None
                    else prev_p + grad_p * weights[t]
                )
            if grad_d is not None:
                prev_d = (
                    grad_d * weights[t] if prev_d is None
                    else prev_d + grad_d * weights[t]
                )
            dp, dd = prev_p, prev_d
        return dp, dd

    def backward_p(grad: np.ndarray) -> None:
        dp, dd = scan_back(grad, None)
        if h_patients.requires_grad and dp is not None:
            h_patients._accumulate(dp)
        if h_drugs.requires_grad and dd is not None:
            h_drugs._accumulate(dd)

    def backward_d(grad: np.ndarray) -> None:
        dp, dd = scan_back(None, grad)
        if h_patients.requires_grad and dp is not None:
            h_patients._accumulate(dp)
        if h_drugs.requires_grad and dd is not None:
            h_drugs._accumulate(dd)

    out_p._backward = backward_p
    out_d._backward = backward_d
    return out_p, out_d


def can_fuse_pair_mlp(mlp: MLP) -> bool:
    """True when ``mlp`` is the fusable [d+1, d, 1] shape: two biased
    Linear layers, ReLU between them, identity output, no batch norm,
    and a hidden width equal to the pair-embedding width (the fused
    workspace shares its (rows, d) buffers between the interaction and
    hidden activations, so unequal widths must take the generic path)."""
    return (
        isinstance(mlp, MLP)
        and len(mlp.layers) == 2
        and all(norm is None for norm in mlp.norms)
        and mlp.activation is _ACTIVATIONS["relu"]
        and mlp.final_activation is _ACTIVATIONS["identity"]
        and all(layer.bias is not None for layer in mlp.layers)
        and mlp.layers[0].out_features == mlp.layers[0].in_features - 1
    )


def _checked_rows(idx: np.ndarray, num_rows: int) -> np.ndarray:
    """``idx`` as int64, raising IndexError unless every entry is a row."""
    idx = np.asarray(idx, dtype=np.int64)
    if len(idx) and (idx.min() < 0 or idx.max() >= num_rows):
        raise IndexError(f"row index out of range for {num_rows} rows")
    return idx


def pair_interaction_logits(
    h_left: Tensor,
    h_right: Tensor,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
    extra: np.ndarray,
    mlp: MLP,
    *,
    workspace: Optional[Dict[str, np.ndarray]] = None,
) -> Tensor:
    """Fused ``MLP([h_left[li] * h_right[ri], extra])`` logits.

    ``extra`` is the constant per-pair column (the treatment T_iv); it
    carries no gradient.  A 1-D ``extra`` of shape ``(rows,)`` returns
    ``(rows,)`` logits.  A 2-D ``extra`` of shape ``(terms, rows)``
    decodes every row of it as one term over the same pairs — the
    factual T and the counterfactual T^CF of Eq. 18 — and returns
    ``(terms, rows)`` logits.  ``mlp`` must satisfy
    :func:`can_fuse_pair_mlp`.

    The gathers and the Hadamard product run once for all terms; each
    term then replays the generic ops verbatim (concatenate, x @ W + b,
    relu, x @ W + b), so each row of the output is bitwise identical to
    a separate call on that term and to the unfused path.  The backward
    takes the W1/b1/W2/b2 gradients per term with the same expressions
    (bitwise equal to separate calls, summed over terms in order), then
    sums the per-term ``da`` before the one shared ``dz`` GEMM and the
    one scatter per side: the ``h_left``/``h_right`` gradients differ
    from separate calls only by that reassociation (rounding level).
    With one term nothing is reassociated and every gradient is bitwise
    equal to the generic path.  The workspace is 3 + terms buffers:
    ``hl``, ``hr``, ``zc`` and one hidden activation per term.  They
    come out of ``workspace`` when given (a caller-owned dict reused
    across steps) and go back into it after the backward, or at once
    when nothing needs a gradient.

    Inference does not come through here: Eq. 14 scoring has its own
    blocked kernel (:func:`repro.core.md_module.score_all_drugs`).
    """
    left_idx = _checked_rows(left_idx, len(h_left.data))
    right_idx = _checked_rows(right_idx, len(h_right.data))
    extra = np.asarray(extra, dtype=np.float64)
    columns = extra.reshape(1, -1) if extra.ndim == 1 else extra
    rows = len(left_idx)
    if columns.ndim != 2 or columns.shape[1] != rows or len(right_idx) != rows:
        raise ValueError(
            f"extra must be (rows,) or (terms, rows) with rows = {rows} "
            f"pairs and {len(right_idx)} right indices, got {extra.shape}"
        )
    terms = columns.shape[0]
    w1, b1 = mlp.layers[0].weight, mlp.layers[0].bias
    w2, b2 = mlp.layers[1].weight, mlp.layers[1].bias

    width = h_left.data.shape[1]
    if w1.data.shape != (width + 1, width):
        raise ValueError(
            f"pair_interaction_logits needs a ({width + 1}, {width}) first "
            f"layer, got {w1.data.shape}; check can_fuse_pair_mlp first"
        )
    workspace = {} if workspace is None else workspace
    hl = _take(workspace, "hl", (rows, width))
    hr = _take(workspace, "hr", (rows, width))
    zc = _take(workspace, "zc", (rows, width + 1))
    hidden = [_take(workspace, f"r{k}", (rows, width)) for k in range(terms)]
    buffers = {"hl": hl, "hr": hr, "zc": zc}
    buffers.update((f"r{k}", r) for k, r in enumerate(hidden))

    # Indices are checked above; 'clip' skips the buffered copy that
    # np.take's default 'raise' mode makes of the output.
    np.take(h_left.data, left_idx, axis=0, out=hl, mode="clip")
    np.take(h_right.data, right_idx, axis=0, out=hr, mode="clip")
    np.multiply(hl, hr, out=zc[:, :width])
    out = np.empty((terms, rows), dtype=np.float64)
    for r, column, logits in zip(hidden, columns, out):
        zc[:, width] = column
        np.matmul(zc, w1.data, out=r)   # a1 = zc @ W1 + b1
        r += b1.data
        np.maximum(r, 0.0, out=r)       # relu; (r > 0) == (a1 > 0) for the mask
        logits[:] = (r @ w2.data + b2.data).reshape(-1)

    parents = (h_left, h_right, w1, b1, w2, b2)
    requires = any(p.requires_grad for p in parents)
    result = Tensor(
        out.reshape(extra.shape), requires_grad=requires,
        _parents=parents if requires else (),
    )

    if not requires:
        workspace.update(buffers)
        return result

    def backward(grad: np.ndarray) -> None:
        for g2, r, column in zip(grad.reshape(terms, rows, 1), hidden, columns):
            if w2.requires_grad:
                w2._accumulate(r.T @ g2)
            if b2.requires_grad:
                b2._accumulate(g2.sum(axis=0))
            # da_k = (g_k W2ᵀ) ⊙ [a1 > 0], written over r: W2 has one
            # column, so the broadcast product equals the K=1 GEMM.
            mask = r > 0.0
            np.multiply(g2, w2.data.T, out=r)
            r *= mask
            if b1.requires_grad:
                b1._accumulate(r.sum(axis=0))
            if w1.requires_grad:
                zc[:, width] = column
                w1._accumulate(zc.T @ r)
        da = hidden[0]
        for r in hidden[1:]:
            da += r
        np.matmul(da, w1.data.T, out=zc)  # dz; the extra column is a constant
        dz0 = zc[:, :width]
        # hl and hr are no longer needed once each product is formed, so
        # they hold the scatter operands.
        if h_right.requires_grad:
            np.multiply(dz0, hl, out=hl)
            h_right._accumulate(
                sparse_backend.scatter_add_rows(right_idx, hl, h_right.data.shape[0])
            )
        if h_left.requires_grad:
            np.multiply(dz0, hr, out=hr)
            h_left._accumulate(
                sparse_backend.scatter_add_rows(left_idx, hr, h_left.data.shape[0])
            )
        workspace.update(buffers)

    result._backward = backward
    return result
