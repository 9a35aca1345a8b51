"""Reverse-mode automatic differentiation on top of numpy.

This module is the foundation of the neural-network substrate used by the
DSSDDI reproduction.  The paper's models (DDIGCN, MDGCN and the GNN
baselines) were originally implemented in PyTorch; this environment has no
deep-learning framework available, so we provide a compact but complete
reverse-mode autograd engine.

Design notes
------------
* A :class:`Tensor` wraps a ``numpy.ndarray`` (always ``float64``) together
  with an optional gradient and a closure that propagates gradients to its
  parents.  Calling :meth:`Tensor.backward` runs a topological sort over the
  recorded graph and accumulates gradients.
* Broadcasting is fully supported: gradients flowing into a broadcast operand
  are summed back to the operand's original shape (:func:`unbroadcast`).
* Only the operations needed by the reproduction are implemented, but they
  cover a standard feed-forward/GNN workload: arithmetic, matmul, reductions,
  activations, indexing/scatter, concatenation and element-wise math.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .functional import leaky_relu, stable_sigmoid

ArrayLike = Union[np.ndarray, float, int, Sequence]


def _as_array(value: ArrayLike) -> np.ndarray:
    array = np.asarray(value, dtype=np.float64)
    return array


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting.

    When an operand of shape ``shape`` was broadcast up to ``grad.shape``
    during the forward pass, the chain rule requires summing the incoming
    gradient over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # graph bookkeeping
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        # No defensive copy: backward closures hand over freshly computed
        # arrays (or views nobody mutates — nothing in the engine writes
        # to a .grad in place), and the second accumulation rebinds to a
        # new sum array anyway.  Copying here doubled the memory traffic
        # of every backward edge on large batches.
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient is only valid "
                    f"for scalar tensors, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        # Copy the seed: the caller keeps ownership of their array, and
        # _accumulate stores what it is given without copying.
        grad = _as_array(grad).copy()

        topo: list[Tensor] = []
        visited: set[int] = set()

        # Iterative topological sort to avoid recursion limits on deep graphs.
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _binary(
        self,
        other: Union["Tensor", ArrayLike],
        forward: Callable[[np.ndarray, np.ndarray], np.ndarray],
        grad_self: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
        grad_other: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    ) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = forward(self.data, other_t.data)
        requires = self.requires_grad or other_t.requires_grad
        out = Tensor(out_data, requires_grad=requires, _parents=(self, other_t))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    unbroadcast(grad_self(grad, self.data, other_t.data), self.shape)
                )
            if other_t.requires_grad:
                other_t._accumulate(
                    unbroadcast(grad_other(grad, self.data, other_t.data), other_t.shape)
                )

        if requires:
            out._backward = backward
        return out

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._binary(
            other,
            lambda a, b: a + b,
            lambda g, a, b: g,
            lambda g, a, b: g,
        )

    __radd__ = __add__

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._binary(
            other,
            lambda a, b: a - b,
            lambda g, a, b: g,
            lambda g, a, b: -g,
        )

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._binary(
            other,
            lambda a, b: a * b,
            lambda g, a, b: g * b,
            lambda g, a, b: g * a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._binary(
            other,
            lambda a, b: a / b,
            lambda g, a, b: g / b,
            lambda g, a, b: -g * a / (b * b),
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        out = Tensor(
            self.data**exponent,
            requires_grad=self.requires_grad,
            _parents=(self,),
        )

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1.0))

        if self.requires_grad:
            out._backward = backward
        return out

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other_t.data
        requires = self.requires_grad or other_t.requires_grad
        out = Tensor(out_data, requires_grad=requires, _parents=(self, other_t))

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other_t.data
            # Normalize to 2-D so a single gradient rule covers the
            # vector/matrix combinations used in the codebase.
            a2 = a.reshape(1, -1) if a.ndim == 1 else a
            b2 = b.reshape(-1, 1) if b.ndim == 1 else b
            g2 = grad.reshape(a2.shape[0], b2.shape[1])
            if self.requires_grad:
                self._accumulate((g2 @ b2.T).reshape(a.shape))
            if other_t.requires_grad:
                other_t._accumulate((a2.T @ g2).reshape(b.shape))

        if requires:
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        out = Tensor(out_data, requires_grad=self.requires_grad, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        if self.requires_grad:
            out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = Tensor(out_data, requires_grad=self.requires_grad, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            g = grad
            o = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                o = np.expand_dims(o, axis=axis)
            mask = (self.data == o).astype(np.float64)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * g)

        if self.requires_grad:
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # element-wise math
    # ------------------------------------------------------------------
    def _unary(
        self,
        forward: Callable[[np.ndarray], np.ndarray],
        grad_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    ) -> "Tensor":
        out_data = forward(self.data)
        out = Tensor(out_data, requires_grad=self.requires_grad, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad_fn(grad, self.data, out_data))

        if self.requires_grad:
            out._backward = backward
        return out

    def exp(self) -> "Tensor":
        return self._unary(np.exp, lambda g, x, y: g * y)

    def log(self) -> "Tensor":
        return self._unary(np.log, lambda g, x, y: g / x)

    def sqrt(self) -> "Tensor":
        return self._unary(np.sqrt, lambda g, x, y: g * 0.5 / y)

    def tanh(self) -> "Tensor":
        return self._unary(np.tanh, lambda g, x, y: g * (1.0 - y * y))

    def sigmoid(self) -> "Tensor":
        return self._unary(stable_sigmoid, lambda g, x, y: g * y * (1.0 - y))

    def relu(self) -> "Tensor":
        return self._unary(
            lambda x: np.maximum(x, 0.0),
            lambda g, x, y: g * (x > 0.0),
        )

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        slope = float(negative_slope)
        return self._unary(
            lambda x: leaky_relu(x, slope),
            lambda g, x, y: g * np.where(x > 0.0, 1.0, slope),
        )

    def softplus(self) -> "Tensor":
        return self._unary(
            lambda x: np.logaddexp(0.0, x),
            lambda g, x, y: g * stable_sigmoid(x),
        )

    def abs(self) -> "Tensor":
        return self._unary(np.abs, lambda g, x, y: g * np.sign(x))

    def clip(self, low: float, high: float) -> "Tensor":
        return self._unary(
            lambda x: np.clip(x, low, high),
            lambda g, x, y: g * ((x >= low) & (x <= high)),
        )

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        out = Tensor(
            self.data.reshape(shape),
            requires_grad=self.requires_grad,
            _parents=(self,),
        )

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        if self.requires_grad:
            out._backward = backward
        return out

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        out = Tensor(
            self.data.transpose(axes),
            requires_grad=self.requires_grad,
            _parents=(self,),
        )

        def backward(grad: np.ndarray) -> None:
            if axes is None:
                self._accumulate(grad.transpose())
            else:
                inverse = np.argsort(axes)
                self._accumulate(grad.transpose(inverse))

        if self.requires_grad:
            out._backward = backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = Tensor(
            self.data[index],
            requires_grad=self.requires_grad,
            _parents=(self,),
        )

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        if self.requires_grad:
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # free functions as methods
    # ------------------------------------------------------------------
    def dot_rows(self, other: "Tensor") -> "Tensor":
        """Row-wise inner product: ``(a * b).sum(axis=-1)``."""
        return (self * other).sum(axis=-1)


# ----------------------------------------------------------------------
# module-level helpers
# ----------------------------------------------------------------------
def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a :class:`Tensor` (mirrors ``torch.tensor``)."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape: Tuple[int, ...], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape: Tuple[int, ...], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors)
    out = Tensor(out_data, requires_grad=requires, _parents=tuple(tensors))

    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                t._accumulate(grad[tuple(slicer)])

    if requires:
        out._backward = backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors)
    out = Tensor(out_data, requires_grad=requires, _parents=tuple(tensors))

    def backward(grad: np.ndarray) -> None:
        parts = np.moveaxis(grad, axis, 0)
        for t, part in zip(tensors, parts):
            if t.requires_grad:
                t._accumulate(np.asarray(part))

    if requires:
        out._backward = backward
    return out


def where(condition: ArrayLike, a: Tensor, b: Tensor) -> Tensor:
    """Element-wise select with gradient support for both branches."""
    cond = np.asarray(condition, dtype=bool)
    a_t = a if isinstance(a, Tensor) else Tensor(a)
    b_t = b if isinstance(b, Tensor) else Tensor(b)
    out_data = np.where(cond, a_t.data, b_t.data)
    requires = a_t.requires_grad or b_t.requires_grad
    out = Tensor(out_data, requires_grad=requires, _parents=(a_t, b_t))

    def backward(grad: np.ndarray) -> None:
        if a_t.requires_grad:
            a_t._accumulate(unbroadcast(grad * cond, a_t.shape))
        if b_t.requires_grad:
            b_t._accumulate(unbroadcast(grad * (~cond), b_t.shape))

    if requires:
        out._backward = backward
    return out


def matmul_fixed(a, b: Tensor) -> Tensor:
    """Multiply a constant matrix (e.g. a normalized adjacency) by a tensor.

    Propagation primitive used by the GNN layers: ``a`` carries no
    gradient, only ``b`` does.  Keeping ``a`` out of the autograd graph
    avoids storing dense parents for large adjacency matrices.

    ``a`` may be a dense ``ndarray`` **or** a ``scipy.sparse`` matrix
    (CSR from :mod:`repro.nn.sparse`): the forward pass is ``A @ x`` and
    the backward pass ``A^T @ g``, both staying inside scipy's sparse
    kernels when ``a`` is sparse.  The output (and the accumulated
    gradient) is always a dense ndarray.
    """
    from . import sparse as _sparse_backend

    if _sparse_backend.is_sparse(a):
        out_data = np.asarray(a @ b.data)
        a_t = a.T  # CSC view, no copy; scipy multiplies it natively

        def backward(grad: np.ndarray) -> None:
            b._accumulate(np.asarray(a_t @ grad))

    else:
        out_data = a @ b.data

        def backward(grad: np.ndarray) -> None:
            b._accumulate(a.T @ grad)

    out = Tensor(out_data, requires_grad=b.requires_grad, _parents=(b,))
    if b.requires_grad:
        out._backward = backward
    return out


def gather_rows(t: Tensor, index: np.ndarray) -> Tensor:
    """Select rows ``t[index]`` with gradient scatter-add on backward.

    The 2-D fast path scatters through :func:`repro.nn.sparse.scatter_add_rows`
    (CSR selection product on large batches) instead of the generic
    ``np.add.at`` of ``Tensor.__getitem__``; other shapes fall back to
    the generic indexing op.
    """
    index = np.asarray(index, dtype=np.int64)
    if t.data.ndim != 2 or index.ndim != 1:
        return t[index]
    out = Tensor(t.data[index], requires_grad=t.requires_grad, _parents=(t,))

    def backward(grad: np.ndarray) -> None:
        from . import sparse as _sparse_backend

        t._accumulate(_sparse_backend.scatter_add_rows(index, grad, t.data.shape[0]))

    if t.requires_grad:
        out._backward = backward
    return out


def segment_mean(t: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean-aggregate rows of ``t`` into ``num_segments`` buckets.

    Used by message-passing layers: ``segment_ids[i]`` is the destination
    node of row ``i``.  Empty segments produce zero rows.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
    safe = np.maximum(counts, 1.0)

    out_data = np.zeros((num_segments,) + t.data.shape[1:], dtype=np.float64)
    np.add.at(out_data, segment_ids, t.data)
    out_data /= safe.reshape((-1,) + (1,) * (t.data.ndim - 1))

    out = Tensor(out_data, requires_grad=t.requires_grad, _parents=(t,))

    def backward(grad: np.ndarray) -> None:
        scaled = grad / safe.reshape((-1,) + (1,) * (grad.ndim - 1))
        t._accumulate(scaled[segment_ids])

    if t.requires_grad:
        out._backward = backward
    return out


def segment_sum(t: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum-aggregate rows of ``t`` into ``num_segments`` buckets."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_data = np.zeros((num_segments,) + t.data.shape[1:], dtype=np.float64)
    np.add.at(out_data, segment_ids, t.data)
    out = Tensor(out_data, requires_grad=t.requires_grad, _parents=(t,))

    def backward(grad: np.ndarray) -> None:
        t._accumulate(grad[segment_ids])

    if t.requires_grad:
        out._backward = backward
    return out


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax with autograd support."""
    shifted = t - Tensor(t.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def segment_softmax(scores: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over variable-sized segments (attention over neighbourhoods).

    ``scores`` is 1-D; entries sharing a ``segment_id`` are normalized
    together.  Used by the attention-based signed GNNs (SiGAT, SNEA).
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    # Per-segment max for stability (constant w.r.t. autograd, which is fine
    # because softmax is shift-invariant).
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, segment_ids, scores.data)
    seg_max[np.isneginf(seg_max)] = 0.0
    shifted = scores - Tensor(seg_max[segment_ids])
    exp = shifted.exp()
    denom = segment_sum(exp, segment_ids, num_segments)
    return exp / gather_rows(denom, segment_ids)
