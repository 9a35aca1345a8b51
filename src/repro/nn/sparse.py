"""CSR propagation: the density rule, CSR construction and sparse-aware products.

The GNN propagations in this codebase multiply by *fixed* normalized
adjacencies (patient-drug, DDI).  At realistic cohort sizes those
matrices are >99% empty, so storing and multiplying them densely wastes
both memory and time.  One rule chooses each matrix's representation:

* ``should_sparsify(shape, nnz)`` — a matrix goes CSR when it is large
  enough that sparse bookkeeping pays off (``MIN_SIZE`` elements) and
  its density is at most ``DENSITY_THRESHOLD``.  Small or dense matrices
  keep the dense path, whose arithmetic is bitwise identical to the seed
  implementation.  Nothing overrides the rule: every adjacency function
  in :mod:`repro.gnn.propagation` and
  ``BipartiteGraph.normalized_adjacency`` apply it to what they build.
* ``matmul`` multiplies mixed dense/CSR operands and always returns a
  dense ``ndarray``, which is what the autograd engine stores.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np
from scipy import sparse as _scipy_sparse

#: Density at or below which a sufficiently large matrix is stored as CSR.
DENSITY_THRESHOLD = 0.05
#: Matrices with fewer elements than this always stay dense: at small
#: sizes the dense BLAS path wins and, more importantly, the seed test
#: suite (small graphs throughout) keeps its exact numerics.
MIN_SIZE = 32768

Matrix = Union[np.ndarray, _scipy_sparse.spmatrix]


def is_sparse(x: object) -> bool:
    """True when ``x`` is a scipy sparse matrix/array."""
    return _scipy_sparse.issparse(x)


def to_dense(x: Matrix) -> np.ndarray:
    """Densify ``x`` to a float64 ndarray (no copy when already dense)."""
    if is_sparse(x):
        return np.asarray(x.toarray(), dtype=np.float64)
    return np.asarray(x, dtype=np.float64)


def as_csr(x: Matrix) -> _scipy_sparse.csr_matrix:
    """Convert dense or sparse input to CSR."""
    if is_sparse(x):
        return x.tocsr()
    return _scipy_sparse.csr_matrix(np.asarray(x, dtype=np.float64))


def should_sparsify(shape: Tuple[int, int], nnz: int) -> bool:
    """The density rule for a matrix of ``shape`` with ``nnz`` entries."""
    size = shape[0] * shape[1]
    return size >= MIN_SIZE and nnz <= DENSITY_THRESHOLD * size


def maybe_sparse(mat: Matrix) -> Matrix:
    """Return ``mat`` in the representation the density rule selects.

    Dense input is converted to CSR only when :func:`should_sparsify`
    says so; sparse input is densified when the rule says dense.  The
    dense values are preserved exactly either way.
    """
    if is_sparse(mat):
        if should_sparsify(mat.shape, mat.nnz):
            return mat.tocsr()
        return to_dense(mat)
    arr = np.asarray(mat, dtype=np.float64)
    if arr.ndim == 2 and should_sparsify(arr.shape, int(np.count_nonzero(arr))):
        return _scipy_sparse.csr_matrix(arr)
    return arr


def csr_from_entries(
    shape: Tuple[int, int],
    rows: np.ndarray,
    cols: np.ndarray,
    data: np.ndarray,
) -> _scipy_sparse.csr_matrix:
    """Build a CSR matrix from COO-style entry arrays (duplicates summed)."""
    return _scipy_sparse.csr_matrix(
        (np.asarray(data, dtype=np.float64), (rows, cols)), shape=shape
    )


#: Row counts below this use ``np.add.at`` for scatter-adds; above it the
#: CSR selection-matrix product is ~5-10x faster and sums contributions in
#: the same (occurrence) order, so the result is bitwise identical.
SCATTER_SPARSE_MIN_ROWS = 4096


def scatter_add_rows(
    index: np.ndarray, values: np.ndarray, num_rows: int
) -> np.ndarray:
    """Scatter-add ``values`` rows into a ``(num_rows, ...)`` array.

    ``out[index[j]] += values[j]`` for every ``j`` — the backward pass of
    a row gather.  Large 2-D scatters route through a CSR selection
    matrix (one entry per gathered row), which replaces numpy's slow
    buffered ``np.add.at`` with a compiled sparse product; duplicates sum
    in ascending occurrence order either way, so both paths produce the
    same bits.
    """
    index = np.asarray(index, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 2 and len(index) >= SCATTER_SPARSE_MIN_ROWS:
        selector = _scipy_sparse.csr_matrix(
            (np.ones(len(index)), (index, np.arange(len(index)))),
            shape=(num_rows, len(index)),
        )
        return np.asarray(selector @ values)
    out = np.zeros((num_rows,) + values.shape[1:], dtype=np.float64)
    np.add.at(out, index, values)
    return out


def matmul(a: Matrix, b: Matrix) -> np.ndarray:
    """``a @ b`` for any dense/CSR operand combination, densified.

    The transpose trick for ``dense @ sparse`` keeps the product inside
    scipy's CSR kernels instead of falling back to a dense conversion.
    """
    if is_sparse(a):
        return np.asarray(a @ to_dense(b) if is_sparse(b) else a @ b)
    if is_sparse(b):
        return np.asarray((b.T @ np.asarray(a).T).T)
    return np.asarray(a) @ np.asarray(b)
