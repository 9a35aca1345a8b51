"""Adjacency normalization helpers shared by the GNN layers.

Every helper returns a *fixed* propagation matrix that enters the
autograd graph as a constant via :func:`repro.nn.matmul_fixed`.  The
representation is chosen by the density-threshold policy of
:mod:`repro.nn.sparse`: graphs that are large and mostly empty (the
patient-drug bipartite graph at realistic cohort sizes is >99% sparse)
come back as ``scipy.sparse`` CSR matrices, while small or dense graphs
(the 86-drug DDI graph of the paper's experiments) keep the seed's dense
arrays with bitwise-identical arithmetic.

The per-edge construction is vectorized throughout: edge lists are
extracted once as arrays (:meth:`repro.graph.SignedGraph.edge_arrays`)
and scattered with fancy indexing instead of Python loops.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph import BipartiteGraph, SignedGraph
from ..nn import sparse as sparse_backend


def _undirected_entries(
    u: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Duplicate single-orientation edge arrays into both directions."""
    return np.concatenate([u, v]), np.concatenate([v, u])


def _binary_adjacency(
    shape: Tuple[int, int],
    rows: np.ndarray,
    cols: np.ndarray,
):
    """0/1 adjacency from entry arrays, dense or CSR per the density rule.

    ``(rows, cols)`` pairs are assumed unique (simple graphs), so the
    CSR duplicate-summing build yields the same 0/1 values as the dense
    scatter.
    """
    if sparse_backend.should_sparsify(shape, len(rows)):
        return sparse_backend.csr_from_entries(
            shape, rows, cols, np.ones(len(rows))
        )
    mat = np.zeros(shape)
    mat[rows, cols] = 1.0
    return mat


def mean_adjacency(adjacency):
    """Row-normalize a 0/1 adjacency: ``M[i, j] = A[i, j] / deg(i)``.

    Rows with zero degree stay zero (isolated nodes aggregate nothing).
    Accepts dense or CSR input; the output representation follows the
    density rule of the normalized matrix.
    """
    if sparse_backend.is_sparse(adjacency):
        adjacency = adjacency.tocsr()
        degree = np.asarray(adjacency.sum(axis=1)).ravel()
        scale = np.divide(1.0, degree, out=np.zeros_like(degree), where=degree > 0)
        normalized = adjacency.multiply(scale[:, None]).tocsr()
        return sparse_backend.maybe_sparse(normalized)
    adjacency = np.asarray(adjacency, dtype=np.float64)
    degree = adjacency.sum(axis=1)
    scale = np.divide(1.0, degree, out=np.zeros_like(degree), where=degree > 0)
    return sparse_backend.maybe_sparse(adjacency * scale[:, None])


def symmetric_adjacency(adjacency, self_loops: bool = False):
    """GCN-style D^-1/2 (A [+ I]) D^-1/2 normalization.

    Dense or CSR input, output per the density rule (see module docs).
    """
    if sparse_backend.is_sparse(adjacency):
        adjacency = adjacency.tocsr()
        if self_loops:
            from scipy import sparse as sp

            adjacency = (adjacency + sp.eye(adjacency.shape[0], format="csr")).tocsr()
        degree = np.asarray(adjacency.sum(axis=1)).ravel()
        inv_sqrt = np.divide(
            1.0, np.sqrt(degree), out=np.zeros_like(degree), where=degree > 0
        )
        normalized = (
            adjacency.multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :]).tocsr()
        )
        return sparse_backend.maybe_sparse(normalized)
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if self_loops:
        adjacency = adjacency + np.eye(adjacency.shape[0])
    degree = adjacency.sum(axis=1)
    inv_sqrt = np.divide(
        1.0, np.sqrt(degree), out=np.zeros_like(degree), where=degree > 0
    )
    return sparse_backend.maybe_sparse(
        adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]
    )


def signed_mean_adjacencies(graph: SignedGraph):
    """Row-normalized positive and negative adjacencies (B_v and U_v paths).

    Returns ``(positive, negative)``, each dense or CSR per the density rule.
    """
    u, v, signs = graph.edge_arrays()
    n = graph.num_nodes
    pos_rows, pos_cols = _undirected_entries(u[signs > 0], v[signs > 0])
    neg_rows, neg_cols = _undirected_entries(u[signs < 0], v[signs < 0])
    positive = _binary_adjacency((n, n), pos_rows, pos_cols)
    negative = _binary_adjacency((n, n), neg_rows, neg_cols)
    return mean_adjacency(positive), mean_adjacency(negative)


def interaction_mean_adjacency(graph: SignedGraph, include_zero: bool = True):
    """Row-normalized adjacency over *all* interactions.

    The paper's GIN backbone aggregates over N_v = drugs that have any
    interaction with v, including the sampled "no interaction" (0) edges
    when ``include_zero`` is set.  Dense or CSR per the density rule.
    """
    u, v, signs = graph.edge_arrays()
    if not include_zero:
        keep = signs != 0
        u, v = u[keep], v[keep]
    rows, cols = _undirected_entries(u, v)
    n = graph.num_nodes
    return mean_adjacency(_binary_adjacency((n, n), rows, cols))


def synergy_adjacency(graph: SignedGraph):
    """0/1 adjacency over the synergy (+1) edges, both orientations.

    The fixed factor of the treatment derivation (Sec. IV-B1 step 3),
    shared by fit-time :func:`repro.causal.build_treatment` and the
    post-fit cache behind ``MDModule.treatment_for`` / serving — one
    construction site so the representation cannot diverge between
    them.  Dense or CSR per the density rule.
    """
    u, v, signs = graph.edge_arrays()
    pos = signs == 1
    rows, cols = _undirected_entries(u[pos], v[pos])
    n = graph.num_nodes
    return _binary_adjacency((n, n), rows, cols)


def bipartite_propagation(graph: BipartiteGraph):
    """Symmetric-normalized patient->drug and drug->patient matrices.

    Delegates to :meth:`repro.graph.BipartiteGraph.normalized_adjacency`;
    both matrices are CSR when the density rule selects sparse, dense
    otherwise.
    """
    return graph.normalized_adjacency()


def signed_edge_arrays(graph: SignedGraph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge list as (sources, targets, signs) arrays with both directions.

    Attention layers (SiGAT, SNEA) iterate edges rather than using dense
    matrices; every undirected edge is emitted in both directions,
    interleaved as (u, v), (v, u) pairs — the same order the original
    per-edge loop produced, so seeded runs stay bitwise reproducible
    (segment scatter-adds sum in edge order).
    """
    u, v, signs = graph.edge_arrays()
    src = np.stack([u, v], axis=1).ravel()
    dst = np.stack([v, u], axis=1).ravel()
    return src, dst, np.repeat(signs, 2)
