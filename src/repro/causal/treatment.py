"""Treatment-matrix construction for the MD module's causal model.

Section IV-B1 defines the treatment T in three steps:

1. **Observed links**: T_iv = 1 if patient S_i takes drug D_v.
2. **Cluster propagation**: cluster the patients (K-means, k = number of
   chronic diseases); if T_iv = 1 and c(S_j) = c(S_i), then T_jv = 1 —
   patients similar to a treated patient count as treated.
3. **DDI propagation**: if T_iv = 1 and e_vu = +1 (synergy) in the DDI
   graph, then T_iu = 1 — synergistic partners of a treated drug count as
   treated for the same patient.

The resulting binary matrix answers "would this patient plausibly be
exposed to this drug, given similar patients and drug synergies?", which is
the treatment whose causal effect on medication use MDGCN learns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..gnn import synergy_adjacency
from ..graph import SignedGraph
from ..ml import kmeans
from ..nn import sparse as sparse_backend


@dataclass
class TreatmentAssignment:
    """Treatment matrix plus the clustering that produced it.

    Attributes:
        matrix: (m, n_drugs) binary treatment T.
        clusters: (m,) patient cluster indices c(S_i).
        stage1 / stage2: intermediate matrices (observed, +cluster) kept for
            inspection and tests.
    """

    matrix: np.ndarray
    clusters: np.ndarray
    stage1: np.ndarray
    stage2: np.ndarray


def build_treatment(
    features: np.ndarray,
    medication_use: np.ndarray,
    ddi_graph: SignedGraph,
    num_clusters: int,
    seed: int = 0,
    clusters: Optional[np.ndarray] = None,
) -> TreatmentAssignment:
    """Run the three-step treatment construction.

    Args:
        features: (m, d) observed patient features (clustering input).
        medication_use: (m, n_drugs) binary matrix Y of observed links.
        ddi_graph: the signed DDI graph (synergy edges drive step 3).
        num_clusters: k for K-means; the paper uses the number of chronic
            diseases in the observed data.
        seed: RNG seed for the clustering.
        clusters: pre-computed cluster labels (skips K-means when given).
    """
    features = np.asarray(features, dtype=np.float64)
    y = np.asarray(medication_use)
    if features.shape[0] != y.shape[0]:
        raise ValueError("features and medication_use disagree on patients")
    if y.shape[1] != ddi_graph.num_nodes:
        raise ValueError("medication_use and DDI graph disagree on drugs")
    m = features.shape[0]

    # Step 1: observed links.
    stage1 = (y > 0).astype(np.int64)

    # Step 2: cluster propagation.
    if clusters is None:
        k = min(num_clusters, m)
        clusters = kmeans(features, k, seed=seed).labels
    else:
        clusters = np.asarray(clusters, dtype=np.int64)
        if clusters.shape[0] != m:
            raise ValueError("clusters length must match the number of patients")
    # Any drug taken by anyone in the cluster becomes treatment-1 for all:
    # scatter-max per-cluster exposure, then broadcast back to the members.
    # Labels are remapped through np.unique so arbitrary (negative,
    # non-contiguous) caller-provided cluster ids work like the k-means ones.
    unique_clusters, inverse = np.unique(clusters, return_inverse=True)
    cluster_drugs = np.zeros((len(unique_clusters), y.shape[1]), dtype=np.int64)
    np.maximum.at(cluster_drugs, inverse, stage1)
    stage2 = np.maximum(stage1, cluster_drugs[inverse])

    # Step 3: DDI propagation along synergy edges (vectorized scatter;
    # CSR when the DDI graph is large and sparse enough for the density rule).
    synergy = synergy_adjacency(ddi_graph)
    propagated = sparse_backend.matmul(stage2, synergy) > 0
    matrix = np.maximum(stage2, propagated.astype(np.int64))

    return TreatmentAssignment(
        matrix=matrix, clusters=clusters, stage1=stage1, stage2=stage2
    )
