"""Serving-time scoring for the fitted MD module.

:class:`BatchScorer` freezes what ``MDModule.predict_scores`` reads from
the live module — the final drug representations h'_v, the Eq. 9 and
Eq. 14 weights, the per-cluster drug exposure and the DDI synergy
adjacency — once, read-only.  Both score through
:func:`repro.core.md_module.score_patients` on the same arrays, so batch
scores are bitwise identical to ``MDModule.predict_scores``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.md_module import MDModule, derive_treatment, score_patients
from ..ml import KMeansResult
from ..nn import leaky_relu
from ..nn import sparse as sparse_backend


class BatchScorer:
    """Frozen replica of ``MDModule.predict_scores``.

    Build with :meth:`from_md_module`; then :meth:`scores` maps a
    (batch, d1) feature matrix to the (batch, n_drugs) sigmoid score
    matrix.  All request-independent work — drug representations, cluster
    drug exposure, synergy adjacency — happens once at construction.
    """

    def __init__(
        self,
        patient_weight: np.ndarray,
        patient_bias: np.ndarray,
        drug_reps: np.ndarray,
        decoder_weights: List[np.ndarray],
        decoder_biases: List[np.ndarray],
        kmeans: KMeansResult,
        cluster_drugs: np.ndarray,
        synergy: np.ndarray,
    ) -> None:
        self.patient_weight = np.asarray(patient_weight, dtype=np.float64)
        self.patient_bias = np.asarray(patient_bias, dtype=np.float64)
        self.drug_reps = np.asarray(drug_reps, dtype=np.float64)
        if len(decoder_weights) != len(decoder_biases) or not decoder_weights:
            raise ValueError("decoder weights and biases must pair up")
        self.decoder_weights = [np.asarray(w, dtype=np.float64) for w in decoder_weights]
        self.decoder_biases = [np.asarray(b, dtype=np.float64) for b in decoder_biases]
        self.kmeans = kmeans
        self.cluster_drugs = np.asarray(cluster_drugs, dtype=np.int64)
        # The synergy adjacency arrives straight from the MD module's
        # post-fit cache: CSR on large sparse DDI graphs, dense otherwise.
        self.synergy = (
            synergy
            if sparse_backend.is_sparse(synergy)
            else np.asarray(synergy, dtype=np.float64)
        )
        self.num_drugs = self.drug_reps.shape[0]
        expected_in = self.drug_reps.shape[1] + 1  # [h_i ⊙ h'_v, T_iv]
        if self.decoder_weights[0].shape[0] != expected_in:
            raise ValueError(
                f"decoder input dim {self.decoder_weights[0].shape[0]} does not "
                f"match drug representation width {expected_in - 1} + treatment"
            )

    @property
    def feature_dim(self) -> int:
        """Width of the patient feature vectors the scorer consumes."""
        return self.patient_weight.shape[0]

    @classmethod
    def from_md_module(cls, md_module: MDModule) -> "BatchScorer":
        """Freeze a fitted MD module's scoring state into a scorer."""
        return cls(**md_module.scoring_state())

    # ------------------------------------------------------------------
    def treatment_for(self, patient_features: np.ndarray) -> np.ndarray:
        """Treatment rows for unobserved patients (Sec. IV-B1, steps 2-3).

        Identical to ``MDModule.treatment_for`` but against precomputed
        cluster exposure and synergy matrices.
        """
        x = np.atleast_2d(np.asarray(patient_features, dtype=np.float64))
        return derive_treatment(x, self.kmeans, self.cluster_drugs, self.synergy)

    def patient_representations(self, patient_features: np.ndarray) -> np.ndarray:
        """Pre-propagation patient representations h_i (Eq. 9)."""
        x = np.atleast_2d(np.asarray(patient_features, dtype=np.float64))
        return leaky_relu(x @ self.patient_weight + self.patient_bias)

    def scores(self, patient_features: np.ndarray) -> np.ndarray:
        """Sigmoid suggestion scores, (batch, n_drugs), via the Eq. 14 kernel.

        Each patient's scores are bitwise independent of the batch it
        arrives in (see :func:`repro.core.md_module.score_patients`).
        """
        return score_patients(
            patient_features, self.patient_representations, self.treatment_for,
            self.drug_reps, self.decoder_weights, self.decoder_biases,
        )
