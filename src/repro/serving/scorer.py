"""Serving-time scoring for the fitted MD module.

:class:`BatchScorer` freezes what ``MDModule.predict_scores`` reads from
the live module — the final drug representations h'_v, the Eq. 9 and
Eq. 14 weights, the per-cluster drug exposure and the DDI synergy
adjacency — once, read-only.  Both score through
:func:`repro.core.md_module.score_all_drugs` on the same arrays, so batch
scores are bitwise identical to ``MDModule.predict_scores``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.md_module import MDModule, derive_treatment, score_all_drugs
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
        """Sigmoid suggestion scores, (batch, n_drugs), via the Eq. 14 kernel."""
        x = np.atleast_2d(np.asarray(patient_features, dtype=np.float64))
        return score_all_drugs(
            self.patient_representations(x), self.drug_reps, self.treatment_for(x),
            self.decoder_weights, self.decoder_biases,
        )

    def scores_blocked(self, patient_features: np.ndarray, block: int) -> np.ndarray:
        """Fixed-shape scoring: bitwise-independent of batch composition.

        :meth:`scores` feeds BLAS matrices whose row count varies with
        the request batch, and BLAS kernels pick shape-dependent code
        paths (gemv vs. gemm, SIMD tail handling), so the *same patient*
        can score differently in the last bit depending on who shares
        their batch.  That is fine for offline evaluation but breaks the
        online gateway's contract that micro-batched results equal
        sequential ones bitwise.

        This method therefore scores in fixed chunks of exactly
        ``block`` patients — the final chunk padded by repeating its
        last row, padding rows discarded — so every BLAS call in the
        pipeline sees the same shapes no matter how requests were
        coalesced.  Per-row results of a fixed-shape call do not depend
        on the other rows' values or on a row's position (each output
        row is an independent dot-product accumulation), which makes the
        output a pure function of each patient's features.

        A batch of exactly ``block`` rows is bitwise-identical to
        :meth:`scores` on the same rows (it *is* the same call).
        """
        if block < 2:
            # block == 1 would route single rows through BLAS gemv,
            # whose tail handling differs from the gemm path used for
            # multi-row chunks — exactly the nondeterminism this method
            # exists to remove.
            raise ValueError("block must be >= 2")
        x = np.atleast_2d(np.asarray(patient_features, dtype=np.float64))
        batch = x.shape[0]
        out = np.empty((batch, self.num_drugs), dtype=np.float64)
        for start in range(0, batch, block):
            chunk = x[start : start + block]
            real = chunk.shape[0]
            if real < block:
                chunk = np.concatenate(
                    [chunk, np.repeat(chunk[-1:], block - real, axis=0)]
                )
            out[start : start + real] = self.scores(chunk)[:real]
        return out
