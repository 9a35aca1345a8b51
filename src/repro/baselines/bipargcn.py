"""Bipar-GCN baseline (Jin et al., ICDE 2020).

Two structurally identical but separately parameterized towers: a
patient-oriented network aggregating the embeddings of the drugs a patient
takes, and a drug-oriented network aggregating the embeddings of the
patients taking the drug.  Scores are inner products.
"""

from __future__ import annotations

import numpy as np

from ..nn import Adam, Linear, Tensor, bce_with_logits, concat, gather_rows, matmul_fixed
from ..gnn import mean_adjacency
from ..train import PairBatch, PairNegativeSampler, TrainState, Trainer
from .base import Recommender, register


@register
class BiparGCN(Recommender):
    """Two-tower bipartite GCN with mean-aggregation."""

    name = "Bipar-GCN"

    def __init__(
        self,
        hidden_dim: int = 32,
        epochs: int = 150,
        learning_rate: float = 0.01,
        seed: int = 0,
    ) -> None:
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.seed = seed
        self._fitted = False

    def fit(self, features: np.ndarray, medication_use: np.ndarray) -> "BiparGCN":
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(medication_use, dtype=np.int64)
        self._check_fit_inputs(x, y)
        rng = np.random.default_rng(self.seed)
        m, n = y.shape
        self._x_train = x
        self._num_drugs = n
        self._drug_onehot = np.eye(n)

        hidden = self.hidden_dim
        # Input transforms.
        self._patient_in = Linear(x.shape[1], hidden, rng)
        self._drug_in = Linear(n, hidden, rng)
        # Patient-oriented tower: self + aggregated drug messages.
        self._patient_tower = Linear(2 * hidden, hidden, rng)
        # Drug-oriented tower: self + aggregated patient messages.
        self._drug_tower = Linear(2 * hidden, hidden, rng)

        # Row-normalized aggregation matrices (mean over neighbours),
        # dense or CSR per the density rule.
        self._p_agg = mean_adjacency(y.astype(np.float64))   # (m, n)
        self._d_agg = mean_adjacency(y.T.astype(np.float64))  # (n, m)

        params = (
            self._patient_in.parameters()
            + self._drug_in.parameters()
            + self._patient_tower.parameters()
            + self._drug_tower.parameters()
        )
        x_t = Tensor(x)
        d_t = Tensor(self._drug_onehot)

        def step(state: TrainState, batch: PairBatch) -> Tensor:
            h_p, h_d = self._encode(x_t, d_t)
            logits = (
                gather_rows(h_p, batch.rows) * gather_rows(h_d, batch.cols)
            ).sum(axis=1)
            return bce_with_logits(logits, batch.labels)

        loader = PairNegativeSampler(np.argwhere(y == 1), *np.nonzero(y == 0))
        state = TrainState(params, Adam(params, lr=self.learning_rate), rng)
        log = Trainer(self.epochs).fit(step, state, loader)
        self._training_log = log
        self._losses = log.losses
        self._fitted = True
        return self

    def _encode(self, x_t: Tensor, d_t: Tensor):
        e_p = self._patient_in(x_t).leaky_relu()
        e_d = self._drug_in(d_t).leaky_relu()
        msg_from_drugs = matmul_fixed(self._p_agg, e_d)
        msg_from_patients = matmul_fixed(self._d_agg, e_p)
        h_p = self._patient_tower(concat([e_p, msg_from_drugs], axis=1)).leaky_relu()
        h_d = self._drug_tower(concat([e_d, msg_from_patients], axis=1)).leaky_relu()
        return h_p, h_d

    def predict_scores(self, features: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("call fit() first")
        x = np.asarray(features, dtype=np.float64)
        _h_p, h_d = self._encode(Tensor(self._x_train), Tensor(self._drug_onehot))
        # Unobserved patients: self path with a zero drug-message aggregate.
        e_new = self._patient_in(Tensor(x)).leaky_relu()
        zero_msg = Tensor(np.zeros((x.shape[0], self.hidden_dim)))
        h_new = self._patient_tower(concat([e_new, zero_msg], axis=1)).leaky_relu()
        scores = h_new.numpy() @ h_d.numpy().T
        return 1.0 / (1.0 + np.exp(-scores))
