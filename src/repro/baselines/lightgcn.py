"""LightGCN baseline (He et al., SIGIR 2020), inductive variant.

Layer-0 embeddings come from feature transforms (patients have no ids at
test time — the evaluation protocol scores *unobserved* patients), then the
parameter-free LightGCN propagation runs over the observed patient-drug
graph and scores are inner products.  Both patient and drug representations
pass through the propagation — the over-smoothing behaviour the paper
analyses in Fig. 7 comes precisely from this design.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..gnn import LightGCNPropagation, bipartite_propagation, default_layer_weights
from ..graph import BipartiteGraph
from ..nn import Adam, Linear, Tensor, bce_with_logits, gather_rows
from ..train import PairBatch, PairNegativeSampler, TrainState, Trainer
from .base import Recommender, register


@register
class LightGCNRecommender(Recommender):
    """Feature-inductive LightGCN trained with BCE and negative sampling."""

    name = "LightGCN"

    def __init__(
        self,
        hidden_dim: int = 32,
        num_layers: int = 2,
        epochs: int = 150,
        learning_rate: float = 0.01,
        seed: int = 0,
    ) -> None:
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.seed = seed
        self._fitted = False
        self._rep_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def fit(
        self, features: np.ndarray, medication_use: np.ndarray
    ) -> "LightGCNRecommender":
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(medication_use, dtype=np.int64)
        self._check_fit_inputs(x, y)
        rng = np.random.default_rng(self.seed)
        m, n = y.shape

        self._x_train = x
        self._num_drugs = n
        self._rep_cache = None  # invalidate: a refit changes every weight
        self._patient_fc = Linear(x.shape[1], self.hidden_dim, rng)
        self._drug_fc = Linear(n, self.hidden_dim, rng)  # one-hot drug ids
        self._drug_onehot = np.eye(n)
        self._propagation = LightGCNPropagation(
            self.num_layers, default_layer_weights(self.num_layers)
        )
        graph = BipartiteGraph.from_matrix(y)
        self._p2d, self._d2p = bipartite_propagation(graph)

        params = self._patient_fc.parameters() + self._drug_fc.parameters()
        x_t = Tensor(x)
        d_t = Tensor(self._drug_onehot)

        def step(state: TrainState, batch: PairBatch) -> Tensor:
            h_p, h_d = self._encode(x_t, d_t)
            logits = (
                gather_rows(h_p, batch.rows) * gather_rows(h_d, batch.cols)
            ).sum(axis=1)
            return bce_with_logits(logits, batch.labels)

        loader = PairNegativeSampler(
            np.argwhere(y == 1), *np.nonzero(y == 0)
        )
        state = TrainState(params, Adam(params, lr=self.learning_rate), rng)
        log = Trainer(self.epochs).fit(step, state, loader)
        self._training_log = log
        self._losses = log.losses
        self._fitted = True
        # Post-propagation representations over the *training* graph are
        # fixed once training ends; computing them here (instead of on
        # every predict_scores call) makes repeated scoring O(new
        # patients) instead of O(full training graph) — see
        # benchmarks/test_bench_train.py for the enforced speedup.
        self._fitted_representations()
        return self

    def _encode(self, x_t: Tensor, d_t: Tensor):
        h_p0 = self._patient_fc(x_t)
        h_d0 = self._drug_fc(d_t)
        return self._propagation(h_p0, h_d0, self._p2d, self._d2p)

    def _fitted_representations(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached post-propagation (patients, drugs) representations."""
        if self._rep_cache is None:
            h_p, h_d = self._encode(
                Tensor(self._x_train), Tensor(self._drug_onehot)
            )
            self._rep_cache = (h_p.numpy(), h_d.numpy())
        return self._rep_cache

    def predict_scores(self, features: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("call fit() first")
        x = np.asarray(features, dtype=np.float64)
        # Drug representations after propagation over the *training* graph
        # (cached at fit end — the training graph never changes afterwards).
        _h_p, h_d = self._fitted_representations()
        # New patients have no links: their representation is the layer-0
        # term only (beta_0 * FC(x)); the constant factor does not change
        # the ranking but is kept for score comparability.
        h_new = self._patient_fc(Tensor(x)) * self._propagation.layer_weights[0]
        scores = h_new.numpy() @ h_d.T
        return 1.0 / (1.0 + np.exp(-scores))

    # -- analysis hooks used by the Fig. 7 experiment -------------------
    def patient_representations(self, features: Optional[np.ndarray] = None) -> np.ndarray:
        """Post-propagation patient representations (over-smoothed, Fig. 7a)."""
        if not self._fitted:
            raise RuntimeError("call fit() first")
        h_p, _h_d = self._fitted_representations()
        return h_p.copy()

    def drug_representations(self) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("call fit() first")
        _h_p, h_d = self._fitted_representations()
        return h_d.copy()
