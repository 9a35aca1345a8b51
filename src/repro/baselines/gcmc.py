"""GCMC baseline (van den Berg et al., 2017), inductive variant.

The encoder passes messages over the observed patient-drug graph with a
per-channel weight matrix and a dense output layer that also consumes the
node's own features — which is what lets unobserved patients (no links,
features only) be scored at test time.
"""

from __future__ import annotations

import numpy as np

from ..gnn import BilinearDecoder, GCMCEncoder, bipartite_propagation
from ..graph import BipartiteGraph
from ..nn import Adam, Tensor, bce_with_logits, concat, gather_rows
from ..train import PairBatch, PairNegativeSampler, TrainState, Trainer
from .base import Recommender, register


@register
class GCMCRecommender(Recommender):
    """Graph convolutional matrix completion with a bilinear decoder."""

    name = "GCMC"

    def __init__(
        self,
        hidden_dim: int = 32,
        out_dim: int = 32,
        epochs: int = 150,
        learning_rate: float = 0.01,
        seed: int = 0,
    ) -> None:
        self.hidden_dim = hidden_dim
        self.out_dim = out_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.seed = seed
        self._fitted = False

    def fit(
        self, features: np.ndarray, medication_use: np.ndarray
    ) -> "GCMCRecommender":
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(medication_use, dtype=np.int64)
        self._check_fit_inputs(x, y)
        rng = np.random.default_rng(self.seed)
        m, n = y.shape
        self._x_train = x
        self._num_drugs = n
        self._drug_onehot = np.eye(n)

        self._encoder = GCMCEncoder(
            patient_dim=x.shape[1],
            drug_dim=n,
            hidden_dim=self.hidden_dim,
            out_dim=self.out_dim,
            num_channels=1,
            rng=rng,
        )
        self._decoder = BilinearDecoder(self.out_dim, rng)
        graph = BipartiteGraph.from_matrix(y)
        self._channels = [bipartite_propagation(graph)]

        params = self._encoder.parameters() + self._decoder.parameters()
        x_t = Tensor(x)
        d_t = Tensor(self._drug_onehot)

        def step(state: TrainState, batch: PairBatch) -> Tensor:
            h_p, h_d = self._encoder(x_t, d_t, self._channels)
            pair_scores = (
                (gather_rows(h_p, batch.rows) @ self._decoder.interaction)
                * gather_rows(h_d, batch.cols)
            ).sum(axis=1)
            return bce_with_logits(pair_scores, batch.labels)

        loader = PairNegativeSampler(np.argwhere(y == 1), *np.nonzero(y == 0))
        state = TrainState(params, Adam(params, lr=self.learning_rate), rng)
        log = Trainer(self.epochs).fit(step, state, loader)
        self._training_log = log
        self._losses = log.losses
        self._fitted = True
        return self

    def predict_scores(self, features: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("call fit() first")
        x = np.asarray(features, dtype=np.float64)
        # Drug embeddings from the training graph.
        _h_p, h_d = self._encoder(
            Tensor(self._x_train), Tensor(self._drug_onehot), self._channels
        )
        # Unobserved patients receive no messages: the encoder's dense layer
        # sees zero aggregate + their own features.
        zero_msg = Tensor(np.zeros((x.shape[0], self.hidden_dim)))
        h_new = self._encoder.patient_dense(
            concat([zero_msg, Tensor(x)], axis=1)
        ).relu()
        scores = self._decoder(h_new, h_d).numpy()
        return 1.0 / (1.0 + np.exp(-scores))
