"""The Drug-Drug Interaction module (Sec. IV-A).

Trains DDIGCN — a GNN over the signed DDI graph — as an *edge regressor*:
the inner product of two drug embeddings must match the edge sign
(+1 synergy, -1 antagonism, 0 sampled no-interaction), Eq. 5-6.  The
learned drug relation embeddings are shared with the MD module.

Backbones: GIN (Eq. 1), SGCN (Eq. 2-4), SiGAT, SNEA — selected by config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..data.ddi import add_no_interaction_edges
from ..gnn import (
    GINEncoder,
    SGCNEncoder,
    SiGATEncoder,
    SNEAEncoder,
    interaction_mean_adjacency,
    signed_edge_arrays,
    signed_mean_adjacencies,
)
from ..graph import SignedGraph
from ..nn import Adam, Tensor, gather_rows, mse_loss
from ..train import Callback, TrainState, Trainer, TrainingLog, fit_or_resume
from .config import DDIGCNConfig


@dataclass
class DDITrainingLog:
    """Loss trace of DDIGCN training."""

    losses: List[float]
    #: The underlying engine log (epochs run, wall time, resume info).
    train: TrainingLog = field(default_factory=TrainingLog)

    @property
    def final_loss(self) -> float:
        """Loss of the last training epoch."""
        return self.losses[-1]


class DDIModule:
    """Learn drug relation embeddings from the signed DDI graph.

    Usage::

        module = DDIModule(config)
        log = module.fit(ddi_graph)
        z = module.drug_embeddings()   # (num_drugs, hidden_dim)
    """

    def __init__(self, config: Optional[DDIGCNConfig] = None) -> None:
        self.config = config or DDIGCNConfig()
        self.config.validate()
        self._encoder = None
        self._graph: Optional[SignedGraph] = None
        self._embeddings: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def fit(
        self,
        graph: SignedGraph,
        callbacks: Sequence[Callback] = (),
        checkpoint_dir=None,
        checkpoint_every: int = 0,
    ) -> DDITrainingLog:
        """Train DDIGCN on ``graph`` and cache the final embeddings.

        ``callbacks`` extend the :class:`repro.train.Trainer` loop (early
        stopping, loss logging, ...).  With ``checkpoint_dir`` set the
        run checkpoints every ``checkpoint_every`` epochs (every epoch
        when left at 0) and resumes from an existing checkpoint instead
        of restarting.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        # Sec. IV-A1: augment with explicit "no interaction" edges.
        train_graph = add_no_interaction_edges(graph, cfg.zero_edge_ratio, rng)
        self._graph = train_graph
        n = train_graph.num_nodes

        # One-hot ID embeddings as original features (Sec. IV-A1).
        features = Tensor(np.eye(n))

        encoder, forward = self._build_encoder(train_graph, rng)
        self._encoder = encoder
        self._forward = forward

        src, dst, sign_ints = train_graph.edge_arrays()
        signs = Tensor(sign_ints.astype(np.float64))

        def step(state: TrainState, _batch) -> Tensor:
            z = forward(features)
            # Eq. 5: edge score as inner product of endpoint embeddings.
            scores = (gather_rows(z, src) * gather_rows(z, dst)).sum(axis=1)
            return mse_loss(scores, signs)  # Eq. 6

        state = TrainState(
            encoder.parameters(),
            Adam(encoder.parameters(), lr=cfg.learning_rate),
            rng,
        )
        log = fit_or_resume(
            Trainer(cfg.epochs),
            step,
            state,
            callbacks=callbacks,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )

        encoder.eval()
        self._embeddings = forward(features).numpy().copy()
        encoder.train()
        return DDITrainingLog(losses=log.losses, train=log)

    # ------------------------------------------------------------------
    def _build_encoder(self, graph: SignedGraph, rng: np.random.Generator):
        """Instantiate the configured backbone and a closure running it."""
        cfg = self.config
        n = graph.num_nodes
        if cfg.backbone == "gin":
            adjacency = interaction_mean_adjacency(graph, include_zero=True)
            encoder = GINEncoder(n, cfg.hidden_dim, cfg.num_layers, rng)
            return encoder, lambda x: encoder(x, adjacency)
        if cfg.backbone == "sgcn":
            pos, neg = signed_mean_adjacencies(graph)
            encoder = SGCNEncoder(n, cfg.hidden_dim, cfg.num_layers, rng)
            return encoder, lambda x: encoder(x, pos, neg)
        if cfg.backbone == "sigat":
            src, dst, signs = signed_edge_arrays(graph)
            encoder = SiGATEncoder(n, cfg.hidden_dim, cfg.num_layers, rng)
            return encoder, lambda x: encoder(x, src, dst, signs, n)
        if cfg.backbone == "snea":
            src, dst, signs = signed_edge_arrays(graph)
            encoder = SNEAEncoder(n, cfg.hidden_dim, cfg.num_layers, rng)
            return encoder, lambda x: encoder(x, src, dst, signs, n)
        raise ValueError(f"unknown backbone {cfg.backbone!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    def drug_embeddings(self) -> np.ndarray:
        """The learned (num_drugs, hidden_dim) relation embeddings."""
        if self._embeddings is None:
            raise RuntimeError("call fit() before drug_embeddings()")
        return self._embeddings

    def edge_scores(self, pairs: List[Tuple[int, int]]) -> np.ndarray:
        """Predicted interaction scores for drug pairs (Eq. 5)."""
        z = self.drug_embeddings()
        return np.array([float(z[u] @ z[v]) for u, v in pairs])
