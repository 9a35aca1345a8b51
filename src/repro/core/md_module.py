"""The Medical Decision module (Sec. IV-B).

MDGCN has an encoder and a decoder:

* **Encoder** (Eq. 9-13): two FC layers with LeakyReLU map patients and
  drugs to a shared space; LightGCN-style propagation (no transforms, no
  nonlinearity) over the patient-drug bipartite graph updates the drug
  representations with layer combination beta_t = 1/(t+2).  Crucially the
  *patient* representation used by the decoder is the one **before**
  propagation — this avoids the over-smoothing of patient representations
  the paper demonstrates in Fig. 7.
* The DDI relation embeddings learned by the DDI module are added to the
  final drug representation: h'_v := h'_v + z_v.
* **Decoder** (Eq. 14-15): an MLP over [h_i ⊙ h'_v, T_iv] predicts the
  link probability; the same decoder with the counterfactual treatment
  T^CF predicts the counterfactual outcome.
* **Training** (Eq. 16-18): BCE on factual links (1:1 negative sampling)
  plus delta times BCE on counterfactual links.  Both terms score the
  same sampled pairs and differ only in the treatment column, so each
  step decodes them together: one fused node over the stacked (T, T^CF)
  columns (:func:`repro.nn.fused.pair_interaction_logits`).

Inference for *unobserved* patients re-derives their treatment row from
the fitted K-means clustering and the DDI synergy propagation, then scores
every drug with :func:`score_all_drugs`, the one Eq. 14 inference kernel
(the serving path's :class:`repro.serving.BatchScorer` calls it too).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..causal import (
    build_counterfactual_links,
    build_treatment,
    pairwise_distances,
    suggest_gammas,
)
from ..gnn import (
    LightGCNPropagation,
    bipartite_propagation,
    default_layer_weights,
    synergy_adjacency,
)
from ..graph import BipartiteGraph, SignedGraph
from ..ml import KMeansResult, kmeans
from ..nn import (
    Adam,
    Linear,
    MLP,
    Module,
    Tensor,
    bce_with_logits,
    concat,
    gather_rows,
    stable_sigmoid,
    stack,
)
from ..nn import sparse as sparse_backend
from ..nn.fused import can_fuse_pair_mlp, pair_interaction_logits
from ..train import (
    Callback,
    PairBatch,
    PairNegativeSampler,
    TrainState,
    Trainer,
    TrainingLog,
    fit_or_resume,
)
from .config import MDGCNConfig

#: Patients per block of :func:`score_all_drugs`: 8 x 86 drugs x 65
#: doubles is about 350 KB, which stays in L2 through the GEMMs.
SCORE_BLOCK_PATIENTS = 8


def score_all_drugs(
    h_patients: np.ndarray,
    drug_reps: np.ndarray,
    treatment: np.ndarray,
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    block: int = SCORE_BLOCK_PATIENTS,
) -> np.ndarray:
    """Eq. 14 sigmoid scores (B, n) of ``drug_reps`` for ``h_patients``.

    ``treatment`` holds the (B, n) T_iv; the decoder MLP has ReLU between
    layers and a linear output.  Each block of patients writes
    ``[h_i ⊙ h'_v, T_iv]`` into one per-call workspace and decodes it
    with one GEMM per layer.  Scores are bitwise those of one decode over
    the whole batch: products are elementwise, GEMM rows do not depend on
    the row count (from two rows up), and ``block`` is rounded down to a
    multiple of four because BLAS finishes the last ``rows % 4`` rows of
    the output layer's matrix-vector product in a separate loop; whole
    groups of four patients leave only the batch's last rows there.
    """
    num, width = h_patients.shape
    n = drug_reps.shape[0]
    block = max(1, min(max(4, block - block % 4), num))
    workspace = np.empty((block, n, width + 1))
    out = np.empty((num, n))
    for start in range(0, num, block):
        stop = min(start + block, num)
        ws = workspace[: stop - start]
        np.multiply(h_patients[start:stop, None, :], drug_reps, out=ws[:, :, :width])
        ws[:, :, width] = treatment[start:stop]
        z = ws.reshape(-1, width + 1)
        for layer, (w, b) in enumerate(zip(weights, biases)):
            if layer:
                np.maximum(z, 0.0, out=z)
            z = z @ w
            z += b
        out[start:stop] = stable_sigmoid(z.reshape(stop - start, n))
    return out


def derive_treatment(
    patient_features: np.ndarray, clustering: KMeansResult, cluster_drugs: np.ndarray, synergy
) -> np.ndarray:
    """Treatment rows of unobserved patients (Sec. IV-B1, steps 2-3).

    Each patient inherits the drugs used in its K-means cluster, then the
    drugs one DDI synergy hop away.
    """
    treatment = cluster_drugs[clustering.predict(patient_features)]
    propagated = sparse_backend.matmul(treatment, synergy) > 0
    return np.maximum(treatment, propagated.astype(np.int64))


@dataclass
class MDTrainingLog:
    """Loss traces of MDGCN training."""

    factual_losses: List[float]
    counterfactual_losses: List[float]
    cf_match_rate: float
    #: The underlying engine log (epochs run, wall time, resume info).
    train: TrainingLog = field(default_factory=TrainingLog)

    @property
    def final_loss(self) -> float:
        """Factual BCE of the last training epoch."""
        return self.factual_losses[-1]


class MDModule:
    """Medication-suggestion model with counterfactual augmentation.

    Usage::

        module = MDModule(config)
        module.fit(x_train, y_train, drug_features, ddi_graph, ddi_embeddings)
        scores = module.predict_scores(x_test)     # (n_test, num_drugs)
    """

    def __init__(self, config: Optional[MDGCNConfig] = None) -> None:
        self.config = config or MDGCNConfig()
        self.config.validate()
        self._fitted = False
        self._reset_caches()

    def _reset_caches(self) -> None:
        """Drop the fit-derived hot-path caches (factors, drug reps)."""
        self._factor_cache: Optional[Tuple[np.ndarray, object]] = None
        self._drug_reps_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def fit(
        self,
        patient_features: np.ndarray,
        medication_use: np.ndarray,
        drug_features: np.ndarray,
        ddi_graph: SignedGraph,
        ddi_embeddings: Optional[np.ndarray],
        num_clusters: Optional[int] = None,
        callbacks: Sequence[Callback] = (),
        checkpoint_dir=None,
        checkpoint_every: int = 0,
        checkpoint_extra=None,
    ) -> MDTrainingLog:
        """Train MDGCN on the observed patients.

        Args:
            patient_features: (m, d1) observed patient features (standardized).
            medication_use: (m, n) binary matrix Y of observed links.
            drug_features: (n, d2) original drug features z_v (mode-dependent:
                DRKG embeddings, one-hot, or DDIGCN output).
            ddi_graph: signed DDI graph (treatment propagation + negatives).
            ddi_embeddings: (n, hidden) DDIGCN relation embeddings added to
                the final drug representation; None disables the addition
                (the "w/o DDI" ablation).
            num_clusters: K for the treatment clustering; defaults to the
                config value or 10 (the paper's count of chronic diseases).
            callbacks: extra :class:`repro.train.Callback` hooks for the
                Trainer loop (early stopping, loss logging, ...).
            checkpoint_dir: when set, checkpoint every
                ``checkpoint_every`` epochs (every epoch when left at
                0) and resume from an existing checkpoint instead of
                restarting.
            checkpoint_extra: optional ``writer(dir)`` invoked inside
                each atomic checkpoint write (DSSDDI embeds a servable
                artifact snapshot through this).
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        x = np.asarray(patient_features, dtype=np.float64)
        y = np.asarray(medication_use, dtype=np.int64)
        z = np.asarray(drug_features, dtype=np.float64)
        m, n = y.shape
        if x.shape[0] != m:
            raise ValueError("patient_features and medication_use disagree")
        if z.shape[0] != n:
            raise ValueError("drug_features and medication_use disagree")
        if ddi_graph.num_nodes != n:
            raise ValueError("DDI graph size must match the number of drugs")
        if ddi_embeddings is not None:
            ddi_embeddings = np.asarray(ddi_embeddings, dtype=np.float64)
            if ddi_embeddings.ndim != 2 or ddi_embeddings.shape[0] != n:
                raise ValueError(
                    f"ddi_embeddings must be ({n}, d), got {ddi_embeddings.shape}"
                )

        self._x_train = x
        self._y_train = y
        self._z_drugs = z
        self._ddi_graph = ddi_graph
        self._ddi_embeddings = ddi_embeddings
        self._reset_caches()

        # ---------------- causal model: treatment + counterfactuals -------
        k = num_clusters or cfg.num_clusters or 10
        k = max(1, min(k, m))
        self._kmeans: KMeansResult = kmeans(x, k, seed=cfg.seed)
        assignment = build_treatment(
            x, y, ddi_graph, k, seed=cfg.seed, clusters=self._kmeans.labels
        )
        self._treatment = assignment.matrix

        if cfg.use_counterfactual:
            # One distance matrix per side serves both the gammas and the
            # links; the links threshold them in place, so gammas go first,
            # and both are dropped before training.
            dist_p, dist_d = pairwise_distances(x), pairwise_distances(z)
            gamma_p, gamma_d = cfg.gamma_p, cfg.gamma_d
            if gamma_p is None or gamma_d is None:
                auto_p, auto_d = suggest_gammas(
                    x, z, quantile=cfg.gamma_quantile, dist_p=dist_p, dist_d=dist_d
                )
                gamma_p = gamma_p if gamma_p is not None else auto_p
                gamma_d = gamma_d if gamma_d is not None else auto_d
            links = build_counterfactual_links(
                x, z, self._treatment, y, gamma_p, gamma_d,
                dist_p=dist_p, dist_d=dist_d,
            )
            del dist_p, dist_d
            treatment_cf = links.treatment_cf
            outcome_cf = links.outcome_cf
            cf_match_rate = links.match_rate
        else:
            treatment_cf = self._treatment
            outcome_cf = y
            cf_match_rate = 0.0

        # ---------------- model ------------------------------------------
        d1, d2 = x.shape[1], z.shape[1]
        hidden = cfg.hidden_dim
        self._patient_fc = Linear(d1, hidden, rng)       # Eq. 9
        self._drug_fc = Linear(d2, hidden, rng)          # Eq. 10
        self._propagation = LightGCNPropagation(
            cfg.num_layers, default_layer_weights(cfg.num_layers)
        )
        # Decoder input: [h_i ⊙ h'_v, T_iv]  (Eq. 14)
        self._decoder = MLP([hidden + 1, hidden, 1], rng, activation="relu")
        # Adapter for the shared DDI relation embedding (h'_v += W z_v).
        # A trainable projection lets the decoder exploit the DDI structure
        # without the raw embedding magnitudes swamping h'_v.
        self._ddi_adapter = (
            Linear(ddi_embeddings.shape[1], hidden, rng, bias=False)
            if ddi_embeddings is not None
            else None
        )

        graph = BipartiteGraph.from_matrix(y)
        self._p2d, self._d2p = bipartite_propagation(graph)

        params = (
            self._patient_fc.parameters()
            + self._drug_fc.parameters()
            + self._decoder.parameters()
        )
        if self._ddi_adapter is not None:
            params += self._ddi_adapter.parameters()
        optimizer = Adam(params, lr=cfg.learning_rate)

        positives = np.argwhere(y == 1)
        if len(positives) == 0:
            raise ValueError("medication_use has no positive links to train on")
        zeros_rows, zeros_cols = np.nonzero(y == 0)

        x_t = Tensor(x)
        z_t = Tensor(z)
        # The fused decode's buffers, reused by every step of this fit
        # and freed with it.
        workspace: Dict[str, np.ndarray] = {}

        def step(state: TrainState, batch: PairBatch) -> Tensor:
            # The optimizer updates the weights after this step, so any
            # h'_v cached by a mid-fit predict_scores is stale from here.
            self._drug_reps_cache = None
            h_patients, h_drugs_final = self._encode(x_t, z_t)
            batch_i, batch_v = batch.rows, batch.cols

            # Both Eq. 18 terms decode the same pairs in one node; they
            # differ only in the treatment column (T, then T^CF).
            counterfactual = cfg.use_counterfactual and cfg.delta > 0
            treatments = [self._treatment[batch_i, batch_v]]
            if counterfactual:
                treatments.append(treatment_cf[batch_i, batch_v])
            logits = self._decode(
                h_patients, h_drugs_final, batch_i, batch_v, np.stack(treatments),
                workspace=workspace,
            )
            loss_factual = bce_with_logits(logits[0], batch.labels)

            if counterfactual:
                cf_labels = outcome_cf[batch_i, batch_v].astype(np.float64)
                loss_cf = bce_with_logits(logits[1], cf_labels)
                loss = loss_factual + loss_cf * cfg.delta  # Eq. 18
                state.log("cf", loss_cf.item())
            else:
                loss = loss_factual
                state.log("cf", 0.0)
            state.log("factual", loss_factual.item())
            return loss

        # 1:1 negative sampling per epoch (Sec. IV-B3), full-batch.
        loader = PairNegativeSampler(positives, zeros_rows, zeros_cols)
        state = TrainState(params, optimizer, rng)
        # All derived state exists from here on, so checkpoint snapshots
        # (and the serving path) may export the model mid-training.
        self._fitted = True
        log = fit_or_resume(
            Trainer(cfg.epochs),
            step,
            state,
            loader,
            callbacks=callbacks,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            extra_writer=checkpoint_extra,
        )

        return MDTrainingLog(
            factual_losses=log.history.get("factual", []),
            counterfactual_losses=log.history.get("cf", []),
            cf_match_rate=cf_match_rate,
            train=log,
        )

    # ------------------------------------------------------------------
    def _encode(self, x_t: Tensor, z_t: Tensor) -> Tuple[Tensor, Tensor]:
        """Run Eq. 9-13 (+ DDI addition); returns (h_patients, h'_drugs)."""
        h_patients = self._patient_fc(x_t).leaky_relu()      # Eq. 9
        h_drugs = self._drug_fc(z_t).leaky_relu()            # Eq. 10
        _smoothed_patients, h_drugs_final = self._propagation(
            h_patients, h_drugs, self._p2d, self._d2p
        )
        if self._ddi_embeddings is not None:
            h_drugs_final = h_drugs_final + self._ddi_adapter(
                Tensor(self._ddi_embeddings)
            )
        return h_patients, h_drugs_final

    def _decode(
        self,
        h_patients: Tensor,
        h_drugs: Tensor,
        patient_idx: np.ndarray,
        drug_idx: np.ndarray,
        treatments: np.ndarray,
        *,
        workspace: Optional[Dict[str, np.ndarray]] = None,
    ) -> Tensor:
        """Eq. 14 for training: MLP([h_i ⊙ h'_v, T_iv]) -> logits.

        ``treatments`` is (terms, rows): one treatment column per term
        over the same pairs (the factual T and, for Eq. 18, T^CF); the
        logits come back as (terms, rows).  The standard decoder shape
        decodes every term in one fused pair-op node (one gather, one
        Hadamard product, one shared backward GEMM and scatter per
        side; hand-written backward) — this path scores tens of
        thousands of sampled links per epoch and dominates training
        time; ``workspace`` is the fit's buffer dict for that node.
        Non-standard decoders fall back to the generic op-by-op
        pipeline, one term at a time.  Inference uses
        :func:`score_all_drugs` instead.
        """
        treatments = np.asarray(treatments, dtype=np.float64)
        if can_fuse_pair_mlp(self._decoder):
            return pair_interaction_logits(
                h_patients, h_drugs, patient_idx, drug_idx, treatments,
                self._decoder, workspace=workspace,
            )
        h_i = gather_rows(h_patients, patient_idx)
        h_v = gather_rows(h_drugs, drug_idx)
        interaction = h_i * h_v
        return stack([
            self._decoder(
                concat([interaction, Tensor(t.reshape(-1, 1))], axis=1)
            ).reshape(-1)
            for t in treatments
        ])

    # ------------------------------------------------------------------
    def treatment_for(self, patient_features: np.ndarray) -> np.ndarray:
        """Derive treatment rows for unobserved patients.

        Mirrors the 3-step definition: (1) no observed links, (2) inherit
        the drugs used in the patient's K-means cluster, (3) propagate
        along DDI synergy edges.
        """
        self._require_fitted()
        x = np.asarray(patient_features, dtype=np.float64)
        return derive_treatment(x, self._kmeans, *self._treatment_factors())

    def _treatment_factors(self) -> Tuple[np.ndarray, object]:
        """The two fixed factors of :meth:`treatment_for`, cached after fit.

        Returns the per-cluster drug exposure (K, n) from the observed
        data and the (n, n) synergy adjacency (dense, or CSR when the
        density rule selects sparse).  Both are pure
        functions of the fitted state, so they are computed once and
        reused by every ``treatment_for`` / ``predict_scores`` call and
        shared with :meth:`scoring_state` so the serving path derives
        treatments from the exact same arrays.
        """
        if self._factor_cache is None:
            n = self._y_train.shape[1]
            k = self._kmeans.centers.shape[0]
            cluster_drugs = np.zeros((k, n), dtype=np.int64)
            np.maximum.at(cluster_drugs, self._kmeans.labels, self._y_train)
            synergy = synergy_adjacency(self._ddi_graph)
            self._factor_cache = (cluster_drugs, synergy)
        return self._factor_cache

    def _fitted_drug_reps(self) -> np.ndarray:
        """Final drug representations h'_v, computed once per weight update.

        The encoder output over the *training* graph is fixed after
        training, so re-running Eq. 10-13 (plus the DDI addition) on
        every ``predict_scores`` call is pure waste; the first call pays
        for it and every later call reads the cache.  Each training step
        drops the cache, so scoring from a mid-fit callback never sees
        an earlier epoch's h'_v.
        """
        if self._drug_reps_cache is None:
            _, h_drugs = self._encode(Tensor(self._x_train), Tensor(self._z_drugs))
            self._drug_reps_cache = h_drugs.numpy()
        return self._drug_reps_cache

    def predict_scores(self, patient_features: np.ndarray) -> np.ndarray:
        """Suggestion scores for every drug, per patient (sigmoid probs).

        Uses the cached post-training drug representations (no re-encode
        of the training set) and :func:`score_all_drugs` in blocks of
        ``SCORE_BLOCK_PATIENTS``.
        """
        self._require_fitted()
        x = np.asarray(patient_features, dtype=np.float64)
        treatment = self.treatment_for(x)
        h_new = self._patient_fc(Tensor(x)).leaky_relu().numpy()
        return score_all_drugs(
            h_new, self._fitted_drug_reps(), treatment, *self._decoder_params()
        )

    # ------------------------------------------------------------------
    def patient_representations(self, patient_features: np.ndarray) -> np.ndarray:
        """Pre-propagation patient representations (Fig. 7a input)."""
        self._require_fitted()
        return (
            self._patient_fc(Tensor(np.asarray(patient_features, dtype=np.float64)))
            .leaky_relu()
            .numpy()
        )

    def drug_representations(self) -> np.ndarray:
        """Final drug representations h'_v (Fig. 7b input)."""
        self._require_fitted()
        return self._fitted_drug_reps().copy()

    # ------------------------------------------------------------------
    # Persistence hooks (used by repro.serving.artifact)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, np.ndarray]:
        """All fitted state as a flat ``name -> ndarray`` dict (npz-ready).

        Together with the config and the DDI graph this is sufficient to
        rebuild a module whose :meth:`predict_scores` is bitwise identical
        to this one — see :meth:`from_state`.
        """
        self._require_fitted()
        state: Dict[str, np.ndarray] = {
            "x_train": self._x_train,
            "y_train": self._y_train,
            "z_drugs": self._z_drugs,
            "treatment": self._treatment,
            "kmeans.centers": self._kmeans.centers,
            "kmeans.labels": self._kmeans.labels,
            "kmeans.inertia": np.float64(self._kmeans.inertia),
            "kmeans.iterations": np.int64(self._kmeans.iterations),
            "propagation.layer_weights": np.asarray(
                self._propagation.layer_weights, dtype=np.float64
            ),
        }
        for prefix, module in self._weight_modules().items():
            for name, value in module.state_dict().items():
                state[f"{prefix}.{name}"] = value
        if self._ddi_embeddings is not None:
            state["ddi_embeddings"] = self._ddi_embeddings
        return state

    @classmethod
    def from_state(
        cls,
        config: MDGCNConfig,
        state: Dict[str, np.ndarray],
        ddi_graph: SignedGraph,
    ) -> "MDModule":
        """Rebuild a fitted module from :meth:`export_state` output.

        No training happens: layer shapes are inferred from the stored
        weights, the weights are loaded verbatim, and the propagation
        matrices are recomputed (deterministically) from the stored
        medication-use matrix.
        """
        module = cls(config)
        cfg = module.config
        rng = np.random.default_rng(cfg.seed)  # overwritten by the loads below

        module._x_train = np.asarray(state["x_train"], dtype=np.float64)
        module._y_train = np.asarray(state["y_train"], dtype=np.int64)
        module._z_drugs = np.asarray(state["z_drugs"], dtype=np.float64)
        module._treatment = np.asarray(state["treatment"], dtype=np.int64)
        module._ddi_graph = ddi_graph
        ddi_embeddings = state.get("ddi_embeddings")
        module._ddi_embeddings = (
            np.asarray(ddi_embeddings, dtype=np.float64)
            if ddi_embeddings is not None
            else None
        )
        module._kmeans = KMeansResult(
            centers=np.asarray(state["kmeans.centers"], dtype=np.float64),
            labels=np.asarray(state["kmeans.labels"], dtype=np.int64),
            inertia=float(state["kmeans.inertia"]),
            iterations=int(state["kmeans.iterations"]),
        )

        layer_weights = np.asarray(state["propagation.layer_weights"]).tolist()
        module._propagation = LightGCNPropagation(cfg.num_layers, layer_weights)

        def shape(name: str) -> Tuple[int, ...]:
            return np.asarray(state[name]).shape

        hidden = shape("patient_fc.weight")[1]
        module._patient_fc = Linear(shape("patient_fc.weight")[0], hidden, rng)
        module._drug_fc = Linear(shape("drug_fc.weight")[0], hidden, rng)
        decoder_sizes = [shape("decoder.layer0.weight")[0]]
        layer = 0
        while f"decoder.layer{layer}.weight" in state:
            decoder_sizes.append(shape(f"decoder.layer{layer}.weight")[1])
            layer += 1
        module._decoder = MLP(decoder_sizes, rng, activation="relu")
        module._ddi_adapter = (
            Linear(shape("ddi_adapter.weight")[0], hidden, rng, bias=False)
            if "ddi_adapter.weight" in state
            else None
        )
        for prefix, weight_module in module._weight_modules().items():
            weight_module.load_state_dict(
                {
                    name[len(prefix) + 1 :]: value
                    for name, value in state.items()
                    if name.startswith(prefix + ".")
                }
            )

        graph = BipartiteGraph.from_matrix(module._y_train)
        module._p2d, module._d2p = bipartite_propagation(graph)
        module._fitted = True
        return module

    def _weight_modules(self) -> Dict[str, Module]:
        """The trainable submodules, keyed by their persistence prefix."""
        modules = {
            "patient_fc": self._patient_fc,
            "drug_fc": self._drug_fc,
            "decoder": self._decoder,
        }
        if self._ddi_adapter is not None:
            modules["ddi_adapter"] = self._ddi_adapter
        return modules

    def scoring_state(self) -> Dict[str, object]:
        """Frozen arrays for serving-time vectorized scoring.

        Returns everything :class:`repro.serving.BatchScorer` needs to
        reproduce :meth:`predict_scores` without re-encoding the training
        set on every request:

        * ``patient_weight`` / ``patient_bias``: the Eq. 9 FC layer.
        * ``drug_reps``: the final drug representations h'_v (fixed after
          training — Eq. 10-13 plus the DDI addition).
        * ``decoder_weights`` / ``decoder_biases``: the Eq. 14 MLP, applied
          with ReLU between hidden layers and a linear output.
        * ``cluster_drugs``: per-cluster drug exposure (K, n) from the
          observed data, and ``synergy``: the (n, n) synergy adjacency —
          the two fixed factors of :meth:`treatment_for`, served straight
          from the post-fit cache.  ``synergy`` is CSR when the density
          rule selects sparse, so serving-time treatment derivation
          shares the same fast path.
        """
        self._require_fitted()
        cluster_drugs, synergy = self._treatment_factors()
        weights, biases = self._decoder_params()
        return {
            "patient_weight": self._patient_fc.weight.data.copy(),
            "patient_bias": (
                self._patient_fc.bias.data.copy()
                if self._patient_fc.bias is not None
                else np.zeros(self._patient_fc.out_features)
            ),
            "drug_reps": self.drug_representations(),
            "decoder_weights": [w.copy() for w in weights],
            "decoder_biases": [b.copy() for b in biases],
            "kmeans": self._kmeans,
            "cluster_drugs": cluster_drugs,
            "synergy": synergy,
        }

    def _decoder_params(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """The Eq. 14 MLP's (weights, biases), as :func:`score_all_drugs` takes them."""
        layers = self._decoder.layers
        return [layer.weight.data for layer in layers], [layer.bias.data for layer in layers]

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("call fit() first")
