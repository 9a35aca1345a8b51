"""DSSDDI: the full decision support system (Fig. 4).

Wires the three modules together behind a scikit-learn-style API:

    system = DSSDDI(config)
    system.fit(x_train, y_train, ddi_dataset)
    suggestions = system.suggest(x_new, k=3)      # ranked drug ids
    explanation = system.explain(suggestions[0])  # MS-module output
    scores = system.predict_scores(x_test)        # raw score matrix
    system.save("model_dir")                      # fit once ...
    system = DSSDDI.load("model_dir")             # ... serve many

Drug original features follow the Table II ablation switch in the MD
config: DRKG TransE embeddings ("kg", the paper's default input), one-hot
("onehot"), or the DDIGCN relation embeddings themselves ("ddigcn").

For request-oriented serving (batched scoring, explanation caching) wrap
a fitted or loaded system in :class:`repro.serving.SuggestionService`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.catalog import drug_names
from ..data.ddi import DDIDataset
from ..data.drkg import pretrained_drug_embeddings
from .config import DSSDDIConfig
from .ddi_module import DDIModule, DDITrainingLog
from .md_module import MDModule, MDTrainingLog
from .ms_module import Explanation, MSModule


@dataclass
class FitReport:
    """Training logs of both learned modules."""

    ddi_log: Optional[DDITrainingLog]
    md_log: MDTrainingLog

    def training_summary(self) -> Dict[str, Dict[str, object]]:
        """Manifest-ready per-module convergence summary.

        One entry per trained module (``"md"``, plus ``"ddi"`` when the
        DDIGCN ran) with the engine-level facts — epochs run, final
        loss, wall seconds, early-stop epoch, checkpoints written, and
        the checkpoint epoch a resumed run continued from.
        """
        summary = {"md": self.md_log.train.to_dict()}
        if self.ddi_log is not None:
            summary["ddi"] = self.ddi_log.train.to_dict()
        return summary


class DSSDDI:
    """The decision support system of the paper (Definition 1).

    Train once, then either score in-process or persist the fitted state
    and serve it through :class:`repro.serving.SuggestionService`::

        system = DSSDDI(DSSDDIConfig.fast())
        system.fit(x_train, y_train, ddi_dataset)

        suggestions = system.suggest(x_new, k=3)       # ranked drug ids
        explanation = system.explain(suggestions[0])   # MS-module output
        scores = system.predict_scores(x_test)         # raw score matrix

        system.save("model_dir")                       # .npz + JSON artifact
        reloaded = DSSDDI.load("model_dir")            # scores bitwise-equal

    A loaded system restores the full serving surface (``predict_scores``,
    ``suggest``, ``explain``, ``suggest_and_explain``, the representation
    accessors) but not the DDIGCN training state: ``ddi_module`` is None
    until :meth:`fit` is called again.
    """

    def __init__(
        self,
        config: Optional[DSSDDIConfig] = None,
        drug_feature_matrix: Optional[np.ndarray] = None,
    ) -> None:
        """``drug_feature_matrix`` overrides the drug original features
        (otherwise chosen by ``config.md.drug_embedding_mode``)."""
        self.config = config or DSSDDIConfig()
        self.config.validate()
        self._drug_feature_override = drug_feature_matrix
        self.ddi_module: Optional[DDIModule] = None
        self.md_module: Optional[MDModule] = None
        self.ms_module: Optional[MSModule] = None
        self._ddi_data: Optional[DDIDataset] = None
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(
        self,
        patient_features: np.ndarray,
        medication_use: np.ndarray,
        ddi: DDIDataset,
        num_clusters: Optional[int] = None,
        kg_dim: int = 64,
        kg_epochs: int = 10,
        checkpoint_dir=None,
        checkpoint_every: int = 0,
    ) -> FitReport:
        """Train the DDI and MD modules and prepare the MS module.

        Args:
            patient_features: (m, d1) observed (training) patient features.
            medication_use: (m, n) observed medication matrix.
            ddi: the DDI dataset (graph + catalog).
            num_clusters: treatment clustering K (default: number of
                chronic disease classes in the catalog).
            kg_dim / kg_epochs: TransE settings when the drug-embedding
                mode is "kg" (the paper uses dim 400; smaller is faster and
                does not change the qualitative Table II ordering).
            checkpoint_dir: when set, each module checkpoints its
                :class:`repro.train.TrainState` under ``<dir>/ddi`` and
                ``<dir>/md`` every ``checkpoint_every`` epochs (every
                epoch when left at 0), and a
                re-run resumes from the newest checkpoint instead of
                restarting (bitwise-identical result, see
                ``tests/train/test_resume.py``).  MD checkpoints embed a
                servable artifact snapshot, so
                :func:`repro.server.publish_artifact` can publish the
                best-so-far model straight from a checkpoint.
        """
        cfg = self.config
        n_drugs = ddi.graph.num_nodes
        self._ddi_data = ddi
        checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None

        # Table II ablation: the mode selects which embedding is *added* to
        # the final drug representation — DDIGCN output, one-hot, KG
        # (TransE) or nothing — with the rest of the system held fixed.
        mode = cfg.md.drug_embedding_mode
        ddi_log: Optional[DDITrainingLog] = None
        ddi_embeddings: Optional[np.ndarray] = None
        self.ddi_module = DDIModule(cfg.ddi)
        if mode == "ddigcn":
            ddi_log = self.ddi_module.fit(
                ddi.graph,
                checkpoint_dir=(
                    checkpoint_dir / "ddi" if checkpoint_dir else None
                ),
                checkpoint_every=checkpoint_every,
            )
            ddi_embeddings = self.ddi_module.drug_embeddings()
        elif mode == "onehot":
            ddi_embeddings = np.eye(n_drugs)
        elif mode == "kg":
            kg = pretrained_drug_embeddings(dim=kg_dim, epochs=kg_epochs, seed=cfg.ddi.seed)
            ddi_embeddings = kg[:n_drugs]
        elif mode == "none":
            ddi_embeddings = None

        if self._drug_feature_override is not None:
            drug_features = np.asarray(self._drug_feature_override, dtype=np.float64)
        else:
            # Original drug features z_v (Eq. 10) are held fixed across the
            # Table II variants — the ablation varies only the embedding
            # *added* to h'_v.  The paper uses DRKG pre-trained features
            # here; we substitute one-hot ids (DESIGN.md section 2).
            drug_features = np.eye(n_drugs)

        if num_clusters is None:
            diseases = {d.disease for d in ddi.catalog}
            num_clusters = len(diseases)

        self.md_module = MDModule(cfg.md)
        md_log = self.md_module.fit(
            patient_features,
            medication_use,
            drug_features,
            ddi.graph,
            ddi_embeddings,
            num_clusters=num_clusters,
            checkpoint_dir=(checkpoint_dir / "md" if checkpoint_dir else None),
            checkpoint_every=checkpoint_every,
            # Each MD checkpoint also embeds a servable snapshot of the
            # whole system, publishable via repro.server.publish_artifact.
            checkpoint_extra=(
                self._write_servable_snapshot if checkpoint_dir else None
            ),
        )
        self.ms_module = MSModule(ddi.graph, cfg.ms, drug_names=drug_names(ddi.catalog))
        self._fitted = True
        return FitReport(ddi_log=ddi_log, md_log=md_log)

    def _write_servable_snapshot(self, directory) -> None:
        """Embed a loadable artifact of the current weights (checkpoints).

        Called inside the atomic checkpoint write with the in-flight
        checkpoint directory; the snapshot lands in ``<ckpt>/artifact``
        and is what lets the model registry serve the best-so-far model
        of a still-running (or killed) fit.
        """
        from ..serving.artifact import save_artifact

        save_artifact(self, Path(directory) / "artifact")

    # ------------------------------------------------------------------
    # Persistence (fit once, serve many — see repro.serving)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Serialize all fitted state to an ``.npz`` + JSON artifact.

        ``path`` becomes a directory holding ``manifest.json`` (config,
        catalog, format version) and ``arrays.npz`` (model weights, fitted
        K-means, treatment machinery, DDI graph edges).  Reload with
        :meth:`DSSDDI.load` or serve directly with
        ``repro.serving.SuggestionService.load(path)``.
        """
        self._require_fitted()
        from ..serving.artifact import save_artifact

        save_artifact(self, path)

    @classmethod
    def load(cls, path, mmap_mode=None, verify=True) -> "DSSDDI":
        """Rebuild a fitted system from a :meth:`save` artifact.

        The restored system's :meth:`predict_scores` is bitwise identical
        to the saved one's; no retraining or RNG is involved.
        ``mmap_mode="r"`` memory-maps the stored arrays instead of
        copying them — processes loading the same artifact then share
        one physical copy of the weights through the page cache (this is
        how ``repro-serve --workers N`` keeps N workers at ~1x RSS).
        ``verify`` (default on) checks the stored arrays against the
        manifest's SHA-256 digests and raises
        :class:`repro.serving.artifact.ArtifactIntegrityError` if the
        artifact was corrupted after saving.
        """
        from ..serving.artifact import load_system

        return load_system(path, mmap_mode=mmap_mode, verify=verify)

    @classmethod
    def _from_artifact(
        cls,
        config: DSSDDIConfig,
        md_module: MDModule,
        ddi_data: DDIDataset,
    ) -> "DSSDDI":
        """Assemble a fitted system from deserialized parts (no training)."""
        system = cls(config)
        system.md_module = md_module
        system._ddi_data = ddi_data
        system.ms_module = MSModule(
            ddi_data.graph, config.ms, drug_names=drug_names(ddi_data.catalog)
        )
        system._fitted = True
        return system

    @property
    def ddi_data(self) -> Optional[DDIDataset]:
        """The DDI dataset the system was fitted on (graph + catalog)."""
        return self._ddi_data

    # ------------------------------------------------------------------
    def predict_scores(self, patient_features: np.ndarray) -> np.ndarray:
        """Suggestion scores (n_patients, n_drugs)."""
        self._require_fitted()
        return self.md_module.predict_scores(patient_features)

    def suggest(self, patient_features: np.ndarray, k: int) -> List[List[int]]:
        """Top-k drug suggestions per patient (Definition 3)."""
        from ..metrics import top_k_indices

        scores = self.predict_scores(np.atleast_2d(patient_features))
        return [row.tolist() for row in top_k_indices(scores, k)]

    def explain(self, suggested: Sequence[int]) -> Explanation:
        """MS-module explanation for one suggestion (Definition 4)."""
        self._require_fitted()
        return self.ms_module.explain(suggested)

    def suggest_and_explain(
        self, patient_features: np.ndarray, k: int
    ) -> List[Explanation]:
        """System output (Fig. 4): suggestions with their explanations."""
        return [self.explain(s) for s in self.suggest(patient_features, k)]

    # ------------------------------------------------------------------
    def patient_representations(self, patient_features: np.ndarray) -> np.ndarray:
        """Pre-propagation patient representations h_u (what the decoder sees)."""
        self._require_fitted()
        return self.md_module.patient_representations(patient_features)

    def drug_representations(self) -> np.ndarray:
        """Final drug representations h'_v (propagated + DDI embedding)."""
        self._require_fitted()
        return self.md_module.drug_representations()

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("call fit() first")
