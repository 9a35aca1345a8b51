"""Table IV: validation on the (synthetic) MIMIC-III diagnostic data.

Multi-visit EHR protocol: previous visits' diagnoses/procedures are the
patient features, the last visit's medications the label.  The downloaded
MIMIC DDI data contains only antagonistic pairs between anonymous drugs,
so signed backbones are unavailable and only DSSDDI(GIN) is reported —
exactly as in the paper.  Metrics: P/R/NDCG at k in {4, 6, 8}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..baselines import (
    BiparGCN,
    CauseRec,
    ECC,
    GCMCRecommender,
    LightGCNRecommender,
    SafeDrug,
    SVMRecommender,
    UserSim,
)
from ..core import DDIModule, MDModule
from ..core.config import DDIGCNConfig, MDGCNConfig
from ..data import (
    MimicDataset,
    Split,
    generate_mimic,
    split_patients,
    visit_step_features,
)
from ..metrics import ndcg_at_k, precision_at_k, recall_at_k
from ..pipeline import experiment, stage
from .common import Scale, format_table

KS = (4, 6, 8)

TABLE4_METHODS = (
    "UserSim",
    "ECC",
    "SVM",
    "GCMC",
    "LightGCN",
    "SafeDrug",
    "Bipar-GCN",
    "CauseRec",
    "DSSDDI(GIN)",
)


@dataclass
class Table4Result:
    """metric[method][k] = {precision, recall, ndcg} on synthetic MIMIC."""

    metrics: Dict[str, Dict[int, Dict[str, float]]]
    scores: Dict[str, np.ndarray]

    def best_method_at(self, metric: str, k: int) -> str:
        return max(self.metrics, key=lambda m: self.metrics[m][k][metric])

    def render(self) -> str:
        ks = sorted(next(iter(self.metrics.values())))
        headers = ["Method"] + [
            f"{metric}@{k}" for k in ks for metric in ("P", "R", "NDCG")
        ]
        rows = []
        for method, by_k in self.metrics.items():
            row = [method]
            for k in ks:
                entry = by_k[k]
                row.extend([entry["precision"], entry["recall"], entry["ndcg"]])
            rows.append(row)
        return format_table(headers, rows)


def _dssddi_gin_scores(
    data: MimicDataset,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    scale: Scale,
) -> np.ndarray:
    """DSSDDI with the GIN backbone on the antagonism-only MIMIC DDI."""
    ddi_module = DDIModule(
        DDIGCNConfig(
            backbone="gin", hidden_dim=scale.hidden_dim, epochs=scale.ddi_epochs
        )
    )
    ddi_module.fit(data.ddi)
    md = MDModule(MDGCNConfig(hidden_dim=scale.hidden_dim, epochs=scale.md_epochs))
    md.fit(
        data.features[train_idx],
        data.labels[train_idx],
        np.eye(data.num_drugs),
        data.ddi,
        ddi_module.drug_embeddings(),
        num_clusters=10,
    )
    return md.predict_scores(data.features[test_idx])


@dataclass
class MimicExperimentData:
    """Synthetic MIMIC cohort + split + visit-step feature views."""

    data: MimicDataset
    split: Split
    steps_all: List[np.ndarray]

    @property
    def x_train(self) -> np.ndarray:
        """Training-visit features of the train patients."""
        return self.data.features[self.split.train]

    @property
    def y_train(self) -> np.ndarray:
        """Last-visit medication labels of the train patients."""
        return self.data.labels[self.split.train]

    @property
    def x_test(self) -> np.ndarray:
        """Training-visit features of the held-out patients."""
        return self.data.features[self.split.test]

    @property
    def y_test(self) -> np.ndarray:
        """Last-visit medication labels of the held-out patients."""
        return self.data.labels[self.split.test]


def load_mimic(scale: Scale, num_patients: Optional[int] = None) -> MimicExperimentData:
    """Generate the synthetic MIMIC cohort at the requested scale."""
    n = num_patients or min(scale.num_patients * 2, 6350)
    data = generate_mimic(num_patients=n, seed=scale.seed + 7)
    split = split_patients(n, seed=scale.seed + 8)
    steps_all = visit_step_features(data, max_visits=3)
    return MimicExperimentData(data=data, split=split, steps_all=steps_all)


def compute_table4_scores(
    bundle: MimicExperimentData,
    scale: Scale,
    methods: Optional[Sequence[str]] = None,
) -> Dict[str, np.ndarray]:
    """Fit/score phase: held-out score matrix per Table IV method."""
    data, split = bundle.data, bundle.split
    x_train, y_train = bundle.x_train, bundle.y_train
    x_test = bundle.x_test
    steps_train = [s[split.train] for s in bundle.steps_all]
    steps_test = [s[split.test] for s in bundle.steps_all]

    h = max(16, scale.hidden_dim // 2)

    def run_simple(model) -> np.ndarray:
        model.fit(x_train, y_train)
        return model.predict_scores(x_test)

    def run_safedrug() -> np.ndarray:
        model = SafeDrug(hidden_dim=h, epochs=scale.gnn_epochs, ddi_graph=data.ddi)
        model.fit(x_train, y_train, visit_steps=steps_train)
        return model.predict_scores(x_test, visit_steps=steps_test)

    factories = {
        "UserSim": lambda: run_simple(UserSim()),
        "ECC": lambda: run_simple(ECC(num_chains=2, max_iter=scale.classic_epochs)),
        "SVM": lambda: run_simple(SVMRecommender(epochs=max(10, scale.classic_epochs // 2))),
        "GCMC": lambda: run_simple(
            GCMCRecommender(hidden_dim=h, out_dim=h, epochs=scale.gnn_epochs)
        ),
        "LightGCN": lambda: run_simple(
            LightGCNRecommender(hidden_dim=h, epochs=scale.gnn_epochs)
        ),
        "SafeDrug": run_safedrug,
        "Bipar-GCN": lambda: run_simple(BiparGCN(hidden_dim=h, epochs=scale.gnn_epochs)),
        "CauseRec": lambda: run_simple(CauseRec(hidden_dim=h, epochs=scale.gnn_epochs)),
        "DSSDDI(GIN)": lambda: _dssddi_gin_scores(data, split.train, split.test, scale),
    }
    chosen = list(methods) if methods is not None else list(TABLE4_METHODS)
    unknown = set(chosen) - set(factories)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    return {name: factories[name]() for name in chosen}


def compute_table4(
    bundle: MimicExperimentData,
    scores: Dict[str, np.ndarray],
    ks: Sequence[int] = KS,
) -> Table4Result:
    """Metric phase: P/R/NDCG@k per method on the MIMIC held-out split."""
    y_test = bundle.y_test
    metrics: Dict[str, Dict[int, Dict[str, float]]] = {}
    for name, score in scores.items():
        metrics[name] = {
            k: {
                "precision": precision_at_k(score, y_test, k),
                "recall": recall_at_k(score, y_test, k),
                "ndcg": ndcg_at_k(score, y_test, k),
            }
            for k in ks
        }
    return Table4Result(metrics=metrics, scores=scores)


def run_table4(
    scale: Optional[Scale] = None,
    methods: Optional[Sequence[str]] = None,
    num_patients: Optional[int] = None,
    ks: Sequence[int] = KS,
) -> Table4Result:
    """Regenerate Table IV at the requested scale."""
    scale = scale or Scale.small()
    bundle = load_mimic(scale, num_patients=num_patients)
    scores = compute_table4_scores(bundle, scale, methods)
    return compute_table4(bundle, scores, ks=ks)


@stage("table4.data", params=("scale",), cacheable=False)
def stage_table4_data(ctx) -> MimicExperimentData:
    """Seeded MIMIC cohort + split (recomputing beats deserializing)."""
    return load_mimic(ctx.scale)


@stage("table4.scores", inputs=("table4.data",), serializer="npz")
def stage_table4_scores(ctx, bundle: MimicExperimentData) -> Dict[str, np.ndarray]:
    """Pipeline fit/score stage (the nine Table IV methods)."""
    return compute_table4_scores(bundle, ctx.scale)


@experiment(
    "table4", stage="table4.result",
    title="Table IV - medication suggestion (synthetic MIMIC-III)",
)
@stage("table4.result", inputs=("table4.data", "table4.scores"))
def stage_table4(ctx, bundle: MimicExperimentData, scores) -> Table4Result:
    """Pipeline metric stage over the cached MIMIC scores."""
    return compute_table4(bundle, scores, ks=KS)
