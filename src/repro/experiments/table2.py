"""Table II: ablation over the drug embedding added to h'_v.

Four variants with the SGCN backbone (the best of Table I):
* ``w/o DDI`` — nothing added,
* ``One-hot`` — one-hot drug ids,
* ``KG`` — TransE embeddings from the (synthetic) DRKG,
* ``DDIGCN`` — the DDI module's learned relation embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..core import DSSDDI
from ..metrics import ndcg_at_k, precision_at_k, recall_at_k
from ..pipeline import experiment, stage
from .common import (
    ChronicExperimentData,
    Scale,
    dssddi_config,
    format_table,
    load_chronic,
)

KS = (1, 2, 3, 4, 5, 6)

VARIANTS = {
    "w/o DDI": "none",
    "One-hot": "onehot",
    "KG": "kg",
    "DDIGCN": "ddigcn",
}


@dataclass
class Table2Result:
    """metric[variant][k] = {precision, recall, ndcg} plus raw scores."""

    metrics: Dict[str, Dict[int, Dict[str, float]]]
    scores: Dict[str, np.ndarray]

    def render(self) -> str:
        ks = sorted(next(iter(self.metrics.values())), reverse=True)
        headers = ["Variant"] + [
            f"{metric}@{k}" for k in ks for metric in ("P", "R", "NDCG")
        ]
        rows = []
        for variant, by_k in self.metrics.items():
            row = [variant]
            for k in ks:
                entry = by_k[k]
                row.extend([entry["precision"], entry["recall"], entry["ndcg"]])
            rows.append(row)
        return format_table(headers, rows)


def compute_table2_scores(
    data: ChronicExperimentData, scale: Scale, backbone: str = "sgcn"
) -> Dict[str, np.ndarray]:
    """Fit/score phase: one DSSDDI fit per drug-embedding variant."""
    scores: Dict[str, np.ndarray] = {}
    for label, mode in VARIANTS.items():
        config = dssddi_config(scale, backbone)
        config.md.drug_embedding_mode = mode
        system = DSSDDI(config)
        system.fit(data.x_train, data.y_train, data.cohort.ddi, kg_epochs=8)
        scores[label] = system.predict_scores(data.x_test)
    return scores


def compute_table2(
    data: ChronicExperimentData,
    scores: Dict[str, np.ndarray],
    ks: Sequence[int] = KS,
) -> Table2Result:
    """Metric phase: P/R/NDCG@k per ablation variant."""
    metrics: Dict[str, Dict[int, Dict[str, float]]] = {}
    for label, score in scores.items():
        metrics[label] = {
            k: {
                "precision": precision_at_k(score, data.y_test, k),
                "recall": recall_at_k(score, data.y_test, k),
                "ndcg": ndcg_at_k(score, data.y_test, k),
            }
            for k in ks
        }
    return Table2Result(metrics=metrics, scores=scores)


def run_table2(
    scale: Optional[Scale] = None,
    data: Optional[ChronicExperimentData] = None,
    ks: Sequence[int] = KS,
    backbone: str = "sgcn",
) -> Table2Result:
    """Regenerate the Table II ablation."""
    scale = scale or Scale.small()
    data = data or load_chronic(scale)
    return compute_table2(data, compute_table2_scores(data, scale, backbone), ks=ks)


@stage("table2.scores", inputs=("chronic.data",), serializer="npz")
def stage_table2_scores(ctx, data: ChronicExperimentData) -> Dict[str, np.ndarray]:
    """Pipeline fit/score stage (the four ablation fits)."""
    return compute_table2_scores(data, ctx.scale)


@experiment(
    "table2", stage="table2.result",
    title="Table II - drug-embedding ablation (SGCN backbone)",
)
@stage("table2.result", inputs=("chronic.data", "table2.scores"))
def stage_table2(ctx, data: ChronicExperimentData, scores) -> Table2Result:
    """Pipeline metric stage over the cached variant scores."""
    return compute_table2(data, scores, ks=KS)
