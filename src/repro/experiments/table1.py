"""Table I: medication suggestion on the chronic data set.

Twelve methods (eight baselines + four DSSDDI backbones) evaluated with
Precision@k, Recall@k and NDCG@k for k = 1..6 on the held-out patients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..metrics import ndcg_at_k, precision_at_k, recall_at_k
from ..pipeline import experiment, stage
from .common import (
    ChronicExperimentData,
    Scale,
    format_table,
    load_chronic,
    run_methods,
)

KS = (1, 2, 3, 4, 5, 6)


@dataclass
class Table1Result:
    """metric[method][k] = {precision, recall, ndcg}."""

    metrics: Dict[str, Dict[int, Dict[str, float]]]
    scores: Dict[str, np.ndarray]

    def best_method_at(self, metric: str, k: int) -> str:
        return max(self.metrics, key=lambda m: self.metrics[m][k][metric])

    def render(self) -> str:
        ks = sorted(next(iter(self.metrics.values())), reverse=True)
        headers = ["Method"] + [
            f"{metric}@{k}" for k in ks for metric in ("P", "R", "NDCG")
        ]
        rows = []
        for method in self.metrics:
            row: List = [method]
            for k in ks:
                entry = self.metrics[method][k]
                row.extend([entry["precision"], entry["recall"], entry["ndcg"]])
            rows.append(row)
        return format_table(headers, rows)


def compute_table1(
    data: ChronicExperimentData,
    scores: Dict[str, np.ndarray],
    ks: Sequence[int] = KS,
) -> Table1Result:
    """Metric phase: P/R/NDCG@k per method from held-out score matrices."""
    metrics: Dict[str, Dict[int, Dict[str, float]]] = {}
    for name, score in scores.items():
        metrics[name] = {
            k: {
                "precision": precision_at_k(score, data.y_test, k),
                "recall": recall_at_k(score, data.y_test, k),
                "ndcg": ndcg_at_k(score, data.y_test, k),
            }
            for k in ks
        }
    return Table1Result(metrics=metrics, scores=scores)


def run_table1(
    scale: Optional[Scale] = None,
    methods: Optional[Sequence[str]] = None,
    data: Optional[ChronicExperimentData] = None,
    ks: Sequence[int] = KS,
) -> Table1Result:
    """Regenerate Table I (optionally a subset of methods / smaller scale)."""
    scale = scale or Scale.small()
    data = data or load_chronic(scale)
    scores = run_methods(data, scale, methods)
    return compute_table1(data, scores, ks=ks)


@experiment(
    "table1", stage="table1.result",
    title="Table I - medication suggestion (chronic data)",
)
@stage("table1.result", inputs=("chronic.data", "chronic.scores"))
def stage_table1(ctx, data: ChronicExperimentData, scores) -> Table1Result:
    """Pipeline metric stage over the shared score matrices."""
    return compute_table1(data, scores, ks=KS)
