"""Table III: Suggestion Satisfaction (SS@k) for every method, k = 2..6.

SS rewards synergy inside the top-k suggestion and antagonism kept outside
of it (Eq. 19), computed on the closest dense subgraph of the DDI graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..core import MSModule
from ..pipeline import experiment, stage
from .common import (
    ChronicExperimentData,
    Scale,
    format_table,
    load_chronic,
    run_methods,
)

KS = (2, 3, 4, 5, 6)


@dataclass
class Table3Result:
    """satisfaction[method][k] = mean SS@k over the evaluated patients."""

    satisfaction: Dict[str, Dict[int, float]]

    def best_method_at(self, k: int) -> str:
        return max(self.satisfaction, key=lambda m: self.satisfaction[m][k])

    def render(self) -> str:
        ks = sorted(next(iter(self.satisfaction.values())))
        headers = ["Method"] + [f"SS@{k}" for k in ks]
        rows = [
            [method] + [by_k[k] for k in ks]
            for method, by_k in self.satisfaction.items()
        ]
        return format_table(headers, rows)


def run_table3(
    scale: Optional[Scale] = None,
    methods: Optional[Sequence[str]] = None,
    data: Optional[ChronicExperimentData] = None,
    ks: Sequence[int] = KS,
    max_patients: int = 40,
    scores: Optional[Dict[str, np.ndarray]] = None,
) -> Table3Result:
    """Regenerate Table III.

    ``scores`` allows reuse of the matrices from a Table I run (the paper
    evaluates the same suggestions under both metric families);
    ``max_patients`` caps the per-method community searches for speed.
    """
    scale = scale or Scale.small()
    data = data or load_chronic(scale)
    if scores is None:
        scores = run_methods(data, scale, methods)
    return compute_table3(data, scores, ks=ks, max_patients=max_patients)


def compute_table3(
    data: ChronicExperimentData,
    scores: Dict[str, np.ndarray],
    ks: Sequence[int] = KS,
    max_patients: int = 40,
) -> Table3Result:
    """Metric phase: SS@k per method over shared score matrices."""
    module = MSModule(data.cohort.ddi.graph)
    satisfaction = {
        name: {
            k: module.satisfaction_at_k(score, k, max_patients=max_patients)
            for k in ks
        }
        for name, score in scores.items()
    }
    return Table3Result(satisfaction=satisfaction)


@experiment(
    "table3", stage="table3.result",
    title="Table III - Suggestion Satisfaction",
)
@stage("table3.result", inputs=("chronic.data", "chronic.scores"))
def stage_table3(ctx, data: ChronicExperimentData, scores) -> Table3Result:
    """Pipeline metric stage — reuses the Table I score matrices (the
    paper evaluates the same suggestions under both metric families)."""
    return compute_table3(data, scores, ks=KS)
