"""Case-study experiments: Fig. 8 and Fig. 9.

Fig. 8 contrasts the explanation subgraphs of DSSDDI's suggestion for a
cardiovascular patient against the baselines' suggestions.  Fig. 9 shows
four rank-movement cases of the DDI signal: synergy promoting a partner
drug, antagonism demoting a conflicting drug, indirect similarity through
shared antagonists, and a deliberate deviation from the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..baselines import ECC, GCMCRecommender, LightGCNRecommender, SVMRecommender
from ..core import DSSDDI, Explanation, MSModule
from ..data import drug_names
from ..metrics import top_k_indices
from ..pipeline import experiment, stage
from .common import ChronicExperimentData, Scale, dssddi_config, format_table, load_chronic


# ----------------------------------------------------------------------
# Fig. 8 — explanation subgraphs for a cardiovascular patient
# ----------------------------------------------------------------------
@dataclass
class Fig8Result:
    """Per-method suggestion and its MS-module explanation."""

    patient_index: int
    explanations: Dict[str, Explanation]

    def render(self) -> str:
        parts = [f"Cardiovascular patient (test row {self.patient_index})"]
        for method, explanation in self.explanations.items():
            parts.append(f"--- {method} ---")
            parts.append(explanation.render())
        return "\n".join(parts)


def run_fig8(
    scale: Optional[Scale] = None,
    data: Optional[ChronicExperimentData] = None,
    k: int = 3,
    system: Optional[DSSDDI] = None,
    lightgcn: Optional[LightGCNRecommender] = None,
) -> Fig8Result:
    """Suggest k drugs for a cardiovascular patient with every method and
    explain each suggestion through the MS module.

    ``system`` / ``lightgcn`` accept already-fitted models (the pipeline's
    shared fit stages) and skip the corresponding training runs.
    """
    scale = scale or Scale.small()
    data = data or load_chronic(scale)
    cohort = data.cohort

    cardio = cohort.disease_names.index("cardiovascular")
    test_diseases = cohort.diseases[data.split.test]
    candidates = np.nonzero(test_diseases[:, cardio] == 1)[0]
    if len(candidates) == 0:
        raise RuntimeError("no cardiovascular patient in the test split")
    patient = int(candidates[0])
    x_patient = data.x_test[patient : patient + 1]

    if system is None:
        system = DSSDDI(dssddi_config(scale, "sgcn"))
        system.fit(data.x_train, data.y_train, cohort.ddi)
    ms = MSModule(cohort.ddi.graph)
    names = drug_names(cohort.catalog)

    explanations: Dict[str, Explanation] = {
        "DSSDDI": system.explain(system.suggest(x_patient, k)[0])
    }
    h = max(16, scale.hidden_dim // 2)
    baselines = {
        "LightGCN": lightgcn
        or LightGCNRecommender(hidden_dim=h, epochs=scale.gnn_epochs),
        "GCMC": GCMCRecommender(hidden_dim=h, out_dim=h, epochs=scale.gnn_epochs),
        "SVM": SVMRecommender(epochs=max(10, scale.classic_epochs // 2)),
        "ECC": ECC(num_chains=2, max_iter=scale.classic_epochs),
    }
    for name, model in baselines.items():
        if name != "LightGCN" or lightgcn is None:
            model.fit(data.x_train, data.y_train)
        suggestion = top_k_indices(model.predict_scores(x_patient), k)[0].tolist()
        explanations[name] = ms.explain(suggestion, drug_names=names)
    return Fig8Result(patient_index=patient, explanations=explanations)


# ----------------------------------------------------------------------
# Fig. 9 — four rank-movement case studies (w/ DDI vs w/o DDI)
# ----------------------------------------------------------------------
@dataclass
class CaseStudy:
    """One rank-movement case.

    ``ranks_without`` / ``ranks_with``: position (0-based) of each tracked
    drug in the w/o-DDI and w/-DDI rankings for the case patient.
    """

    title: str
    patient_index: int
    tracked_drugs: List[int]
    drug_labels: Dict[int, str]
    ranks_without: Dict[int, int]
    ranks_with: Dict[int, int]
    note: str

    def render(self) -> str:
        rows = []
        for drug in self.tracked_drugs:
            rows.append(
                [
                    self.drug_labels.get(drug, f"drug {drug}"),
                    self.ranks_without[drug] + 1,
                    self.ranks_with[drug] + 1,
                ]
            )
        table = format_table(["Drug", "rank w/o DDI", "rank w/ DDI"], rows)
        return f"{self.title}\n{table}\n{self.note}"


@dataclass
class Fig9Result:
    """The four rank-movement case studies (w/ DDI vs w/o DDI)."""

    cases: List[CaseStudy]

    def render(self) -> str:
        """All case tables, blank-line separated."""
        return "\n\n".join(case.render() for case in self.cases)


def _rank_of(scores_row: np.ndarray, drug: int) -> int:
    order = np.argsort(-scores_row, kind="stable")
    return int(np.nonzero(order == drug)[0][0])


def run_fig9(
    scale: Optional[Scale] = None,
    data: Optional[ChronicExperimentData] = None,
    with_system: Optional[DSSDDI] = None,
) -> Fig9Result:
    """Regenerate the four DDI case studies.

    Trains DSSDDI twice — with the DDI embedding ("w/ DDI") and with the
    ``none`` ablation ("w/o DDI") — and tracks how the paper's pinned
    case-study drugs move between the two rankings.  ``with_system``
    accepts the already-fitted "w/ DDI" system (the pipeline's shared
    SGCN fit); the "w/o DDI" ablation is always fitted here.
    """
    scale = scale or Scale.small()
    data = data or load_chronic(scale)
    cohort = data.cohort
    names = drug_names(cohort.catalog)

    without_cfg = dssddi_config(scale, "sgcn")
    without_cfg.md.drug_embedding_mode = "none"

    with_sys = with_system
    if with_sys is None:
        with_sys = DSSDDI(dssddi_config(scale, "sgcn"))
        with_sys.fit(data.x_train, data.y_train, cohort.ddi)
    without_sys = DSSDDI(without_cfg)
    without_sys.fit(data.x_train, data.y_train, cohort.ddi)

    scores_with = with_sys.predict_scores(data.x_test)
    scores_without = without_sys.predict_scores(data.x_test)
    y_test = data.y_test

    def find_patient(*required_drugs: int) -> Optional[int]:
        for i in range(y_test.shape[0]):
            if all(y_test[i, d] == 1 for d in required_drugs):
                return i
        return None

    def build_case(title: str, patient: Optional[int], drugs: Sequence[int], note: str) -> Optional[CaseStudy]:
        if patient is None:
            return None
        return CaseStudy(
            title=title,
            patient_index=patient,
            tracked_drugs=list(drugs),
            drug_labels=names,
            ranks_without={d: _rank_of(scores_without[patient], d) for d in drugs},
            ranks_with={d: _rank_of(scores_with[patient], d) for d in drugs},
            note=note,
        )

    cases: List[CaseStudy] = []
    # Case 1: synergy Indapamide (10) + Perindopril (5).
    case = build_case(
        "Case 1 - drug-drug synergistic interaction",
        find_patient(10),
        [10, 5],
        "Synergy with Indapamide should pull Perindopril up the ranking.",
    )
    if case:
        cases.append(case)
    # Case 2: antagonism Theophylline (83) vs Enalapril (3).
    case = build_case(
        "Case 2 - drug-drug antagonistic interaction",
        find_patient(3),
        [3, 83],
        "Antagonism with Enalapril should push Theophylline down.",
    )
    if case:
        cases.append(case)
    # Case 3: indirect similarity Amlodipine (8) ~ Felodipine (32).
    case = build_case(
        "Case 3 - indirect drug-drug interaction",
        find_patient(32),
        [32, 8],
        "Shared antagonists give Amlodipine and Felodipine similar "
        "embeddings, lifting both.",
    )
    if case:
        cases.append(case)
    # Case 4: deviation - Isosorbide Mononitrate (58) vs Metformin (48).
    case = build_case(
        "Case 4 - deviation from ground truth",
        find_patient(58, 48),
        [58, 48],
        "The patient takes both despite their antagonism; DSSDDI "
        "deliberately demotes Metformin.",
    )
    if case:
        cases.append(case)
    return Fig9Result(cases=cases)


# ----------------------------------------------------------------------
# Pipeline stages
# ----------------------------------------------------------------------
@experiment("fig8", stage="fig8.result", title="Fig. 8 - explanation subgraphs")
@stage(
    "fig8.result",
    inputs=("chronic.data", "chronic.fit.dssddi_sgcn", "chronic.fit.lightgcn"),
)
def stage_fig8(ctx, data, system, lightgcn) -> Fig8Result:
    """Pipeline stage reusing the shared DSSDDI(SGCN) and LightGCN fits."""
    return run_fig8(scale=ctx.scale, data=data, system=system, lightgcn=lightgcn)


@experiment("fig9", stage="fig9.result", title="Fig. 9 - DDI rank-movement case studies")
@stage("fig9.result", inputs=("chronic.data", "chronic.fit.dssddi_sgcn"))
def stage_fig9(ctx, data, system) -> Fig9Result:
    """Pipeline stage reusing the shared "w/ DDI" SGCN fit."""
    return run_fig9(scale=ctx.scale, data=data, with_system=system)
