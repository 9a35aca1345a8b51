"""Figure regenerations: Fig. 2, Fig. 3 and Fig. 7.

These produce the *data* behind the paper's figures (shares, counts,
similarity matrices); rendering is plain text, keeping the repository
dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..baselines import LightGCNRecommender
from ..core import DSSDDI
from ..data import build_catalog, drugs_by_disease, generate_chronic_cohort
from ..metrics import cosine_similarity_matrix, offdiagonal_mean
from ..pipeline import experiment, stage
from .common import ChronicExperimentData, Scale, dssddi_config, format_table, load_chronic


# ----------------------------------------------------------------------
# Fig. 2 — the proportion of patients with various diseases
# ----------------------------------------------------------------------
@dataclass
class Fig2Result:
    """Disease composition of the cohort (``disease -> share``)."""

    shares: Dict[str, float]  # disease -> share of disease occurrences

    def render(self) -> str:
        rows = sorted(self.shares.items(), key=lambda kv: -kv[1])
        return format_table(
            ["Disease", "Share"], [[d, s] for d, s in rows], precision=3
        )


def run_fig2(num_patients: int = 4157, seed: int = 11) -> Fig2Result:
    """Disease composition of the generated cohort (the paper's pie chart)."""
    cohort = generate_chronic_cohort(num_patients=num_patients, seed=seed)
    counts = cohort.diseases.sum(axis=0).astype(float)
    total = counts.sum()
    shares = {
        name: float(count / total)
        for name, count in zip(cohort.disease_names, counts)
    }
    return Fig2Result(shares=shares)


# ----------------------------------------------------------------------
# Fig. 3 — the distribution of medications for common chronic diseases
# ----------------------------------------------------------------------
@dataclass
class Fig3Result:
    """Catalog size per disease (``disease -> number of drugs``)."""

    counts: Dict[str, int]  # disease -> number of catalog drugs

    def render(self) -> str:
        rows = sorted(self.counts.items(), key=lambda kv: -kv[1])
        return format_table(["Disease", "Medications"], [[d, c] for d, c in rows])


def run_fig3() -> Fig3Result:
    """Drugs-per-disease distribution of the 86-drug catalog."""
    by_disease = drugs_by_disease(build_catalog())
    return Fig3Result(counts={d: len(v) for d, v in by_disease.items()})


# ----------------------------------------------------------------------
# Fig. 7 — representation-similarity heat maps (DSSDDI vs LightGCN)
# ----------------------------------------------------------------------
@dataclass
class Fig7Result:
    """Similarity matrices and their off-diagonal means.

    ``patient_similarity[model]`` is the (100, 100) cosine matrix over the
    sampled test patients; ``drug_similarity[model]`` the (n_drugs,
    n_drugs) matrix.  ``patient_smoothing`` summarizes each heat map by its
    off-diagonal mean — the paper's over-smoothing signal.
    """

    patient_similarity: Dict[str, np.ndarray]
    drug_similarity: Dict[str, np.ndarray]
    patient_smoothing: Dict[str, float]
    drug_smoothing: Dict[str, float]
    drug_structure: Dict[str, float]

    def render(self) -> str:
        rows = [
            [
                model,
                self.patient_smoothing[model],
                self.drug_smoothing[model],
                self.drug_structure[model],
            ]
            for model in self.patient_smoothing
        ]
        return format_table(
            ["Model", "patient off-diag cos", "drug off-diag cos", "drug class contrast"],
            rows,
        )


def run_fig7(
    scale: Optional[Scale] = None,
    data: Optional[ChronicExperimentData] = None,
    sample_patients: int = 100,
    system: Optional[DSSDDI] = None,
    lightgcn: Optional[LightGCNRecommender] = None,
) -> Fig7Result:
    """Train DSSDDI(SGCN) and LightGCN; compare representation similarity.

    DSSDDI's patient representations are taken *before* propagation (what
    its decoder consumes); LightGCN's are the post-propagation embeddings.
    ``system`` / ``lightgcn`` accept already-fitted models (the pipeline's
    shared fit stages) and skip the corresponding training runs.
    """
    scale = scale or Scale.small()
    data = data or load_chronic(scale)

    if system is None:
        system = DSSDDI(dssddi_config(scale, "sgcn"))
        system.fit(data.x_train, data.y_train, data.cohort.ddi)

    if lightgcn is None:
        lightgcn = LightGCNRecommender(
            hidden_dim=max(16, scale.hidden_dim // 2), epochs=scale.gnn_epochs
        )
        lightgcn.fit(data.x_train, data.y_train)

    take = min(sample_patients, len(data.split.test))
    x_sample = data.x_test[:take]

    # DSSDDI: pre-propagation patient representations of the test sample.
    dssddi_patients = system.patient_representations(x_sample)
    # LightGCN: the one-hop graph-convolved patient representation.  The
    # paper's LightGCN is transductive with ID embeddings — its patient
    # vectors are entirely graph-derived — so the faithful Fig. 7
    # comparison isolates what one round of convolution does to patients
    # (deeper layers oscillate around the same highly-smoothed structure).
    from ..gnn import LightGCNPropagation
    from ..nn import Tensor

    one_hop = LightGCNPropagation(1, [0.0, 1.0])
    h_p, _h_d = one_hop(
        lightgcn._patient_fc(Tensor(data.x_train)),
        lightgcn._drug_fc(Tensor(np.eye(data.cohort.num_drugs))),
        lightgcn._p2d,
        lightgcn._d2p,
    )
    lightgcn_patients = h_p.numpy()[:take]

    dssddi_drugs = system.drug_representations()
    lightgcn_drugs = lightgcn.drug_representations()

    patient_similarity = {
        "DSSDDI": cosine_similarity_matrix(dssddi_patients),
        "LightGCN": cosine_similarity_matrix(lightgcn_patients),
    }
    drug_similarity = {
        "DSSDDI": cosine_similarity_matrix(dssddi_drugs),
        "LightGCN": cosine_similarity_matrix(lightgcn_drugs),
    }
    # Fig. 7b signal: DSSDDI drug representations carry disease-class
    # structure — same-class drugs more similar than cross-class drugs.
    classes: Dict[str, list] = {}
    for drug in data.cohort.catalog:
        classes.setdefault(drug.disease, []).append(drug.did)

    def class_contrast(similarity: np.ndarray) -> float:
        within, across = [], []
        n = similarity.shape[0]
        for ids in classes.values():
            id_set = set(ids)
            for i in ids:
                for j in range(n):
                    if j == i:
                        continue
                    (within if j in id_set else across).append(similarity[i, j])
        return float(np.mean(within) - np.mean(across))

    return Fig7Result(
        patient_similarity=patient_similarity,
        drug_similarity=drug_similarity,
        patient_smoothing={
            name: offdiagonal_mean(sim) for name, sim in patient_similarity.items()
        },
        drug_smoothing={
            name: offdiagonal_mean(sim) for name, sim in drug_similarity.items()
        },
        drug_structure={
            name: class_contrast(sim) for name, sim in drug_similarity.items()
        },
    )


# ----------------------------------------------------------------------
# Pipeline stages
# ----------------------------------------------------------------------
@experiment("fig2", stage="fig2.result", title="Fig. 2 - disease composition")
@stage("fig2.result", params=("scale",), serializer="pickle")
def stage_fig2(ctx) -> Fig2Result:
    """Pipeline stage: cohort composition at the run's scale."""
    return run_fig2(num_patients=ctx.scale.num_patients, seed=ctx.scale.seed)


@experiment("fig3", stage="fig3.result", title="Fig. 3 - medications per disease")
@stage("fig3.result", params=(), serializer="pickle")
def stage_fig3(ctx) -> Fig3Result:
    """Pipeline stage: catalog counts (scale-independent — ``params=()``,
    so every scale shares one cache entry)."""
    return run_fig3()


@experiment(
    "fig7", stage="fig7.result",
    title="Fig. 7 - representation similarity (off-diagonal mean cosine)",
)
@stage(
    "fig7.result",
    inputs=("chronic.data", "chronic.fit.dssddi_sgcn", "chronic.fit.lightgcn"),
)
def stage_fig7(ctx, data, system, lightgcn) -> Fig7Result:
    """Pipeline stage reusing the shared DSSDDI(SGCN) and LightGCN fits."""
    return run_fig7(scale=ctx.scale, data=data, system=system, lightgcn=lightgcn)
