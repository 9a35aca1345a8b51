"""Polypharmacy safety screening for a ward of chronic patients.

The scenario from the paper's introduction: elderly patients on multiple
medications, where antagonistic drug-drug interactions raise the risk of
severe adverse events.  This example:

1. screens every patient's *current* medication list against the DDI graph
   and flags antagonistic combinations (the paper's Case 4 situation),
2. asks DSSDDI for an alternative suggestion of the same size,
3. compares both regimens with the Suggestion Satisfaction measure and the
   raw antagonistic-pair count.

Usage::

    python examples/polypharmacy_screening.py
"""

import numpy as np

from repro import DSSDDI, generate_chronic_cohort, split_patients
from repro.core import DSSDDIConfig
from repro.data import drug_names, standardize_features


def antagonistic_pairs(graph, drugs):
    """All antagonistic pairs inside a medication list."""
    pairs = []
    drugs = list(drugs)
    for i, u in enumerate(drugs):
        for v in drugs[i + 1 :]:
            if graph.sign_or_none(u, v) == -1:
                pairs.append((u, v))
    return pairs


def main() -> None:
    cohort = generate_chronic_cohort(
        num_patients=500, seed=11, antagonism_tolerance=0.15
    )
    features = standardize_features(cohort.features)
    split = split_patients(cohort.num_patients, seed=2)
    names = drug_names(cohort.catalog)
    graph = cohort.ddi.graph

    print("Training DSSDDI for the screening service ...")
    system = DSSDDI(DSSDDIConfig.fast())
    system.fit(features[split.train], cohort.medications[split.train], cohort.ddi)

    print("\nScreening the held-out ward ...\n")
    flagged = 0
    for row, patient_idx in enumerate(split.test):
        current = np.nonzero(cohort.medications[patient_idx])[0].tolist()
        conflicts = antagonistic_pairs(graph, current)
        if not conflicts or len(current) < 2:
            continue
        flagged += 1
        if flagged > 3:  # show the first three flagged patients in detail
            continue

        print(f"Patient #{patient_idx}: takes {[names[d] for d in current]}")
        for u, v in conflicts:
            print(f"  !! antagonism: {names[u]} <-> {names[v]}")

        current_ss = system.explain(current).satisfaction.value
        suggestion = system.suggest(features[patient_idx : patient_idx + 1],
                                    k=len(current))[0]
        suggested_ss = system.explain(suggestion).satisfaction.value
        remaining = antagonistic_pairs(graph, suggestion)

        print(f"  current regimen:   SS={current_ss:.4f}, "
              f"{len(conflicts)} antagonistic pair(s)")
        print(f"  DSSDDI suggestion: {[names[d] for d in suggestion]}")
        print(f"                     SS={suggested_ss:.4f}, "
              f"{len(remaining)} antagonistic pair(s)")
        print()

    total = len(split.test)
    print(f"Flagged {flagged} of {total} ward patients with antagonistic "
          f"co-prescriptions.")


if __name__ == "__main__":
    main()
