"""Serving demo: fit on synthetic MIMIC data, persist, reload, serve.

The fit-once/serve-many workflow end to end:

1. generate the synthetic MIMIC-III-style EHR cohort (Sec. V-E shape:
   multi-visit features, antagonism-only DDI graph, anonymous drugs),
2. fit DSSDDI with the GIN backbone (the paper's MIMIC setting — signed
   backbones need both edge signs),
3. ``save`` the fitted state to an ``.npz`` + JSON artifact,
4. reload the artifact in a *fresh* :class:`repro.serving.SuggestionService`
   and answer a batched request, printing one rendered explanation and the
   service counters.

Usage::

    python examples/serving_demo.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import DSSDDI, DSSDDIConfig
from repro.data import DDIDataset, generate_mimic, split_patients
from repro.data.catalog import Drug
from repro.serving import SuggestionService


def mimic_ddi_dataset(ddi_graph, num_drugs: int) -> DDIDataset:
    """Wrap MIMIC's bare antagonism-only graph as a DDIDataset.

    MIMIC drugs are anonymous, so the catalog is synthetic ids; DSSDDI
    only needs it for rendering names and the cluster-count default.
    """
    catalog = [
        Drug(did=i, name=f"Medication {i:02d}", disease="mimic")
        for i in range(num_drugs)
    ]
    return DDIDataset(
        graph=ddi_graph,
        synergy=ddi_graph.edges_of_sign(1),
        antagonism=ddi_graph.edges_of_sign(-1),
        catalog=catalog,
    )


def main() -> None:
    print("Generating the synthetic MIMIC-III cohort ...")
    data = generate_mimic(num_patients=400, num_drugs=60, num_ddi_pairs=120, seed=23)
    split = split_patients(data.num_patients, seed=3)
    ddi = mimic_ddi_dataset(data.ddi, data.num_drugs)
    print(
        f"  {data.num_patients} patients, {data.num_drugs} drugs, "
        f"{data.ddi.num_edges} antagonistic DDI pairs"
    )

    print("Fitting DSSDDI (GIN backbone, the paper's MIMIC setting) ...")
    config = DSSDDIConfig.fast(backbone="gin")
    config.ddi.epochs = 30
    config.md.epochs = 60
    system = DSSDDI(config)
    report = system.fit(
        data.features[split.train],
        data.labels[split.train],
        ddi,
        num_clusters=10,
    )
    print(f"  MDGCN final BCE: {report.md_log.final_loss:.4f}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mimic_model"
        system.save(path)
        size_kb = sum(f.stat().st_size for f in path.iterdir()) / 1024
        print(f"Saved artifact to {path} ({size_kb:.0f} KiB)")

        print("Reloading in a fresh SuggestionService ...")
        service = SuggestionService.load(path)
        x_test = data.features[split.test]
        assert np.array_equal(
            service.predict_scores(x_test[:5]), system.predict_scores(x_test[:5])
        ), "loaded scores must be bitwise-identical"

        suggestions = service.suggest(x_test, k=3)
        print(f"  scored {len(x_test)} held-out patients in one batch")
        print(f"  first rows: {suggestions[:3].tolist()}")

        print("\nExplanation for the first patient:")
        explanation = service.suggest_and_explain(x_test[:1], k=3)[0]
        print(explanation.render())

        _explanation, hit = service.lookup_explanation(suggestions[0])
        print(f"\nSame drug set again: explanation cache hit = {hit}")


if __name__ == "__main__":
    main()
