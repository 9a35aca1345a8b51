"""Explore the Medical Support module: truss communities around drug combos.

Replays the paper's named case-study interactions (Fig. 8 / Fig. 9) against
the generated DDI graph and walks through what the subgraph-querying
algorithm (truss decomposition + Steiner tree + bulk/shrink) returns for
different suggestion sets — no model training involved.

Usage::

    python examples/explanation_explorer.py
"""

from repro.core import MSModule
from repro.data import drug_names, generate_ddi
from repro.graph import diameter, truss_decomposition


def main() -> None:
    ddi = generate_ddi(seed=7)
    names = drug_names(ddi.catalog)
    ms = MSModule(ddi.graph, drug_names=names)

    unsigned = ddi.graph.to_unsigned()
    truss = truss_decomposition(unsigned)
    print(
        f"DDI graph: {unsigned.num_nodes} drugs, {unsigned.num_edges} "
        f"interactions, max truss number "
        f"{max(truss.values()) if truss else 2}"
    )

    combos = {
        "statin pair (Fig. 8a synergy)": [46, 47],          # Simvastatin+Atorvastatin
        "nitrate + anticonvulsant (Fig. 8a antagonism)": [59, 61],
        "diuretic + ACE inhibitor (Fig. 9 case 1)": [10, 5],
        "cardio triple": [46, 47, 59],
    }
    for label, suggestion in combos.items():
        print(f"\n=== {label}: {[names[d] for d in suggestion]} ===")
        community = ms.query_subgraph(suggestion)
        if community is None:
            print("  drugs are not connected in the DDI graph")
            continue
        print(
            f"  community: {len(community.nodes)} drugs, "
            f"{community.trussness}-truss, "
            f"diameter {diameter(unsigned, community.nodes):.0f}"
        )
        explanation = ms.explain(suggestion)
        print("  " + explanation.render().replace("\n", "\n  "))


if __name__ == "__main__":
    main()
