"""The Medical Support module (Sec. IV-C).

Given the suggested drugs, extract the closest dense subgraph of the DDI
graph (Algorithm 1: truss decomposition + Steiner tree + bulk/shrink) and
produce a doctor-facing explanation: the synergistic and antagonistic
interactions among the suggested drugs and between suggested and
non-suggested community drugs, plus the Suggestion Satisfaction score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import CTCResult, SignedGraph, closest_truss_community, truss_decomposition
from ..metrics import SatisfactionBreakdown, suggestion_pairs, top_k_indices
from .config import MSConfig


def canonical_suggestion(suggested: Sequence[int]) -> Tuple[int, ...]:
    """Normalize a suggestion to a sorted, duplicate-free id tuple.

    Explanations depend only on the *set* of suggested drugs, never on
    their ranking order or on the patient, so this tuple is the cache key
    used by :class:`repro.serving.SuggestionService` — two patients with
    the same suggested set share one cached explanation.
    """
    key = tuple(sorted(set(int(s) for s in suggested)))
    if not key:
        raise ValueError("need at least one suggested drug")
    return key


@dataclass
class Explanation:
    """Doctor-facing explanation of a medication suggestion (Definition 4).

    Produced by :meth:`MSModule.explain` (Algorithm 1: truss decomposition
    + Steiner tree + bulk/shrink around the suggested drugs); consumed
    either programmatically (the attribute lists) or as the rendered
    Fig. 8-style text from :meth:`render`.  An explanation is a pure
    function of the suggested drug *set*, which is what makes it cacheable
    across patients.

    Attributes:
        suggested: the k suggested drug ids (sorted, duplicate-free).
        community: all drugs in the closest dense subgraph.
        synergy_within: synergistic pairs among the suggested drugs.
        antagonism_within: antagonistic pairs among the suggested drugs
            (ideally empty — flagged to the doctor when not).
        antagonism_avoided: antagonistic pairs between a suggested and a
            non-suggested community drug (drugs the system steered around).
        satisfaction: the SS breakdown (Eq. 19).
        drug_names: optional id -> name mapping for rendering.

    Example::

        explanation = system.explain([46, 47])
        print(explanation.render())
        # Suggestion: Simvastatin, Atorvastatin
        # Suggestion Satisfaction: 0.83..
        # Synergism: ...
    """

    suggested: List[int]
    community: List[int]
    synergy_within: List[Tuple[int, int]]
    antagonism_within: List[Tuple[int, int]]
    antagonism_avoided: List[Tuple[int, int]]
    satisfaction: SatisfactionBreakdown
    drug_names: Dict[int, str] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable summary (the paper's Fig. 8-style output)."""

        def name(did: int) -> str:
            return self.drug_names.get(did, f"drug {did}")

        lines = [
            "Suggestion: " + ", ".join(name(d) for d in self.suggested),
            f"Suggestion Satisfaction: {self.satisfaction.value:.4f}",
        ]
        if self.synergy_within:
            lines.append("Synergism:")
            lines.extend(
                f"  {name(u)} and {name(v)}" for u, v in self.synergy_within
            )
        if self.antagonism_within:
            lines.append("WARNING - antagonism inside the suggestion:")
            lines.extend(
                f"  {name(u)} and {name(v)}" for u, v in self.antagonism_within
            )
        if self.antagonism_avoided:
            lines.append("Antagonism (avoided non-suggested drugs):")
            lines.extend(
                f"  {name(u)} and {name(v)}" for u, v in self.antagonism_avoided
            )
        return "\n".join(lines)


class MSModule:
    """Explanation generator over a signed DDI graph.

    ``drug_names`` given at construction become the default rendering
    names, making :meth:`explain` a pure function of the suggested drug
    set — the property the serving layer's explanation cache relies on.

    The unsigned view of the DDI graph and its truss numbers (line 1 of
    Algorithm 1) do not depend on the query, so they are built once here
    and every community search reads them.
    """

    def __init__(
        self,
        ddi: SignedGraph,
        config: Optional[MSConfig] = None,
        drug_names: Optional[Dict[int, str]] = None,
    ) -> None:
        self.config = config or MSConfig()
        self.config.validate()
        self.ddi = ddi
        self.drug_names = dict(drug_names) if drug_names else {}
        self._unsigned = ddi.to_unsigned()
        self._truss = truss_decomposition(self._unsigned)

    def query_subgraph(self, suggested: Sequence[int]) -> Optional[CTCResult]:
        """Algorithm 1: closest truss community around the suggested drugs."""
        return closest_truss_community(
            self._unsigned, self._truss, list(suggested), self.config.size_budget
        )

    def explain(
        self,
        suggested: Sequence[int],
        drug_names: Optional[Dict[int, str]] = None,
    ) -> Explanation:
        """Produce the full explanation for a suggestion.

        ``drug_names`` overrides the module-level default mapping for this
        call only.
        """
        suggested = list(canonical_suggestion(suggested))
        community = self.query_subgraph(suggested)
        pairs = suggestion_pairs(
            self.ddi, suggested, None if community is None else community.nodes
        )
        return Explanation(
            suggested=suggested,
            community=pairs.members,
            synergy_within=pairs.synergy_within,
            antagonism_within=pairs.antagonism_within,
            antagonism_avoided=pairs.antagonism_avoided,
            satisfaction=pairs.satisfaction(self.config.alpha),
            drug_names=drug_names if drug_names is not None else self.drug_names,
        )

    def satisfaction_at_k(
        self, scores: np.ndarray, k: int, max_patients: Optional[int] = None
    ) -> float:
        """SS@k (Table III): mean SS of each patient's top-k suggestion.

        ``max_patients`` caps the evaluation for speed; the deterministic
        first rows are used so results stay reproducible.
        """
        scores = np.asarray(scores)
        if max_patients is not None:
            scores = scores[:max_patients]
        top = top_k_indices(scores, k)
        return float(np.mean([self.explain(row).satisfaction.value for row in top]))
