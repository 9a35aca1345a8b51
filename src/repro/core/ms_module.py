"""The Medical Support module (Sec. IV-C).

Given the suggested drugs, extract the closest dense subgraph of the DDI
graph (Algorithm 1: truss decomposition + Steiner tree + bulk/shrink) and
produce a doctor-facing explanation: the synergistic and antagonistic
interactions among the suggested drugs and between suggested and
non-suggested community drugs, plus the Suggestion Satisfaction score.

An explanation is a pure function of the suggested drug set, so the
module keeps one LRU cache of them: SS@k (Table III), ``DSSDDI.explain``
and the serving layer all read through it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import CTCResult, SignedGraph, closest_truss_community, truss_decomposition
from ..metrics import SatisfactionBreakdown, suggestion_pairs, top_k_indices
from .config import MSConfig


def canonical_suggestion(suggested: Sequence[int]) -> Tuple[int, ...]:
    """Normalize a suggestion to a sorted, duplicate-free id tuple.

    Explanations depend only on the *set* of suggested drugs, never on
    their ranking order or on the patient, so this tuple is the key of
    :class:`MSModule`'s explanation cache — two patients with the same
    suggested set share one cached explanation.
    """
    key = tuple(sorted(set(int(s) for s in suggested)))
    if not key:
        raise ValueError("need at least one suggested drug")
    return key


#: Capacity of :class:`MSModule`'s explanation cache (suggestion sets).
EXPLANATION_CACHE_SIZE = 1024


class LRUCache:
    """Least-recently-used cache with hit/miss counters (thread-safe).

    Every operation holds one internal lock, which makes the cache safe
    under the online gateway's worker threads (:mod:`repro.server`):
    concurrent ``get``/``put`` on the same key at worst compute one
    explanation twice, never corrupt the eviction order or the counters.

    Usage::

        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")      # 1, counts a hit
        cache.get("b")      # None, counts a miss
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value (marking it most recently used) or None."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return None

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key``, evicting the least recently used entry if full."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses); 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __repr__(self) -> str:
        return (
            f"LRUCache(size={len(self)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )


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

    ``drug_names`` given at construction are the rendering names of every
    explanation, making :meth:`explain` a pure function of the suggested
    drug set — which is what lets one LRU cache (keyed by
    :func:`canonical_suggestion`, :data:`EXPLANATION_CACHE_SIZE` entries)
    serve every caller.

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
        self.cache = LRUCache(EXPLANATION_CACHE_SIZE)

    def query_subgraph(self, suggested: Sequence[int]) -> Optional[CTCResult]:
        """Algorithm 1: closest truss community around the suggested drugs."""
        return closest_truss_community(
            self._unsigned, self._truss, list(suggested), self.config.size_budget
        )

    def explain(self, suggested: Sequence[int]) -> Explanation:
        """The explanation of a suggestion, from the cache when it is there."""
        return self.lookup(suggested)[0]

    def lookup(self, suggested: Sequence[int]) -> Tuple[Explanation, bool]:
        """:meth:`explain`, plus whether the explanation was a cache hit.

        Suggestions that differ only in order or duplicates share one
        cached object.
        """
        key = canonical_suggestion(suggested)
        explanation = self.cache.get(key)
        if explanation is not None:
            return explanation, True
        explanation = self._explain(list(key))
        self.cache.put(key, explanation)
        return explanation, False

    def clear_cache(self) -> None:
        """Drop cached explanations and reset the hit/miss counters."""
        self.cache.clear()

    def _explain(self, suggested: List[int]) -> Explanation:
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
            drug_names=self.drug_names,
        )

    def satisfaction_at_k(
        self, scores: np.ndarray, k: int, max_patients: Optional[int] = None
    ) -> float:
        """SS@k (Table III): mean SS of each patient's top-k suggestion.

        ``max_patients`` caps the evaluation for speed; the deterministic
        first rows are used so results stay reproducible.  Rows with the
        same suggested set share one cached explanation.
        """
        scores = np.asarray(scores)
        if max_patients is not None:
            scores = scores[:max_patients]
        top = top_k_indices(scores, k)
        return float(np.mean([self.explain(row).satisfaction.value for row in top]))
