"""Suggestion Satisfaction (SS), Definition 7 / Eq. 19.

Given k suggested drugs and the closest dense subgraph G_sub (n' nodes)
around them in the DDI graph:

    SS = alpha * 2 (r_in_pos + 1) / ((r_in_neg + 1) (k (k - 1) + 2))
       + (1 - alpha) * r_out_neg / (k (n' - k))

* r_in_pos / r_in_neg: synergistic / antagonistic edges among the suggested
  drugs — synergy inside the suggestion is good, antagonism bad.
* r_out_neg: antagonistic edges between suggested and non-suggested members
  of the community — the suggestion *avoiding* antagonists is good.

Larger SS means a more coherent, safer suggestion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..graph import SignedGraph


@dataclass
class SatisfactionBreakdown:
    """SS value plus the counts that produced it (for explanations)."""

    value: float
    r_in_pos: int
    r_in_neg: int
    r_out_neg: int
    subgraph_nodes: int
    k: int


Pair = Tuple[int, int]


@dataclass
class SuggestionPairs:
    """The signed pairs of a suggestion's community, classified once.

    ``members`` is the community plus the suggested drugs, sorted; each
    list holds ``(u, v)`` pairs with ``u < v`` in member order.  Both the
    SS value (Eq. 19) and the MS module's explanation read these lists.
    """

    suggested: List[int]
    members: List[int]
    synergy_within: List[Pair]
    antagonism_within: List[Pair]
    antagonism_avoided: List[Pair]

    def satisfaction(self, alpha: float = 0.5) -> SatisfactionBreakdown:
        """Eq. 19 from the pair counts."""
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        k, n_prime = len(self.suggested), len(self.members)
        r_in_pos = len(self.synergy_within)
        r_in_neg = len(self.antagonism_within)
        r_out_neg = len(self.antagonism_avoided)
        synergy_term = 2.0 * (r_in_pos + 1) / ((r_in_neg + 1) * (k * (k - 1) + 2))
        if n_prime > k:
            antagonism_term = r_out_neg / (k * (n_prime - k))
        else:
            antagonism_term = 0.0
        return SatisfactionBreakdown(
            value=alpha * synergy_term + (1.0 - alpha) * antagonism_term,
            r_in_pos=r_in_pos,
            r_in_neg=r_in_neg,
            r_out_neg=r_out_neg,
            subgraph_nodes=n_prime,
            k=k,
        )


def suggestion_pairs(
    ddi: SignedGraph,
    suggested: Sequence[int],
    community: Optional[Sequence[int]],
) -> SuggestionPairs:
    """Classify every signed pair among a suggestion's community members.

    ``community`` holds the closest-dense-subgraph nodes; ``None`` marks a
    disconnected suggestion (Algorithm 1 found no community), whose
    members fall back to the suggested drugs and their direct DDI
    neighbours.  Pairs inside the suggestion count as synergy or
    antagonism within it; antagonistic pairs with one non-suggested
    member count as avoided antagonism.  Raises on an empty suggestion or
    an out-of-range drug id.
    """
    suggested = sorted(set(int(s) for s in suggested))
    if not suggested:
        raise ValueError("need at least one suggested drug")
    for s in suggested:
        if not 0 <= s < ddi.num_nodes:
            raise IndexError(f"drug {s} out of range")
    members = set(suggested)
    if community is None:
        for s in suggested:
            members.update(ddi.neighbors(s))
    else:
        members.update(int(x) for x in community)
    members = sorted(members)

    suggested_set = set(suggested)
    pairs = SuggestionPairs(suggested, members, [], [], [])
    for idx, u in enumerate(members):
        for v in members[idx + 1 :]:
            sign = ddi.sign_or_none(u, v)
            if sign is None or sign == 0:
                continue
            u_in, v_in = u in suggested_set, v in suggested_set
            if u_in and v_in:
                within = pairs.synergy_within if sign == 1 else pairs.antagonism_within
                within.append((u, v))
            elif u_in != v_in and sign == -1:
                pairs.antagonism_avoided.append((u, v))
    return pairs
