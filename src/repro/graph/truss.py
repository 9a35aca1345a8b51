"""Truss decomposition (Wang & Cheng, PVLDB 2012) and p-truss utilities.

Used by the Medical Support module (Sec. IV-C): the truss number of an edge
is the largest p such that the edge belongs to a p-truss subgraph, where a
p-truss requires every edge to be supported by at least (p - 2) triangles.

The decomposition follows the peeling algorithm of the paper's reference
[24]: repeatedly remove the edge with the smallest support, recording
``truss(e) = support-at-removal + 2`` and updating the supports of the
other two edges of each broken triangle.
"""

from __future__ import annotations

from typing import Dict, Set

from .graph import Edge, Graph, edge_key
from .triangles import all_edge_supports


def truss_decomposition(graph: Graph) -> Dict[Edge, int]:
    """Truss number of every edge of ``graph``.

    Peeling with a lazy bucket queue: O(m^1.5) like the reference
    implementation, entirely sufficient for DDI-scale graphs.
    """
    work = graph.copy()
    support = all_edge_supports(work)
    truss: Dict[Edge, int] = {}

    # Bucket edges by current support for an O(1) extract-min with lazy moves.
    buckets: Dict[int, Set[Edge]] = {}
    for edge, sup in support.items():
        buckets.setdefault(sup, set()).add(edge)

    k = 2  # truss number lower bound; an edge with no triangles is a 2-truss
    remaining = work.num_edges
    while remaining > 0:
        level = k - 2
        # Peel all edges whose support is <= level.
        progressed = True
        while progressed:
            progressed = False
            for sup in sorted(s for s in buckets if s <= level and buckets[s]):
                while buckets[sup]:
                    edge = buckets[sup].pop()
                    if edge not in support or support[edge] != sup:
                        continue  # stale bucket entry
                    u, v = edge
                    truss[edge] = k
                    # Break every triangle through (u, v): decrement supports.
                    common = work.neighbors(u) & work.neighbors(v)
                    for w in common:
                        for other in (edge_key(u, w), edge_key(v, w)):
                            if other in support:
                                old = support[other]
                                support[other] = old - 1
                                buckets.setdefault(old - 1, set()).add(other)
                    work.remove_edge(u, v)
                    del support[edge]
                    remaining -= 1
                    progressed = True
        k += 1
    return truss


def is_p_truss(graph: Graph, p: int) -> bool:
    """Check Definition 5 directly: every edge supported by >= p - 2 triangles."""
    supports = all_edge_supports(graph)
    return all(sup >= p - 2 for sup in supports.values())

