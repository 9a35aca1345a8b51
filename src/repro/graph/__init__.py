"""Graph substrate: graph types, truss machinery and community search.

These modules implement everything the Medical Support module needs
(Definitions 5-6 and Algorithm 1 of the paper) plus the signed DDI and
bipartite medication-use graphs used by the learning modules.
"""

from .graph import BipartiteGraph, Edge, Graph, SignedGraph, edge_key
from .triangles import all_edge_supports, count_triangles, edge_support, triangles
from .truss import is_p_truss, peel_to_p_truss, truss_decomposition
from .shortest import (
    bfs_distances,
    connected_components,
    diameter,
    graph_query_distance,
    is_connected_subset,
)
from .steiner import steiner_tree, truss_distance_weight, uniform_weight
from .ctc import CTCResult, closest_truss_community

__all__ = [
    "Graph",
    "SignedGraph",
    "BipartiteGraph",
    "Edge",
    "edge_key",
    "edge_support",
    "all_edge_supports",
    "triangles",
    "count_triangles",
    "truss_decomposition",
    "is_p_truss",
    "peel_to_p_truss",
    "bfs_distances",
    "is_connected_subset",
    "connected_components",
    "diameter",
    "graph_query_distance",
    "steiner_tree",
    "uniform_weight",
    "truss_distance_weight",
    "CTCResult",
    "closest_truss_community",
]
