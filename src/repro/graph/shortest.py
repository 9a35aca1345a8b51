"""BFS distances, connectivity, diameters and query distances.

The Closest Truss Community definition (Definition 6) minimizes the
subgraph diameter, and Algorithm 1 reports the query distance of the
community it finds.  These plain-``Graph`` versions are the reference
definitions the tests check :mod:`repro.graph.ctc` against.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence

from .graph import Graph

_INF = float("inf")


def bfs_distances(graph: Graph, source: int) -> List[float]:
    """Unweighted shortest-path distance from ``source`` to every node."""
    dist = [_INF] * graph.num_nodes
    dist[source] = 0.0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if dist[neighbor] == _INF:
                dist[neighbor] = dist[node] + 1.0
                queue.append(neighbor)
    return dist


def is_connected_subset(graph: Graph, nodes: Sequence[int]) -> bool:
    """True if the induced subgraph on ``nodes`` is connected (and non-empty)."""
    node_set = set(nodes)
    if not node_set:
        return False
    start = next(iter(node_set))
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor in node_set and neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return seen == node_set


def connected_components(graph: Graph) -> List[List[int]]:
    """All connected components as sorted node lists."""
    seen = [False] * graph.num_nodes
    components: List[List[int]] = []
    for start in graph.nodes():
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbor in graph.neighbors(node):
                if not seen[neighbor]:
                    seen[neighbor] = True
                    component.append(neighbor)
                    queue.append(neighbor)
        components.append(sorted(component))
    return components


def diameter(graph: Graph, nodes: Optional[Sequence[int]] = None) -> float:
    """Diameter of the induced subgraph on ``nodes`` (whole graph if None).

    Returns ``inf`` when the induced subgraph is disconnected.
    """
    if nodes is None:
        nodes = list(graph.nodes())
    sub, mapping = graph.subgraph(nodes)
    best = 0.0
    for node in range(sub.num_nodes):
        dist = bfs_distances(sub, node)
        for other in range(sub.num_nodes):
            if dist[other] == _INF:
                return _INF
            best = max(best, dist[other])
    return best


def graph_query_distance(graph: Graph, nodes: Sequence[int], query: Sequence[int]) -> float:
    """dist(G', Q) = max over nodes of the query distance inside the subgraph."""
    sub, mapping = graph.subgraph(nodes)
    query_mapped = [mapping[q] for q in query if q in mapping]
    if len(query_mapped) != len(set(query)):
        return _INF
    best = 0.0
    for q in query_mapped:
        dist = bfs_distances(sub, q)
        for other in range(sub.num_nodes):
            if dist[other] == _INF:
                return _INF
            best = max(best, dist[other])
    return best
