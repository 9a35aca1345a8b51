"""Closest Truss Community search — Algorithm 1 of the paper.

Given the DDI graph G, its truss numbers and the suggested drugs Q, find a
connected p-truss containing Q with large p and small query distance (a
proxy for diameter, following Huang et al. [22]):

1. truss-decompose G (once per graph, by the caller),
2. compute a Steiner tree T_s over Q using truss distances,
3. greedily grow T_s with adjacent edges whose truss number is at least the
   minimum truss number of T_s, up to a size budget (the "bulk" phase),
4. truss-decompose the bulked subgraph and keep the maximal connected
   p-truss containing Q with the largest feasible p,
5. iteratively delete the nodes furthest from Q while maintaining the
   p-truss property, tracking the best (smallest query-distance) candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from .graph import Edge, Graph, edge_key
from .shortest import bfs_distances, graph_query_distance, is_connected_subset
from .steiner import steiner_tree, truss_distance_weight
from .truss import peel_to_p_truss, truss_decomposition


@dataclass
class CTCResult:
    """Output of the closest-truss-community search.

    Attributes:
        nodes: community members (includes every query node on success).
        trussness: the p of the p-truss condition the community satisfies.
        query_distance: max distance from any member to the query set.
        edges: edges of the induced subgraph.
    """

    nodes: List[int]
    trussness: int
    query_distance: float
    edges: List[Edge] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.nodes)


def _induced_edges(graph: Graph, nodes: Set[int]) -> List[Edge]:
    return [
        (u, v)
        for u, v in graph.edges()
        if u in nodes and v in nodes
    ]


def _component_with_query(graph: Graph, nodes: Set[int], query: Sequence[int]) -> Optional[Set[int]]:
    """Connected component (within ``nodes``) containing all query nodes."""
    query_set = set(query)
    if not query_set <= nodes:
        return None
    start = next(iter(query_set))
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for neighbor in graph.neighbors(node):
            if neighbor in nodes and neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    if query_set <= seen:
        return seen
    return None


def closest_truss_community(
    graph: Graph,
    truss: Dict[Edge, int],
    query: Sequence[int],
    size_budget: int,
) -> Optional[CTCResult]:
    """Run Algorithm 1; returns None when the query is not connectable.

    Args:
        graph: the (unsigned) DDI graph.
        truss: ``truss_decomposition(graph)``, line 1 of Algorithm 1; it
            does not depend on the query, so callers compute it once.
        query: suggested drug ids Q.
        size_budget: n0 of Algorithm 1 — bulk growth stops at this many edges
            beyond the Steiner tree.
    """
    query = sorted(set(query))
    if not query:
        raise ValueError("query must contain at least one drug")
    for q in query:
        if not 0 <= q < graph.num_nodes:
            raise IndexError(f"query node {q} out of range")

    if len(query) == 1 and graph.degree(query[0]) == 0:
        # An isolated suggested drug explains itself: trivial community.
        return CTCResult(nodes=list(query), trussness=2, query_distance=0.0)

    max_truss = max(truss.values(), default=2)

    # Line 2: Steiner tree under truss distance.
    try:
        tree = steiner_tree(graph, query, truss_distance_weight(truss, max_truss))
    except ValueError:
        return None

    tree_edges = list(tree.edges())
    if tree_edges:
        p_floor = min(truss[edge_key(u, v)] for u, v in tree_edges)
    else:
        p_floor = 2

    # Lines 3-7: bulk the tree with adjacent edges of truss >= p_floor.
    nodes: Set[int] = set(query)
    for u, v in tree_edges:
        nodes.add(u)
        nodes.add(v)
    grown: Set[Edge] = set(tree_edges)
    frontier = list(nodes)
    while frontier and len(grown) < size_budget:
        node = frontier.pop(0)
        for neighbor in sorted(graph.neighbors(node)):
            edge = edge_key(node, neighbor)
            if edge in grown:
                continue
            if truss.get(edge, 2) >= p_floor:
                grown.add(edge)
                if neighbor not in nodes:
                    nodes.add(neighbor)
                    frontier.append(neighbor)
                if len(grown) >= size_budget:
                    break
    # Include all edges among collected nodes for the truss check.
    bulk = Graph(graph.num_nodes)
    for u, v in _induced_edges(graph, nodes):
        bulk.add_edge(u, v)

    # Lines 8-9: decompose the bulked graph; keep the best connected p-truss
    # containing Q.
    bulk_truss = truss_decomposition(bulk)
    best_p = 2
    for p in range(max(bulk_truss.values(), default=2), 1, -1):
        keep = {e for e, t in bulk_truss.items() if t >= p}
        sub = Graph(graph.num_nodes)
        for u, v in keep:
            sub.add_edge(u, v)
        members = _component_with_query(sub, {n for e in keep for n in e} | set(query), query)
        if members is not None:
            best_p = p
            break

    current = peel_to_p_truss(bulk, best_p)
    members = _component_with_query(
        current, {n for n in range(graph.num_nodes) if current.degree(n) > 0} | set(query), query
    )
    if members is None:
        members = set(query) | {n for e in _induced_edges(bulk, nodes) for n in e}
        current = bulk
        best_p = 2
        members = _component_with_query(current, members, query)
        if members is None:
            return None

    # Lines 10-14: shrink by removing furthest nodes while keeping Q connected.
    best = _snapshot(current, members, query, best_p)
    while True:
        distances = _query_distances(current, members, query)
        if not distances:
            break
        far = max(distances.values())
        if far <= 0:
            break
        to_delete = [n for n, d in distances.items() if d == far and n not in query]
        if not to_delete:
            break
        candidate_members = members - set(to_delete)
        candidate = Graph(graph.num_nodes)
        for u, v in _induced_edges(current, candidate_members):
            candidate.add_edge(u, v)
        candidate = peel_to_p_truss(candidate, best_p)
        surviving = _component_with_query(candidate, candidate_members, query)
        if surviving is None or not is_connected_subset(candidate, sorted(surviving)):
            break
        members = surviving
        current = candidate
        snapshot = _snapshot(current, members, query, best_p)
        if snapshot.query_distance <= best.query_distance:
            best = snapshot

    return best


def _query_distances(graph: Graph, members: Set[int], query: Sequence[int]) -> Dict[int, float]:
    sub, mapping = graph.subgraph(sorted(members))
    inverse = {new: old for old, new in mapping.items()}
    distances: Dict[int, float] = {}
    per_query: List[List[float]] = []
    for q in query:
        if q not in mapping:
            return {}
        per_query.append(bfs_distances(sub, mapping[q]))
    for new_id in range(sub.num_nodes):
        distances[inverse[new_id]] = max(dist[new_id] for dist in per_query)
    return distances


def _snapshot(current: Graph, members: Set[int], query: Sequence[int], p: int) -> CTCResult:
    member_list = sorted(members)
    edges = _induced_edges(current, members)
    return CTCResult(
        nodes=member_list,
        trussness=p,
        query_distance=graph_query_distance(current, member_list, list(query)),
        edges=edges,
    )
