"""Closest Truss Community search — Algorithm 1 of the paper.

Given the DDI graph G, its truss numbers and the suggested drugs Q, find a
connected p-truss containing Q with large p and small query distance (a
proxy for diameter, following Huang et al. [22]):

1. truss-decompose G (once per graph, by the caller),
2. compute a Steiner tree T_s over Q using truss distances,
3. greedily grow T_s with adjacent edges whose truss number is at least the
   minimum truss number of T_s, up to a size budget (the "bulk" phase),
4. truss-decompose the bulked subgraph and keep the maximal connected
   p-truss containing Q with the largest feasible p (the edges of bulk
   truss number >= p),
5. iteratively delete the nodes furthest from Q while maintaining the
   p-truss property, tracking the best (smallest query-distance) candidate.

Steps 4 and 5 work on per-node neighbour sets of the bulked subgraph:
peeling edits them in place, and one BFS per query node per step gives
both the component holding Q and every member's query distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from .graph import Edge, Graph, edge_key
from .steiner import steiner_tree, truss_distance_weight
from .truss import truss_decomposition

Adjacency = Dict[int, Set[int]]


@dataclass
class CTCResult:
    """Output of the closest-truss-community search.

    Attributes:
        nodes: community members (includes every query node on success).
        trussness: the p of the p-truss condition the community satisfies.
        query_distance: max distance from any member to the query set.
        edges: edges of the induced subgraph, sorted.
    """

    nodes: List[int]
    trussness: int
    query_distance: float
    edges: List[Edge] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.nodes)


def _bfs(adj: Adjacency, source: int) -> Dict[int, int]:
    """Hop distance from ``source`` to every node it reaches."""
    dist = {source: 0}
    level = [source]
    while level:
        following = []
        for node in level:
            for neighbor in adj[node]:
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    following.append(neighbor)
        level = following
    return dist


def _query_distances(adj: Adjacency, query: Sequence[int]) -> Optional[Dict[int, int]]:
    """Each node's largest hop distance to a query node, over the component
    of ``adj`` holding the query; None when the query is split."""
    per_query = [_bfs(adj, q) for q in query]
    if any(q not in per_query[0] for q in query):
        return None
    return {n: max(dist[n] for dist in per_query) for n in per_query[0]}


def _peel(adj: Adjacency, p: int) -> None:
    """Delete edges in fewer than p - 2 triangles until none is left, in
    place: what remains is the maximal p-truss of ``adj``."""
    pending = [(u, v) for u, near in adj.items() for v in near if u < v]
    while pending:
        u, v = pending.pop()
        if v not in adj[u]:
            continue
        common = adj[u] & adj[v]
        if len(common) < p - 2:
            adj[u].discard(v)
            adj[v].discard(u)
            for w in common:
                pending.append((u, w))
                pending.append((v, w))


def _community(adj: Adjacency, dist: Dict[int, int], p: int) -> CTCResult:
    return CTCResult(
        nodes=sorted(dist),
        trussness=p,
        query_distance=float(max(dist.values())),
        edges=sorted((u, v) for u in dist for v in adj[u] if u < v),
    )


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
    p_floor = min((truss[edge_key(u, v)] for u, v in tree_edges), default=2)

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
    bulk = Graph.from_edges(
        graph.num_nodes, [(u, v) for u, v in graph.edges() if u in nodes and v in nodes]
    )

    # Lines 8-9: decompose the bulked graph; the edges of bulk truss >= p
    # form its maximal p-truss, so the best p is the largest one whose
    # p-truss connects Q (p = 2 always does: it holds the Steiner tree).
    bulk_truss = truss_decomposition(bulk)
    adj: Adjacency = {n: set() for n in nodes}
    for p in range(max(bulk_truss.values(), default=2), 1, -1):
        for (u, v), t in bulk_truss.items():
            if t == p:
                adj[u].add(v)
                adj[v].add(u)
        dist = _query_distances(adj, query)
        if dist is not None:
            break

    # Lines 10-14: shrink by removing furthest nodes while keeping Q connected.
    best = _community(adj, dist, p)
    while True:
        far = max(dist.values())
        to_delete = {n for n, d in dist.items() if d == far}.difference(query)
        if not to_delete:
            break
        members = dist.keys() - to_delete
        adj = {n: adj[n] & members for n in members}
        _peel(adj, p)
        dist = _query_distances(adj, query)
        if dist is None:
            break
        snapshot = _community(adj, dist, p)
        if snapshot.query_distance <= best.query_distance:
            best = snapshot

    return best
