"""Tests for triangles, truss decomposition, Steiner trees and CTC search.

networkx is used as an independent oracle for triangle counts and
connectivity where possible.
"""

from functools import lru_cache

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import generate_chronic_cohort, generate_ddi
from repro.graph import (
    Graph,
    all_edge_supports,
    bfs_distances,
    closest_truss_community,
    connected_components,
    count_triangles,
    diameter,
    edge_key,
    edge_support,
    graph_query_distance,
    is_connected_subset,
    is_p_truss,
    steiner_tree,
    truss_decomposition,
    truss_distance_weight,
    triangles,
)


def complete_graph(n: int) -> Graph:
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def to_networkx(g: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.num_nodes))
    nxg.add_edges_from(g.edges())
    return nxg


random_graphs = st.builds(
    lambda n, pairs: Graph.from_edges(
        n, [(u % n, v % n) for u, v in pairs if u % n != v % n]
    ),
    st.integers(3, 12),
    st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=40),
)


class TestTriangles:
    def test_triangle_count_on_k4(self):
        assert count_triangles(complete_graph(4)) == 4

    def test_edge_support_on_k4(self):
        g = complete_graph(4)
        assert edge_support(g, 0, 1) == 2

    def test_support_missing_edge_raises(self):
        g = Graph(3)
        with pytest.raises(KeyError):
            edge_support(g, 0, 1)

    def test_triangles_are_ordered_and_unique(self):
        g = complete_graph(4)
        tris = list(triangles(g))
        assert len(tris) == len(set(tris)) == 4
        assert all(u < v < w for u, v, w in tris)

    @settings(max_examples=25, deadline=None)
    @given(random_graphs)
    def test_triangle_count_matches_networkx(self, g):
        ours = count_triangles(g)
        theirs = sum(nx.triangles(to_networkx(g)).values()) // 3
        assert ours == theirs


class TestTrussDecomposition:
    def test_k4_is_4_truss(self):
        truss = truss_decomposition(complete_graph(4))
        assert all(v == 4 for v in truss.values())

    def test_k5_is_5_truss(self):
        truss = truss_decomposition(complete_graph(5))
        assert all(v == 5 for v in truss.values())

    def test_tree_edges_are_2_truss(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        truss = truss_decomposition(g)
        assert all(v == 2 for v in truss.values())

    def test_triangle_is_3_truss(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        truss = truss_decomposition(g)
        assert all(v == 3 for v in truss.values())

    def test_mixed_graph(self):
        # K4 plus a pendant path: K4 edges 4-truss, path edges 2-truss.
        g = complete_graph(4)
        g = Graph.from_edges(6, list(g.edges()) + [(3, 4), (4, 5)])
        truss = truss_decomposition(g)
        assert truss[edge_key(0, 1)] == 4
        assert truss[edge_key(3, 4)] == 2
        assert truss[edge_key(4, 5)] == 2

    def test_is_p_truss_definition(self):
        assert is_p_truss(complete_graph(4), 4)
        assert not is_p_truss(Graph.from_edges(3, [(0, 1), (1, 2)]), 3)

    @settings(max_examples=20, deadline=None)
    @given(random_graphs)
    def test_truss_subgraph_satisfies_definition(self, g):
        """For every reported truss level p, edges with truss >= p form a p-truss."""
        truss = truss_decomposition(g)
        if not truss:
            return
        for p in sorted(set(truss.values())):
            sub = Graph(g.num_nodes)
            for (u, v), t in truss.items():
                if t >= p:
                    sub.add_edge(u, v)
            assert is_p_truss(sub, p)

    @settings(max_examples=20, deadline=None)
    @given(random_graphs)
    def test_truss_maximality(self, g):
        """No edge's truss number can be raised: edges at level p are not in any (p+1)-truss."""
        truss = truss_decomposition(g)
        for (u, v), p in truss.items():
            higher = Graph(g.num_nodes)
            for (a, b), t in truss.items():
                if t >= p + 1:
                    higher.add_edge(a, b)
            assert not higher.has_edge(u, v)


class TestShortestPaths:
    def test_bfs_distances_line(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert bfs_distances(g, 0) == [0.0, 1.0, 2.0, 3.0]

    def test_bfs_unreachable_inf(self):
        g = Graph(3)
        g.add_edge(0, 1)
        assert bfs_distances(g, 0)[2] == float("inf")

    def test_connected_components(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        comps = connected_components(g)
        assert [0, 1] in comps and [2, 3] in comps and [4] in comps

    def test_is_connected_subset(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert is_connected_subset(g, [0, 1, 2])
        assert not is_connected_subset(g, [0, 2])  # 1 missing breaks the path
        assert not is_connected_subset(g, [])

    def test_diameter_cycle(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert diameter(g) == 2.0

    def test_diameter_disconnected_inf(self):
        g = Graph(3)
        g.add_edge(0, 1)
        assert diameter(g) == float("inf")

    def test_graph_query_distance_subgraph(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert graph_query_distance(g, [0, 1, 2], [0]) == 2.0


class TestSteinerTree:
    def test_two_terminals_shortest_path(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        tree = steiner_tree(g, [1, 3])
        assert tree.num_edges == 2  # path 1-2-3

    def test_terminals_covered_and_tree(self):
        g = complete_graph(6)
        tree = steiner_tree(g, [0, 2, 4])
        # a tree has exactly (#nodes_in_tree - 1) edges and no cycles
        used_nodes = {n for e in tree.edges() for n in e}
        assert {0, 2, 4} <= used_nodes
        assert tree.num_edges == len(used_nodes) - 1
        assert is_connected_subset(tree, sorted(used_nodes))

    def test_single_terminal_empty_tree(self):
        g = complete_graph(3)
        tree = steiner_tree(g, [1])
        assert tree.num_edges == 0

    def test_disconnected_terminals_raise(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(ValueError):
            steiner_tree(g, [0, 3])

    def test_no_terminals_raise(self):
        with pytest.raises(ValueError):
            steiner_tree(Graph(2), [])

    def test_truss_weight_prefers_dense_paths(self):
        # Two routes from 0 to 5: a direct sparse path (0-6-5) and a route
        # through a K4 (0,1,2,3) then 3-4-5.  With truss weights the K4 edges
        # are much cheaper individually, but the hop count matters too; we
        # simply check the tree connects terminals and is valid.
        g = complete_graph(4)
        g = Graph.from_edges(7, list(g.edges()) + [(3, 4), (4, 5), (0, 6), (6, 5)])
        truss = truss_decomposition(g)
        tree = steiner_tree(g, [0, 5], truss_distance_weight(truss, max(truss.values())))
        used = {n for e in tree.edges() for n in e}
        assert {0, 5} <= used
        assert is_connected_subset(tree, sorted(used))

    @settings(max_examples=20, deadline=None)
    @given(random_graphs, st.data())
    def test_steiner_tree_properties(self, g, data):
        comps = [c for c in connected_components(g) if len(c) >= 2]
        if not comps:
            return
        comp = comps[0]
        k = data.draw(st.integers(2, min(4, len(comp))))
        terminals = comp[:k]
        tree = steiner_tree(g, terminals)
        used = {n for e in tree.edges() for n in e} or set(terminals)
        assert set(terminals) <= used
        # tree property: |E| = |V| - 1 over the used nodes, connected
        assert tree.num_edges == len(used) - 1
        assert is_connected_subset(tree, sorted(used))
        # subgraph property: every tree edge exists in g
        for u, v in tree.edges():
            assert g.has_edge(u, v)


def ctc(g: Graph, query):
    """Algorithm 1 with the truss numbers of ``g`` and the default budget."""
    return closest_truss_community(g, truss_decomposition(g), query, 60)


def community_diameter(g: Graph, result) -> float:
    """Diameter of the community over its own (p-truss) edges."""
    return diameter(Graph.from_edges(g.num_nodes, result.edges), result.nodes)


class TestClosestTrussCommunity:
    def test_k4_query_returns_k4(self):
        g = complete_graph(4)
        result = ctc(g, [0, 1])
        assert result is not None
        assert set(result.nodes) >= {0, 1}
        assert result.trussness == 4

    def test_query_in_dense_plus_tail(self):
        # K4 core with a long tail; querying two core nodes should not drag
        # the tail into the community.
        g = complete_graph(4)
        g = Graph.from_edges(8, list(g.edges()) + [(3, 4), (4, 5), (5, 6), (6, 7)])
        result = ctc(g, [0, 1])
        assert result is not None
        assert set(result.nodes) == {0, 1, 2, 3}

    def test_disconnected_query_returns_none(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        assert ctc(g, [0, 3]) is None

    def test_isolated_single_query(self):
        g = Graph(3)
        g.add_edge(1, 2)
        result = ctc(g, [0])
        assert result is not None
        assert result.nodes == [0]

    def test_empty_query_raises(self):
        with pytest.raises(ValueError):
            ctc(complete_graph(3), [])

    def test_out_of_range_query_raises(self):
        with pytest.raises(IndexError):
            ctc(complete_graph(3), [7])

    def test_result_contains_query_and_connected(self):
        rng = np.random.default_rng(0)
        g = Graph(20)
        for u in range(20):
            for v in range(u + 1, 20):
                if rng.random() < 0.25:
                    g.add_edge(u, v)
        comp = max(connected_components(g), key=len)
        query = comp[:3]
        result = ctc(g, query)
        assert result is not None
        assert set(query) <= set(result.nodes)
        assert is_connected_subset(g, result.nodes) or len(result.nodes) == 1

    def test_result_diameter_finite(self):
        g = complete_graph(5)
        result = ctc(g, [0, 4])
        span = community_diameter(g, result)
        assert span < float("inf")
        assert result.query_distance <= span

    @settings(max_examples=15, deadline=None)
    @given(random_graphs, st.data())
    def test_ctc_invariants(self, g, data):
        comps = [c for c in connected_components(g) if len(c) >= 2]
        if not comps:
            return
        comp = comps[0]
        k = data.draw(st.integers(1, min(3, len(comp))))
        query = comp[:k]
        result = ctc(g, query)
        if result is None:
            return
        assert set(query) <= set(result.nodes)
        assert result.trussness >= 2
        span = community_diameter(g, result)
        assert result.query_distance <= span or span == 0.0
        # every reported edge must exist in the original graph
        for u, v in result.edges:
            assert g.has_edge(u, v)


@lru_cache(maxsize=None)
def ddi_graph(name: str):
    """An unsigned DDI graph and its truss numbers, built once per name."""
    if name == "chronic":
        signed = generate_chronic_cohort().ddi.graph
    else:
        signed = generate_ddi(seed=7).graph
    g = signed.to_unsigned()
    return g, truss_decomposition(g)


class TestAlgorithm1Property:
    """Random 1-6-drug queries on real DDI graphs at several size budgets
    (the regression fixture pins budget 60 only): every community is a
    connected p-truss around the query with its reported query distance."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["chronic", "ddi7"]),
        st.sampled_from([1, 5, 60]),
        st.data(),
    )
    def test_community_is_connected_p_truss_around_query(self, name, budget, data):
        g, truss = ddi_graph(name)
        query = data.draw(
            st.lists(
                st.integers(0, g.num_nodes - 1), min_size=1, max_size=6, unique=True
            )
        )
        result = closest_truss_community(g, truss, query, budget)
        if result is None:
            return
        assert set(query) <= set(result.nodes)
        assert result.nodes == sorted(result.nodes)
        own = Graph.from_edges(g.num_nodes, result.edges)
        assert is_p_truss(own, result.trussness)
        assert result.nodes in connected_components(own)
        assert result.query_distance == graph_query_distance(
            own, result.nodes, query
        )
