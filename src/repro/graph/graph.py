"""Core graph types for the DSSDDI reproduction.

Three structures cover everything the paper needs:

* :class:`Graph` — a plain undirected graph used by the Medical Support
  module's community-search algorithms (truss decomposition, Steiner trees).
* :class:`SignedGraph` — the Drug-Drug Interaction graph of Definition 2:
  nodes are drugs, edges carry a sign (+1 synergistic, -1 antagonistic,
  0 explicitly-no-interaction as added during DDIGCN training).
* :class:`BipartiteGraph` — the patient-drug medication-use graph of
  Definition 3 used by the Medical Decision module.

All structures use contiguous integer node ids (0..n-1) and canonical
``(min(u, v), max(u, v))`` edge keys.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

Edge = Tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Canonical undirected edge key."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """Undirected simple graph with O(1) adjacency-set lookups."""

    def __init__(self, num_nodes: int = 0) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        self._adj: List[Set[int]] = [set() for _ in range(num_nodes)]
        self._edges: Set[Edge] = set()

    # -- construction ---------------------------------------------------
    @classmethod
    def from_edges(cls, num_nodes: int, edges: Iterable[Edge]) -> "Graph":
        graph = cls(num_nodes)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    def add_node(self) -> int:
        self._adj.append(set())
        return len(self._adj) - 1

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loops are not allowed (node {u})")
        self._check(u)
        self._check(v)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._edges.add(edge_key(u, v))

    def remove_edge(self, u: int, v: int) -> None:
        key = edge_key(u, v)
        if key not in self._edges:
            raise KeyError(f"edge {key} not in graph")
        self._edges.discard(key)
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def _check(self, node: int) -> None:
        if not 0 <= node < len(self._adj):
            raise IndexError(f"node {node} out of range (n={len(self._adj)})")

    # -- queries ----------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._edges

    def neighbors(self, node: int) -> Set[int]:
        self._check(node)
        return self._adj[node]

    def degree(self, node: int) -> int:
        return len(self.neighbors(node))

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges)

    def edge_set(self) -> Set[Edge]:
        return set(self._edges)

    def nodes(self) -> range:
        return range(self.num_nodes)

    def copy(self) -> "Graph":
        clone = Graph(self.num_nodes)
        clone._adj = [set(adj) for adj in self._adj]
        clone._edges = set(self._edges)
        return clone

    def subgraph(self, nodes: Iterable[int]) -> Tuple["Graph", Dict[int, int]]:
        """Induced subgraph; returns (graph, old->new id mapping)."""
        keep = sorted(set(nodes))
        mapping = {old: new for new, old in enumerate(keep)}
        sub = Graph(len(keep))
        for u, v in self._edges:
            if u in mapping and v in mapping:
                sub.add_edge(mapping[u], mapping[v])
        return sub, mapping

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency (small graphs only: the 86-drug DDI graph)."""
        mat = np.zeros((self.num_nodes, self.num_nodes))
        if self._edges:
            edges = np.fromiter(
                (node for edge in self._edges for node in edge),
                dtype=np.int64,
                count=2 * len(self._edges),
            ).reshape(-1, 2)
            mat[edges[:, 0], edges[:, 1]] = 1.0
            mat[edges[:, 1], edges[:, 0]] = 1.0
        return mat

    def __repr__(self) -> str:
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"


class SignedGraph:
    """Drug-Drug Interaction graph (Definition 2).

    Edges carry a sign in {+1, -1, 0}:
    +1 synergistic, -1 antagonistic, 0 an explicit "no interaction" edge
    (the third edge type sampled during DDIGCN training, Sec. IV-A1).
    """

    VALID_SIGNS = (-1, 0, 1)

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        self._num_nodes = num_nodes
        self._signs: Dict[Edge, int] = {}
        self._adj: List[Set[int]] = [set() for _ in range(num_nodes)]

    @classmethod
    def from_signed_edges(
        cls, num_nodes: int, edges: Iterable[Tuple[int, int, int]]
    ) -> "SignedGraph":
        graph = cls(num_nodes)
        for u, v, sign in edges:
            graph.add_edge(u, v, sign)
        return graph

    def add_edge(self, u: int, v: int, sign: int) -> None:
        if sign not in self.VALID_SIGNS:
            raise ValueError(f"sign must be one of {self.VALID_SIGNS}, got {sign}")
        if u == v:
            raise ValueError(f"self-loops are not allowed (node {u})")
        for node in (u, v):
            if not 0 <= node < self._num_nodes:
                raise IndexError(f"node {node} out of range (n={self._num_nodes})")
        self._signs[edge_key(u, v)] = sign
        self._adj[u].add(v)
        self._adj[v].add(u)

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return len(self._signs)

    def sign(self, u: int, v: int) -> int:
        """Sign of edge (u, v); raises KeyError when absent."""
        return self._signs[edge_key(u, v)]

    def sign_or_none(self, u: int, v: int) -> Optional[int]:
        return self._signs.get(edge_key(u, v))

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._signs

    def neighbors(self, node: int) -> Set[int]:
        return self._adj[node]

    def positive_neighbors(self, node: int) -> Set[int]:
        """Drugs with a synergistic edge to ``node`` (B_v in SGCN notation)."""
        return {v for v in self._adj[node] if self._signs[edge_key(node, v)] == 1}

    def negative_neighbors(self, node: int) -> Set[int]:
        """Drugs with an antagonistic edge to ``node`` (U_v in SGCN notation)."""
        return {v for v in self._adj[node] if self._signs[edge_key(node, v)] == -1}

    def edges_with_signs(self) -> Iterator[Tuple[int, int, int]]:
        for (u, v), sign in self._signs.items():
            yield u, v, sign

    def edges_of_sign(self, sign: int) -> List[Edge]:
        return [edge for edge, s in self._signs.items() if s == sign]

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge list as ``(u, v, sign)`` int64 arrays (one row per edge).

        Single-pass extraction used by the vectorized adjacency builders
        in :mod:`repro.gnn.propagation`; each undirected edge appears
        once, in canonical ``u <= v`` orientation and insertion order.
        """
        count = len(self._signs)
        if count == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        endpoints = np.fromiter(
            (node for edge in self._signs for node in edge),
            dtype=np.int64,
            count=2 * count,
        ).reshape(-1, 2)
        signs = np.fromiter(self._signs.values(), dtype=np.int64, count=count)
        return endpoints[:, 0].copy(), endpoints[:, 1].copy(), signs

    def signed_adjacency(self) -> np.ndarray:
        """Dense signed adjacency matrix (the paper's DDI matrix of Fig. 4a)."""
        mat = np.zeros((self._num_nodes, self._num_nodes))
        u, v, signs = self.edge_arrays()
        mat[u, v] = signs.astype(np.float64)
        mat[v, u] = signs.astype(np.float64)
        return mat

    def to_unsigned(self, include_zero: bool = False) -> Graph:
        """Forget signs; the MS module searches this unsigned structure.

        ``include_zero=False`` drops the sampled "no interaction" edges so
        the community search only sees real synergy/antagonism edges.
        """
        graph = Graph(self._num_nodes)
        for (u, v), sign in self._signs.items():
            if sign != 0 or include_zero:
                graph.add_edge(u, v)
        return graph

    def copy(self) -> "SignedGraph":
        clone = SignedGraph(self._num_nodes)
        clone._signs = dict(self._signs)
        clone._adj = [set(adj) for adj in self._adj]
        return clone

    def __repr__(self) -> str:
        pos = len(self.edges_of_sign(1))
        neg = len(self.edges_of_sign(-1))
        zero = len(self.edges_of_sign(0))
        return f"SignedGraph(n={self._num_nodes}, +{pos}/-{neg}/0:{zero})"


class BipartiteGraph:
    """Patient-drug medication-use graph (Definition 3).

    Patients and drugs keep separate id spaces; the graph stores the binary
    medication-use matrix Y (y_iv = 1 iff patient i takes drug v) plus
    adjacency lists in both directions for message passing.
    """

    def __init__(self, num_patients: int, num_drugs: int) -> None:
        if num_patients < 0 or num_drugs < 0:
            raise ValueError("sizes must be non-negative")
        self.num_patients = num_patients
        self.num_drugs = num_drugs
        self._patient_adj: List[Set[int]] = [set() for _ in range(num_patients)]
        self._drug_adj: List[Set[int]] = [set() for _ in range(num_drugs)]

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "BipartiteGraph":
        matrix = np.asarray(matrix)
        graph = cls(*matrix.shape)
        rows, cols = np.nonzero(matrix)
        for i, v in zip(rows.tolist(), cols.tolist()):
            graph.add_link(i, v)
        return graph

    def add_link(self, patient: int, drug: int) -> None:
        if not 0 <= patient < self.num_patients:
            raise IndexError(f"patient {patient} out of range")
        if not 0 <= drug < self.num_drugs:
            raise IndexError(f"drug {drug} out of range")
        self._patient_adj[patient].add(drug)
        self._drug_adj[drug].add(patient)

    def has_link(self, patient: int, drug: int) -> bool:
        return drug in self._patient_adj[patient]

    def drugs_of(self, patient: int) -> Set[int]:
        """N_i: the set of drugs patient i takes."""
        return self._patient_adj[patient]

    def patients_of(self, drug: int) -> Set[int]:
        """N_v: the set of patients taking drug v."""
        return self._drug_adj[drug]

    @property
    def num_links(self) -> int:
        return sum(len(adj) for adj in self._patient_adj)

    def links(self) -> Iterator[Tuple[int, int]]:
        for patient, drugs in enumerate(self._patient_adj):
            for drug in sorted(drugs):
                yield patient, drug

    def link_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """All links as parallel ``(patients, drugs)`` int64 arrays."""
        count = self.num_links
        if count == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        patients = np.empty(count, dtype=np.int64)
        drugs = np.empty(count, dtype=np.int64)
        offset = 0
        for patient, adj in enumerate(self._patient_adj):
            stop = offset + len(adj)
            patients[offset:stop] = patient
            drugs[offset:stop] = sorted(adj)
            offset = stop
        return patients, drugs

    def to_matrix(self) -> np.ndarray:
        mat = np.zeros((self.num_patients, self.num_drugs))
        patients, drugs = self.link_arrays()
        mat[patients, drugs] = 1.0
        return mat

    def link_density(self) -> float:
        """Fraction of the patient x drug grid that carries a link."""
        size = self.num_patients * self.num_drugs
        return self.num_links / size if size else 0.0

    def normalized_adjacency(self):
        """Symmetric-normalized propagation matrices for MDGCN (Eq. 11-12).

        Returns ``(P2D, D2P)`` where ``P2D[i, v] = 1/sqrt(|N_i||N_v|)`` for a
        link between patient i and drug v.  ``P2D @ drug_features`` updates
        patients; ``D2P = P2D.T`` updates drugs.

        The representation follows the density rule of
        :mod:`repro.nn.sparse`: large graphs whose link density is at
        most the threshold come back as ``scipy.sparse`` CSR matrices
        (built directly from the link arrays, never densified);
        everything else keeps the seed's dense arithmetic bitwise.
        """
        from ..nn import sparse as sparse_backend

        patients, drugs = self.link_arrays()
        shape = (self.num_patients, self.num_drugs)
        patient_deg = np.zeros(self.num_patients)
        np.add.at(patient_deg, patients, 1.0)
        drug_deg = np.zeros(self.num_drugs)
        np.add.at(drug_deg, drugs, 1.0)
        patient_deg = np.maximum(patient_deg, 1.0)
        drug_deg = np.maximum(drug_deg, 1.0)
        if sparse_backend.should_sparsify(shape, len(patients)):
            data = 1.0 / np.sqrt(patient_deg)[patients] / np.sqrt(drug_deg)[drugs]
            norm = sparse_backend.csr_from_entries(shape, patients, drugs, data)
            return norm, norm.T.tocsr()
        mat = np.zeros(shape)
        mat[patients, drugs] = 1.0
        norm = mat / np.sqrt(patient_deg)[:, None] / np.sqrt(drug_deg)[None, :]
        return norm, norm.T

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(patients={self.num_patients}, "
            f"drugs={self.num_drugs}, links={self.num_links})"
        )
