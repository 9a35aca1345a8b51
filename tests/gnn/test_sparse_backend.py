"""Sparse-vs-dense equivalence suite for the CSR propagation path.

Every adjacency producer must yield the same matrix (within 1e-9, in
practice bitwise) whether the density rule is forced to pick dense or
CSR (the ``representation`` fixture of the root ``conftest.py`` patches
the rule's two constants), the sparse ``matmul_fixed`` must match its
dense twin in both the forward and the backward pass, and the
end-to-end module outputs (``MDModule.predict_scores``,
``DDIModule.fit`` embeddings) must agree across representations.
"""

import numpy as np
import pytest

from repro.core import DDIGCNConfig, DDIModule, MDGCNConfig, MDModule
from repro.gnn import (
    bipartite_propagation,
    interaction_mean_adjacency,
    mean_adjacency,
    signed_mean_adjacencies,
    symmetric_adjacency,
)
from repro.graph import BipartiteGraph, SignedGraph
from repro.nn import Tensor, matmul_fixed
from repro.nn import sparse as sparse_backend
from repro.serving import BatchScorer

ATOL = 1e-9


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def signed_graph(rng):
    graph = SignedGraph(30)
    pairs = {
        (int(u), int(v))
        for u, v in rng.integers(0, 30, size=(120, 2))
        if u != v
    }
    for i, (u, v) in enumerate(sorted(pairs)):
        graph.add_edge(u, v, (-1, 0, 1)[i % 3])
    return graph


@pytest.fixture
def bipartite_graph(rng):
    matrix = (rng.random((40, 18)) < 0.15).astype(float)
    matrix[0] = 0.0  # isolated patient
    matrix[:, 1] = 0.0  # unused drug
    matrix[1, 2] = 1.0
    return BipartiteGraph.from_matrix(matrix)


def _dense(mat):
    return sparse_backend.to_dense(mat)


def _both(representation, build):
    """``build()`` once with the rule forced dense, once forced sparse."""
    with representation("dense"):
        dense = build()
    with representation("sparse"):
        sparse = build()
    return dense, sparse


class TestPolicy:
    def test_backends_validate(self, representation):
        rule = (sparse_backend.MIN_SIZE, sparse_backend.DENSITY_THRESHOLD)
        with pytest.raises(ValueError):
            with representation("csr"):
                pass
        with representation("dense"):
            assert not sparse_backend.should_sparsify((5000, 500), 1)
        assert (sparse_backend.MIN_SIZE, sparse_backend.DENSITY_THRESHOLD) == rule

    def test_auto_keeps_small_matrices_dense(self):
        # Far below the size floor: even a very sparse matrix stays dense.
        assert not sparse_backend.should_sparsify((30, 30), 4)

    def test_auto_sparsifies_large_sparse_matrices(self):
        assert sparse_backend.should_sparsify((5000, 500), 25000)

    def test_forced_backends_override_policy(self, representation):
        with representation("sparse"):
            assert sparse_backend.should_sparsify((3, 3), 9)
        with representation("dense"):
            assert not sparse_backend.should_sparsify((5000, 500), 1)

    def test_maybe_sparse_round_trip(self, rng, representation):
        dense = (rng.random((20, 20)) < 0.1).astype(float)
        with representation("sparse"):
            csr = sparse_backend.maybe_sparse(dense)
        assert sparse_backend.is_sparse(csr)
        with representation("dense"):
            back = sparse_backend.maybe_sparse(csr)
        assert isinstance(back, np.ndarray)
        np.testing.assert_array_equal(back, dense)

    def test_matmul_mixed_operands(self, rng):
        a = (rng.random((12, 9)) < 0.3).astype(float)
        b = rng.normal(size=(9, 5))
        a_csr = sparse_backend.as_csr(a)
        b_csr = sparse_backend.as_csr(b)
        expected = a @ b
        np.testing.assert_allclose(sparse_backend.matmul(a_csr, b), expected, atol=ATOL)
        np.testing.assert_allclose(sparse_backend.matmul(a, b_csr), expected, atol=ATOL)
        np.testing.assert_allclose(
            sparse_backend.matmul(a_csr, b_csr), expected, atol=ATOL
        )


class TestNormalizerEquivalence:
    def test_mean_adjacency(self, rng, representation):
        adj = (rng.random((25, 25)) < 0.2).astype(float)
        dense, sparse = _both(representation, lambda: mean_adjacency(adj))
        assert sparse_backend.is_sparse(sparse)
        np.testing.assert_allclose(_dense(sparse), dense, atol=ATOL)

    def test_mean_adjacency_accepts_sparse_input(self, rng, representation):
        adj = (rng.random((25, 25)) < 0.2).astype(float)
        with representation("sparse"):
            from_sparse = mean_adjacency(sparse_backend.as_csr(adj))
        with representation("dense"):
            dense = mean_adjacency(adj)
        np.testing.assert_allclose(_dense(from_sparse), dense, atol=ATOL)

    @pytest.mark.parametrize("self_loops", [False, True])
    def test_symmetric_adjacency(self, rng, representation, self_loops):
        base = (rng.random((25, 25)) < 0.2).astype(float)
        adj = np.maximum(base, base.T)
        dense, sparse = _both(
            representation, lambda: symmetric_adjacency(adj, self_loops=self_loops)
        )
        assert sparse_backend.is_sparse(sparse)
        np.testing.assert_allclose(_dense(sparse), dense, atol=ATOL)
        with representation("sparse"):
            from_sparse = symmetric_adjacency(
                sparse_backend.as_csr(adj), self_loops=self_loops
            )
        np.testing.assert_allclose(_dense(from_sparse), dense, atol=ATOL)

    def test_signed_mean_adjacencies(self, signed_graph, representation):
        (pos_d, neg_d), (pos_s, neg_s) = _both(
            representation, lambda: signed_mean_adjacencies(signed_graph)
        )
        assert sparse_backend.is_sparse(pos_s) and sparse_backend.is_sparse(neg_s)
        np.testing.assert_allclose(_dense(pos_s), pos_d, atol=ATOL)
        np.testing.assert_allclose(_dense(neg_s), neg_d, atol=ATOL)

    @pytest.mark.parametrize("include_zero", [True, False])
    def test_interaction_mean_adjacency(self, signed_graph, representation, include_zero):
        dense, sparse = _both(
            representation,
            lambda: interaction_mean_adjacency(signed_graph, include_zero=include_zero),
        )
        assert sparse_backend.is_sparse(sparse)
        np.testing.assert_allclose(_dense(sparse), dense, atol=ATOL)

    def test_bipartite_propagation(self, bipartite_graph, representation):
        (p2d_d, d2p_d), (p2d_s, d2p_s) = _both(
            representation, lambda: bipartite_propagation(bipartite_graph)
        )
        assert sparse_backend.is_sparse(p2d_s) and sparse_backend.is_sparse(d2p_s)
        np.testing.assert_allclose(_dense(p2d_s), p2d_d, atol=ATOL)
        np.testing.assert_allclose(_dense(d2p_s), d2p_d, atol=ATOL)

    def test_normalized_adjacency_backend_arg(self, bipartite_graph, representation):
        (dense_p2d, _), (p2d, d2p) = _both(
            representation, bipartite_graph.normalized_adjacency
        )
        assert sparse_backend.is_sparse(p2d)
        np.testing.assert_allclose(_dense(p2d), dense_p2d, atol=ATOL)
        np.testing.assert_allclose(_dense(d2p), dense_p2d.T, atol=ATOL)


class TestSparseMatmulFixed:
    def test_forward_matches_dense(self, rng):
        a = (rng.random((14, 10)) < 0.3) * rng.normal(size=(14, 10))
        x = Tensor(rng.normal(size=(10, 6)), requires_grad=True)
        dense_out = matmul_fixed(a, x)
        sparse_out = matmul_fixed(sparse_backend.as_csr(a), x)
        assert isinstance(sparse_out.data, np.ndarray)
        np.testing.assert_allclose(sparse_out.data, dense_out.data, atol=ATOL)

    def test_backward_matches_dense(self, rng):
        a = (rng.random((14, 10)) < 0.3) * rng.normal(size=(14, 10))
        seed_grad = rng.normal(size=(14, 6))

        x_dense = Tensor(rng.normal(size=(10, 6)), requires_grad=True)
        matmul_fixed(a, x_dense).backward(seed_grad)
        x_sparse = Tensor(x_dense.data.copy(), requires_grad=True)
        matmul_fixed(sparse_backend.as_csr(a), x_sparse).backward(seed_grad)
        np.testing.assert_allclose(x_sparse.grad, x_dense.grad, atol=ATOL)

    def test_gradient_check_numeric(self, rng):
        a = sparse_backend.as_csr(
            (rng.random((6, 5)) < 0.5) * rng.normal(size=(6, 5))
        )
        x0 = rng.normal(size=(5, 3))
        w = rng.normal(size=(6, 3))

        def loss_value(values: np.ndarray) -> float:
            return float((np.asarray(a @ values) * w).sum())

        x = Tensor(x0.copy(), requires_grad=True)
        (matmul_fixed(a, x) * Tensor(w)).sum().backward()
        eps = 1e-6
        numeric = np.zeros_like(x0)
        for i in range(x0.shape[0]):
            for j in range(x0.shape[1]):
                bumped = x0.copy()
                bumped[i, j] += eps
                dipped = x0.copy()
                dipped[i, j] -= eps
                numeric[i, j] = (loss_value(bumped) - loss_value(dipped)) / (2 * eps)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5)


class TestFusedOps:
    """The fused hot-path ops must replay the generic autograd ops bitwise."""

    def test_pair_interaction_logits_matches_generic(self, rng):
        from repro.nn import MLP, concat, gather_rows
        from repro.nn.fused import can_fuse_pair_mlp, pair_interaction_logits

        h = 8
        mlp = MLP([h + 1, h, 1], rng, activation="relu")
        assert can_fuse_pair_mlp(mlp)
        hp = Tensor(rng.normal(size=(20, h)), requires_grad=True)
        hd = Tensor(rng.normal(size=(6, h)), requires_grad=True)
        li = rng.integers(0, 20, size=40)
        ri = rng.integers(0, 6, size=40)
        extra = rng.integers(0, 2, size=40).astype(float)
        seed_grad = rng.normal(size=40)

        fused = pair_interaction_logits(hp, hd, li, ri, extra, mlp)
        fused.backward(seed_grad)
        fused_grads = (
            hp.grad.copy(), hd.grad.copy(),
            *[p.grad.copy() for p in mlp.parameters()],
        )
        hp.zero_grad(); hd.zero_grad()
        for p in mlp.parameters():
            p.zero_grad()
        generic = mlp(
            concat(
                [gather_rows(hp, li) * gather_rows(hd, ri),
                 Tensor(extra.reshape(-1, 1))],
                axis=1,
            )
        ).reshape(-1)
        np.testing.assert_array_equal(fused.data, generic.data)
        generic.backward(seed_grad)
        generic_grads = (
            hp.grad, hd.grad, *[p.grad for p in mlp.parameters()]
        )
        for got, expected in zip(fused_grads, generic_grads):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("terms", [1, 2, 3])
    def test_pair_interaction_logits_terms_match_per_term_calls(self, rng, terms):
        """A (terms, rows) ``extra`` decodes each term in one node: logits
        and W1/b1/W2/b2 gradients equal separate 1-D calls bitwise (their
        gradients summed in term order); the h gradients are summed
        before the shared GEMM and scatter, so they match to rounding."""
        from repro.nn import MLP
        from repro.nn.fused import pair_interaction_logits

        h, rows = 8, 40
        mlp = MLP([h + 1, h, 1], rng, activation="relu")
        hp = Tensor(rng.normal(size=(20, h)), requires_grad=True)
        hd = Tensor(rng.normal(size=(6, h)), requires_grad=True)
        li = rng.integers(0, 20, size=rows)
        ri = rng.integers(0, 6, size=rows)
        extra = rng.integers(0, 2, size=(terms, rows)).astype(float)
        seed_grad = rng.normal(size=(terms, rows))
        params = [hp, hd, *mlp.parameters()]

        expected_logits = []
        expected_grads = [None] * len(params)
        for k in range(terms):
            for p in params:
                p.zero_grad()
            single = pair_interaction_logits(hp, hd, li, ri, extra[k], mlp)
            single.backward(seed_grad[k])
            expected_logits.append(single.data)
            expected_grads = [
                p.grad if total is None else total + p.grad
                for total, p in zip(expected_grads, params)
            ]
        for p in params:
            p.zero_grad()

        fused = pair_interaction_logits(hp, hd, li, ri, extra, mlp)
        assert fused.shape == (terms, rows)
        np.testing.assert_array_equal(fused.data, np.stack(expected_logits))
        fused.backward(seed_grad)
        for p, expected in zip(params[2:], expected_grads[2:]):
            np.testing.assert_array_equal(p.grad, expected)
        for p, expected in zip(params[:2], expected_grads[:2]):
            np.testing.assert_allclose(
                p.grad, expected, rtol=0, atol=1e-12 * np.abs(expected).max()
            )

    @pytest.mark.parametrize("extra_shape,right_rows", [
        ((4,), 3), ((2, 4), 3), ((2, 2), 3), ((3,), 2), ((2, 3, 1), 3),
    ])
    def test_pair_interaction_logits_rejects_mismatched_rows(
        self, rng, extra_shape, right_rows
    ):
        from repro.nn import MLP
        from repro.nn.fused import pair_interaction_logits

        h = 4
        mlp = MLP([h + 1, h, 1], rng, activation="relu")
        hp = Tensor(rng.normal(size=(20, h)))
        hd = Tensor(rng.normal(size=(6, h)))
        li = np.array([0, 19, 3])
        ri = np.array([5, 0, 2])[:right_rows]
        with pytest.raises(ValueError):
            pair_interaction_logits(hp, hd, li, ri, np.zeros(extra_shape), mlp)

    def test_pair_interaction_logits_workspace_footprint(self, rng):
        """A 2-term step leaves 5 buffers in the caller's workspace (hl,
        hr, zc and one hidden activation per term), and the next step
        reuses them."""
        from repro.nn import MLP, fused

        rows, h = 4000, 16
        mlp = MLP([h + 1, h, 1], rng, activation="relu")
        hp = Tensor(rng.normal(size=(50, h)), requires_grad=True)
        hd = Tensor(rng.normal(size=(10, h)), requires_grad=True)
        li = rng.integers(0, 50, size=rows)
        ri = rng.integers(0, 10, size=rows)
        extra = rng.integers(0, 2, size=(2, rows)).astype(float)
        workspace = {}

        def step():
            out = fused.pair_interaction_logits(
                hp, hd, li, ri, extra, mlp, workspace=workspace
            )
            out.backward(np.ones((2, rows)))

        def addresses():
            return sorted(buf.ctypes.data for buf in workspace.values())

        five_buffers = 8 * rows * (4 * h + (h + 1))
        step()
        first_bytes = sum(buf.nbytes for buf in workspace.values())
        first_buffers = addresses()
        assert len(workspace) <= 5 and 0 < first_bytes <= five_buffers
        step()
        assert sum(buf.nbytes for buf in workspace.values()) == first_bytes
        assert addresses() == first_buffers

    def test_pair_interaction_logits_live_nodes_share_workspace(self, rng):
        """Two live nodes on one workspace (forward A, forward B, backward
        B, backward A) match two separate workspaces bitwise: the second
        node finds the dict empty and allocates its own buffers."""
        from repro.nn import MLP
        from repro.nn.fused import pair_interaction_logits

        rows, h = 300, 8
        mlp = MLP([h + 1, h, 1], rng, activation="relu")
        hp = Tensor(rng.normal(size=(20, h)), requires_grad=True)
        hd = Tensor(rng.normal(size=(6, h)), requires_grad=True)
        params = [hp, hd, *mlp.parameters()]
        calls = [
            (rng.integers(0, 20, size=rows), rng.integers(0, 6, size=rows),
             rng.integers(0, 2, size=(2, rows)).astype(float),
             rng.normal(size=(2, rows)))
            for _ in range(2)
        ]

        def run(workspaces):
            for p in params:
                p.zero_grad()
            a, b = (
                pair_interaction_logits(hp, hd, li, ri, extra, mlp, workspace=ws)
                for (li, ri, extra, _), ws in zip(calls, workspaces)
            )
            b.backward(calls[1][3])
            a.backward(calls[0][3])
            return [a.data, b.data] + [p.grad.copy() for p in params]

        shared = {}
        # Warm the shared dict so node A takes buffers out of it.
        run([shared, {}])
        got = run([shared, shared])
        expected = run([{}, {}])
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)

    @pytest.mark.parametrize("side,bad,extra_shape", [
        # 1-D extra keeps the plain "side-bad" ids; 2-D adds "-2d".
        pytest.param(side, bad, shape, id=f"{side}-{bad}{suffix}")
        for shape, suffix in (((3,), ""), ((2, 3), "-2d"))
        for side, bad in (("left", 20), ("left", -1), ("right", 6), ("right", -7))
    ])
    def test_pair_interaction_logits_rejects_out_of_range_rows(
        self, rng, side, bad, extra_shape
    ):
        from repro.nn import MLP
        from repro.nn.fused import pair_interaction_logits

        h = 4
        mlp = MLP([h + 1, h, 1], rng, activation="relu")
        hp = Tensor(rng.normal(size=(20, h)))
        hd = Tensor(rng.normal(size=(6, h)))
        li = np.array([0, 19, 3])
        ri = np.array([5, 0, 2])
        if side == "left":
            li[1] = bad
        else:
            ri[1] = bad
        with pytest.raises(IndexError):
            pair_interaction_logits(hp, hd, li, ri, np.zeros(extra_shape), mlp)

    def test_lightgcn_scan_matches_generic(self, rng, bipartite_graph, representation):
        from repro.gnn import LightGCNPropagation, default_layer_weights
        from repro.nn import matmul_fixed

        with representation("dense"):
            p2d, d2p = bipartite_graph.normalized_adjacency()
        num_layers = 3
        weights = default_layer_weights(num_layers)
        prop = LightGCNPropagation(num_layers, weights)
        hp = Tensor(rng.normal(size=(p2d.shape[0], 5)), requires_grad=True)
        hd = Tensor(rng.normal(size=(p2d.shape[1], 5)), requires_grad=True)

        out_p, out_d = prop(hp, hd, p2d, d2p)
        ((out_p * out_p).sum() + (out_d * out_d).sum()).backward()
        scan_grads = (hp.grad.copy(), hd.grad.copy())
        hp.zero_grad(); hd.zero_grad()

        # op-by-op reference
        pc = hp * weights[0]
        dc = hd * weights[0]
        cur_p, cur_d = hp, hd
        for t in range(1, num_layers + 1):
            cur_p, cur_d = matmul_fixed(p2d, cur_d), matmul_fixed(d2p, cur_p)
            pc = pc + cur_p * weights[t]
            dc = dc + cur_d * weights[t]
        np.testing.assert_array_equal(out_p.data, pc.data)
        np.testing.assert_array_equal(out_d.data, dc.data)
        ((pc * pc).sum() + (dc * dc).sum()).backward()
        np.testing.assert_allclose(scan_grads[0], hp.grad, atol=ATOL)
        np.testing.assert_allclose(scan_grads[1], hd.grad, atol=ATOL)

    def test_scatter_add_rows_matches_add_at(self, rng):
        index = rng.integers(0, 50, size=6000)
        values = rng.normal(size=(6000, 4))
        expected = np.zeros((50, 4))
        np.add.at(expected, index, values)
        got = sparse_backend.scatter_add_rows(index, values, 50)
        np.testing.assert_array_equal(got, expected)  # bitwise: same order


def _small_cohort(rng, m=36, n=14):
    x = rng.normal(size=(m, 6))
    y = (rng.random((m, n)) < 0.25).astype(np.int64)
    y[np.arange(m), rng.integers(0, n, size=m)] = 1  # no empty patients
    graph = SignedGraph(n)
    pairs = {
        (int(u), int(v)) for u, v in rng.integers(0, n, size=(25, 2)) if u != v
    }
    for i, (u, v) in enumerate(sorted(pairs)):
        graph.add_edge(u, v, 1 if i % 2 == 0 else -1)
    return x, y, np.eye(n), graph


class TestEndToEndEquivalence:
    @pytest.fixture(scope="class")
    def fitted_dense(self, representation):
        rng = np.random.default_rng(3)
        x, y, z, graph = _small_cohort(rng)
        cfg = MDGCNConfig(
            epochs=25, hidden_dim=16, use_counterfactual=False, num_clusters=4,
        )
        module = MDModule(cfg)
        with representation("dense"):
            module.fit(x, y, z, graph, None)
            module.predict_scores(x[:1])  # builds the post-fit caches dense
        return module, x, graph

    def test_md_predict_scores_across_backends(self, fitted_dense, representation):
        module, x, graph = fitted_dense
        state = module.export_state()
        with representation("sparse"):
            rebuilt = MDModule.from_state(module.config, state, graph)
            rebuilt_scores = rebuilt.predict_scores(x[:9])
            rebuilt_treatment = rebuilt.treatment_for(x[:9])
        assert sparse_backend.is_sparse(rebuilt._p2d)
        np.testing.assert_allclose(
            rebuilt_scores, module.predict_scores(x[:9]), atol=ATOL
        )
        np.testing.assert_array_equal(rebuilt_treatment, module.treatment_for(x[:9]))

    def test_treatment_factors_cached_and_sparse(self, fitted_dense, representation):
        module, _x, graph = fitted_dense
        first = module._treatment_factors()
        assert module._treatment_factors() is first  # cached, not recomputed
        with representation("sparse"):
            rebuilt = MDModule.from_state(module.config, module.export_state(), graph)
            _, synergy = rebuilt._treatment_factors()
        assert sparse_backend.is_sparse(synergy)
        np.testing.assert_allclose(_dense(synergy), _dense(first[1]), atol=ATOL)

    def test_drug_representations_cached(self, fitted_dense):
        module, _x, _graph = fitted_dense
        cached = module._fitted_drug_reps()
        assert module._fitted_drug_reps() is cached
        np.testing.assert_array_equal(module.drug_representations(), cached)

    def test_batch_scorer_consumes_sparse_synergy(self, fitted_dense, representation):
        module, x, graph = fitted_dense
        with representation("sparse"):
            rebuilt = MDModule.from_state(module.config, module.export_state(), graph)
            scorer = BatchScorer.from_md_module(rebuilt)
        assert sparse_backend.is_sparse(scorer.synergy)
        np.testing.assert_allclose(
            scorer.scores(x[:9]), module.predict_scores(x[:9]), atol=ATOL
        )
        np.testing.assert_array_equal(
            scorer.treatment_for(x[:9]), module.treatment_for(x[:9])
        )

    @pytest.mark.parametrize("backbone", ["gin", "sgcn"])
    def test_ddi_fit_across_backends(self, backbone, representation):
        rng = np.random.default_rng(11)
        _x, _y, _z, graph = _small_cohort(rng, n=20)
        embeddings = {}
        for kind in ("dense", "sparse"):
            cfg = DDIGCNConfig(
                backbone=backbone, hidden_dim=8, num_layers=2, epochs=5,
                zero_edge_ratio=0.5,
            )
            module = DDIModule(cfg)
            with representation(kind):
                module.fit(graph)
            embeddings[kind] = module.drug_embeddings()
        np.testing.assert_allclose(
            embeddings["sparse"], embeddings["dense"], atol=ATOL
        )
