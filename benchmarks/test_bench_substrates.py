"""Micro-benchmarks of the substrates: data generation, graph algorithms,
autograd training throughput and the counterfactual construction."""

import numpy as np
import pytest

from repro.causal import build_counterfactual_links, build_treatment, suggest_gammas
from repro.data import generate_chronic_cohort, generate_ddi, generate_mimic
from repro.graph import closest_truss_community, steiner_tree, truss_decomposition
from repro.nn import Adam, MLP, Tensor, mse_loss


class TestDataGeneration:
    def test_bench_chronic_cohort_full_size(self, benchmark):
        cohort = benchmark.pedantic(
            lambda: generate_chronic_cohort(num_patients=4157, seed=11),
            rounds=1,
            iterations=1,
        )
        assert cohort.features.shape == (4157, 71)
        assert cohort.medications.shape == (4157, 86)

    def test_bench_ddi_generation(self, benchmark):
        data = benchmark(generate_ddi)
        assert len(data.synergy) == 97
        assert len(data.antagonism) == 243

    def test_bench_mimic_generation(self, benchmark):
        data = benchmark.pedantic(
            lambda: generate_mimic(num_patients=1000, seed=3), rounds=1, iterations=1
        )
        assert data.num_patients == 1000


class TestGraphAlgorithms:
    @pytest.fixture(scope="class")
    def ddi_unsigned(self):
        return generate_ddi(seed=7).graph.to_unsigned()

    def test_bench_truss_decomposition(self, benchmark, ddi_unsigned):
        truss = benchmark(truss_decomposition, ddi_unsigned)
        assert len(truss) == ddi_unsigned.num_edges

    def test_bench_steiner_tree(self, benchmark, ddi_unsigned):
        from repro.graph import connected_components

        comp = max(connected_components(ddi_unsigned), key=len)
        terminals = comp[:4]
        tree = benchmark(steiner_tree, ddi_unsigned, terminals)
        used = {n for e in tree.edges() for n in e}
        assert set(terminals) <= used

    def test_bench_ctc_query(self, benchmark, ddi_unsigned):
        from repro.graph import connected_components

        comp = max(connected_components(ddi_unsigned), key=len)
        query = comp[:3]
        truss = truss_decomposition(ddi_unsigned)
        result = benchmark(closest_truss_community, ddi_unsigned, truss, query, 60)
        assert result is not None
        assert set(query) <= set(result.nodes)


class TestAutogradThroughput:
    def test_bench_mlp_training_step(self, benchmark):
        rng = np.random.default_rng(0)
        mlp = MLP([64, 128, 64, 1], rng)
        optimizer = Adam(mlp.parameters(), lr=0.01)
        x = Tensor(rng.normal(size=(512, 64)))
        y = Tensor(rng.normal(size=(512, 1)))

        def step():
            optimizer.zero_grad()
            loss = mse_loss(mlp(x), y)
            loss.backward()
            optimizer.step()
            return loss.item()

        value = benchmark(step)
        assert np.isfinite(value)


class TestCounterfactualConstruction:
    # Raw medication rows as the treatment: nearly every row is distinct.
    def test_bench_cf_links_cohort_scale(self, benchmark):
        cohort = generate_chronic_cohort(num_patients=400, seed=2)
        x = cohort.features[:400]
        y = cohort.medications[:400]
        z = np.eye(86)
        treatment = (y > 0).astype(int)
        gamma_p, gamma_d = suggest_gammas(x, z, quantile=0.25)

        links = benchmark.pedantic(
            lambda: build_counterfactual_links(x, z, treatment, y, gamma_p, gamma_d),
            rounds=1,
            iterations=1,
        )
        assert 0.0 <= links.match_rate <= 1.0

    # The treatment MDModule.fit passes: cluster-propagated, so patients
    # share a handful of distinct rows.
    def test_bench_cf_links_cluster_treatment(self, benchmark):
        cohort = generate_chronic_cohort(num_patients=400, seed=2)
        x = cohort.features[:400]
        y = cohort.medications[:400]
        z = np.eye(86)
        treatment = build_treatment(x, y, cohort.ddi.graph, num_clusters=10).matrix
        gamma_p, gamma_d = suggest_gammas(x, z, quantile=0.25)

        links = benchmark.pedantic(
            lambda: build_counterfactual_links(x, z, treatment, y, gamma_p, gamma_d),
            rounds=1,
            iterations=1,
        )
        assert len(np.unique(treatment, axis=0)) <= 10
        assert 0.0 < links.match_rate < 1.0
