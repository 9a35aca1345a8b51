"""Ablation benchmarks for the design choices DESIGN.md calls out.

These are not paper tables; they probe the reproduction's own design
space: counterfactual loss weight delta, propagation depth (over-smoothing),
the zero-edge sampling ratio of DDIGCN, the SS alpha balance, and the
counterfactual gamma thresholds.
"""

import numpy as np
import pytest

from repro.causal import build_counterfactual_links, suggest_gammas
from repro.core import DSSDDI, DDIModule, DDIGCNConfig, MSConfig, MSModule
from repro.experiments import dssddi_config
from repro.metrics import cosine_similarity_matrix, ndcg_at_k, offdiagonal_mean


class TestDeltaSweep:
    """Counterfactual loss weight: delta = 0 recovers plain training."""

    @pytest.fixture(scope="class")
    def sweep(self, chronic_data, bench_scale):
        results = {}
        for delta in (0.0, 1.0, 4.0):
            cfg = dssddi_config(bench_scale, "sgcn")
            cfg.md.delta = delta
            cfg.md.epochs = 150
            cfg.ddi.epochs = 80
            system = DSSDDI(cfg)
            system.fit(chronic_data.x_train, chronic_data.y_train, chronic_data.cohort.ddi)
            scores = system.predict_scores(chronic_data.x_test)
            results[delta] = ndcg_at_k(scores, chronic_data.y_test, 6)
        return results

    def test_bench_delta_sweep(self, benchmark, sweep):
        benchmark.pedantic(lambda: sweep, rounds=1, iterations=1)
        assert len(sweep) == 3

    def test_all_deltas_learn(self, sweep):
        assert all(v > 0.15 for v in sweep.values()), sweep

    def test_moderate_delta_not_catastrophic(self, sweep):
        """delta=1 (paper default) must be within 25% of the sweep's best."""
        assert sweep[1.0] >= 0.75 * max(sweep.values())


class TestPropagationDepth:
    """Over-smoothing: deeper propagation -> more similar patient reps."""

    def test_bench_depth_oversmoothing(self, benchmark, chronic_data):
        from repro.gnn import LightGCNPropagation, bipartite_propagation
        from repro.graph import BipartiteGraph
        from repro.nn import Tensor

        y = chronic_data.y_train
        rng = np.random.default_rng(0)
        h_p = Tensor(rng.normal(size=(y.shape[0], 16)))
        h_d = Tensor(rng.normal(size=(y.shape[1], 16)))
        p2d, d2p = bipartite_propagation(BipartiteGraph.from_matrix(y))

        def sweep():
            sims = {}
            for depth in (1, 2, 4):
                weights = [0.0] * depth + [1.0]  # isolate the deepest layer
                prop = LightGCNPropagation(depth, weights)
                hp, _ = prop(h_p, h_d, p2d, d2p)
                sims[depth] = offdiagonal_mean(cosine_similarity_matrix(hp.numpy()))
            return sims

        sims = benchmark.pedantic(sweep, rounds=1, iterations=1)
        # Starting from independent random features (expected cosine ~ 0),
        # every additional propagation hop makes patients measurably more
        # similar — the over-smoothing Fig. 7 is about.
        assert sims[1] < sims[2] < sims[4], sims
        assert sims[4] > 0.2


class TestZeroEdgeRatio:
    """DDIGCN's sampled no-interaction edges: ratio 0 vs 1 vs 3."""

    def test_bench_zero_edge_sweep(self, benchmark, chronic_data):
        graph = chronic_data.cohort.ddi.graph

        def sweep():
            separations = {}
            for ratio in (0.0, 1.0, 3.0):
                cfg = DDIGCNConfig(
                    backbone="sgcn", hidden_dim=32, num_layers=2,
                    epochs=120, zero_edge_ratio=ratio,
                )
                module = DDIModule(cfg)
                module.fit(graph)
                syn = module.edge_scores(chronic_data.cohort.ddi.synergy)
                ant = module.edge_scores(chronic_data.cohort.ddi.antagonism)
                separations[ratio] = float(syn.mean() - ant.mean())
            return separations

        separations = benchmark.pedantic(sweep, rounds=1, iterations=1)
        # Sign separation must be positive at every ratio.
        assert all(v > 0 for v in separations.values()), separations


class TestAlphaBalance:
    """SS alpha: higher alpha weights internal synergy more."""

    def test_bench_alpha_sweep(self, benchmark, chronic_data):
        graph = chronic_data.cohort.ddi.graph
        synergy_pair = list(chronic_data.cohort.ddi.synergy[0])
        antagonism_pair = list(chronic_data.cohort.ddi.antagonism[0])

        def sweep():
            gaps = {}
            for alpha in (0.25, 0.5, 0.75):
                module = MSModule(graph, MSConfig(alpha=alpha))
                syn = module.explain(synergy_pair).satisfaction.value
                ant = module.explain(antagonism_pair).satisfaction.value
                gaps[alpha] = syn - ant
            return gaps

        gaps = benchmark.pedantic(sweep, rounds=1, iterations=1)
        # alpha weights the internal-synergy term: the synergy-vs-antagonism
        # gap must grow with alpha and be positive once the internal term
        # dominates (alpha >= 0.5).  At low alpha the avoided-antagonist
        # context term can legitimately favour either pair.
        assert gaps[0.75] > gaps[0.5] > gaps[0.25]
        assert gaps[0.5] > 0 and gaps[0.75] > 0


class TestGammaThresholds:
    """Counterfactual matching radius: larger gammas -> higher match rate."""

    def test_bench_gamma_sweep(self, benchmark, chronic_data):
        x = chronic_data.x_train[:100]
        y = chronic_data.y_train[:100]
        z = np.eye(y.shape[1])
        treatment = (y > 0).astype(int)

        def sweep():
            rates = {}
            base_p, base_d = suggest_gammas(x, z, quantile=0.25)
            for factor in (0.5, 1.0, 2.0):
                links = build_counterfactual_links(
                    x, z, treatment, y, base_p * factor, base_d * factor
                )
                rates[factor] = links.match_rate
            return rates

        rates = benchmark.pedantic(sweep, rounds=1, iterations=1)
        assert rates[0.5] <= rates[1.0] <= rates[2.0]


class TestDDIAwareReranking:
    """Extension ablation: greedy DDI-aware top-k vs plain top-k.

    The decision-layer re-ranker must strictly reduce antagonistic pairs
    inside suggestions while keeping the ranking metrics close — the
    safety/accuracy trade-off the paper's MS module surfaces to doctors.
    """

    def test_bench_rerank_tradeoff(self, benchmark, chronic_data, bench_scale):
        from repro.core import DSSDDI, RerankConfig, antagonism_count, rerank_topk
        from repro.experiments import dssddi_config
        from repro.metrics import top_k_indices

        cfg = dssddi_config(bench_scale, "sgcn")
        cfg.md.epochs = 150
        cfg.ddi.epochs = 80
        system = DSSDDI(cfg)
        system.fit(chronic_data.x_train, chronic_data.y_train, chronic_data.cohort.ddi)
        scores = system.predict_scores(chronic_data.x_test)
        graph = chronic_data.cohort.ddi.graph

        def run():
            plain = top_k_indices(scores, 5)
            hard = rerank_topk(
                scores, graph, 5,
                RerankConfig(antagonism_penalty=1.0, hard_exclude=True),
            )
            plain_conflicts = sum(antagonism_count(r, graph) for r in plain)
            hard_conflicts = sum(antagonism_count(r, graph) for r in hard)
            overlap = np.mean([
                len(set(p) & set(h)) / 5.0 for p, h in zip(plain, hard)
            ])
            return plain_conflicts, hard_conflicts, overlap

        plain_conflicts, hard_conflicts, overlap = benchmark.pedantic(
            run, rounds=1, iterations=1
        )
        assert hard_conflicts <= plain_conflicts
        assert overlap > 0.6  # the reranked lists stay close to the originals
