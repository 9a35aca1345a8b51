"""Tests for the DDI, MD and MS modules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DDIGCNConfig,
    DDIModule,
    DSSDDIConfig,
    MDGCNConfig,
    MDModule,
    MSConfig,
    MSModule,
)
from repro.data import generate_chronic_cohort, generate_ddi, standardize_features
from repro.graph import SignedGraph, closest_truss_community, truss_decomposition
from repro.metrics import SatisfactionBreakdown


@pytest.fixture(scope="module")
def small_ddi():
    return generate_ddi(seed=1, num_synergy=15, num_antagonism=25, num_drugs=30)


@pytest.fixture(scope="module")
def tiny_cohort():
    return generate_chronic_cohort(num_patients=120, seed=11)


def quick_ddi_config(backbone="sgcn"):
    return DDIGCNConfig(backbone=backbone, hidden_dim=16, num_layers=2, epochs=40)


class TestConfigs:
    def test_defaults_match_paper(self):
        cfg = DSSDDIConfig()
        assert cfg.ddi.learning_rate == 0.001
        assert cfg.md.learning_rate == 0.01
        assert cfg.ddi.epochs == 400
        assert cfg.md.epochs == 1000
        assert cfg.ddi.num_layers == 3
        assert cfg.md.num_layers == 2
        assert cfg.md.delta == 1.0
        assert cfg.ddi.hidden_dim == cfg.md.hidden_dim == 64

    def test_invalid_backbone(self):
        with pytest.raises(ValueError):
            DDIGCNConfig(backbone="gat").validate()

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            MDGCNConfig(drug_embedding_mode="magic").validate()

    def test_mismatched_hidden_dims_allowed(self):
        """The DDI adapter projects any embedding dim into the MD space."""
        cfg = DSSDDIConfig()
        cfg.ddi.hidden_dim = 32
        cfg.validate()

    def test_ms_alpha_bounds(self):
        with pytest.raises(ValueError):
            MSConfig(alpha=1.0).validate()

    def test_fast_config_valid(self):
        DSSDDIConfig.fast().validate()


class TestDDIModule:
    @pytest.mark.parametrize("backbone", ["gin", "sgcn", "sigat", "snea"])
    def test_all_backbones_train(self, small_ddi, backbone):
        cfg = DDIGCNConfig(
            backbone=backbone, hidden_dim=16, num_layers=2, epochs=25
        )
        module = DDIModule(cfg)
        log = module.fit(small_ddi.graph)
        assert len(log.losses) == 25
        emb = module.drug_embeddings()
        assert emb.shape == (30, 16)
        assert np.isfinite(emb).all()

    def test_loss_decreases(self, small_ddi):
        module = DDIModule(quick_ddi_config())
        log = module.fit(small_ddi.graph)
        assert log.final_loss < log.losses[0]

    def test_embeddings_separate_signs(self, small_ddi):
        """Synergistic pairs must score higher than antagonistic pairs."""
        cfg = DDIGCNConfig(backbone="sgcn", hidden_dim=32, num_layers=2, epochs=150)
        module = DDIModule(cfg)
        module.fit(small_ddi.graph)
        syn_scores = module.edge_scores(small_ddi.synergy)
        ant_scores = module.edge_scores(small_ddi.antagonism)
        assert syn_scores.mean() > ant_scores.mean()

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            DDIModule(quick_ddi_config()).drug_embeddings()

    def test_zero_edge_ratio_zero(self, small_ddi):
        cfg = quick_ddi_config()
        cfg.zero_edge_ratio = 0.0
        module = DDIModule(cfg)
        module.fit(small_ddi.graph)
        assert len(module._graph.edges_of_sign(0)) == 0

    def test_deterministic(self, small_ddi):
        a = DDIModule(quick_ddi_config())
        b = DDIModule(quick_ddi_config())
        a.fit(small_ddi.graph)
        b.fit(small_ddi.graph)
        assert np.allclose(a.drug_embeddings(), b.drug_embeddings())


class TestMDModule:
    def _fit(self, cohort, use_cf=True, ddi_emb=True, epochs=60):
        x = standardize_features(cohort.features)
        n = cohort.num_drugs
        cfg = MDGCNConfig(hidden_dim=16, epochs=epochs, use_counterfactual=use_cf)
        module = MDModule(cfg)
        rng = np.random.default_rng(0)
        embeddings = rng.normal(size=(n, 16)) if ddi_emb else None
        log = module.fit(
            x[:80],
            cohort.medications[:80],
            np.eye(n),
            cohort.ddi.graph,
            embeddings,
            num_clusters=5,
        )
        return module, log, x

    def test_training_reduces_loss(self, tiny_cohort):
        _module, log, _x = self._fit(tiny_cohort)
        assert log.final_loss < log.factual_losses[0]

    def test_scores_shape_and_range(self, tiny_cohort):
        module, _log, x = self._fit(tiny_cohort)
        scores = module.predict_scores(x[80:])
        assert scores.shape == (40, tiny_cohort.num_drugs)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_beats_random_ranking(self, tiny_cohort):
        from repro.metrics import recall_at_k

        module, _log, x = self._fit(tiny_cohort, epochs=150)
        scores = module.predict_scores(x[80:])
        labels = tiny_cohort.medications[80:]
        rng = np.random.default_rng(0)
        random_scores = rng.random(scores.shape)
        assert recall_at_k(scores, labels, 5) > 2 * recall_at_k(
            random_scores, labels, 5
        )

    def test_without_counterfactual(self, tiny_cohort):
        _module, log, _x = self._fit(tiny_cohort, use_cf=False)
        assert all(l == 0.0 for l in log.counterfactual_losses)
        assert log.cf_match_rate == 0.0

    def test_generic_decode_fallback_matches_fused(self, tiny_cohort, monkeypatch):
        """Forcing the op-by-op decoder (one term at a time) trains to the
        same losses as the fused node that decodes T and T^CF together."""
        _module, fused_log, _x = self._fit(tiny_cohort, epochs=5)
        monkeypatch.setattr("repro.core.md_module.can_fuse_pair_mlp", lambda mlp: False)
        _module, generic_log, _x = self._fit(tiny_cohort, epochs=5)
        np.testing.assert_allclose(
            generic_log.factual_losses, fused_log.factual_losses, rtol=1e-9
        )
        np.testing.assert_allclose(
            generic_log.counterfactual_losses, fused_log.counterfactual_losses,
            rtol=1e-9,
        )
        assert fused_log.counterfactual_losses[-1] > 0.0

    def test_without_ddi_embeddings(self, tiny_cohort):
        module, _log, x = self._fit(tiny_cohort, ddi_emb=False)
        assert module.predict_scores(x[80:]).shape == (40, tiny_cohort.num_drugs)

    def test_treatment_for_unobserved(self, tiny_cohort):
        module, _log, x = self._fit(tiny_cohort)
        treatment = module.treatment_for(x[80:])
        assert treatment.shape == (40, tiny_cohort.num_drugs)
        assert set(np.unique(treatment)) <= {0, 1}

    def test_treatment_includes_synergy_propagation(self, tiny_cohort):
        """treatment_for = cluster exposure expanded one synergy hop."""
        module, _log, x = self._fit(tiny_cohort)
        treatment = module.treatment_for(x[80:])
        graph = tiny_cohort.ddi.graph
        n = tiny_cohort.num_drugs
        # Reconstruct the cluster-exposure stage from the fitted internals.
        clusters = module._kmeans.predict(x[80:])
        cluster_drugs = np.zeros((module._kmeans.centers.shape[0], n), dtype=int)
        for c in range(module._kmeans.centers.shape[0]):
            members = module._kmeans.labels == c
            if members.any():
                cluster_drugs[c] = module._y_train[members].max(axis=0)
        base = cluster_drugs[clusters]
        synergy = np.zeros((n, n))
        for u, v, sign in graph.edges_with_signs():
            if sign == 1:
                synergy[u, v] = synergy[v, u] = 1.0
        expected = np.maximum(base, (base @ synergy > 0).astype(int))
        assert np.array_equal(treatment, expected)

    def test_patient_representations_differ(self, tiny_cohort):
        """Patient reps (pre-propagation) must not be over-smoothed."""
        from repro.metrics import cosine_similarity_matrix, offdiagonal_mean

        module, _log, x = self._fit(tiny_cohort)
        reps = module.patient_representations(x[80:])
        sim = offdiagonal_mean(cosine_similarity_matrix(reps))
        assert sim < 0.9997

    def test_drug_representations_shape(self, tiny_cohort):
        module, _log, _x = self._fit(tiny_cohort)
        assert module.drug_representations().shape == (tiny_cohort.num_drugs, 16)

    def test_validation_errors(self, tiny_cohort):
        x = standardize_features(tiny_cohort.features)
        module = MDModule(MDGCNConfig(hidden_dim=8, epochs=2))
        with pytest.raises(ValueError):
            module.fit(
                x[:10],
                tiny_cohort.medications[:20],
                np.eye(86),
                tiny_cohort.ddi.graph,
                None,
            )
        with pytest.raises(ValueError):
            module.fit(
                x[:10],
                tiny_cohort.medications[:10],
                np.eye(40),
                tiny_cohort.ddi.graph,
                None,
            )
        with pytest.raises(ValueError):
            # ddi embedding rows must match the drug count
            module.fit(
                x[:10],
                tiny_cohort.medications[:10],
                np.eye(86),
                tiny_cohort.ddi.graph,
                np.zeros((40, 16)),
            )

    def test_scoring_mid_fit_does_not_freeze_drug_reps(self, tiny_cohort):
        """A callback that scores at epoch 1 of 4 leaves the fit unchanged."""
        from repro.train import Callback

        x = standardize_features(tiny_cohort.features)

        def fit(module, callbacks=()):
            module.fit(
                x[:80], tiny_cohort.medications[:80], np.eye(tiny_cohort.num_drugs),
                tiny_cohort.ddi.graph, None, num_clusters=5, callbacks=callbacks,
            )
            return module

        class ScoreAtEpochOne(Callback):
            def on_epoch_end(self, state):
                if state.epoch == 1:
                    scoring.predict_scores(x[80:])

        plain = fit(MDModule(MDGCNConfig(hidden_dim=16, epochs=4)))
        scoring = MDModule(MDGCNConfig(hidden_dim=16, epochs=4))
        fit(scoring, [ScoreAtEpochOne()])
        for name, value in plain.export_state().items():
            assert np.array_equal(scoring.export_state()[name], value), name
        assert np.array_equal(
            scoring.predict_scores(x[80:]).view(np.int64),
            plain.predict_scores(x[80:]).view(np.int64),
        )

    def test_fit_frees_its_decode_workspace(self):
        """Once the module is dropped, traced memory is back within 1 MB
        of where the fit started: the fused decode's buffers (several MB
        here) belong to the fit, not to a process-wide pool."""
        import gc
        import tracemalloc

        cohort = generate_chronic_cohort(num_patients=400, seed=3)
        x = standardize_features(cohort.features)

        def fit(patients):
            MDModule(MDGCNConfig(hidden_dim=32, epochs=2)).fit(
                x[:patients], cohort.medications[:patients],
                np.eye(cohort.num_drugs), cohort.ddi.graph, None, num_clusters=5,
            )

        fit(100)  # one-time imports and caches, at other decode shapes
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fit(len(x))
            gc.collect()
            end, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = 2 * int(cohort.medications.sum())  # 1:1 negative sampling
        workspace = 8 * rows * (4 * 32 + 33)      # hl, hr, zc, r0, r1
        assert workspace > 2 << 20 and peak - start > workspace
        assert end - start < 1 << 20

    def test_requires_fit(self):
        module = MDModule(MDGCNConfig(hidden_dim=8, epochs=2))
        with pytest.raises(RuntimeError):
            module.predict_scores(np.zeros((1, 3)))


class TestMSModule:
    def test_explain_structure(self, small_ddi):
        module = MSModule(small_ddi.graph)
        suggested = [small_ddi.synergy[0][0], small_ddi.synergy[0][1]]
        explanation = module.explain(suggested)
        assert set(suggested) <= set(explanation.community)
        assert tuple(sorted(suggested)) in [
            tuple(sorted(p)) for p in explanation.synergy_within
        ]
        assert 0.0 <= explanation.satisfaction.value <= 1.0

    def test_antagonistic_suggestion_flagged(self, small_ddi):
        module = MSModule(small_ddi.graph)
        u, v = small_ddi.antagonism[0]
        explanation = module.explain([u, v])
        assert (min(u, v), max(u, v)) in [
            (min(a, b), max(a, b)) for a, b in explanation.antagonism_within
        ]

    def test_render_mentions_names(self, small_ddi):
        module = MSModule(small_ddi.graph)
        u, v = small_ddi.synergy[0]
        explanation = module.explain([u, v], drug_names={u: "DrugU", v: "DrugV"})
        text = explanation.render()
        assert "DrugU" in text and "DrugV" in text
        assert "Suggestion Satisfaction" in text

    def test_empty_suggestion_rejected(self, small_ddi):
        with pytest.raises(ValueError):
            MSModule(small_ddi.graph).explain([])

    def test_isolated_drug_explained(self):
        graph = SignedGraph(5)
        graph.add_edge(0, 1, 1)
        module = MSModule(graph)
        explanation = module.explain([4])
        assert explanation.community == [4]
        assert explanation.satisfaction.value > 0

    def test_synergy_scores_higher_ss_than_antagonism(self, small_ddi):
        module = MSModule(small_ddi.graph)
        syn = module.explain(list(small_ddi.synergy[0]))
        ant = module.explain(list(small_ddi.antagonism[0]))
        assert syn.satisfaction.value > ant.satisfaction.value


#: The paper-size DDI graph over the 86 chronic-disease drugs.
CHRONIC_DDI = generate_ddi().graph


def _split_in_halves(graph):
    """``graph`` without the edges between its lower and upper half of
    drugs: a query drawing from both halves has no community, so it takes
    the neighbour fallback (the chronic graph itself is connected)."""
    half = graph.num_nodes // 2
    split = SignedGraph(graph.num_nodes)
    for u, v, sign in graph.edges_with_signs():
        if (u < half) == (v < half):
            split.add_edge(u, v, sign)
    return split


SPLIT_CHRONIC_DDI = _split_in_halves(CHRONIC_DDI)


def _explain_reference(graph, suggested, alpha=0.5, size_budget=60):
    """Explanation lists and SS computed by two independent pair walks:
    one classifies the pairs, the other counts them for Eq. 19 (each with
    its own neighbour fallback for a disconnected suggestion)."""
    suggested = sorted(set(suggested))
    unsigned = graph.to_unsigned()
    community = closest_truss_community(
        unsigned, truss_decomposition(unsigned), suggested, size_budget
    )
    if community is None:
        members = set(suggested)
        for s in suggested:
            members.update(graph.neighbors(s))
        member_list = sorted(members)
    else:
        member_list = sorted(set(community.nodes) | set(suggested))
    suggested_set = set(suggested)
    lists = ([], [], [])
    for idx, u in enumerate(member_list):
        for v in member_list[idx + 1:]:
            sign = graph.sign_or_none(u, v)
            if sign is None or sign == 0:
                continue
            u_in, v_in = u in suggested_set, v in suggested_set
            if u_in and v_in:
                lists[0 if sign == 1 else 1].append((u, v))
            elif u_in != v_in and sign == -1:
                lists[2].append((u, v))

    k, n_prime = len(suggested), len(member_list)
    r_in_pos = r_in_neg = r_out_neg = 0
    for idx, u in enumerate(member_list):
        for v in member_list[idx + 1:]:
            sign = graph.sign_or_none(u, v)
            if sign is None or sign == 0:
                continue
            u_in, v_in = u in suggested_set, v in suggested_set
            if u_in and v_in:
                if sign == 1:
                    r_in_pos += 1
                else:
                    r_in_neg += 1
            elif u_in != v_in and sign == -1:
                r_out_neg += 1
    synergy_term = 2.0 * (r_in_pos + 1) / ((r_in_neg + 1) * (k * (k - 1) + 2))
    antagonism_term = r_out_neg / (k * (n_prime - k)) if n_prime > k else 0.0
    breakdown = SatisfactionBreakdown(
        value=alpha * synergy_term + (1.0 - alpha) * antagonism_term,
        r_in_pos=r_in_pos, r_in_neg=r_in_neg, r_out_neg=r_out_neg,
        subgraph_nodes=n_prime, k=k,
    )
    return member_list, lists, breakdown


class TestExplanationPairWalk:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.integers(0, CHRONIC_DDI.num_nodes - 1), min_size=1, max_size=6
        ),
        st.sampled_from([0.3, 0.5, 0.8]),
        st.sampled_from([CHRONIC_DDI, SPLIT_CHRONIC_DDI]),
    )
    def test_one_walk_matches_two_walks_bitwise(self, suggested, alpha, graph):
        """``MSModule.explain`` classifies each pair once and derives SS from
        those counts; its lists (in order) and SS value equal the
        two-walk reference exactly, on the chronic DDI graph and on its
        split copy (disconnected queries)."""
        explanation = MSModule(graph, MSConfig(alpha=alpha)).explain(suggested)
        members, lists, breakdown = _explain_reference(graph, suggested, alpha)
        assert explanation.community == members
        assert explanation.synergy_within == lists[0]
        assert explanation.antagonism_within == lists[1]
        assert explanation.antagonism_avoided == lists[2]
        assert explanation.satisfaction == breakdown
